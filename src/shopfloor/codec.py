"""Strict-JSON codec combinators and the package's one JSON layout.

Each file format is declared once, as a codec built from the combinators
here (STR, INT, BOOL, EnumOf, ArrayOf, MapOf, Wrap, Record); model declares
the task, scene, plan, program and schedule record with them, tree and
executor the process tree and the trace line. A Record or Wrap takes its
keys from its class's _fields and _field_defaults, so a record's fields are
written only in the class.

A codec's load rejects every shape fault with a ParseError naming its path;
the path is built only on failure, as the fault unwinds through the
enclosing levels. A Record reads an object whose keys, and the exact JSON
types of whose values, match its declaration all at once; every other
shape goes to the field-by-field read, which names the fault.

Serialization is canonical: fixed key order, sorted collections where
order carries no meaning, two-space indent, trailing newline.
Re-serializing a parsed document always reproduces it byte for byte.
Codecs render typed values straight to text and _render renders plain ones
(model.canonical_json), all in one layout (_layout) whose bytes equal
json.dumps(data, indent=2, ensure_ascii=False) plus a newline, or
json.dumps(data, ensure_ascii=False) for the one line of a trace step,
without the stdlib's Python encoder.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from json.encoder import encode_basestring as _quote
from operator import attrgetter, itemgetter, length_hint
from typing import Any, Callable, Collection, Mapping, NoReturn

from .errors import ParseError


@lru_cache(maxsize=64)
def _layout(newline: str) -> tuple[str, str]:
    """(inner, separator) of a container rendered after newline: the opening
    bracket, inner, the items joined by separator, newline, the closing
    bracket; the brackets alone when empty. inner is two spaces deeper; in
    the one-line layout (newline "") it is "" and separator is ", "."""
    inner = newline and newline + "  "
    return inner, "," + (inner or " ")


def _render(value: Any, newline: str) -> str:
    """A plain value in the canonical layout; newline is "\\n" plus the
    indent of the line value starts on, or "" for the one-line layout."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is dict:
        return _PLAIN_OBJECT.render(value, newline)
    if kind is list or kind is tuple:
        return _PLAIN_ARRAY.render(value, newline)
    if kind is int:
        return int.__repr__(value)
    if kind is float:
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# Strict JSON codecs
#
# A codec's render(value, newline) writes value's text straight from the
# typed value, in the layout of _layout; load(data, path) checks data and
# builds the value, raising ParseError with the path of the offending
# element. Records check missing keys first, then unknown keys.


class _Fault(Exception):
    """A shape fault found by a codec's read. Each enclosing level appends
    its own segment (".key", "[i]") to segments as the fault unwinds, so
    the path is built only on failure."""

    def __init__(self, message: str) -> None:
        self.message = message
        self.segments: list[str] = []


def _fail(message: str) -> NoReturn:
    raise _Fault(message)


def _object(data: Any) -> dict:
    if not isinstance(data, dict):
        _fail(f"expected an object, got {type(data).__name__}")
    return data


class Codec:
    """A strict-JSON format: render(value, newline) writes value's text, as
    _render does (a container's is a closure over its items' render), and
    read(data) checks and builds without a path, raising _Fault.

    json is the exact type of the JSON value of every valid document. A
    Record's whole-object read keeps a Scalar's value as it is and reads
    any other with take, read(data) for data of type json without the
    type check, where the codec has one (it may raise KeyError where read
    raises _Fault), else with read."""

    # The exact type of every value when the codec is a Scalar, else None.
    kind: type | None = None
    json: type
    take: Callable | None = None

    def serialize(self, value: Any) -> str:
        """value as a canonical document, ended by a newline."""
        return self.render(value, "\n") + "\n"

    def load(self, data: Any, path: str) -> Any:
        """read(data); a shape fault raises ParseError naming its path."""
        try:
            return self.read(data)
        except _Fault as fault:
            raise ParseError(
                f"{path}{''.join(reversed(fault.segments))}: {fault.message}"
            ) from None


def _read_each(item: Codec, values: Collection[Any], segment: Callable[[int], str]) -> Any:
    """item.read of each of values, in order; a fault gets segment(i) for
    the position i of the value that raised it."""
    items = iter(values)
    try:
        return [*map(item.read, items)]
    except _Fault as fault:
        # the iterator has yielded every value up to the one that raised
        fault.segments.append(segment(len(values) - length_hint(items) - 1))
        raise


class Scalar(Codec):
    """A JSON string, integer or boolean. The type must match exactly, so a
    boolean is not an integer. A value renders as in canonical_json, so one
    of another type renders or raises by its own type."""

    def __init__(self, kind: type, noun: str) -> None:
        self.kind = self.json = kind
        self.noun = noun

    render = staticmethod(_render)

    def read(self, data: Any) -> Any:
        if type(data) is not self.kind:
            _fail(f"expected {self.noun}, got {type(data).__name__}")
        return data


STR = Scalar(str, "a string")
INT = Scalar(int, "an integer")
BOOL = Scalar(bool, "a boolean")


class EnumOf(Codec):
    """An enum member stored as its value text; extra texts map to further
    values (the process tree's "general" node type is None)."""

    json = str

    def __init__(self, enum: type[Enum], noun: str, **extra: Any) -> None:
        self.noun = noun
        self.by_text = {member.value: member for member in enum} | extra
        self.take = self.by_text.__getitem__
        quoted = {value: _quote(text) for text, value in self.by_text.items()}
        self.render = lambda value, newline: quoted[value]

    def read(self, data: Any) -> Any:
        try:
            return self.by_text[STR.read(data)]
        except KeyError:
            _fail(f"unknown {self.noun} '{data}'")


_index_segment = "[{}]".format


class ArrayOf(Codec):
    """A JSON array; load passes the items to build, render lists them in
    the order that order(value) gives, or as they come when order is None."""

    json = list

    def __init__(self, item: Codec, build: Callable = tuple, order: Callable | None = None) -> None:
        self.item, self.build, self.order = item, build, order
        render_item, scalar = item.render, item.kind is not None

        def render(value, newline):
            if order is not None:
                value = order(value)
            inner, separator = _layout(newline)
            parts = [_quote(v) if scalar and type(v) is str else render_item(v, inner)
                     for v in value]
            return f"[{inner}{separator.join(parts)}{newline}]" if parts else "[]"
        self.render = render

    def read(self, data: Any) -> Any:
        # the items of a Scalar are checked all at once
        kind = self.item.kind
        if type(data) is list and kind is not None and set(map(type, data)) <= {kind}:
            return self.build(data)
        if not isinstance(data, list):
            _fail(f"expected an array, got {type(data).__name__}")
        return self.build(_read_each(self.item, data, _index_segment))


class MapOf(Codec):
    """A JSON object with free keys, rendered in the order that order(value)
    gives its keys, sorted by default."""

    json = dict

    def __init__(self, item: Codec, order: Callable = sorted) -> None:
        self.item = item
        render_item = item.render

        def render(value, newline):
            inner, separator = _layout(newline)
            # encode_basestring raises TypeError for a key that is not a str
            parts = [f"{_quote(k)}: {render_item(value[k], inner)}" for k in order(value)]
            return f"{{{inner}{separator.join(parts)}{newline}}}" if parts else "{}"
        self.render = render

    def read(self, data: Any) -> dict:
        kind = self.item.kind
        if type(data) is dict and kind is not None and set(map(type, data.values())) <= {kind}:
            return dict(data)
        obj = _object(data)
        return dict(zip(obj, _read_each(self.item, obj.values(), lambda i: f".{list(obj)[i]}")))


# Plain JSON containers, which _render renders; never read.
_PLAIN_ARRAY = ArrayOf(Scalar(object, "a JSON value"))
_PLAIN_OBJECT = MapOf(_PLAIN_ARRAY.item, order=iter)


class Wrap(Codec):
    """A type whose constructor takes one parameter (its _fields), stored as
    that parameter's value alone."""

    def __init__(self, cls: type, inner: Codec) -> None:
        params = cls._fields
        if len(params) != 1:
            raise TypeError(
                f"Wrap({cls.__name__}): the constructor takes {len(params)} parameters, not 1"
            )
        self.cls, self.attr, self.inner, self.json = cls, params[0], inner, inner.json
        render_inner, get = inner.render, attrgetter(self.attr)
        self.render = lambda value, newline: render_inner(get(value), newline)

    def read(self, data: Any) -> Any:
        return self.cls(self.inner.read(data))


class Record(Codec):
    """A JSON object with one key per parameter of cls's constructor (its
    _fields, with defaults in _field_defaults), rendered in that order and
    loaded into cls. codecs names each parameter's codec; keys maps a
    parameter to its key where the two differ. A parameter whose default is
    None is optional: its key may be missing, and render leaves it out
    while it is None. Codec names other than exactly the parameters raise
    TypeError when the Record is made.

    An object that holds every key, or, when the optional parameters come
    last, every required key and no other, is read whole: one itemgetter
    takes its values, one list comparison checks their exact JSON types,
    the containers and enums are taken, and cls is built positionally. Any
    other shape, a dict subclass, and a fault in a value go to the
    field-by-field read, which gives every value and message its own."""

    json = dict

    def __init__(self, cls: type, keys: Mapping[str, str] = {}, **codecs: Codec) -> None:
        params, defaults = cls._fields, cls._field_defaults
        missing = [name for name in params if name not in codecs]
        unknown = [name for name in (*codecs, *keys) if name not in params]
        if missing or unknown:
            raise TypeError(
                f"Record({cls.__name__}) takes one codec per constructor parameter; "
                f"missing: {', '.join(missing) or '-'}; unknown: {', '.join(unknown) or '-'}"
            )
        self.cls = cls
        # (key, codec, attribute, optional) of each parameter, in order
        fields = [(keys.get(name, name), codecs[name], name,
                   name in defaults and defaults[name] is None) for name in params]
        self.keys = frozenset(key for key, _, _, _ in fields)
        self.required = frozenset(key for key, _, _, optional in fields if not optional)
        self.reads = tuple((key, codec.read, attr) for key, codec, attr, _ in fields)
        # (values of its keys, their JSON types, (position, take) of each
        # value to take) of each whole-object shape of two keys or more, by
        # its key count. The types are a list: tuple() of a map, which has
        # no length hint, allocates ten slots and shrinks them, so each such
        # tuple lands on the free list of its final size, which then only
        # grows (0.2 MB more peak_rss_mb on perfbench's suite).
        self.shapes = {
            len(shape): (itemgetter(*[key for key, _, _, _ in shape]),
                         [codec.json for _, codec, _, _ in shape],
                         tuple((i, codec.take or codec.read)
                               for i, (_, codec, _, _) in enumerate(shape) if codec.kind is None))
            for shape in (fields, fields[:len(self.required)])
            if len(shape) > 1 and self.required <= {key for key, _, _, _ in shape}
        }
        renders = tuple(
            (f"{_quote(key)}: ", codec.render, attr, optional, codec.kind is not None)
            for key, codec, attr, optional in fields
        )

        def render(value, newline):
            inner, separator = _layout(newline)
            parts = [
                prefix + (_quote(item) if scalar and type(item) is str else render_item(item, inner))
                for prefix, render_item, attr, optional, scalar in renders
                if (item := getattr(value, attr)) is not None or not optional
            ]
            return f"{{{inner}{separator.join(parts)}{newline}}}" if parts else "{}"
        self.render = render

    def read(self, data: Any) -> Any:
        shape = self.shapes.get(len(data)) if type(data) is dict else None
        if shape is not None:
            get, kinds, takes = shape
            try:
                values = get(data)
                if [*map(type, values)] == kinds:
                    values = [*values]
                    for i, take in takes:
                        values[i] = take(values[i])
                    return self.cls(*values)
            except (KeyError, _Fault):
                pass  # the field-by-field read names the fault
        return self.read_by_field(data)

    def read_by_field(self, data: Any) -> Any:
        obj = _object(data)
        # most objects carry every key, which one comparison shows
        if obj.keys() != self.keys and not self.required <= obj.keys() <= self.keys:
            for key, _, _ in self.reads:
                if key in self.required and key not in obj:
                    _fail(f"missing required key '{key}'")
            _fail(f"unknown keys: {', '.join(sorted(obj.keys() - self.keys))}")
        reads = iter(self.reads)
        try:
            kwargs = {attr: read(obj[key]) for key, read, attr in reads if key in obj}
        except _Fault as fault:
            # the iterator has yielded every field up to the one that raised
            fault.segments.append(f".{self.reads[len(self.reads) - length_hint(reads) - 1][0]}")
            raise
        return self.cls(**kwargs)
