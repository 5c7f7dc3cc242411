"""The base of the classes that build state when constructed."""

from operator import attrgetter


class Value:
    """A subclass names its constructor's parameters in _fields, as a named
    tuple does, and is equal, hashed and shown by those alone. Its __slots__
    hold them and the state built from them once, in __init__."""

    __slots__ = ()
    _field_defaults: dict = {}  # no parameter has a default

    def __init_subclass__(cls) -> None:
        cls._values = property(attrgetter(*cls._fields))

    def __eq__(self, other: object) -> bool:
        return self._values == other._values if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"
