"""Plan producers: the ground-truth passthrough and a text-protocol client.

A planner turns a task into the operations/allocation/precedence triple.
The exchange format is plain text with three fenced sections so that a
remote language model can produce it; parsing is tolerant of surrounding
prose and collects problems into a validation report instead of raising.
A repeated section, allocation op id or precedence workpiece is such a
problem, and the first one is kept.
"""

from __future__ import annotations

import json
import math
import os
import re
from functools import cache
from pathlib import Path
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .errors import PlannerUnavailable
from .model import (
    SCENE,
    Allocation,
    Operation,
    OperationType,
    PrecedenceSet,
    Scene,
    TaskInstance,
    ValidationReport,
    validate_planner_output,
)

SECTION_NAMES = ("OPERATIONS", "ALLOCATION", "PRECEDENCE")

# A fence opens with ```NAME, optional spaces or tabs and a LF or CRLF line
# end. Body lines split on LF alone (an id may hold U+2028 or another break
# of splitlines); fields are stripped, so CRLF bodies parse as LF ones.
_FENCE_RE = re.compile(r"```(\w+)[ \t]*\r?\n(.*?)```", re.DOTALL)
_PLACEHOLDER_RE = re.compile(r"<<(SCENE|INSTRUCTION)>>")


class PlannerOutput(NamedTuple):
    """What came back from a planner: the parsed triple (a part is None
    when its section is missing), the raw text, and every problem found on
    the way. parse_planner_text, the one constructor, reports "no NAME
    section found" for each part it leaves None, so a clean report means
    all three parts are present."""

    operations: tuple[Operation, ...] | None
    allocation: Allocation | None
    precedence: PrecedenceSet | None
    raw: str
    report: ValidationReport

    @property
    def ok(self) -> bool:
        return self.report.ok


def render_planner_text(
    operations: Sequence[Operation],
    allocation: Allocation,
    precedence: PrecedenceSet,
) -> str:
    lines = ["```OPERATIONS"]
    for op in operations:
        fields = [op.id, op.op_type.value, op.workpiece, op.machine_1]
        if op.machine_2 is not None:
            fields.append(op.machine_2)
        lines.append(" | ".join(fields))
    lines.append("```")
    lines.append("")
    lines.append("```ALLOCATION")
    for op_id in sorted(allocation.by_op):
        lines.append(f"{op_id} | {allocation.by_op[op_id]}")
    lines.append("```")
    lines.append("")
    lines.append("```PRECEDENCE")
    for workpiece in sorted(precedence.chains):
        lines.append(f"{workpiece} | " + ", ".join(precedence.chains[workpiece]))
    lines.append("```")
    return "\n".join(lines) + "\n"


def _rows(
    body: str, kind: str, counts: tuple[int, ...], problems: list[str]
) -> Iterator[list[str]]:
    """The stripped '|'-separated fields of each non-blank line of a section
    body; a line with a field count not in counts becomes a violation."""
    for line in body.split("\n"):
        if not line.strip():
            continue
        fields = [field.strip() for field in line.split("|")]
        if len(fields) in counts:
            yield fields
        else:
            need = " or ".join(map(str, counts))
            problems.append(
                f"{kind} line needs {need} fields, got {len(fields)}: {line.strip()!r}"
            )


def _parse_operations(body: str, problems: list[str]) -> tuple[Operation, ...]:
    ops: list[Operation] = []
    for op_id, text, *places in _rows(body, "operation", (4, 5), problems):
        op_type = _OPERATION_TYPES.get(text)
        if op_type is None:
            problems.append(f"unknown operation type '{text}'")
        else:
            # places: workpiece, machine_1 and, on a five-field line, machine_2
            ops.append(Operation(op_id, op_type, *places))
    return tuple(ops)


# Each operation type by its text.
_OPERATION_TYPES = {member.value: member for member in OperationType}


def _keyed(body: str, kind: str, problems: list[str]) -> dict[str, str]:
    """A two-field section as a map from each line's first field to its
    second; a repeated first field is a violation, and its first line is
    kept."""
    table: dict[str, str] = {}
    for key, value in _rows(body, kind, (2,), problems):
        if key in table:
            problems.append(f"duplicate {kind} line for {key!r}; keeping the first")
        else:
            table[key] = value
    return table


def _parse_allocation(body: str, problems: list[str]) -> Allocation:
    return Allocation(by_op=_keyed(body, "allocation", problems))


def _parse_precedence(body: str, problems: list[str]) -> PrecedenceSet:
    return PrecedenceSet(
        chains={
            workpiece: tuple(p.strip() for p in chain.split(",") if p.strip())
            for workpiece, chain in _keyed(body, "precedence", problems).items()
        }
    )


# The parser of each section, in SECTION_NAMES order.
_PARSERS = (_parse_operations, _parse_allocation, _parse_precedence)


def parse_planner_text(text: str, scene: Scene) -> PlannerOutput:
    """Read the three fenced sections out of free-form text.

    Unreadable lines and missing sections become report violations, never
    exceptions; semantic validation runs only once all sections parsed.
    """
    problems: list[str] = []
    sections: dict[str, str] = {}
    for match in _FENCE_RE.finditer(text):
        name, body = match.group(1), match.group(2)
        if name not in SECTION_NAMES:
            continue
        if name in sections:
            problems.append(f"duplicate {name} section; keeping the first")
            continue
        sections[name] = body
    for name in SECTION_NAMES:
        if name not in sections:
            problems.append(f"no {name} section found")

    # the triple, each part None when its section is missing
    triple = [
        parse(sections[name], problems) if name in sections else None
        for name, parse in zip(SECTION_NAMES, _PARSERS)
    ]
    if None not in triple:
        semantic = validate_planner_output(*triple, scene)
        problems.extend(semantic.violations)
    report = ValidationReport(violations=tuple(problems))
    return PlannerOutput(*triple, raw=text, report=report)


# ---------------------------------------------------------------------------
# planners


class GroundTruthPlanner:
    """Echoes the task's stored plan through the text protocol, so the rest
    of the pipeline sees exactly what a perfect planner would produce."""

    def plan(self, task: TaskInstance) -> PlannerOutput:
        gt = task.ground_truth
        if gt is None:
            raise ValueError("task carries no ground truth to echo")
        text = render_planner_text(gt.operations, gt.allocation, gt.precedence)
        return parse_planner_text(text, task.scene)


class LlmConfig(NamedTuple):
    base_url: str
    model: str
    api_key: str | None = None
    timeout: float = 60.0


ENV_BASE_URL = "SHOPFLOOR_LLM_BASE_URL"
ENV_MODEL = "SHOPFLOOR_LLM_MODEL"
ENV_API_KEY = "SHOPFLOOR_LLM_API_KEY"
ENV_TIMEOUT = "SHOPFLOOR_LLM_TIMEOUT"


def config_from_env(environ: Mapping[str, str] = os.environ) -> LlmConfig:
    base_url = environ.get(ENV_BASE_URL)
    model = environ.get(ENV_MODEL)
    if not base_url or not model:
        raise PlannerUnavailable(
            f"set {ENV_BASE_URL} and {ENV_MODEL} to use a remote planner"
        )
    timeout_text = environ.get(ENV_TIMEOUT, "60")
    try:
        timeout = float(timeout_text)
        valid = math.isfinite(timeout) and timeout > 0
    except ValueError:
        valid = False
    if not valid:
        raise PlannerUnavailable(
            f"{ENV_TIMEOUT} must be a positive number of seconds, got {timeout_text!r}"
        )
    return LlmConfig(
        base_url=base_url.rstrip("/"),
        model=model,
        api_key=environ.get(ENV_API_KEY),
        timeout=timeout,
    )


@cache
def load_prompt_template() -> str:
    return (Path(__file__).parent / "data" / "planner_prompt.txt").read_text(encoding="utf-8")


def build_prompt(task: TaskInstance, template: str | None = None) -> str:
    """The template with its <<SCENE>> and <<INSTRUCTION>> placeholders
    filled in one pass, so a placeholder inside the scene or the
    instruction stays literal."""
    text = template if template is not None else load_prompt_template()
    values = {
        "SCENE": SCENE.serialize(task.scene),
        "INSTRUCTION": task.instruction,
    }
    return _PLACEHOLDER_RE.sub(lambda m: values[m[1]], text)


Transport = Callable[[LlmConfig, str], str]


def http_transport(config: LlmConfig, prompt: str) -> str:
    """One chat-completion POST; any transport, status or shape problem is
    a PlannerUnavailable. The HTTP modules are imported here, not with the
    module, so commands that never call a remote planner load none of them."""
    import http.client
    import urllib.error
    import urllib.request

    headers = {"Content-Type": "application/json"}
    if config.api_key:
        headers["Authorization"] = f"Bearer {config.api_key}"
    body = {"model": config.model, "messages": [{"role": "user", "content": prompt}]}
    try:
        request = urllib.request.Request(
            f"{config.base_url}/chat/completions", json.dumps(body).encode(), headers
        )
        if request.type not in ("http", "https"):
            raise PlannerUnavailable(
                f"planner endpoint unreachable: unsupported URL scheme {request.type!r}"
            )
        with urllib.request.urlopen(request, timeout=config.timeout) as response:
            status, reply = response.status, response.read()
    except urllib.error.HTTPError as exc:  # an OSError too, so caught first
        exc.close()
        status, reply = exc.code, b""
    except (OSError, ValueError, http.client.HTTPException) as exc:
        raise PlannerUnavailable(f"planner endpoint unreachable: {exc}") from None
    if status != 200:
        raise PlannerUnavailable(f"planner endpoint answered {status}")
    try:
        content = json.loads(reply)["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError):
        raise PlannerUnavailable("planner response had no message content") from None
    if not isinstance(content, str):
        raise PlannerUnavailable("planner response content was not text")
    return content


class RecordedTransport:
    """Replays canned responses in order and keeps the prompts it saw.
    Stands in for the network in tests and offline runs."""

    def __init__(self, responses: Sequence[str]):
        self._responses = list(responses)
        self.prompts: list[str] = []

    def __call__(self, config: LlmConfig, prompt: str) -> str:
        self.prompts.append(prompt)
        if not self._responses:
            raise PlannerUnavailable("no recorded response left to replay")
        return self._responses.pop(0)


class LlmPlanner:
    """Asks a chat-completion endpoint for the plan and parses its reply."""

    def __init__(
        self,
        config: LlmConfig,
        transport: Transport = http_transport,
        template: str | None = None,
    ):
        self.config = config
        self.transport = transport
        self.template = template

    def plan(self, task: TaskInstance) -> PlannerOutput:
        prompt = build_prompt(task, self.template)
        reply = self.transport(self.config, prompt)
        return parse_planner_text(reply, task.scene)
