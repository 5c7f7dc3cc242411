"""Extended disjunctive graph over a validated plan triple.

Vertices are the operations plus a source and a terminal. Conjunctive arcs
chain each workpiece's operations in precedence order, so the graph keeps
them as the chains themselves; to_dot alone adds the source and terminal.
Disjunctive arcs connect unordered pairs that compete for the same
exclusive machine or the same robot, one arc per shared resource. A
transport occupies both of its machines, so either end can collide. Pairs
already ordered by a workpiece chain get no disjunctive arc: the chain is a
total order on its workpiece, so only cross-workpiece pairs remain.

The graph derives, once, the two relations the solvers need: each
operation's chain predecessor (preds) and the operations it shares a
resource with (rivals). The graph stays undirected on its disjunctive arcs:
a schedule's start steps fix the order of every conflicting pair (see
solve.ScheduleGraph).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Literal, Sequence

from .errors import ValidationError
from .model import Allocation, Operation, PrecedenceSet, Scene

SOURCE = "__source__"
TERMINAL = "__terminal__"

_COLOR = {"machine": "firebrick", "robot": "steelblue"}


@dataclass(frozen=True, slots=True)
class DisjunctiveArc:
    """Undirected scheduling choice between two operations (a < b) that
    compete for one exclusive machine or one robot."""

    a: str
    b: str
    kind: Literal["machine", "robot"]
    resource: str


@dataclass(frozen=True)
class DisjunctiveGraph:
    """op_ids in plan order; chains one per workpiece in workpiece order,
    empty chains dropped; disjunctive the resource conflicts."""

    op_ids: tuple[str, ...]
    chains: tuple[tuple[str, ...], ...]
    disjunctive: frozenset[DisjunctiveArc]

    @cached_property
    def preds(self) -> dict[str, frozenset[str]]:
        """Each operation's chain predecessor (empty for a chain head)."""
        preds = dict.fromkeys(self.op_ids, frozenset())
        for chain in self.chains:
            for u, v in zip(chain, chain[1:]):
                preds[v] = frozenset((u,))
        return preds

    @cached_property
    def rivals(self) -> dict[str, frozenset[str]]:
        """The operations each operation shares a disjunctive arc with."""
        rivals: dict[str, list[str]] = {op: [] for op in self.op_ids}
        for arc in self.disjunctive:
            rivals[arc.a].append(arc.b)
            rivals[arc.b].append(arc.a)
        return {op: frozenset(others) for op, others in rivals.items()}


def build_graph(
    operations: Sequence[Operation],
    precedence: PrecedenceSet,
    allocation: Allocation,
    scene: Scene,
) -> DisjunctiveGraph:
    """Construct the graph for a plan triple that already passed validation.

    Raises ValidationError when the triple is too broken to form a graph
    (unknown ids in chains, reserved vertex names, missing allocation).
    """
    by_id = {op.id: op for op in operations}
    if len(by_id) != len(operations):
        raise ValidationError("operation ids must be unique to build a graph")
    for op in operations:
        if op.id in (SOURCE, TERMINAL):
            raise ValidationError(f"operation id '{op.id}' collides with a reserved vertex")

    chains: list[tuple[str, ...]] = []
    chained: set[str] = set()
    for w in sorted(precedence.chains):
        chain = precedence.chains[w]
        if not chain:
            continue
        for op_id in chain:
            if op_id not in by_id:
                raise ValidationError(f"chain of '{w}' references unknown operation '{op_id}'")
            if op_id in chained:
                raise ValidationError(f"operation '{op_id}' appears in more than one chain")
            chained.add(op_id)
        chains.append(tuple(chain))
    unchained = sorted(set(by_id) - chained)
    if unchained:
        raise ValidationError(
            f"operations missing from every chain: {', '.join(unchained)}"
        )

    exclusive = {m.id for m in scene.machines if m.exclusive}
    users: dict[tuple[str, str], list[str]] = defaultdict(list)
    for op in operations:
        for m in op.machines_used():
            if m in exclusive:
                users["machine", m].append(op.id)
        robot = allocation.robot_for(op.id)
        if robot is None:
            raise ValidationError(f"operation '{op.id}' has no allocated robot")
        users["robot", robot].append(op.id)

    # Ops of one workpiece are totally ordered by its chain, so a disjunctive
    # arc would duplicate a conjunctive ordering; only cross-workpiece pairs count.
    arcs: set[DisjunctiveArc] = set()
    for (kind, resource), ops in users.items():
        for i, a in enumerate(ops):
            workpiece = by_id[a].workpiece
            for b in ops[i + 1:]:
                if by_id[b].workpiece != workpiece:
                    u, v = (a, b) if a < b else (b, a)
                    arcs.add(DisjunctiveArc(u, v, kind, resource))

    return DisjunctiveGraph(
        op_ids=tuple(op.id for op in operations),
        chains=tuple(chains),
        disjunctive=frozenset(arcs),
    )


def to_dot(graph: DisjunctiveGraph) -> str:
    """GraphViz rendering: conjunctive arcs solid and directed, disjunctive
    arcs dashed and labeled with the contended resource."""
    lines = ["digraph plan {", "  rankdir=LR;"]
    lines.append(f'  "{SOURCE}" [label="source", shape=circle];')
    lines.append(f'  "{TERMINAL}" [label="terminal", shape=doublecircle];')
    for op_id in graph.op_ids:
        lines.append(f'  "{op_id}" [shape=box];')
    for chain in graph.chains:
        path = (SOURCE, *chain, TERMINAL)
        for u, v in zip(path, path[1:]):
            lines.append(f'  "{u}" -> "{v}";')
    for arc in sorted(graph.disjunctive, key=lambda a: (a.kind, a.resource, a.a, a.b)):
        lines.append(
            f'  "{arc.a}" -> "{arc.b}" [dir=none, style=dashed, color={_COLOR[arc.kind]}, '
            f'label="{arc.kind} {arc.resource}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
