"""Extended disjunctive graph over a validated plan triple.

The triple must pass model.validate_planner_output, the one statement of
plan validity; build_graph assumes it and checks nothing again.

Vertices are the operations plus a source and a terminal. Conjunctive arcs
chain each workpiece's operations in precedence order, so the graph keeps
them as the chains themselves; to_dot alone adds the source and terminal.
Disjunctive arcs connect unordered pairs that compete for the same
exclusive machine or the same robot, one arc per shared resource. A
transport occupies both of its machines, so either end can collide. Pairs
already ordered by a workpiece chain get no disjunctive arc: the chain is a
total order on its workpiece, so only cross-workpiece pairs remain.

The graph stores each resource's users, not their pairs, which grow
with the square of the users. It builds each operation's chain
predecessor (preds) and held resources (held) when constructed, and
derives the arcs (disjunctive) each time they are read, which only to_dot
and tests do. It stays undirected on its disjunctive arcs: a schedule's
start steps fix the order of every conflicting pair.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations
from typing import Literal, Mapping, NamedTuple, Sequence

from .model import SOURCE, TERMINAL, Allocation, Operation, PrecedenceSet, Scene
from .value import Value

Resource = tuple[Literal["machine", "robot"], str]  # (kind, id) of a resource

_COLOR = {"machine": "firebrick", "robot": "steelblue"}


class DisjunctiveArc(NamedTuple):
    """Undirected scheduling choice between two operations (a < b) that
    compete for one exclusive machine or one robot."""

    a: str
    b: str
    kind: Literal["machine", "robot"]
    resource: str


class DisjunctiveGraph(Value):
    """op_ids and each resource's users in plan order; chains one per
    workpiece in workpiece order, empty chains dropped. Built with it: each
    operation's chain predecessor (preds, empty for a chain head) and the
    resources it occupies during its step (held)."""

    _fields = ("op_ids", "chains", "resources")
    __slots__ = (*_fields, "preds", "held")

    def __init__(self, op_ids: tuple[str, ...], chains: tuple[tuple[str, ...], ...],
                 resources: Mapping[Resource, tuple[str, ...]]) -> None:
        preds: dict[str, frozenset[str]] = dict.fromkeys(op_ids, frozenset())
        for chain in chains:
            for u, v in zip(chain, chain[1:]):
                preds[v] = frozenset((u,))
        held: dict[str, tuple[Resource, ...]] = dict.fromkeys(op_ids, ())
        for resource, users in resources.items():
            for op in users:
                held[op] += (resource,)
        self.op_ids, self.chains, self.resources = op_ids, chains, resources
        self.preds, self.held = preds, held

    @property
    def disjunctive(self) -> frozenset[DisjunctiveArc]:
        """One arc per resource for every cross-workpiece pair of its users,
        derived at each read."""
        workpiece = {op: i for i, chain in enumerate(self.chains) for op in chain}
        arcs: set[DisjunctiveArc] = set()
        for (kind, resource), users in self.resources.items():
            for a, b in combinations(users, 2):
                # Ops of one workpiece are totally ordered by its chain, so
                # an arc between them would duplicate that ordering.
                if workpiece[a] != workpiece[b]:
                    arcs.add(DisjunctiveArc(min(a, b), max(a, b), kind, resource))
        return frozenset(arcs)


def build_graph(
    operations: Sequence[Operation],
    precedence: PrecedenceSet,
    allocation: Allocation,
    scene: Scene,
) -> DisjunctiveGraph:
    """Construct the graph for a plan triple.

    Precondition: the triple passes model.validate_planner_output, which
    checks every loaded task and planner reply; generated triples are valid
    by construction. Nothing is checked again.
    """
    chains = tuple(tuple(chain) for _, chain in sorted(precedence.chains.items()) if chain)
    exclusive = {m.id for m in scene.machines if m.exclusive}
    users: dict[Resource, list[str]] = defaultdict(list)
    for op in operations:
        for m in op.machines_used():
            if m in exclusive:
                users["machine", m].append(op.id)
        users["robot", allocation.robot_for(op.id)].append(op.id)

    return DisjunctiveGraph(
        op_ids=tuple(op.id for op in operations),
        chains=chains,
        resources={resource: tuple(ops) for resource, ops in users.items()},
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
