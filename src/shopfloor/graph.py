"""Extended disjunctive graph over a validated plan triple.

Vertices are the operations plus a source and a terminal. Conjunctive arcs
chain each workpiece's operations in precedence order; disjunctive arcs
connect unordered pairs that compete for the same exclusive machine or the
same robot. A transport occupies both of its machines, so either end can
collide. Pairs already ordered by a workpiece chain get no disjunctive arc:
the chain is a total order on its workpiece, so only cross-workpiece pairs
remain.

The graph stays undirected on its disjunctive arcs: a schedule's start
steps fix the order of every conflicting pair (see solve.ScheduleGraph).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

from .errors import ValidationError
from .model import Allocation, Operation, PrecedenceSet, Scene

SOURCE = "__source__"
TERMINAL = "__terminal__"


@dataclass(frozen=True, slots=True)
class MachineArc:
    """Undirected scheduling choice between two operations on one machine."""

    a: str
    b: str
    machine: str


@dataclass(frozen=True, slots=True)
class RobotArc:
    """Undirected scheduling choice between two operations of one robot."""

    a: str
    b: str
    robot: str


DisjunctiveArc = MachineArc | RobotArc


@dataclass(frozen=True)
class DisjunctiveGraph:
    op_ids: tuple[str, ...]
    conjunctive: tuple[tuple[str, str], ...]
    machine_arcs: frozenset[MachineArc]
    robot_arcs: frozenset[RobotArc]

    @property
    def disjunctive(self) -> frozenset[DisjunctiveArc]:
        return self.machine_arcs | self.robot_arcs


def _ordered_pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


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

    conjunctive: list[tuple[str, str]] = []
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
        conjunctive.append((SOURCE, chain[0]))
        for u, v in zip(chain, chain[1:]):
            conjunctive.append((u, v))
        conjunctive.append((chain[-1], TERMINAL))
    unchained = sorted(set(by_id) - chained)
    if unchained:
        raise ValidationError(
            f"operations missing from every chain: {', '.join(unchained)}"
        )

    exclusive = {m.id for m in scene.machines if m.exclusive}
    machine_users: dict[str, list[str]] = defaultdict(list)
    for op in operations:
        for m in op.machines_used():
            if m in exclusive:
                machine_users[m].append(op.id)

    # Ops of one workpiece are totally ordered by its chain, so a disjunctive
    # arc would duplicate a conjunctive ordering; only cross-workpiece pairs count.
    machine_arcs: set[MachineArc] = set()
    for machine_id, users in machine_users.items():
        for i, a in enumerate(users):
            for b in users[i + 1:]:
                if by_id[a].workpiece == by_id[b].workpiece:
                    continue
                u, v = _ordered_pair(a, b)
                machine_arcs.add(MachineArc(a=u, b=v, machine=machine_id))

    robot_users: dict[str, list[str]] = defaultdict(list)
    for op in operations:
        robot = allocation.robot_for(op.id)
        if robot is None:
            raise ValidationError(f"operation '{op.id}' has no allocated robot")
        robot_users[robot].append(op.id)
    robot_arcs: set[RobotArc] = set()
    for robot_id, users in robot_users.items():
        for i, a in enumerate(users):
            for b in users[i + 1:]:
                if by_id[a].workpiece == by_id[b].workpiece:
                    continue
                u, v = _ordered_pair(a, b)
                robot_arcs.add(RobotArc(a=u, b=v, robot=robot_id))

    return DisjunctiveGraph(
        op_ids=tuple(op.id for op in operations),
        conjunctive=tuple(conjunctive),
        machine_arcs=frozenset(machine_arcs),
        robot_arcs=frozenset(robot_arcs),
    )


def conjunctive_predecessors(graph: DisjunctiveGraph) -> dict[str, set[str]]:
    """Immediate conjunctive predecessor operations per operation."""
    preds: dict[str, set[str]] = {op: set() for op in graph.op_ids}
    for u, v in graph.conjunctive:
        if u != SOURCE and v != TERMINAL:
            preds[v].add(u)
    return preds


def disjunctive_neighbours(graph: DisjunctiveGraph) -> dict[str, set[str]]:
    """Adjacency over disjunctive arcs (conflict relation between ops)."""
    adj: dict[str, set[str]] = {op: set() for op in graph.op_ids}
    for arc in graph.disjunctive:
        adj[arc.a].add(arc.b)
        adj[arc.b].add(arc.a)
    return adj


def to_dot(graph: DisjunctiveGraph) -> str:
    """GraphViz rendering: conjunctive arcs solid and directed, disjunctive
    arcs dashed and labeled with the contended resource."""
    lines = ["digraph plan {", "  rankdir=LR;"]
    lines.append(f'  "{SOURCE}" [label="source", shape=circle];')
    lines.append(f'  "{TERMINAL}" [label="terminal", shape=doublecircle];')
    for op_id in graph.op_ids:
        lines.append(f'  "{op_id}" [shape=box];')
    for u, v in graph.conjunctive:
        lines.append(f'  "{u}" -> "{v}";')
    for arc in sorted(graph.machine_arcs, key=lambda a: (a.machine, a.a, a.b)):
        lines.append(
            f'  "{arc.a}" -> "{arc.b}" [dir=none, style=dashed, color=firebrick, '
            f'label="machine {arc.machine}"];'
        )
    for arc in sorted(graph.robot_arcs, key=lambda a: (a.robot, a.a, a.b)):
        lines.append(
            f'  "{arc.a}" -> "{arc.b}" [dir=none, style=dashed, color=steelblue, '
            f'label="robot {arc.robot}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
