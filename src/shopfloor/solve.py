"""Schedule construction: FIFO dispatching and exhaustive optimal search.

Operations take exactly one step. A schedule assigns each operation a
0-based start step; conflicting operations (two users of one resource)
may never share a step, and an operation starts strictly after every
predecessor finished. The start steps are the whole solution: every
disjunctive arc points from the earlier start to the later one, so the
solvers return a ScheduleGraph that holds only the graph and its steps.
reference_schedule alone picks which solver stands for a ground truth.

The solvers read each operation's chain predecessor and held resources
(DisjunctiveGraph.preds and .held): operations ready together are chain
heads of distinct workpieces, so they conflict exactly when they share a
resource. One fault finder states the feasibility rules: every schedule a
solver returns or schedule_from_record rebuilds passes it, and
is_feasible asks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from typing import Iterator, Mapping, Sequence

from .errors import InstanceTooLarge, ValidationError
from .graph import DisjunctiveGraph, Resource
from .model import ScheduleRecord

DEFAULT_BRUTE_FORCE_CAP = 10


@dataclass(frozen=True)
class ScheduleGraph:
    """The start step of every operation of the graph they solve."""

    graph: DisjunctiveGraph
    start_steps: Mapping[str, int]
    makespan: int

    def predecessors(self) -> dict[str, set[str]]:
        """Operations that must finish before each operation may start: its
        chain predecessor and the previous user, in step order (ties in plan
        order), of each resource it holds: earlier users already wait in turn."""
        steps = self.start_steps
        preds = {op: set(chain_pred) for op, chain_pred in self.graph.preds.items()}
        for users in self.graph.resources.values():
            for u, v in pairwise(sorted(users, key=steps.__getitem__)):
                preds[v].add(u)
        return preds


def _fault(graph: DisjunctiveGraph, start_steps: Mapping[str, int], makespan: int) -> str | None:
    """Why start steps and a makespan do not solve the graph, or None when
    they do: they must cover exactly its operations, none may be negative,
    every chain arc must go forward, no two users of a resource may share a
    step and the makespan must match the steps. Arcs that all point forward
    in time cannot close a cycle, so acyclicity needs no check of its own.
    Users of one workpiece on one step run a chain arc backwards first."""
    if set(start_steps) != set(graph.op_ids):
        return "schedule record does not cover exactly the graph's operations"
    early = sorted(op for op, step in start_steps.items() if step < 0)
    if early:
        return f"schedule record starts operations before step 0: {', '.join(early)}"
    backward = sorted(
        f"'{u}' -> '{v}'"
        for v, us in graph.preds.items()
        for u in us
        if start_steps[v] <= start_steps[u]
    )
    if backward:
        return f"schedule record runs chain arcs backwards: {', '.join(backward)}"
    # Each resource's users by step, then id: a shared step's first pair is
    # its two smallest ids.
    clashes = [
        (start_steps[a], a, b)
        for users in graph.resources.values()
        for a, b in pairwise(sorted(users, key=lambda op: (start_steps[op], op)))
        if start_steps[a] == start_steps[b]
    ]
    if clashes:
        # The earliest clash, not the first in resource order.
        step, a, b = min(clashes)
        return f"operations '{a}' and '{b}' share step {step} but compete for a resource"
    span = max(start_steps.values()) + 1 if start_steps else 0
    if makespan != span:
        return f"schedule record claims makespan {makespan}, start steps imply {span}"
    return None


def _checked(
    graph: DisjunctiveGraph, start_steps: dict[str, int], makespan: int
) -> ScheduleGraph:
    fault = _fault(graph, start_steps, makespan)
    if fault is not None:
        raise ValidationError(fault)
    return ScheduleGraph(graph=graph, start_steps=start_steps, makespan=makespan)


def solve_fifo(graph: DisjunctiveGraph, ops_order: Sequence[str]) -> ScheduleGraph:
    """Greedy unit-step dispatcher.

    Each step launches a maximal conflict-free subset of the ready
    operations (each chain's first operation not yet launched), scanning
    them in ops_order so that earlier emission wins every resource contention.
    Always terminates with a feasible schedule.
    """
    if sorted(ops_order) != sorted(graph.op_ids):
        raise ValueError("ops_order must be a permutation of the graph's operations")
    position = {op_id: i for i, op_id in enumerate(ops_order)}
    preds = graph.preds
    held = graph.held
    successor = {u: v for chain in graph.chains for u, v in pairwise(chain)}

    start_steps: dict[str, int] = {}
    # Ready operations as positions in ops_order, so they sort without a key.
    ready = [i for i, op in enumerate(ops_order) if not preds[op]]
    step = 0
    while ready:
        busy: set[Resource] = set()
        waiting: list[int] = []
        for i in ready:
            op = ops_order[i]
            if busy.isdisjoint(held[op]):
                busy.update(held[op])
                start_steps[op] = step
                if op in successor:
                    waiting.append(position[successor[op]])
            else:
                waiting.append(i)
        waiting.sort()
        ready = waiting
        step += 1
    return _checked(graph, start_steps, step)


def _maximal_conflict_free_subsets(
    ready: Sequence[str], held: Mapping[str, tuple[Resource, ...]]
) -> Iterator[frozenset[str]]:
    """All maximal subsets of ready whose operations share no resource."""
    n = len(ready)
    results: list[frozenset[str]] = []

    def rec(i: int, chosen: list[str], excluded: list[str], busy: frozenset[Resource]) -> None:
        if i == n:
            if all(not busy.isdisjoint(held[x]) for x in excluded):
                results.append(frozenset(chosen))
            return
        op = ready[i]
        if not busy.isdisjoint(held[op]):
            rec(i + 1, chosen, excluded, busy)
        else:
            chosen.append(op)
            rec(i + 1, chosen, excluded, busy.union(held[op]))
            chosen.pop()
            excluded.append(op)
            rec(i + 1, chosen, excluded, busy)
            excluded.pop()

    rec(0, [], [], frozenset())
    return iter(results)


def brute_force_optimal(graph: DisjunctiveGraph) -> ScheduleGraph:
    """Exhaustive minimal-makespan schedule for instances of at most
    DEFAULT_BRUTE_FORCE_CAP operations; larger ones raise InstanceTooLarge.

    Branches over the maximal conflict-free ready subsets of every step and
    memoizes on the set of completed operations. Restricting to maximal
    subsets is safe: moving a ready, conflict-free operation earlier never
    delays anything under unit durations, so some optimal schedule (and the
    lexicographically smallest one) dispatches maximally. Ties between
    optimal schedules break toward the lexicographically smallest start-step
    vector, components ordered by operation id.
    """
    ops = graph.op_ids
    if len(ops) > DEFAULT_BRUTE_FORCE_CAP:
        raise InstanceTooLarge(
            f"{len(ops)} operations exceed the exhaustive solver cap of "
            f"{DEFAULT_BRUTE_FORCE_CAP}"
        )
    order = sorted(ops)
    preds = graph.preds
    held = graph.held
    everything = frozenset(ops)

    # memo: completed set -> (remaining makespan, start offsets of the
    # remaining ops in id order, relative to the current step)
    memo: dict[frozenset[str], tuple[int, tuple[int, ...]]] = {}

    def best(completed: frozenset[str]) -> tuple[int, tuple[int, ...]]:
        if completed == everything:
            return (0, ())
        hit = memo.get(completed)
        if hit is not None:
            return hit
        remaining_here = [o for o in order if o not in completed]
        ready = [o for o in remaining_here if preds[o] <= completed]
        champion: tuple[int, tuple[int, ...]] | None = None
        for subset in _maximal_conflict_free_subsets(ready, held):
            rem_span, rem_vec = best(completed | subset)
            remaining_next = [o for o in remaining_here if o not in subset]
            offsets = dict(zip(remaining_next, rem_vec))
            vec = tuple(
                0 if o in subset else 1 + offsets[o] for o in remaining_here
            )
            candidate = (1 + rem_span, vec)
            if champion is None or candidate < champion:
                champion = candidate
        assert champion is not None, "a ready operation always exists"
        memo[completed] = champion
        return champion

    span, vec = best(frozenset())
    return _checked(graph, dict(zip(order, vec)), span)


def reference_schedule(
    graph: DisjunctiveGraph, order: Sequence[str]
) -> tuple[ScheduleGraph, str]:
    """The schedule that stands for a ground truth, and its source: the
    exact optimum ("optimal") when the graph is within
    DEFAULT_BRUTE_FORCE_CAP, otherwise first-in-first-out over order
    ("fifo")."""
    if len(graph.op_ids) <= DEFAULT_BRUTE_FORCE_CAP:
        return brute_force_optimal(graph), "optimal"
    return solve_fifo(graph, order), "fifo"


def is_feasible(schedule: ScheduleGraph, graph: DisjunctiveGraph) -> bool:
    """True iff the schedule's start steps and makespan solve the graph."""
    return _fault(graph, schedule.start_steps, schedule.makespan) is None


# ---------------------------------------------------------------------------
# record interop


def schedule_to_record(schedule: ScheduleGraph, source: str | None = None) -> ScheduleRecord:
    return ScheduleRecord(
        start_steps=dict(schedule.start_steps),
        makespan=schedule.makespan,
        source=source,
    )


def schedule_from_record(graph: DisjunctiveGraph, record: ScheduleRecord) -> ScheduleGraph:
    """Rebuild a ScheduleGraph from stored start steps.

    Raises ValidationError when the record is not a feasible schedule of
    the graph: missing operations, a negative start, a chain arc run
    backwards, a resource double-booked on one step or a wrong makespan.
    """
    return _checked(graph, dict(record.start_steps), record.makespan)
