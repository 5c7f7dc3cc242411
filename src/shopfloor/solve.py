"""Schedule construction: FIFO dispatching and exact optimal search.

Operations take exactly one step. A schedule assigns each operation a
0-based start step; conflicting operations (two users of one resource)
may never share a step, and an operation starts strictly after every
predecessor finished. The start steps are the whole solution: every
disjunctive arc points from the earlier start to the later one, so the
solvers return a ScheduleGraph that holds only the graph and its steps.
The exact solver's schedule stands for a ground truth at every size. It
returns FIFO over plan order without searching when that meets the lower
bound (the longest chain or the busiest resource), as nearly every
generated instance does: the search would return the same schedule, and
the budget is counted as the search counts it.

The solvers read each operation's chain predecessor and held resources
(DisjunctiveGraph.preds and .held): operations ready together are chain
heads of distinct workpieces, so they conflict exactly when they share a
resource. One fault finder states the feasibility rules: every schedule a
solver returns or schedule_from_record rebuilds passes it, and
is_feasible asks it.
"""

from __future__ import annotations

from itertools import pairwise
from typing import Iterator, Mapping, NamedTuple, Sequence

from .errors import InstanceTooLarge, ValidationError
from .graph import DisjunctiveGraph, Resource
from .model import ScheduleRecord

# Subsets the exact search may try before it gives up.
SEARCH_BUDGET = 20_000
# Read only by perfbench, which times the exact solver up to this size.
DEFAULT_BRUTE_FORCE_CAP = 10


class ScheduleGraph(NamedTuple):
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
    step, the makespan must match the steps, and it may not exceed the
    number of operations. Both solvers start at least one operation per
    step, so a longer schedule comes from no solver, and replaying it would
    walk every idle step. Arcs that all point forward in time cannot close
    a cycle, so acyclicity needs no check of its own.
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
    if makespan > len(start_steps):
        return (
            f"schedule record claims makespan {makespan} for {len(start_steps)} "
            f"operations; a step would start none"
        )
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
) -> Iterator[tuple[str, ...]]:
    """Every maximal subset of ready whose operations share no resource,
    lazily, each in ready's order. Each operation is tried in before it is
    left out, so the first subset is the one FIFO over ready launches."""
    stack = [(0, (), frozenset(), ())]  # next index, chosen, their resources, left out
    while stack:
        i, chosen, busy, excluded = stack.pop()
        while i < len(ready) and not busy.isdisjoint(held[ready[i]]):
            i += 1
        if i < len(ready):
            op = ready[i]
            stack.append((i + 1, chosen, busy, excluded + (op,)))
            stack.append((i + 1, chosen + (op,), busy.union(held[op]), excluded))
        elif all(not busy.isdisjoint(held[x]) for x in excluded):
            yield chosen


def _lower_bound(graph: DisjunctiveGraph) -> int:
    """Steps no schedule can beat: the longest chain or the busiest
    resource, each running one operation per step."""
    return max(map(len, (*graph.chains, *graph.resources.values())), default=0)


def brute_force_optimal(graph: DisjunctiveGraph) -> ScheduleGraph:
    """A minimal-makespan schedule; InstanceTooLarge once SEARCH_BUDGET
    subsets are tried.

    The search (_search) tries FIFO over plan order first and keeps it
    without backtracking when it meets the lower bound. So when FIFO meets
    the bound, its schedule is returned without searching: the same start
    steps, the same tie-break. The budget is counted as the search counts
    it: every path the search completes tries at least one subset per
    step, so a bound past SEARCH_BUDGET gives up with the search's message,
    and an exit at bound b stands for the b subsets of the search's first
    path.
    """
    bound = _lower_bound(graph)
    if bound > SEARCH_BUDGET:
        raise _gave_up(graph)
    fifo = solve_fifo(graph, graph.op_ids)
    return fifo if fifo.makespan == bound else _search(graph)


def _gave_up(graph: DisjunctiveGraph) -> InstanceTooLarge:
    return InstanceTooLarge(
        f"exact search gave up after {SEARCH_BUDGET} subsets on "
        f"{len(graph.op_ids)} operations"
    )


def _search(graph: DisjunctiveGraph) -> ScheduleGraph:
    """A minimal-makespan schedule by iterative deepening (Korf 1985) over
    each step's dispatch choices; InstanceTooLarge once SEARCH_BUDGET
    subsets are tried.

    Each step launches one maximal conflict-free set of the chain heads,
    taken in plan order (graph.op_ids): moving a ready, conflict-free
    operation earlier never delays anything under unit durations. The first
    such set is the one FIFO launches, so the first path tried is FIFO over
    plan order, kept without backtracking when it meets the lower bound.
    Ties between optimal schedules go to the first in this branch order.
    """
    chains, held = graph.chains, graph.held
    position = {op: i for i, op in enumerate(graph.op_ids)}
    # A state counts what is left to run: the operations of each chain, then
    # the users of each resource. Its largest count bounds the steps left.
    slot = {resource: len(chains) + k for k, resource in enumerate(graph.resources)}
    counts = {op: (c, *map(slot.__getitem__, held[op]))
              for c, chain in enumerate(chains) for op in chain}

    def children(state: tuple[int, ...]) -> Iterator[tuple[tuple[str, ...], tuple[int, ...]]]:
        heads = sorted(
            (chain[-left] for chain, left in zip(chains, state) if left),
            key=position.__getitem__,
        )
        for subset in _maximal_conflict_free_subsets(heads, held):
            after = list(state)
            for op in subset:
                for k in counts[op]:
                    after[k] -= 1
            yield subset, tuple(after)

    root = (*map(len, chains), *map(len, graph.resources.values()))
    failed: dict[tuple[int, ...], int] = {}  # state -> most steps it failed in
    tried = 0
    limit = _lower_bound(graph)
    while True:
        # Depth first within limit steps: levels holds each state on the
        # path with its untried children, launched the sets between them.
        levels = [(root, children(root))]
        launched: list[tuple[str, ...]] = []
        while levels:
            state, options = levels[-1]
            if max(state, default=0) == 0:
                steps = {op: step for step, subset in enumerate(launched) for op in subset}
                return _checked(graph, steps, len(launched))
            steps_left = limit - len(levels)  # after this state's step
            for subset, child in options:
                tried += 1
                if tried > SEARCH_BUDGET:
                    raise _gave_up(graph)
                if max(child) <= steps_left and failed.get(child, -1) < steps_left:
                    levels.append((child, children(child)))
                    launched.append(subset)
                    break
            else:
                failed[state] = steps_left + 1
                levels.pop()
                if launched:
                    launched.pop()
        limit += 1


def reference_schedule(graph: DisjunctiveGraph, record: ScheduleRecord | None) -> ScheduleGraph:
    """The schedule a ground truth is scored with: the record's, else the
    exact solver's. Raises ValidationError for a record that does not solve
    the graph, InstanceTooLarge when the exact search gives up."""
    return brute_force_optimal(graph) if record is None else schedule_from_record(graph, record)


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
    backwards, a resource double-booked on one step, a wrong makespan or
    one above the number of operations.
    """
    return _checked(graph, dict(record.start_steps), record.makespan)
