"""FIFO dispatcher and exact solver."""

from __future__ import annotations

import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shopfloor
import shopfloor.solve
from shopfloor.bench import Tier, generate_instance
from shopfloor.errors import InstanceTooLarge, ValidationError
from shopfloor.executor import execute
from shopfloor.graph import DisjunctiveGraph, build_graph
from shopfloor.model import Allocation, OperationType, PrecedenceSet, ScheduleRecord
from shopfloor.solve import (
    ScheduleGraph,
    _fault,
    _search,
    brute_force_optimal,
    is_feasible,
    schedule_from_record,
    schedule_to_record,
    solve_fifo,
)
from shopfloor.tree import assemble_program, load_reference_tree

from conftest import make_machine, make_op, make_robot, make_scene, make_workpiece
from strategies import (
    earliest_clash_by_arcs,
    generated_triples,
    optimal_by_enumeration,
    optimal_makespan_by_search,
    plan_triples,
    predecessors_by_rivals,
    transitive_closure,
)


def _chain_of_three():
    ops = (
        make_op("a", OperationType.POLISHING, "w1", "m1"),
        make_op("b", OperationType.WELDING, "w1", "m2"),
        make_op("c", OperationType.BEVELING, "w1", "m3"),
    )
    alloc = Allocation(by_op={"a": "r1", "b": "r1", "c": "r1"})
    prec = PrecedenceSet(chains={"w1": ("a", "b", "c")})
    machines = (
        make_machine("m1", held=("w1",)),
        make_machine("m2"),
        make_machine("m3"),
    )
    scene = make_scene(robots=(make_robot("r1", reachable=("m1", "m2", "m3")),),
                       machines=machines,
                       workpieces=(make_workpiece("w1", states=()),))
    return build_graph(ops, prec, alloc, scene)


def _two_chains(shared_robot: bool):
    """w1: a1->a2, w2: b1->b2; a1/b1 contend for one machine. With a shared
    robot everything serializes; with two robots only the a1/b1 pair does."""
    ops = (
        make_op("a1", OperationType.POLISHING, "w1", "m_shared"),
        make_op("a2", OperationType.WELDING, "w1", "m_a"),
        make_op("b1", OperationType.POLISHING, "w2", "m_shared"),
        make_op("b2", OperationType.WELDING, "w2", "m_b"),
    )
    robot_of = {"a1": "r1", "a2": "r1", "b1": "r1" if shared_robot else "r2",
                "b2": "r1" if shared_robot else "r2"}
    alloc = Allocation(by_op=robot_of)
    prec = PrecedenceSet(chains={"w1": ("a1", "a2"), "w2": ("b1", "b2")})
    machines = (
        make_machine("m_shared", held=("w1", "w2")),
        make_machine("m_a"),
        make_machine("m_b"),
    )
    reach = ("m_shared", "m_a", "m_b")
    scene = make_scene(
        robots=(make_robot("r1", reachable=reach), make_robot("r2", reachable=reach)),
        machines=machines,
        workpieces=(make_workpiece("w1", states=()), make_workpiece("w2", states=())),
    )
    return build_graph(ops, prec, alloc, scene)


# ---------------------------------------------------------------------------
# FIFO


def test_single_chain_runs_serially():
    g = _chain_of_three()
    s = solve_fifo(g, ["a", "b", "c"])
    assert s.start_steps == {"a": 0, "b": 1, "c": 2}
    assert s.makespan == 3


def test_single_robot_serializes_everything():
    # Hand-derived: ops_order a1,a2,b1,b2; at step 1 both a2 and b1 are ready
    # but share robot r1, and a2 was emitted earlier.
    g = _two_chains(shared_robot=True)
    s = solve_fifo(g, ["a1", "a2", "b1", "b2"])
    assert s.start_steps == {"a1": 0, "a2": 1, "b1": 2, "b2": 3}
    assert s.makespan == 4


def test_two_robots_overlap_where_machines_allow():
    # Hand-derived: a1 blocks b1 on the shared machine at step 0; afterwards
    # a2 (r1) and b1 (r2, shared machine now free) run together.
    g = _two_chains(shared_robot=False)
    s = solve_fifo(g, ["a1", "b1", "a2", "b2"])
    assert s.start_steps == {"a1": 0, "b1": 1, "a2": 1, "b2": 2}
    assert s.makespan == 3


def test_contention_resolved_by_emission_order():
    g = _two_chains(shared_robot=False)
    s = solve_fifo(g, ["b1", "b2", "a1", "a2"])
    assert s.start_steps["b1"] == 0
    assert s.start_steps["a1"] == 1


def test_fifo_orients_every_disjunctive_arc():
    g = _two_chains(shared_robot=True)
    s = solve_fifo(g, ["a1", "a2", "b1", "b2"])
    preds = s.predecessors()
    ancestors = transitive_closure(preds)
    for arc in g.disjunctive:
        assert (arc.a in ancestors[arc.b]) != (arc.b in ancestors[arc.a])
    # Steps a1=0, a2=1, b1=2, b2=3: w1 goes first on r1 and on the machine.
    # b1 waits on a1 (the machine) and a2 (the robot); b2 waits only on b1,
    # its chain predecessor and the robot's previous user.
    assert preds == {"a1": set(), "a2": {"a1"}, "b1": {"a1", "a2"}, "b2": {"b1"}}
    assert is_feasible(s, g)


def test_predecessors_of_rivals_on_one_step_follow_plan_order():
    # An infeasible schedule built by hand: a1/b1 and a2/b2 share steps.
    # Plan order is a1, a2, b1, b2, so r1's users (steps 0, 1, 0, 1) queue
    # as a1, b1, a2, b2.
    g = _two_chains(shared_robot=True)
    clashed = ScheduleGraph(graph=g, start_steps={"a1": 0, "b1": 0, "a2": 1, "b2": 1},
                            makespan=2)
    assert clashed.predecessors() == {"a1": set(), "b1": {"a1"}, "a2": {"a1", "b1"},
                                      "b2": {"a2", "b1"}}


def test_fifo_rejects_wrong_order_set():
    g = _chain_of_three()
    with pytest.raises(ValueError, match="permutation"):
        solve_fifo(g, ["a", "b"])
    with pytest.raises(ValueError, match="permutation"):
        solve_fifo(g, ["a", "b", "c", "d"])


def test_empty_graph_schedules_to_nothing(scene):
    g = build_graph((), PrecedenceSet(chains={}), Allocation(by_op={}), scene)
    s = solve_fifo(g, [])
    assert s.start_steps == {}
    assert s.makespan == 0
    assert is_feasible(s, g)


def test_fifo_is_deterministic():
    g = _two_chains(shared_robot=True)
    order = ["a1", "b1", "a2", "b2"]
    assert solve_fifo(g, order) == solve_fifo(g, order)


# ---------------------------------------------------------------------------
# exact solver


def test_brute_force_on_forced_serial_instance():
    g = _two_chains(shared_robot=True)
    s = brute_force_optimal(g)
    assert s.makespan == 4
    # FIFO over plan order a1,a2,b1,b2 meets the bound of four users of r1.
    assert s.start_steps == {"a1": 0, "a2": 1, "b1": 2, "b2": 3}


def test_brute_force_exploits_parallelism():
    g = _two_chains(shared_robot=False)
    s = brute_force_optimal(g)
    assert s.makespan == 3
    assert is_feasible(s, g)


@pytest.mark.parametrize("first, second", [("x", "y"), ("y", "x")])
def test_brute_force_tie_break_follows_plan_order(first, second):
    # Either order is optimal; the one listed first in the plan goes first.
    by_id = {
        "x": make_op("x", OperationType.POLISHING, "w1", "m_shared"),
        "y": make_op("y", OperationType.POLISHING, "w2", "m_shared"),
    }
    ops = (by_id[first], by_id[second])
    alloc = Allocation(by_op={"x": "r1", "y": "r2"})
    prec = PrecedenceSet(chains={"w1": ("x",), "w2": ("y",)})
    machines = (make_machine("m_shared", held=("w1", "w2")),)
    scene = make_scene(
        robots=(make_robot("r1", reachable=("m_shared",)),
                make_robot("r2", reachable=("m_shared",))),
        machines=machines,
        workpieces=(make_workpiece("w1", states=()), make_workpiece("w2", states=())),
    )
    g = build_graph(ops, prec, alloc, scene)
    s = brute_force_optimal(g)
    assert s.makespan == 2
    assert s.start_steps == {first: 0, second: 1}


def test_brute_force_budget_enforced(monkeypatch):
    # Eleven users of one machine: FIFO meets the bound after one subset per
    # step, so eleven subsets solve it and a budget of ten does not.
    ops = tuple(
        make_op(f"o{i}", OperationType.POLISHING, f"w{i}", "m1") for i in range(11)
    )
    alloc = Allocation(by_op={op.id: "r1" for op in ops})
    prec = PrecedenceSet(chains={f"w{i}": (f"o{i}",) for i in range(11)})
    machines = (make_machine("m1", held=tuple(f"w{i}" for i in range(11))),)
    scene = make_scene(
        robots=(make_robot("r1", reachable=("m1",)),),
        machines=machines,
        workpieces=tuple(make_workpiece(f"w{i}", states=()) for i in range(11)),
    )
    g = build_graph(ops, prec, alloc, scene)
    assert brute_force_optimal(g).makespan == 11
    monkeypatch.setattr(shopfloor.solve, "SEARCH_BUDGET", 10)
    with pytest.raises(InstanceTooLarge, match="gave up after 10 subsets on 11 operations"):
        brute_force_optimal(g)


@pytest.mark.parametrize("size", [10, 11])
def test_brute_force_is_exact_at_every_size(size):
    # b1 and a1 share a robot and b1 comes first, so FIFO delays the chain
    # a1 -> a2 -> a3 by one step (makespan 4); one-operation chains pad the
    # graph to size.
    padding = tuple(f"p{i}" for i in range(size - 4))
    g = DisjunctiveGraph(
        op_ids=("b1", "a1", "a2", "a3") + padding,
        chains=(("a1", "a2", "a3"), ("b1",)) + tuple((p,) for p in padding),
        resources={("robot", "r1"): ("b1", "a1")},
    )
    assert solve_fifo(g, g.op_ids).makespan == 4
    assert brute_force_optimal(g).makespan == 3


def test_brute_force_matches_enumeration_oracle_on_fixed_case():
    g = _two_chains(shared_robot=False)
    span, steps = optimal_by_enumeration(g)
    s = brute_force_optimal(g)
    assert s.makespan == span == 3
    assert dict(s.start_steps) == steps


def test_brute_force_backtracks_past_fifo():
    # FIFO over plan order takes 5 steps. The optimum, 4, needs the search to
    # deepen past a failed limit: a memo that overstates a state's failure
    # prunes it.
    g = DisjunctiveGraph(
        op_ids=("b0", "b2", "a2", "a1", "a0", "b1"),
        chains=(("a0", "a1", "a2"), ("b0", "b1", "b2")),
        resources={
            ("robot", "r0"): ("b0", "a1", "b1"),
            ("machine", "m1"): ("b0", "a2", "b1"),
            ("robot", "r1"): ("b2", "a2", "a0"),
        },
    )
    assert solve_fifo(g, g.op_ids).makespan == 5
    assert brute_force_optimal(g).makespan == optimal_makespan_by_search(g) == 4


# FIFO over plan order misses the optimum of seeds 43, 44 and 59 (13, 12
# and 12 steps); seed 66 ties for the longest makespan of seeds 0-99.
@pytest.mark.parametrize(
    "seed, makespan", [(1, 9), (3, 7), (43, 9), (44, 11), (59, 10), (66, 20)]
)
def test_complex_multi_ground_truth_is_optimal(seed, makespan):
    task = generate_instance(Tier.COMPLEX_MULTI, seed)
    gt = task.ground_truth
    g = build_graph(gt.operations, gt.precedence, gt.allocation, task.scene)
    assert gt.schedule.makespan == makespan
    assert brute_force_optimal(g).makespan == optimal_makespan_by_search(g) == makespan


# ---------------------------------------------------------------------------
# feasibility checks


def test_same_step_resource_clash_is_infeasible():
    g = _two_chains(shared_robot=True)
    good = solve_fifo(g, ["a1", "a2", "b1", "b2"])
    clashed = dict(good.start_steps)
    clashed["b1"] = clashed["a1"]  # both on r1 in one step
    bogus = ScheduleGraph(graph=good.graph, start_steps=clashed, makespan=4)
    assert not is_feasible(bogus, g)


def test_violated_chain_arc_is_infeasible():
    g = _chain_of_three()
    good = solve_fifo(g, ["a", "b", "c"])
    swapped = {"a": 1, "b": 0, "c": 2}
    bogus = ScheduleGraph(graph=good.graph, start_steps=swapped, makespan=3)
    assert not is_feasible(bogus, g)


def test_missing_operation_is_infeasible():
    g = _chain_of_three()
    good = solve_fifo(g, ["a", "b", "c"])
    partial = {k: v for k, v in good.start_steps.items() if k != "c"}
    bogus = ScheduleGraph(graph=good.graph, start_steps=partial, makespan=2)
    assert not is_feasible(bogus, g)


# ---------------------------------------------------------------------------
# record interop


def test_schedule_record_round_trip():
    g = _two_chains(shared_robot=True)
    s = solve_fifo(g, ["a1", "a2", "b1", "b2"])
    record = schedule_to_record(s, source="fifo")
    assert record.makespan == 4 and record.source == "fifo"
    rebuilt = schedule_from_record(g, record)
    assert rebuilt == s


def test_schedule_record_rejects_double_booking():
    g = _two_chains(shared_robot=True)
    record = ScheduleRecord(start_steps={"a1": 0, "a2": 1, "b1": 0, "b2": 2},
                            makespan=3)
    with pytest.raises(ValidationError, match="share step 0"):
        schedule_from_record(g, record)


_MANY_CLASHES = """
from shopfloor.bench import Tier, generate_instance
from shopfloor.graph import build_graph
from shopfloor.model import ScheduleRecord
from shopfloor.solve import schedule_from_record

task = generate_instance(Tier.SIMPLE_MULTI, 3)
gt = task.ground_truth
graph = build_graph(gt.operations, gt.precedence, gt.allocation, task.scene)
steps = {op: i for chain in gt.precedence.chains.values() for i, op in enumerate(chain)}
try:
    schedule_from_record(graph, ScheduleRecord(steps, max(steps.values()) + 1))
except Exception as exc:
    print(type(exc).__name__, exc)
"""


def test_double_booking_message_does_not_depend_on_the_hash_seed():
    # Every chain placed at steps 0, 1, ... double-books several resources;
    # string hashing orders the graph's arc set, so each seed runs apart.
    src = str(Path(shopfloor.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outputs = {
        subprocess.run(
            [sys.executable, "-c", _MANY_CLASHES],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("1", "3")
    }
    assert outputs == {
        "ValidationError operations 'o1' and 'o6' share step 0 "
        "but compete for a resource\n"
    }


@pytest.mark.parametrize(
    "steps, fragment",
    [
        ({"a": 1, "b": 0, "c": 2}, "chain arcs backwards: 'a' -> 'b'"),
        ({"a": 0, "b": 1, "c": 1}, "chain arcs backwards: 'b' -> 'c'"),
        ({"a": -1, "b": 0, "c": 1}, "before step 0: a"),
        # steps 2 to 4 start nothing, which no solver does
        ({"a": 0, "b": 1, "c": 5}, "claims makespan 6 for 3 operations; a step would start none"),
    ],
)
def test_schedule_record_rejects_an_infeasible_chain(steps, fragment):
    g = _chain_of_three()
    record = ScheduleRecord(start_steps=steps, makespan=max(steps.values()) + 1)
    with pytest.raises(ValidationError, match=fragment):
        schedule_from_record(g, record)


def test_schedule_record_rejects_wrong_makespan():
    g = _chain_of_three()
    record = ScheduleRecord(start_steps={"a": 0, "b": 1, "c": 2}, makespan=9)
    with pytest.raises(ValidationError, match="claims makespan 9"):
        schedule_from_record(g, record)


# ---------------------------------------------------------------------------
# properties


@given(plan_triples())
@settings(max_examples=120, deadline=None)
def test_fifo_always_feasible_within_bounds(triple):
    ops, alloc, prec, scene = triple
    g = build_graph(ops, prec, alloc, scene)
    s = solve_fifo(g, [op.id for op in ops])
    assert is_feasible(s, g)
    n = len(ops)
    longest_chain = max((len(c) for c in prec.chains.values()), default=0)
    assert longest_chain <= s.makespan <= n
    if n:
        assert min(s.start_steps.values()) == 0


@given(plan_triples(max_workpieces=2, max_ops_per=2))
@settings(max_examples=60, deadline=None)
def test_brute_force_matches_enumeration_oracle(triple):
    ops, alloc, prec, scene = triple
    g = build_graph(ops, prec, alloc, scene)
    span, _ = optimal_by_enumeration(g)
    s = brute_force_optimal(g)
    assert s.makespan == span
    assert is_feasible(s, g)
    # The search tries FIFO over plan order first and keeps it when optimal.
    fifo = solve_fifo(g, g.op_ids)
    if fifo.makespan == span:
        assert s.start_steps == fifo.start_steps


def _rivals(x, y, alloc, exclusive) -> bool:
    """Operations of different workpieces that share a robot or an
    exclusive machine, read straight from the plan."""
    if x.workpiece == y.workpiece:
        return False
    if alloc.by_op[x.id] == alloc.by_op[y.id]:
        return True
    return bool(set(x.machines_used()) & set(y.machines_used()) & exclusive)


@given(plan_triples(max_workpieces=3, max_ops_per=2), st.data())
@settings(max_examples=150, deadline=None)
def test_is_feasible_matches_a_direct_predicate(triple, data):
    ops, alloc, prec, scene = triple
    g = build_graph(ops, prec, alloc, scene)
    # Half the cases nudge one start of a FIFO schedule, so feasible and
    # infeasible vectors both turn up; the rest draw every start at random.
    steps = dict(solve_fifo(g, [op.id for op in ops]).start_steps)
    if ops and data.draw(st.booleans()):
        victim = data.draw(st.sampled_from(sorted(steps)))
        steps[victim] += data.draw(st.integers(-2, 2))
    else:
        steps = {op.id: data.draw(st.integers(-1, len(ops))) for op in ops}
    span = max(steps.values()) + 1 if steps else 0
    claimed = data.draw(st.sampled_from([span, span + 1]))
    exclusive = {m.id for m in scene.machines if m.exclusive}
    expected = (
        all(step >= 0 for step in steps.values())
        and all(
            steps[u] < steps[v]
            for chain in prec.chains.values()
            for u, v in zip(chain, chain[1:])
        )
        and all(
            steps[x.id] != steps[y.id]
            for x, y in combinations(ops, 2)
            if _rivals(x, y, alloc, exclusive)
        )
        and claimed == span
        and claimed <= len(ops)
    )
    schedule = ScheduleGraph(graph=g, start_steps=steps, makespan=claimed)
    assert is_feasible(schedule, g) == expected
    # The stored form is checked by the same rules: a record rebuilds
    # exactly when it is feasible.
    record = schedule_to_record(schedule)
    if expected:
        assert schedule_from_record(g, record) == schedule
    else:
        with pytest.raises(ValidationError):
            schedule_from_record(g, record)


@given(plan_triples(max_workpieces=3, max_ops_per=3))
@settings(max_examples=80, deadline=None)
def test_brute_force_never_beaten_by_fifo(triple):
    ops, alloc, prec, scene = triple
    g = build_graph(ops, prec, alloc, scene)
    fifo = solve_fifo(g, [op.id for op in ops])
    best = brute_force_optimal(g)
    assert best.makespan <= fifo.makespan
    assert best.makespan == optimal_makespan_by_search(g)


def _recording_search(mp, entered):
    """Patch the solver's search to note each graph it is entered with."""
    search = shopfloor.solve._search

    def recorded(graph):
        entered.append(graph)
        return search(graph)

    mp.setattr(shopfloor.solve, "_search", recorded)


@given(plan_triples())
@settings(max_examples=150, deadline=None)
def test_bound_exit_returns_what_the_search_returns(triple):
    ops, alloc, prec, scene = triple
    g = build_graph(ops, prec, alloc, scene)
    entered = []
    with pytest.MonkeyPatch.context() as mp:
        _recording_search(mp, entered)
        s = brute_force_optimal(g)
    searched = _search(g)
    # Same steps in the same order, so the same bytes once serialized.
    assert list(s.start_steps.items()) == list(searched.start_steps.items())
    assert s.makespan == searched.makespan
    # The search runs exactly when FIFO over plan order misses the bound.
    bound = max([len(c) for c in prec.chains.values()]
                + [len(users) for users in g.resources.values()], default=0)
    assert bool(entered) == (solve_fifo(g, g.op_ids).makespan != bound)


@given(plan_triples(), st.integers(0, 40))
@settings(max_examples=150, deadline=None)
def test_bound_exit_keeps_the_search_budget(triple, budget):
    ops, alloc, prec, scene = triple
    g = build_graph(ops, prec, alloc, scene)
    outcomes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shopfloor.solve, "SEARCH_BUDGET", budget)
        for solver in (brute_force_optimal, _search):
            try:
                s = solver(g)
            except InstanceTooLarge as exc:
                outcomes.append(str(exc))
            else:
                outcomes.append((list(s.start_steps.items()), s.makespan))
    assert outcomes[0] == outcomes[1]


def test_generator_searches_only_where_fifo_misses_the_bound(monkeypatch):
    entered = []
    _recording_search(monkeypatch, entered)
    searched = []
    for tier in Tier:
        for seed in range(100):
            before = len(entered)
            generate_instance(tier, seed)
            if len(entered) > before:
                searched.append((tier, seed))
    assert searched == [(Tier.COMPLEX_MULTI, seed) for seed in (43, 44, 59)]


@given(plan_triples(max_workpieces=3, max_ops_per=2, n_robots=3))
@settings(max_examples=60, deadline=None)
def test_order_insensitive_when_conflict_free(triple):
    ops, alloc, prec, scene = triple
    g = build_graph(ops, prec, alloc, scene)
    if g.disjunctive:
        return  # only the conflict-free case has an order-free makespan
    forward = solve_fifo(g, [op.id for op in ops])
    backward = solve_fifo(g, [op.id for op in reversed(ops)])
    assert forward.makespan == backward.makespan
    assert forward.start_steps == backward.start_steps

@given(st.one_of(plan_triples(), generated_triples()), st.data())
@settings(max_examples=120, deadline=None)
def test_predecessors_close_to_every_earlier_rival(triple, data):
    # The executor waits on predecessors(); on a feasible schedule their
    # closure must equal that of waiting on every rival that starts earlier,
    # so the same operations launch and block.
    ops, alloc, prec, scene = triple
    g = build_graph(ops, prec, alloc, scene)
    schedules = [
        solve_fifo(g, data.draw(st.permutations([op.id for op in ops]))),
        brute_force_optimal(g),
    ]
    for s in schedules:
        assert is_feasible(s, g)
        assert transitive_closure(s.predecessors()) == transitive_closure(
            predecessors_by_rivals(s)
        )


@given(st.one_of(plan_triples(), generated_triples()), st.data())
@settings(max_examples=120, deadline=None)
def test_fifo_in_start_step_order_replays_the_schedule(triple, data):
    # Both solvers launch a maximal conflict-free set of the ready operations
    # at each step, so FIFO over the operations sorted by start step launches
    # that set first and finds every ready operation listed after it blocked.
    # Generated ground truths rely on this to be replayed from their order.
    ops, alloc, prec, scene = triple
    g = build_graph(ops, prec, alloc, scene)
    order = data.draw(st.permutations([op.id for op in ops]))
    schedules = [solve_fifo(g, order), brute_force_optimal(g)]
    for s in schedules:
        replay = solve_fifo(g, sorted(order, key=s.start_steps.__getitem__))
        assert replay.start_steps == s.start_steps


@given(st.one_of(plan_triples(n_robots=2), generated_triples()), st.data())
@settings(max_examples=150, deadline=None)
def test_fault_names_the_earliest_clash_of_the_arcs(triple, data):
    # Chains run forward from a few low steps, so the clash rule decides and
    # three or more users often meet on one step.
    ops, alloc, prec, scene = triple
    g = build_graph(ops, prec, alloc, scene)
    steps = {}
    for chain in g.chains:
        step = data.draw(st.integers(0, 2))
        for op in chain:
            steps[op] = step
            step += data.draw(st.integers(1, 2))
    span = max(steps.values()) + 1 if steps else 0
    slow = (
        f"schedule record claims makespan {span} for {len(ops)} operations; "
        f"a step would start none"
        if span > len(ops)
        else None
    )
    assert _fault(g, steps, span) == (earliest_clash_by_arcs(g, steps) or slow)


def test_three_users_on_one_step_name_the_two_smallest_ids():
    # In plan order a, c, b the two smallest ids are not neighbours.
    ops = tuple(make_op(op, OperationType.POLISHING, f"w{op}", f"m{op}") for op in "acb")
    alloc = Allocation(by_op=dict.fromkeys("acb", "r1"))
    prec = PrecedenceSet(chains={f"w{op}": (op,) for op in "acb"})
    scene = make_scene(
        robots=(make_robot("r1", reachable=("ma", "mb", "mc")),),
        machines=tuple(make_machine(f"m{op}", held=(f"w{op}",)) for op in "abc"),
        workpieces=tuple(make_workpiece(f"w{op}", states=()) for op in "abc"),
    )
    g = build_graph(ops, prec, alloc, scene)
    record = ScheduleRecord(start_steps={"c": 0, "a": 0, "b": 0}, makespan=1)
    with pytest.raises(ValidationError, match="'a' and 'b' share step 0"):
        schedule_from_record(g, record)


def test_scoring_path_never_builds_the_arc_set(monkeypatch):
    derived = []
    arcs = DisjunctiveGraph.disjunctive.fget
    monkeypatch.setattr(
        DisjunctiveGraph, "disjunctive", property(lambda g: derived.append(g) or arcs(g))
    )
    task = generate_instance(Tier.COMPLEX_MULTI, 0)
    gt = task.ground_truth
    graph = build_graph(gt.operations, gt.precedence, gt.allocation, task.scene)
    schedule = solve_fifo(graph, [op.id for op in gt.operations])
    program = assemble_program(load_reference_tree(), gt.operations, gt.allocation, task.scene)
    assert execute(schedule, program, task.scene, gt.operations).executed_fully
    assert _fault(graph, schedule.start_steps, schedule.makespan) is None
    assert schedule_from_record(graph, gt.schedule).makespan == gt.schedule.makespan
    assert derived == []
    assert graph.disjunctive and derived == [graph]  # the count sees a read
