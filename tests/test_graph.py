"""Disjunctive graph construction, helper maps and GraphViz export."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from shopfloor.errors import ValidationError
from shopfloor.graph import (
    SOURCE,
    TERMINAL,
    MachineArc,
    RobotArc,
    build_graph,
    conjunctive_predecessors,
    disjunctive_neighbours,
    to_dot,
)
from shopfloor.model import Allocation, OperationType, PrecedenceSet

from conftest import make_machine, make_op, make_robot, make_scene, make_workpiece, transport
from strategies import plan_triples


def _two_by_two():
    """2 workpieces x 2 ops, one robot for everything, one shared machine.

    Expected by hand: the only machine collision is a1/b1 on m_shared
    (1 machine arc); all 4 cross-workpiece pairs share the robot
    (4 robot arcs); same-workpiece pairs are chain-ordered, no arcs.
    """
    ops = (
        make_op("a1", OperationType.POLISHING, "w1", "m_shared"),
        make_op("a2", OperationType.WELDING, "w1", "m_a2"),
        make_op("b1", OperationType.POLISHING, "w2", "m_shared"),
        make_op("b2", OperationType.WELDING, "w2", "m_b2"),
    )
    alloc = Allocation(by_op={o.id: "r1" for o in ops})
    prec = PrecedenceSet(chains={"w1": ("a1", "a2"), "w2": ("b1", "b2")})
    machines = (
        make_machine("m_shared"),
        make_machine("m_a2"),
        make_machine("m_b2"),
        make_machine("dock", exclusive=False, held=("w1", "w2")),
    )
    scene = make_scene(
        robots=(make_robot("r1", reachable=("m_shared", "m_a2", "m_b2", "dock")),),
        machines=machines,
        workpieces=(make_workpiece("w1", states=()), make_workpiece("w2", states=())),
    )
    return ops, alloc, prec, scene


def test_empty_plan_gives_bare_graph(scene):
    g = build_graph((), PrecedenceSet(chains={}), Allocation(by_op={}), scene)
    assert g.op_ids == ()
    assert g.conjunctive == ()
    assert not g.machine_arcs and not g.robot_arcs


def test_shared_machine_and_robot_arc_counts():
    ops, alloc, prec, scene = _two_by_two()
    g = build_graph(ops, prec, alloc, scene)
    assert g.machine_arcs == {MachineArc("a1", "b1", "m_shared")}
    assert g.robot_arcs == {
        RobotArc("a1", "b1", "r1"),
        RobotArc("a1", "b2", "r1"),
        RobotArc("a2", "b1", "r1"),
        RobotArc("a2", "b2", "r1"),
    }
    # A pair sharing both a machine and the robot carries one arc per resource.
    pair_arcs = [arc for arc in g.disjunctive if {arc.a, arc.b} == {"a1", "b1"}]
    assert len(pair_arcs) == 2


def test_conjunctive_chains_wrap_source_and_terminal():
    ops, alloc, prec, scene = _two_by_two()
    g = build_graph(ops, prec, alloc, scene)
    assert (SOURCE, "a1") in g.conjunctive
    assert ("a1", "a2") in g.conjunctive
    assert ("a2", TERMINAL) in g.conjunctive
    assert (SOURCE, "b1") in g.conjunctive
    assert ("b2", TERMINAL) in g.conjunctive
    assert len(g.conjunctive) == 6


def test_non_exclusive_machine_creates_no_arc():
    ops = (
        transport("x1", "w1", "dock", "m_a2"),
        transport("y1", "w2", "dock", "m_b2"),
    )
    alloc = Allocation(by_op={"x1": "r1", "y1": "r2"})
    prec = PrecedenceSet(chains={"w1": ("x1",), "w2": ("y1",)})
    machines = (
        make_machine("dock", exclusive=False, held=("w1", "w2")),
        make_machine("m_a2"),
        make_machine("m_b2"),
    )
    scene = make_scene(
        robots=(make_robot("r1", reachable=("dock", "m_a2")),
                make_robot("r2", reachable=("dock", "m_b2"))),
        machines=machines,
        workpieces=(make_workpiece("w1", states=()), make_workpiece("w2", states=())),
    )
    g = build_graph(ops, prec, alloc, scene)
    # Both transports load from the shared dock, but it admits concurrency.
    assert g.machine_arcs == frozenset()
    assert g.robot_arcs == frozenset()


def test_transport_occupies_both_machines():
    ops = (
        transport("x1", "w1", "dock", "m_target"),
        make_op("y1", OperationType.POLISHING, "w2", "m_target"),
    )
    alloc = Allocation(by_op={"x1": "r1", "y1": "r2"})
    prec = PrecedenceSet(chains={"w1": ("x1",), "w2": ("y1",)})
    machines = (
        make_machine("dock", exclusive=False, held=("w1", "w2")),
        make_machine("m_target"),
    )
    scene = make_scene(
        robots=(make_robot("r1", reachable=("dock", "m_target")),
                make_robot("r2", reachable=("m_target",))),
        machines=machines,
        workpieces=(make_workpiece("w1", states=()), make_workpiece("w2", states=())),
    )
    g = build_graph(ops, prec, alloc, scene)
    assert g.machine_arcs == {MachineArc("x1", "y1", "m_target")}


def test_unchained_operation_rejected():
    ops, alloc, prec, scene = _two_by_two()
    broken = PrecedenceSet(chains={"w1": ("a1", "a2"), "w2": ("b1",)})
    with pytest.raises(ValidationError, match="missing from every chain"):
        build_graph(ops, broken, alloc, scene)


def test_dot_export_styles():
    ops, alloc, prec, scene = _two_by_two()
    g = build_graph(ops, prec, alloc, scene)
    dot = to_dot(g)
    assert dot.startswith("digraph plan {")
    assert '"__source__" -> "a1";' in dot
    assert 'style=dashed' in dot
    assert 'label="machine m_shared"' in dot
    assert 'label="robot r1"' in dot


# ---------------------------------------------------------------------------
# properties


@given(plan_triples())
@settings(max_examples=120, deadline=None)
def test_build_graph_invariants(triple):
    ops, alloc, prec, scene = triple
    g = build_graph(ops, prec, alloc, scene)
    by_id = {op.id: op for op in ops}
    exclusive = {m.id for m in scene.machines if m.exclusive}

    assert set(g.op_ids) == set(by_id)

    # Disjunctive arcs never duplicate a conjunctive ordering: chains totally
    # order each workpiece, so endpoints always belong to different workpieces.
    for arc in g.disjunctive:
        assert by_id[arc.a].workpiece != by_id[arc.b].workpiece
        assert arc.a < arc.b

    for arc in g.machine_arcs:
        assert arc.machine in exclusive
        assert arc.machine in by_id[arc.a].machines_used()
        assert arc.machine in by_id[arc.b].machines_used()
    for arc in g.robot_arcs:
        assert alloc.robot_for(arc.a) == arc.robot == alloc.robot_for(arc.b)

    # Completeness: every conflicting cross-workpiece pair is covered.
    for i, a in enumerate(ops):
        for b in ops[i + 1:]:
            if a.workpiece == b.workpiece:
                continue
            shared = set(a.machines_used()) & set(b.machines_used()) & exclusive
            u, v = (a.id, b.id) if a.id < b.id else (b.id, a.id)
            for m in shared:
                assert MachineArc(u, v, m) in g.machine_arcs
            if alloc.robot_for(a.id) == alloc.robot_for(b.id):
                assert RobotArc(u, v, alloc.robot_for(a.id)) in g.robot_arcs

    # Every operation is reachable from the source along conjunctive arcs.
    reached: set[str] = set()
    frontier = [SOURCE]
    succ: dict[str, list[str]] = {}
    for u, v in g.conjunctive:
        succ.setdefault(u, []).append(v)
    while frontier:
        u = frontier.pop()
        for v in succ.get(u, ()):
            if v not in reached:
                reached.add(v)
                frontier.append(v)
    assert set(g.op_ids) <= reached


@given(plan_triples(max_workpieces=3, max_ops_per=2))
@settings(max_examples=60, deadline=None)
def test_helper_maps_agree_with_arcs(triple):
    ops, alloc, prec, scene = triple
    g = build_graph(ops, prec, alloc, scene)
    preds = conjunctive_predecessors(g)
    for w, chain in prec.chains.items():
        for u, v in zip(chain, chain[1:]):
            assert u in preds[v]
    adj = disjunctive_neighbours(g)
    for arc in g.disjunctive:
        assert arc.b in adj[arc.a] and arc.a in adj[arc.b]
