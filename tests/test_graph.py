"""Disjunctive graph construction, derived relations and GraphViz export."""

from __future__ import annotations

import re

from hypothesis import given, settings

from shopfloor.graph import DisjunctiveArc, DisjunctiveGraph, build_graph, to_dot
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
    assert g.chains == ()
    assert g.disjunctive == frozenset()


def test_shared_machine_and_robot_arc_counts():
    ops, alloc, prec, scene = _two_by_two()
    g = build_graph(ops, prec, alloc, scene)
    assert g.disjunctive == {
        DisjunctiveArc("a1", "b1", "machine", "m_shared"),
        DisjunctiveArc("a1", "b1", "robot", "r1"),
        DisjunctiveArc("a1", "b2", "robot", "r1"),
        DisjunctiveArc("a2", "b1", "robot", "r1"),
        DisjunctiveArc("a2", "b2", "robot", "r1"),
    }
    # A pair sharing both a machine and the robot carries one arc per resource.
    pair_arcs = [arc for arc in g.disjunctive if {arc.a, arc.b} == {"a1", "b1"}]
    assert len(pair_arcs) == 2


def test_conjunctive_chains_wrap_source_and_terminal():
    ops, alloc, prec, scene = _two_by_two()
    g = build_graph(ops, prec, alloc, scene)
    assert g.chains == (("a1", "a2"), ("b1", "b2"))
    # The graph keeps the bare chains; to_dot wraps each in source and terminal.
    conjunctive = [
        line for line in to_dot(g).splitlines() if "->" in line and "dir=none" not in line
    ]
    assert conjunctive == [
        '  "__source__" -> "a1";',
        '  "a1" -> "a2";',
        '  "a2" -> "__terminal__";',
        '  "__source__" -> "b1";',
        '  "b1" -> "b2";',
        '  "b2" -> "__terminal__";',
    ]


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
    assert g.disjunctive == frozenset()


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
    assert g.disjunctive == {DisjunctiveArc("x1", "y1", "machine", "m_target")}


def test_dot_export_styles():
    ops, alloc, prec, scene = _two_by_two()
    g = build_graph(ops, prec, alloc, scene)
    assert to_dot(g) == """\
digraph plan {
  rankdir=LR;
  "__source__" [label="source", shape=circle];
  "__terminal__" [label="terminal", shape=doublecircle];
  "a1" [shape=box];
  "a2" [shape=box];
  "b1" [shape=box];
  "b2" [shape=box];
  "__source__" -> "a1";
  "a1" -> "a2";
  "a2" -> "__terminal__";
  "__source__" -> "b1";
  "b1" -> "b2";
  "b2" -> "__terminal__";
  "a1" -> "b1" [dir=none, style=dashed, color=firebrick, label="machine m_shared"];
  "a1" -> "b1" [dir=none, style=dashed, color=steelblue, label="robot r1"];
  "a1" -> "b2" [dir=none, style=dashed, color=steelblue, label="robot r1"];
  "a2" -> "b1" [dir=none, style=dashed, color=steelblue, label="robot r1"];
  "a2" -> "b2" [dir=none, style=dashed, color=steelblue, label="robot r1"];
}
"""


# A DOT quoted string: only an escaped character may follow a backslash,
# so an escaped quote never ends it and a trailing backslash never runs on.
_DOT_STRING = r'"(?:[^"\\]|\\.)*"'
_DOT_LINE = re.compile(
    rf"  {_DOT_STRING}(?: -> {_DOT_STRING})?(?: \[(?:[a-z]+=(?:[a-z]+|{_DOT_STRING})(?:, )?)+\])?;"
)


def test_dot_export_escapes_quotes_and_backslashes_in_ids():
    g = DisjunctiveGraph(
        op_ids=('o"1', "x\\"),
        chains=(('o"1',), ("x\\",)),
        resources={("robot", 'r"1'): ('o"1', "x\\")},
    )
    lines = to_dot(g).splitlines()
    assert lines[4:] == [
        r'  "o\"1" [shape=box];',
        r'  "x\\" [shape=box];',
        r'  "__source__" -> "o\"1";',
        r'  "o\"1" -> "__terminal__";',
        r'  "__source__" -> "x\\";',
        r'  "x\\" -> "__terminal__";',
        r'  "o\"1" -> "x\\" [dir=none, style=dashed, color=steelblue, label="robot r\"1"];',
        "}",
    ]
    assert all(_DOT_LINE.fullmatch(line) for line in lines[2:-1])


def test_hand_built_graph_derives_its_relations():
    g = DisjunctiveGraph(
        op_ids=("a", "b", "c"),
        chains=(("a", "b"), ("c",)),
        resources={("robot", "r1"): ("a", "b", "c"), ("machine", "m1"): ("b",)},
    )
    assert g.preds == {"a": set(), "b": {"a"}, "c": set()}
    assert g.held == {
        "a": (("robot", "r1"),),
        "b": (("robot", "r1"), ("machine", "m1")),
        "c": (("robot", "r1"),),
    }
    # a and b share the robot but are ordered by their chain: no arc.
    assert g.disjunctive == {
        DisjunctiveArc("a", "c", "robot", "r1"),
        DisjunctiveArc("b", "c", "robot", "r1"),
    }


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

    for arc in g.disjunctive:
        if arc.kind == "machine":
            assert arc.resource in exclusive
            assert arc.resource in by_id[arc.a].machines_used()
            assert arc.resource in by_id[arc.b].machines_used()
        else:
            assert arc.kind == "robot"
            assert alloc.robot_for(arc.a) == arc.resource == alloc.robot_for(arc.b)

    # Completeness: every conflicting cross-workpiece pair is covered.
    for i, a in enumerate(ops):
        for b in ops[i + 1:]:
            if a.workpiece == b.workpiece:
                continue
            shared = set(a.machines_used()) & set(b.machines_used()) & exclusive
            u, v = (a.id, b.id) if a.id < b.id else (b.id, a.id)
            for m in shared:
                assert DisjunctiveArc(u, v, "machine", m) in g.disjunctive
            if alloc.robot_for(a.id) == alloc.robot_for(b.id):
                assert DisjunctiveArc(u, v, "robot", alloc.robot_for(a.id)) in g.disjunctive

    # The chains are the plan's non-empty chains in workpiece order, so the
    # source reaches every operation along them.
    assert g.chains == tuple(prec.chains[w] for w in sorted(prec.chains) if prec.chains[w])
    assert sorted(op for chain in g.chains for op in chain) == sorted(g.op_ids)


@given(plan_triples(max_workpieces=3, max_ops_per=2))
@settings(max_examples=60, deadline=None)
def test_helper_maps_agree_with_arcs(triple):
    ops, alloc, prec, scene = triple
    g = build_graph(ops, prec, alloc, scene)
    expected_preds = {op.id: set() for op in ops}
    for chain in prec.chains.values():
        for u, v in zip(chain, chain[1:]):
            expected_preds[v].add(u)
    assert g.preds == expected_preds
    # Each operation holds its exclusive machines and its robot, and each
    # resource lists its users in plan order.
    exclusive = {m.id for m in scene.machines if m.exclusive}
    expected_held = {
        op.id: {("machine", m) for m in op.machines_used() if m in exclusive}
        | {("robot", alloc.robot_for(op.id))}
        for op in ops
    }
    assert {op: set(held) for op, held in g.held.items()} == expected_held
    for resource, users in g.resources.items():
        assert users == tuple(op.id for op in ops if resource in expected_held[op.id])
    # The arcs are exactly the cross-workpiece pairs that hold one resource.
    by_id = {op.id: op for op in ops}
    assert g.disjunctive == {
        DisjunctiveArc(a, b, kind, resource)
        for a in g.op_ids
        for b in g.op_ids
        if a < b and by_id[a].workpiece != by_id[b].workpiece
        for kind, resource in set(g.held[a]) & set(g.held[b])
    }
