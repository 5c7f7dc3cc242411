"""Gantt rendering: same labels in text and SVG, deterministic layout."""

from __future__ import annotations

import xml.etree.ElementTree as ET

from shopfloor.gantt import render_gantt
from shopfloor.graph import build_graph
from shopfloor.model import Allocation, Operation, OperationType
from shopfloor.solve import ScheduleGraph, solve_fifo

from conftest import arcless, make_scene, simple_plan


def chart_for_simple_plan():
    scene = make_scene()
    ops, alloc, prec = simple_plan()
    graph = build_graph(ops, prec, alloc, scene)
    schedule = solve_fifo(graph, [op.id for op in ops])
    return render_gantt(schedule, alloc, ops), ops


def test_text_grid_places_ops_on_robot_rows():
    chart, ops = chart_for_simple_plan()
    lines = chart.text.splitlines()
    assert lines[0].startswith("robot")
    r1_row = next(line for line in lines if line.startswith("r1"))
    r2_row = next(line for line in lines if line.startswith("r2"))
    assert "t1 (transport)" in r1_row
    assert "p1 (polishing)" in r1_row
    assert "t4 (transport)" in r2_row
    assert "t1" not in r2_row
    # serial schedule: six step columns in the header
    assert [c.strip() for c in lines[0].split("|")[1:]] == ["0", "1", "2", "3", "4", "5"]


def test_text_and_svg_carry_identical_labels():
    chart, ops = chart_for_simple_plan()
    for op in ops:
        label = f"{op.id} ({op.op_type.value})"
        assert label in chart.text
        assert chart.text.count(label) == 1
        assert chart.svg.count(f">{label}<") == 1


def test_svg_is_well_formed_with_one_filled_cell_per_op():
    chart, ops = chart_for_simple_plan()
    root = ET.fromstring(chart.svg)
    assert root.tag.endswith("svg")
    fills = [
        el
        for el in root.iter("{http://www.w3.org/2000/svg}rect")
        if el.get("fill") not in (None, "none")
    ]
    assert len(fills) == len(ops)


def test_empty_schedule_renders_placeholder():
    schedule = ScheduleGraph(
        graph=arcless(),
        start_steps={},
        makespan=0,
    )
    chart = render_gantt(schedule, Allocation(by_op={}), ())
    assert chart.text == "(empty schedule)\n"
    assert "(empty schedule)" in chart.svg
    ET.fromstring(chart.svg)


def test_rendering_is_deterministic():
    first, _ = chart_for_simple_plan()
    second, _ = chart_for_simple_plan()
    assert first == second


def test_colliding_cells_join_labels():
    ops, alloc, prec = simple_plan()
    schedule = ScheduleGraph(
        graph=arcless("t1", "t3"),
        start_steps={"t1": 0, "t3": 0},
        makespan=1,
    )
    merged = Allocation(by_op={"t1": "r1", "t3": "r1"})
    chart = render_gantt(schedule, merged, ops)
    assert "t1 (transport), t3 (transport)" in chart.text
    assert "t1 (transport), t3 (transport)" in chart.svg


def test_missing_allocation_renders_unassigned_row():
    ops, alloc, prec = simple_plan()
    schedule = ScheduleGraph(
        graph=arcless("t1"),
        start_steps={"t1": 0},
        makespan=1,
    )
    chart = render_gantt(schedule, Allocation(by_op={}), ops)
    assert "(unassigned)" in chart.text


def test_svg_text_escapes_ampersand_and_angle_brackets():
    schedule = ScheduleGraph(graph=arcless("a&b<c>"), start_steps={"a&b<c>": 0}, makespan=1)
    ops = (Operation("a&b<c>", OperationType.TRANSPORT, "w1", "m1", "m2"),)
    chart = render_gantt(schedule, Allocation(by_op={"a&b<c>": "r<1>&co"}), ops)
    assert '<text x="4" y="44">r&lt;1&gt;&amp;co</text>' in chart.svg
    assert '<text x="114" y="44">a&amp;b&lt;c&gt; (transport)</text>' in chart.svg
    # the text chart is plain text and keeps the characters as they are
    assert "r<1>&co | a&b<c> (transport)" in chart.text
    texts = [el.text for el in ET.fromstring(chart.svg).iter("{http://www.w3.org/2000/svg}text")]
    assert texts[-2:] == ["r<1>&co", "a&b<c> (transport)"]
