"""Symbolic execution: launch gating, failure localization, state effects."""

from __future__ import annotations

import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shopfloor import executor
from shopfloor.bench import Tier, generate_instance
from shopfloor.errors import ParseError
from shopfloor.executor import (
    FAILURE_REASONS,
    Failure,
    OperationRun,
    StepRecord,
    execute,
    parse_trace,
    trace_to_jsonl,
)
from shopfloor.graph import build_graph
from shopfloor.model import (
    Allocation,
    OperationType,
    PrecedenceSet,
    SKILLS,
    Program,
    ProgramCall,
    Scene,
    SkillCall,
    Wrapper,
)
from shopfloor.solve import ScheduleGraph, schedule_from_record, solve_fifo
from shopfloor.tree import assemble_program, load_reference_tree

from conftest import (
    FULL_KIT,
    LINE_BREAKS,
    arcless,
    make_machine,
    make_op,
    make_robot,
    make_scene,
    make_workpiece,
    simple_plan,
    transport,
)
from strategies import execute_by_argument, plan_triples

TREE = load_reference_tree()


def fifo_schedule(ops, alloc, prec, scene, order=None):
    graph = build_graph(ops, prec, alloc, scene)
    return solve_fifo(graph, order or [op.id for op in ops])


def run_plan(ops, alloc, prec, scene, exec_scene=None):
    """Assemble against scene, then execute, optionally on a changed scene."""
    schedule = fifo_schedule(ops, alloc, prec, scene)
    program = assemble_program(TREE, ops, alloc, scene)
    return execute(schedule, program, exec_scene or scene, ops)


def one_piece_scene(held_at="conveyor", robot_devices=FULL_KIT, table_points=("Photo_Point",)):
    """One workpiece, one robot, a conveyor, a polishing table, one pallet."""
    return make_scene(
        robots=(make_robot("r1", devices=robot_devices),),
        machines=(
            make_machine("conveyor", name="conveyor belt", exclusive=False,
                         held=("w1",) if held_at == "conveyor" else ()),
            make_machine("table_1", points=table_points,
                         held=("w1",) if held_at == "table_1" else ()),
            make_machine("pallet_1", name="pallet", points=()),
        ),
        workpieces=(make_workpiece("w1"),),
    )


# ---------------------------------------------------------------------------
# status facts


def test_empty_schedule_runs_vacuously(scene):
    outcome = run_plan((), Allocation(by_op={}), PrecedenceSet(chains={}), scene)
    assert outcome.trace == ()
    assert outcome.executed_fully is True
    assert outcome.status == frozenset()


def test_single_transport_moves_workpiece():
    scene = one_piece_scene()
    ops = (transport("t1", "w1", "conveyor", "table_1"),)
    outcome = run_plan(ops, Allocation(by_op={"t1": "r1"}),
                       PrecedenceSet(chains={"w1": ("t1",)}), scene)
    assert outcome.executed_fully is True
    assert len(outcome.trace) == 1
    (run,) = outcome.trace[0].operations
    assert run.op_id == "t1"
    assert run.robot == "r1"
    assert run.skills == (
        SkillCall("convert_to_robot", ("r1", "conveyor", "Photo_Point")),
        SkillCall("motion_plan", ("r1", "conveyor", "Photo_Point")),
        SkillCall("move_by_path", ("r1",)),
        SkillCall("control_device", ("r1", "camera", "on")),
        SkillCall("control_device", ("r1", "magnetic_gripper", "on")),
        SkillCall("attach", ("r1", "w1", "conveyor")),
        SkillCall("move_by_path", ("r1",)),
        SkillCall("detach", ("r1", "w1", "table_1")),
        SkillCall("return_home", ("r1",)),
    )
    assert outcome.trace[0].failures == ()
    assert outcome.status == {("w1", "at(table_1)")}


def test_full_plan_reaches_pallets(scene, plan):
    ops, alloc, prec = plan
    schedule = fifo_schedule(ops, alloc, prec, scene)
    assert schedule.start_steps == {"t1": 0, "p1": 1, "t2": 2,
                                    "t3": 3, "p2": 4, "t4": 5}
    outcome = execute(schedule, assemble_program(TREE, ops, alloc, scene), scene, ops)
    assert outcome.executed_fully is True
    # table contention forces a serial run: one launch per step
    assert [len(r.operations) for r in outcome.trace] == [1] * 6
    assert all(r.failures == () for r in outcome.trace)
    assert outcome.status == {
        ("w1", "at(pallet_1)"),
        ("w1", "polished"),
        ("w2", "at(pallet_2)"),
        ("w2", "polished"),
    }


def test_a_workpiece_carried_back_to_its_start_gains_no_location_fact():
    scene = one_piece_scene()
    ops = (
        transport("t1", "w1", "conveyor", "table_1"),
        make_op("p1", machine_1="table_1"),
        transport("t2", "w1", "table_1", "conveyor"),
    )
    outcome = run_plan(ops, Allocation(by_op=dict.fromkeys(("t1", "p1", "t2"), "r1")),
                       PrecedenceSet(chains={"w1": ("t1", "p1", "t2")}), scene)
    assert outcome.executed_fully is True
    assert outcome.status == {("w1", "polished")}


@pytest.mark.parametrize("op, device", [
    (make_op("p1", machine_1="conveyor"), "polisher"),
    (transport("p1", "w1", "conveyor", "table_1"), "camera"),
])
def test_an_operation_that_fails_adds_neither_its_flag_nor_its_location(op, device):
    planned = one_piece_scene()
    broken = one_piece_scene(robot_devices=FULL_KIT - {device})
    outcome = run_plan((op,), Allocation(by_op={"p1": "r1"}),
                       PrecedenceSet(chains={"w1": ("p1",)}), planned, exec_scene=broken)
    assert [f.reason for f in outcome.trace[0].failures] == ["missing_device"]
    assert outcome.status == frozenset()


def test_concurrent_launches_read_step_start_state():
    # a transport and a processing step on the same workpiece share step 0;
    # the polish sees the workpiece still at the conveyor because effects
    # apply only when the step ends
    scene = one_piece_scene()
    ops = (
        transport("mv", "w1", "conveyor", "table_1"),
        make_op("po", OperationType.POLISHING, "w1", "conveyor"),
    )
    alloc = Allocation(by_op={"mv": "r1", "po": "r1"})
    schedule = ScheduleGraph(
        graph=arcless("mv", "po"),
        start_steps={"mv": 0, "po": 0},
        makespan=1,
    )
    program = assemble_program(TREE, ops, alloc, scene)
    outcome = execute(schedule, program, scene, ops)
    assert outcome.executed_fully is True
    assert {r.op_id for r in outcome.trace[0].operations} == {"mv", "po"}
    assert outcome.status == {("w1", "at(table_1)"), ("w1", "polished")}


def test_operations_sharing_a_step_launch_in_sorted_id_order():
    scene = one_piece_scene()
    ops = (
        transport("mv", "w1", "conveyor", "table_1"),
        make_op("po", OperationType.POLISHING, "w1", "conveyor"),
    )
    alloc = Allocation(by_op={"mv": "r1", "po": "r1"})
    schedule = ScheduleGraph(
        graph=arcless("mv", "po"),
        start_steps={"po": 0, "mv": 0},
        makespan=1,
    )
    program = assemble_program(TREE, ops, alloc, scene)
    for order in (ops, ops[::-1]):
        outcome = execute(schedule, program, scene, order)
        assert [r.op_id for r in outcome.trace[0].operations] == ["mv", "po"]


# ---------------------------------------------------------------------------
# failure localization


def polish_only_plan():
    ops = (make_op("p1", machine_1="table_1"),)
    return ops, Allocation(by_op={"p1": "r1"}), PrecedenceSet(chains={"w1": ("p1",)})


def test_missing_device_fails_at_offending_skill():
    planned = one_piece_scene(held_at="table_1")
    broken = one_piece_scene(held_at="table_1",
                             robot_devices=FULL_KIT - {"polisher"})
    ops, alloc, prec = polish_only_plan()
    outcome = run_plan(ops, alloc, prec, planned, exec_scene=broken)
    assert outcome.executed_fully is False
    (run,) = outcome.trace[0].operations
    # photo prefix (4 skills) ran, then detect/compute/move, then the failure
    assert len(run.skills) == 8
    assert run.skills[-1] == SkillCall(
        "control_device", ("{robot}", "{device:polisher}", "on")
    )
    assert outcome.trace[0].failures == (Failure("p1", 7, "missing_device"),)
    assert outcome.status == frozenset()


def test_missing_point_fails_at_first_skill():
    planned = one_piece_scene(held_at="table_1")
    stripped = one_piece_scene(held_at="table_1", table_points=())
    ops, alloc, prec = polish_only_plan()
    outcome = run_plan(ops, alloc, prec, planned, exec_scene=stripped)
    (run,) = outcome.trace[0].operations
    assert run.skills == (
        SkillCall("convert_to_robot", ("{robot}", "{machine_1}", "{point:Photo_Point}")),
    )
    assert outcome.trace[0].failures == (Failure("p1", 0, "missing_point"),)


def test_wrong_location_fails_before_any_skill():
    scene = one_piece_scene(held_at="conveyor")
    ops, alloc, prec = polish_only_plan()
    outcome = run_plan(ops, alloc, prec, scene)
    (run,) = outcome.trace[0].operations
    assert run.skills == ()
    assert outcome.trace[0].failures == (Failure("p1", -1, "wrong_location"),)
    assert outcome.executed_fully is False
    assert outcome.status == frozenset()


def test_missing_call_reported_without_a_run():
    scene = one_piece_scene(held_at="table_1")
    ops, alloc, prec = polish_only_plan()
    schedule = fifo_schedule(ops, alloc, prec, scene)
    empty = Program(calls=(), wrappers={}, executions={})
    outcome = execute(schedule, empty, scene, ops)
    assert outcome.trace[0].operations == ()
    assert outcome.trace[0].failures == (Failure("p1", -1, "missing_call"),)
    assert outcome.executed_fully is False


def hand_program(execution, binding=None):
    binding = binding or {"robot": "r1", "machine_1": "table_1", "workpiece": "w1"}
    return Program(
        calls=(ProgramCall(op_id="p1", wrapper="op_p1", args=binding),),
        wrappers={"op_p1": Wrapper(execution="exec_x", binding=binding)},
        executions={"exec_x": tuple(execution)},
    )


def test_unknown_skill_fails_at_its_index():
    scene = one_piece_scene(held_at="table_1")
    ops, alloc, prec = polish_only_plan()
    schedule = fifo_schedule(ops, alloc, prec, scene)
    program = hand_program([SkillCall("return_home", ("{robot}",)),
                            SkillCall("levitate", ("{robot}",))])
    outcome = execute(schedule, program, scene, ops)
    assert outcome.trace[0].failures == (Failure("p1", 1, "unknown_skill"),)
    (run,) = outcome.trace[0].operations
    assert run.skills == (SkillCall("return_home", ("r1",)),
                          SkillCall("levitate", ("{robot}",)))


def test_unbound_placeholder_fails_at_its_index():
    scene = one_piece_scene(held_at="table_1")
    ops, alloc, prec = polish_only_plan()
    schedule = fifo_schedule(ops, alloc, prec, scene)
    program = hand_program([SkillCall("detach", ("{robot}", "{workpiece}", "{machine_2}"))])
    outcome = execute(schedule, program, scene, ops)
    assert outcome.trace[0].failures == (Failure("p1", 0, "unbound_placeholder"),)


def test_unbound_placeholder_run_keeps_the_resolved_prefix():
    scene = one_piece_scene(held_at="table_1")
    ops, alloc, prec = polish_only_plan()
    schedule = fifo_schedule(ops, alloc, prec, scene)
    unbound = SkillCall("detach", ("{robot}", "{workpiece}", "{machine_2}"))
    program = hand_program([SkillCall("return_home", ("{robot}",)), unbound])
    outcome = execute(schedule, program, scene, ops)
    assert outcome.trace[0].operations == (
        OperationRun("p1", "r1", (SkillCall("return_home", ("r1",)), unbound)),
    )
    assert outcome.trace[0].failures == (Failure("p1", 1, "unbound_placeholder"),)
    assert outcome.status == frozenset()


def test_every_operation_checks_the_summary_before_the_memo():
    """One execution run, without relinking, on scenes and bindings that
    each change one thing the summary check reads: each matches the
    oracle, whether or not the memo already holds calls for its binding.
    An unknown robot has no devices and an unknown machine no points."""

    def floor(devices=FULL_KIT, table_points=("Photo_Point", "Drop_Point"),
              pallet_points=("Drop_Point",)):
        return make_scene(
            robots=(make_robot("r1", devices=devices),),
            machines=(make_machine("table_1", points=table_points, held=("w1",)),
                      make_machine("pallet_1", name="pallet", points=pallet_points)),
            workpieces=(make_workpiece("w1"),),
        )

    skills = [
        SkillCall("control_device", ("{robot}", "{device:camera}", "on")),
        SkillCall("motion_plan", ("{robot}", "{machine_1}", "{point:Photo_Point}")),
        SkillCall("motion_plan", ("{robot}", "{point:Drop_Point}", "{machine_2}")),
    ]
    bound = {"robot": "r1", "machine_1": "table_1", "machine_2": "pallet_1", "workpiece": "w1"}
    ops, alloc, prec = polish_only_plan()
    schedule = fifo_schedule(ops, alloc, prec, floor())
    variants = [
        (floor(), bound, ()),
        (floor(devices=FULL_KIT - {"camera"}), bound, ((0, "missing_device"),)),
        (floor(table_points=("Drop_Point",)), bound, ((1, "missing_point"),)),
        (floor(pallet_points=()), bound, ((2, "missing_point"),)),
        (floor(), {**bound, "machine_1": "pallet_1"}, ((1, "missing_point"),)),
        (floor(), {**bound, "robot": "r9"}, ((0, "missing_device"),)),
        (floor(), {**bound, "machine_2": "nowhere"}, ((2, "missing_point"),)),
        # an unbound machine_2 reads the points of op.machine_1, table_1
        (floor(), {k: v for k, v in bound.items() if k != "machine_2"},
         ((2, "unbound_placeholder"),)),
    ]
    executor._link.cache_clear()
    for scene, binding, failed in variants + variants[::-1]:
        outcome = assert_runs_like_the_oracle(schedule, hand_program(skills, binding), scene, ops)
        assert outcome.trace[0].failures == tuple(Failure("p1", *f) for f in failed)


def test_missing_call_when_the_wrapper_names_no_execution():
    scene = one_piece_scene(held_at="table_1")
    ops, alloc, prec = polish_only_plan()
    schedule = fifo_schedule(ops, alloc, prec, scene)
    program = hand_program([SkillCall("return_home", ("{robot}",))])
    (wrapper,) = program.wrappers.values()
    orphaned = Program(
        calls=program.calls,
        wrappers={"op_p1": Wrapper(execution="exec_gone", binding=wrapper.binding)},
        executions=program.executions,
    )
    outcome = execute(schedule, orphaned, scene, ops)
    assert outcome.trace[0].operations == ()
    assert outcome.trace[0].failures == (Failure("p1", -1, "missing_call"),)
    assert outcome.executed_fully is False


def test_first_of_two_calls_for_an_operation_wins():
    scene = one_piece_scene(held_at="table_1")
    ops, alloc, prec = polish_only_plan()
    schedule = fifo_schedule(ops, alloc, prec, scene)
    program = hand_program([SkillCall("return_home", ("{robot}",))])
    stray = ProgramCall(op_id="p1", wrapper="op_missing", args={})
    first_good = Program(calls=program.calls + (stray,), wrappers=program.wrappers,
                         executions=program.executions)
    outcome = execute(schedule, first_good, scene, ops)
    assert outcome.executed_fully is True
    assert outcome.trace[0].operations == (
        OperationRun("p1", "r1", (SkillCall("return_home", ("r1",)),)),
    )
    first_bad = Program(calls=(stray,) + program.calls, wrappers=program.wrappers,
                        executions=program.executions)
    outcome = execute(schedule, first_bad, scene, ops)
    assert outcome.trace[0].failures == (Failure("p1", -1, "missing_call"),)


def test_schedule_without_definitions_is_rejected():
    scene = one_piece_scene(held_at="table_1")
    ops, alloc, prec = polish_only_plan()
    schedule = fifo_schedule(ops, alloc, prec, scene)
    with pytest.raises(ValueError, match="without definitions"):
        execute(schedule, hand_program([]), scene, ())


# ---------------------------------------------------------------------------
# failure propagation


def test_failure_blocks_descendants_but_not_independents():
    scene = make_scene(
        robots=(make_robot("r1"), make_robot("r2", reachable=("conveyor", "table_2"))),
        machines=(
            make_machine("conveyor", name="conveyor belt", exclusive=False),
            make_machine("table_1", held=("w1",)),
            make_machine("table_2", held=("w2",)),
            make_machine("pallet_1", name="pallet", points=()),
        ),
    )
    ops = (
        make_op("a1", machine_1="table_1", workpiece="w1"),
        transport("a2", "w1", "table_1", "pallet_1"),
        make_op("b1", machine_1="table_2", workpiece="w2"),
    )
    alloc = Allocation(by_op={"a1": "r1", "a2": "r1", "b1": "r2"})
    prec = PrecedenceSet(chains={"w1": ("a1", "a2"), "w2": ("b1",)})
    broken = Scene(
        robots=(make_robot("r1", devices=FULL_KIT - {"polisher"}), scene.robots[1]),
        machines=scene.machines,
        workpieces=scene.workpieces,
    )
    outcome = run_plan(ops, alloc, prec, scene, exec_scene=broken)
    assert outcome.executed_fully is False
    # a1 fails; b1, sharing nothing with it, still runs at step 0
    step0 = outcome.trace[0]
    assert {r.op_id for r in step0.operations} == {"a1", "b1"}
    assert step0.failures == (Failure("a1", 7, "missing_device"),)
    # a2 is never launched and earns no failure entry of its own
    assert outcome.trace[1].operations == ()
    assert outcome.trace[1].failures == ()
    assert outcome.status == {("w2", "polished")}


def two_tables_scene(r1_devices=FULL_KIT, table_1_points=("Photo_Point",)):
    """w1 waits on table_1 and w2 on table_2; both robots reach both tables."""
    reach = ("table_1", "table_2")
    return make_scene(
        robots=(make_robot("r1", devices=r1_devices, reachable=reach),
                make_robot("r2", reachable=reach)),
        machines=(make_machine("table_1", held=("w1",), points=table_1_points),
                  make_machine("table_2", held=("w2",))),
    )


def test_failure_blocks_a_later_rival_on_the_same_robot():
    # a1 and b1 polish different workpieces on different tables; only the
    # robot joins them, so a1's failure keeps b1 from launching
    ops = (
        make_op("a1", machine_1="table_1", workpiece="w1"),
        make_op("b1", machine_1="table_2", workpiece="w2"),
    )
    alloc = Allocation(by_op={"a1": "r1", "b1": "r1"})
    prec = PrecedenceSet(chains={"w1": ("a1",), "w2": ("b1",)})
    planned = two_tables_scene()
    assert fifo_schedule(ops, alloc, prec, planned).start_steps == {"a1": 0, "b1": 1}
    assert run_plan(ops, alloc, prec, planned).executed_fully is True
    outcome = run_plan(ops, alloc, prec, planned,
                       exec_scene=two_tables_scene(table_1_points=()))
    assert outcome.trace[0].failures == (Failure("a1", 0, "missing_point"),)
    assert outcome.trace[1].operations == ()
    assert outcome.trace[1].failures == ()
    assert outcome.status == frozenset()


def test_failure_blocks_a_later_rival_on_the_same_exclusive_machine():
    # a1 and b1 share only table_1, each with its own robot and workpiece
    ops = (
        make_op("a1", machine_1="table_1", workpiece="w1"),
        make_op("b1", machine_1="table_1", workpiece="w2"),
    )
    alloc = Allocation(by_op={"a1": "r1", "b1": "r2"})
    prec = PrecedenceSet(chains={"w1": ("a1",), "w2": ("b1",)})
    planned = make_scene(
        robots=(make_robot("r1", reachable=("table_1",)),
                make_robot("r2", reachable=("table_1",))),
        machines=(make_machine("table_1", held=("w1", "w2")),),
    )
    assert fifo_schedule(ops, alloc, prec, planned).start_steps == {"a1": 0, "b1": 1}
    assert run_plan(ops, alloc, prec, planned).executed_fully is True
    broken = Scene(
        robots=(make_robot("r1", devices=FULL_KIT - {"polisher"}, reachable=("table_1",)),
                planned.robots[1]),
        machines=planned.machines,
        workpieces=planned.workpieces,
    )
    outcome = run_plan(ops, alloc, prec, planned, exec_scene=broken)
    assert outcome.trace[0].failures == (Failure("a1", 7, "missing_device"),)
    assert outcome.trace[1].operations == ()
    assert outcome.trace[1].failures == ()
    assert outcome.status == frozenset()


@pytest.mark.parametrize("shared", ["robot", "table"])
def test_failure_blocks_every_later_user_of_a_resource(shared):
    # Three workpieces polish in turn on one robot (each at its own table)
    # or at one table (each with its own robot). a1 fails; c1 waits directly
    # only on b1, which never launches, so c1 never launches either.
    wps = ("w1", "w2", "w3")
    if shared == "robot":
        tables = {"a1": "table_1", "b1": "table_2", "c1": "table_3"}
        robots = dict.fromkeys(tables, "r1")
    else:
        tables = dict.fromkeys(("a1", "b1", "c1"), "table_1")
        robots = {"a1": "r1", "b1": "r2", "c1": "r3"}
    ops = tuple(make_op(op, machine_1=tables[op], workpiece=w) for op, w in zip(tables, wps))
    alloc = Allocation(by_op=robots)
    prec = PrecedenceSet(chains={op.workpiece: (op.id,) for op in ops})

    def floor(r1_devices=FULL_KIT, table_1_points=("Photo_Point",)):
        reach = sorted(set(tables.values()))
        return make_scene(
            robots=(make_robot("r1", devices=r1_devices, reachable=reach),
                    make_robot("r2", reachable=reach), make_robot("r3", reachable=reach)),
            machines=tuple(
                make_machine(t, points=table_1_points if t == "table_1" else ("Photo_Point",),
                             held=tuple(op.workpiece for op in ops if tables[op.id] == t))
                for t in reach
            ),
            workpieces=tuple(make_workpiece(w) for w in wps),
        )

    planned = floor()
    schedule = fifo_schedule(ops, alloc, prec, planned)
    assert schedule.start_steps == {"a1": 0, "b1": 1, "c1": 2}
    assert schedule.predecessors() == {"a1": set(), "b1": {"a1"}, "c1": {"b1"}}
    assert run_plan(ops, alloc, prec, planned).executed_fully is True
    # a1 alone breaks: table_1 loses its point, or r1 its polisher.
    broken = floor(table_1_points=()) if shared == "robot" else floor(FULL_KIT - {"polisher"})
    outcome = run_plan(ops, alloc, prec, planned, exec_scene=broken)
    assert [f.op_id for f in outcome.trace[0].failures] == ["a1"]
    for later in outcome.trace[1:]:
        assert later.operations == ()
        assert later.failures == ()
    assert outcome.status == frozenset()


def test_blocked_chain_leaves_trailing_steps_empty():
    scene = one_piece_scene(held_at="table_1")  # transport claims conveyor
    ops = (
        transport("t1", "w1", "conveyor", "table_1"),
        make_op("p1", machine_1="table_1"),
        transport("t2", "w1", "table_1", "pallet_1"),
    )
    alloc = Allocation(by_op={"t1": "r1", "p1": "r1", "t2": "r1"})
    prec = PrecedenceSet(chains={"w1": ("t1", "p1", "t2")})
    outcome = run_plan(ops, alloc, prec, scene)
    assert len(outcome.trace) == 3
    assert outcome.trace[0].failures == (Failure("t1", -1, "wrong_location"),)
    for later in outcome.trace[1:]:
        assert later.operations == ()
        assert later.failures == ()
    assert outcome.status == frozenset()


# ---------------------------------------------------------------------------
# trace files


def test_trace_round_trip_is_byte_identical(scene, plan):
    ops, alloc, prec = plan
    outcome = run_plan(ops, alloc, prec, scene)
    text = trace_to_jsonl(outcome.trace)
    parsed = parse_trace(text)
    assert parsed == outcome.trace
    assert trace_to_jsonl(parsed) == text
    for line in text.splitlines():
        json.loads(line)  # every line stands alone


def test_empty_trace_serializes_to_empty_text():
    assert trace_to_jsonl(()) == ""
    assert parse_trace("") == ()


@pytest.mark.parametrize("line_break", LINE_BREAKS)
def test_a_line_break_inside_a_string_stays_in_its_trace_line(line_break):
    trace = (
        StepRecord(0, (OperationRun("o1", f"r{line_break}1", ()),), ()),
        StepRecord(1, (), (Failure("o2", -1, "missing_call"),)),
    )
    assert parse_trace(trace_to_jsonl(trace)) == trace


def test_trace_lines_carry_failures():
    scene = one_piece_scene(held_at="conveyor")
    ops, alloc, prec = polish_only_plan()
    outcome = run_plan(ops, alloc, prec, scene)
    record = json.loads(trace_to_jsonl(outcome.trace).splitlines()[0])
    assert record == {
        "step": 0,
        "operations": [{"op_id": "p1", "robot": "r1", "skills": []}],
        "failures": [{"op_id": "p1", "skill_index": -1, "reason": "wrong_location"}],
    }


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("not json", "invalid JSON"),
        ('{"step": 0, "operations": [], "failures": [], "extra": 1}', "unknown keys"),
        ('{"step": 0, "operations": []}', "failures"),
        ('{"step": 0, "operations": [], "failures": [{"op_id": "a", "skill_index": "x", "reason": "r"}]}',
         "skill_index"),
    ],
)
def test_parse_trace_rejects_malformed_lines(line, fragment):
    good = '{"step": 0, "operations": [], "failures": []}'
    with pytest.raises(ParseError, match=fragment) as exc:
        parse_trace(good + "\n" + line + "\n")
    assert "trace:2" in str(exc.value)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=40)
@given(order=st.permutations(["t1", "p1", "t2", "t3", "p2", "t4"]))
def test_any_dispatch_order_completes_the_plan(order):
    scene = make_scene()
    ops, alloc, prec = simple_plan()
    outcome = run_plan(ops, alloc, prec, scene)
    schedule = fifo_schedule(ops, alloc, prec, scene, order=list(order))
    program = assemble_program(TREE, ops, alloc, scene)
    reordered = execute(schedule, program, scene, ops)
    assert reordered.executed_fully is True
    assert reordered.status == outcome.status == {
        ("w1", "at(pallet_1)"), ("w1", "polished"), ("w2", "at(pallet_2)"), ("w2", "polished"),
    }


@settings(max_examples=60, deadline=None)
@given(case=plan_triples())
def test_execution_invariants_hold_on_random_plans(case):
    ops, alloc, prec, scene = case
    schedule = fifo_schedule(ops, alloc, prec, scene)
    program = assemble_program(TREE, ops, alloc, scene)
    outcome = execute(schedule, program, scene, ops)
    by_id = {op.id: op for op in ops}

    assert len(outcome.trace) == schedule.makespan
    assert [r.step for r in outcome.trace] == list(range(schedule.makespan))

    seen: dict[str, int] = {}
    failed: set[str] = set()
    for record in outcome.trace:
        for run in record.operations:
            assert run.op_id not in seen
            seen[run.op_id] = record.step
            assert schedule.start_steps[run.op_id] == record.step
        robots = [run.robot for run in record.operations]
        assert len(robots) == len(set(robots))
        exclusive_uses = [
            m
            for run in record.operations
            for m in by_id[run.op_id].machines_used()
            if scene.machine(m).exclusive
        ]
        assert len(exclusive_uses) == len(set(exclusive_uses))
        for failure in record.failures:
            assert failure.reason in FAILURE_REASONS
            assert failure.skill_index >= -1
            failed.add(failure.op_id)

    completed = set(seen) - failed
    assert outcome.executed_fully == (completed == set(schedule.start_steps))
    text = trace_to_jsonl(outcome.trace)
    assert parse_trace(text) == outcome.trace
    assert trace_to_jsonl(parse_trace(text)) == text


# ---------------------------------------------------------------------------
# linked executions against the per-argument oracle


generated_task = functools.cache(generate_instance)


@functools.cache
def generated_run(tier, seed):
    """A generated task's ground-truth schedule, program, scene and operations."""
    task = generated_task(tier, seed)
    gt = task.ground_truth
    graph = build_graph(gt.operations, gt.precedence, gt.allocation, task.scene)
    program = assemble_program(TREE, gt.operations, gt.allocation, task.scene)
    return schedule_from_record(graph, gt.schedule), program, task.scene, gt.operations


def assert_runs_like_the_oracle(schedule, program, scene, ops):
    outcome = execute(schedule, program, scene, ops)
    expected = execute_by_argument(schedule, program, scene, ops)
    assert trace_to_jsonl(outcome.trace) == trace_to_jsonl(expected.trace)
    assert outcome.executed_fully == expected.executed_fully
    assert outcome.status == expected.status
    return outcome


def _nth(items, i):
    items = sorted(items)
    return items[i % len(items)] if items else None


def _break(program, scene, kind, i, j):
    """One breakage of a program or scene, picked by kind and two indices."""
    executions = dict(program.executions)
    wrappers = dict(program.wrappers)
    robots, machines = list(scene.robots), list(scene.machines)
    if kind == "drop_device":
        robot = robots[i % len(robots)]
        device = _nth(robot.devices, j)
        robots[i % len(robots)] = robot._replace(devices=robot.devices - {device})
    elif kind == "clear_points":
        machines[i % len(machines)] = machines[i % len(machines)]._replace(points=frozenset())
    elif kind == "drop_binding_key":
        name = _nth(wrappers, i)
        wrapper = wrappers[name]
        key = _nth(wrapper.binding, j)
        binding = {k: v for k, v in wrapper.binding.items() if k != key}
        wrappers[name] = Wrapper(execution=wrapper.execution, binding=binding)
    elif kind == "unknown_skill" and executions:
        name = _nth(executions, i)
        skills = list(executions[name])
        skills[j % len(skills)] = SkillCall("teleport", skills[j % len(skills)].args)
        executions[name] = tuple(skills)
    elif kind == "drop_execution" and executions:
        del executions[_nth(executions, i)]
    elif kind == "point_on_machine_2" and executions:
        name = _nth(executions, i)
        skills = list(executions[name])
        point = "{point:Photo_Point}" if j % 2 else "{point:Drop_Point}"
        args = ("{robot}", point, "{machine_2}") if j % 4 < 2 else ("{robot}", "{machine_2}", point)
        skills.insert((j // 4) % (len(skills) + 1), SkillCall("motion_plan", args))
        executions[name] = tuple(skills)
    elif kind == "rebind_machine":
        name = _nth(wrappers, i)
        wrapper = wrappers[name]
        role = "machine_2" if j % 2 else "machine_1"
        binding = {**wrapper.binding, role: machines[(j // 2) % len(machines)].id}
        wrappers[name] = Wrapper(execution=wrapper.execution, binding=binding)
    return (
        Program(calls=program.calls, wrappers=wrappers, executions=executions),
        Scene(robots=tuple(robots), machines=tuple(machines), workpieces=scene.workpieces),
    )


BREAKS = ("drop_device", "clear_points", "drop_binding_key", "unknown_skill",
          "drop_execution", "point_on_machine_2", "rebind_machine")


@settings(max_examples=400, deadline=None)
@given(
    tier=st.sampled_from(list(Tier)),
    seed=st.integers(0, 14),
    breaks=st.lists(
        st.tuples(st.sampled_from(BREAKS), st.integers(0, 99), st.integers(0, 99)),
        max_size=3,
    ),
)
def test_broken_programs_and_scenes_run_like_the_per_argument_oracle(tier, seed, breaks):
    schedule, program, scene, ops = generated_run(tier, seed)
    for kind, i, j in breaks:
        program, scene = _break(program, scene, kind, i, j)
    assert_runs_like_the_oracle(schedule, program, scene, ops)


def _renamed(program, rename):
    """program with every execution name passed through rename."""
    return Program(
        calls=program.calls,
        wrappers={
            name: Wrapper(execution=rename(w.execution), binding=w.binding)
            for name, w in program.wrappers.items()
        },
        executions={rename(name): skills for name, skills in program.executions.items()},
    )


@pytest.mark.parametrize("tier", list(Tier))
def test_executions_link_by_their_skills_not_their_names(tier):
    executor._link.cache_clear()
    schedule, program, scene, ops = generated_run(tier, 5)
    # one name, other skills: each execution takes the skills of the next
    names = sorted(program.executions)
    rotated = Program(
        calls=program.calls,
        wrappers=program.wrappers,
        executions={
            name: program.executions[names[(k + 1) % len(names)]]
            for k, name in enumerate(names)
        },
    )
    # one set of skills, other names
    renamed = _renamed(program, lambda name: "renamed_" + name)
    for variant in (program, rotated, renamed, program):
        assert_runs_like_the_oracle(schedule, variant, scene, ops)
    assert executor._link.cache_info().currsize == len(set(program.executions.values()))


def prefixed_plan(task, scene):
    """The ground truth as a plan with "plan_"-prefixed operation ids,
    scheduled by FIFO and assembled on the task's scene, run on scene: its
    operations bind the replay's role values."""
    gt = task.ground_truth
    plan_ops = tuple(op._replace(id="plan_" + op.id) for op in gt.operations)
    plan_alloc = Allocation(by_op={"plan_" + k: v for k, v in gt.allocation.by_op.items()})
    plan_prec = PrecedenceSet(
        chains={w: tuple("plan_" + o for o in chain) for w, chain in gt.precedence.chains.items()}
    )
    return (
        fifo_schedule(plan_ops, plan_alloc, plan_prec, task.scene),
        assemble_program(TREE, plan_ops, plan_alloc, task.scene),
        scene,
        plan_ops,
    )


def runs_in_both_orders(plan, replay):
    """(plan outcome, replay outcome) with the plan run first, then with
    the replay run first, each pair on freshly linked executions."""
    for plan_first in (True, False):
        executor._link.cache_clear()
        if plan_first:
            plan_run = assert_runs_like_the_oracle(*plan)
            replay_run = assert_runs_like_the_oracle(*replay)
        else:
            replay_run = assert_runs_like_the_oracle(*replay)
            plan_run = assert_runs_like_the_oracle(*plan)
        yield plan_run, replay_run


@pytest.mark.parametrize("tier", list(Tier))
def test_traces_do_not_depend_on_which_run_resolves_first(tier):
    replay = generated_run(tier, 7)
    plan = prefixed_plan(generated_task(tier, 7), replay[2])
    traces = set()
    for plan_run, replay_run in runs_in_both_orders(plan, replay):
        traces.add((trace_to_jsonl(plan_run.trace), trace_to_jsonl(replay_run.trace)))
        # operations binding the same values share one tuple of calls
        plan_calls = {r.op_id.removeprefix("plan_"): r.skills
                      for step in plan_run.trace for r in step.operations}
        for step in replay_run.trace:
            for r in step.operations:
                assert plan_calls[r.op_id] is r.skills
    assert len(traces) == 1


@pytest.mark.parametrize("tier", list(Tier))
def test_a_memoized_failure_names_its_own_operation(tier):
    """Runs that share links, a plan's and a replay's, in both orders: each
    failure, walked per operation, names an operation of its own run."""
    schedule, program, scene, ops = generated_run(tier, 7)
    # drop, from every robot, a device that some skill of the program needs
    device = min(
        name for skills in program.executions.values() for skill in skills
        for kind, name, _ in executor.classify_args(skill.args) if kind == "device"
    )
    broken = Scene(
        robots=tuple(r._replace(devices=r.devices - {device}) for r in scene.robots),
        machines=scene.machines,
        workpieces=scene.workpieces,
    )
    plan = prefixed_plan(generated_task(tier, 7), broken)
    replay = (schedule, program, broken, ops)
    for outcomes in runs_in_both_orders(plan, replay):
        for (_, _, _, run_ops), outcome in zip((plan, replay), outcomes):
            failures = [f for step in outcome.trace for f in step.failures]
            assert "missing_device" in {f.reason for f in failures}
            assert {f.op_id for f in failures} <= {op.id for op in run_ops}


def memo_keys(program):
    """The memo keys of the links of program's executions."""
    return [key for skills in set(program.executions.values())
            for key in executor._link(skills).calls]


def test_the_memo_holds_binding_text_only(scene, plan):
    """After hand-built scenes and three generated tiers, every memo key is
    a tuple of (str, str) pairs, the binding's items, and every value a
    tuple of calls: no memo entry holds scene data."""
    executor._link.cache_clear()
    ops, alloc, prec = plan
    programs = [(fifo_schedule(ops, alloc, prec, scene), assemble_program(TREE, ops, alloc, scene),
                 scene, ops)]
    ops, alloc, prec = polish_only_plan()
    for devices in (FULL_KIT, FULL_KIT - {"camera"}):
        one_piece = one_piece_scene(held_at="table_1", robot_devices=devices)
        programs.append((fifo_schedule(ops, alloc, prec, one_piece),
                         hand_program([SkillCall("control_device",
                                                 ("{robot}", "{device:camera}", "on"))]),
                         one_piece, ops))
    programs += [generated_run(tier, seed) for tier in Tier for seed in (3, 4)]
    for run in programs:
        execute(*run)
    keys = [key for _, program, _, _ in programs for key in memo_keys(program)]
    assert keys
    for key in keys:
        assert type(key) is tuple
        assert all(type(item) is tuple and len(item) == 2 for item in key)
        assert all(type(text) is str for item in key for text in item)
    for _, program, _, _ in programs:
        for skills in program.executions.values():
            for calls in executor._link(skills).calls.values():
                assert all(type(call) is SkillCall for call in calls)


def test_a_failing_operation_adds_no_memo_entry():
    ops, alloc, prec = polish_only_plan()
    scene = one_piece_scene(held_at="table_1")
    schedule = fifo_schedule(ops, alloc, prec, scene)
    program = hand_program([SkillCall("control_device", ("{robot}", "{device:camera}", "on"))])
    executor._link.cache_clear()
    cameraless = one_piece_scene(held_at="table_1", robot_devices=FULL_KIT - {"camera"})
    outcome = execute(schedule, program, cameraless, ops)
    assert outcome.trace[0].failures == (Failure("p1", 0, "missing_device"),)
    assert memo_keys(program) == []
    assert execute(schedule, program, scene, ops).executed_fully is True
    (wrapper,) = program.wrappers.values()
    assert memo_keys(program) == [tuple(wrapper.binding.items())]


# ---------------------------------------------------------------------------
# the link summary against the per-argument walk


def tree_executions(tree):
    """The skills of every root-to-leaf path of tree, concatenated."""

    def paths(index):
        node = tree.nodes[index]
        if not node.children:
            yield node.snippet
        for child in node.children:
            for rest in paths(child):
                yield node.snippet + rest

    return list(paths(tree.root))


# Executions the reference tree holds none of: a point whose context is
# machine_2 (after or before the placeholder), and an unknown skill that
# is not the first.
HAND_EXECUTIONS = [
    (SkillCall("motion_plan", ("{robot}", "{machine_2}", "{point:Drop_Point}")),),
    (SkillCall("motion_plan", ("{robot}", "{point:Photo_Point}", "{machine_2}")),
     SkillCall("motion_plan", ("{robot}", "{machine_1}", "{point:Drop_Point}"))),
    (SkillCall("return_home", ("{robot}",)), SkillCall("teleport", ("{robot}",))),
]
ROLES = ("robot", "machine_1", "machine_2", "workpiece")
BOUND = {"robot": "r1", "machine_1": "table_1", "machine_2": "pallet_1", "workpiece": "w1"}
# An unknown machine has no points: _run_operation reads it as the empty
# set, which this list holds.
POINT_SETS = (frozenset(), frozenset({"Photo_Point"}), frozenset({"Drop_Point"}),
              frozenset({"Photo_Point", "Drop_Point"}))


def assert_walks_agree(skills, binding, devices, points_1, points_2):
    """The summary check fails exactly when the per-argument walk reports a
    failure, and otherwise both resolve the same calls."""
    link = executor._Link(tuple(skills))
    calls = link.resolve(binding, devices, points_1, points_2)
    by_argument, failed = executor._walk_by_argument(link, binding, devices, points_1, points_2)
    assert (calls is None) == (failed is not None)
    if calls is not None:
        assert calls == by_argument
    return failed


def test_the_link_summary_walks_like_the_per_argument_walk():
    """Every execution of the reference tree and a few written by hand,
    under every subset of roles dropped, the full kit less each device the
    execution names, and each pair of point sets."""
    reasons = set()
    for skills in tree_executions(TREE) + HAND_EXECUTIONS:
        named = {name for skill in skills
                 for kind, name, _ in executor.classify_args(skill.args) if kind == "device"}
        kits = [FULL_KIT | named] + [(FULL_KIT | named) - {d} for d in sorted(named)]
        for mask in range(1 << len(ROLES)):
            binding = {role: BOUND[role] for k, role in enumerate(ROLES) if mask >> k & 1}
            for devices in kits:
                for points_1 in POINT_SETS:
                    for points_2 in POINT_SETS:
                        failed = assert_walks_agree(skills, binding, devices, points_1, points_2)
                        reasons.add(failed and failed[1])
    assert reasons == FAILURE_REASONS - {"missing_call", "wrong_location"} | {None}


ARGS = ("{robot}", "{machine_1}", "{machine_2}", "{workpiece}", "{device:camera}",
        "{device:polisher}", "{point:A}", "{point:B}", "{point:}", "robot", "on")


@settings(max_examples=300, deadline=None)
@given(
    skills=st.lists(
        st.builds(SkillCall, st.sampled_from(sorted(SKILLS | {"teleport"})),
                  st.lists(st.sampled_from(ARGS), max_size=4).map(tuple)),
        max_size=5,
    ),
    roles=st.sets(st.sampled_from(ROLES)),
    devices=st.frozensets(st.sampled_from(["camera", "polisher"])),
    points_1=st.frozensets(st.sampled_from(["A", "B"])),
    points_2=st.frozensets(st.sampled_from(["A", "B"])),
)
def test_random_skills_walk_like_the_per_argument_walk(skills, roles, devices, points_1,
                                                       points_2):
    binding = {role: BOUND[role] for role in ROLES if role in roles}
    assert_walks_agree(skills, binding, devices, points_1, points_2)
