"""Shared builders for tests.

The default workshop: one conveyor feeding a polishing table and two pallets,
two robots with full device kits. Individual tests override pieces of it.
"""

from __future__ import annotations

import pytest

from shopfloor.graph import DisjunctiveGraph
from shopfloor.model import (
    Allocation,
    Machine,
    Operation,
    OperationType,
    PrecedenceSet,
    Robot,
    Scene,
    Workpiece,
)

FULL_KIT = frozenset(
    {"camera", "magnetic_gripper", "polisher", "welding_gun", "beveler"}
)


def make_robot(robot_id="r1", devices=FULL_KIT, reachable=("conveyor", "table_1", "pallet_1", "pallet_2")):
    return Robot(id=robot_id, devices=frozenset(devices), reachable_machines=frozenset(reachable))


def make_machine(machine_id="table_1", name="polishing table", exclusive=True,
                 points=("Photo_Point",), held=()):
    return Machine(
        id=machine_id,
        name=name,
        exclusive=exclusive,
        points=frozenset(points),
        held_workpieces=tuple(held),
    )


def make_workpiece(workpiece_id="w1", kind="steel plate", states=("polished",)):
    return Workpiece(id=workpiece_id, kind=kind, state_sequence=tuple(states))


def make_scene(robots=None, machines=None, workpieces=None):
    if workpieces is None:
        workpieces = (make_workpiece("w1"), make_workpiece("w2"))
    if machines is None:
        machines = (
            make_machine("conveyor", name="conveyor belt", exclusive=False,
                         held=[w.id for w in workpieces]),
            make_machine("table_1"),
            make_machine("pallet_1", name="pallet", points=()),
            make_machine("pallet_2", name="pallet", points=()),
        )
    if robots is None:
        robots = (make_robot("r1"), make_robot("r2"))
    return Scene(robots=tuple(robots), machines=tuple(machines), workpieces=tuple(workpieces))


def make_op(op_id="o1", op_type=OperationType.POLISHING, workpiece="w1",
            machine_1="table_1", machine_2=None):
    return Operation(
        id=op_id,
        op_type=op_type,
        workpiece=workpiece,
        machine_1=machine_1,
        machine_2=machine_2,
    )


def transport(op_id, workpiece, src, dst):
    return make_op(op_id, OperationType.TRANSPORT, workpiece, src, dst)


def simple_plan(scene=None):
    """Two workpieces, each moved to the table, polished, then palletized."""
    ops = (
        transport("t1", "w1", "conveyor", "table_1"),
        make_op("p1", OperationType.POLISHING, "w1", "table_1"),
        transport("t2", "w1", "table_1", "pallet_1"),
        transport("t3", "w2", "conveyor", "table_1"),
        make_op("p2", OperationType.POLISHING, "w2", "table_1"),
        transport("t4", "w2", "table_1", "pallet_2"),
    )
    alloc = Allocation(by_op={"t1": "r1", "p1": "r1", "t2": "r1",
                              "t3": "r2", "p2": "r2", "t4": "r2"})
    prec = PrecedenceSet(chains={"w1": ("t1", "p1", "t2"), "w2": ("t3", "p2", "t4")})
    return ops, alloc, prec


@pytest.fixture
def scene():
    return make_scene()


@pytest.fixture
def plan(scene):
    return simple_plan(scene)


def arcless(*op_ids):
    """A graph without arcs: every start step is allowed, nothing waits."""
    return DisjunctiveGraph(op_ids=op_ids, chains=(), resources={})
