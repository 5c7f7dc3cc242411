"""Large shop floors for the `large` workload.

The generator's tiers cap a task at 24 operations, so this module builds
bigger floors from the public model types, following the generator's
archetype: a conveyor holds every workpiece, each workpiece is carried to an
exclusive work table, processed there, and set down on a pallet. Robot,
table and pallet counts stay fixed while the workpiece count grows, so
contention on every resource grows with the floor.

Workpieces get one, two or three processing steps in equal shares, so a
floor of `n` workpieces (n divisible by 3) always has exactly 4n operations.
The ground-truth schedule is the first-in-first-out dispatch, stored in
start-step order and re-solved in that order so that a replay reproduces the
recorded makespan, as the generator does for instances too big to solve
exactly.
"""

from __future__ import annotations

import random

from shopfloor.graph import build_graph
from shopfloor.model import (
    PROCESSING_FLAGS,
    Allocation,
    GroundTruth,
    Machine,
    Operation,
    OperationType,
    PrecedenceSet,
    Robot,
    Scene,
    TaskInstance,
    Workpiece,
    at_label,
    validate_planner_output,
    validate_scene,
)
from shopfloor.solve import schedule_to_record, solve_fifo

ROBOTS = 4
TABLES = 4
PALLETS = 2

_DEVICES = frozenset({"magnetic_gripper", "polisher", "welding_gun", "beveler"})
_KINDS = ("steel plate", "aluminum sheet", "cast bracket")
_VERBS = {"polished": "polish it", "welded": "weld it",
          "beveled": "bevel it", "assembled": "assemble it"}
_TYPE_FOR_FLAG = {flag: op_type for op_type, flag in PROCESSING_FLAGS.items()}


def _balanced(rng: random.Random, items: list, count: int) -> list:
    """`count` picks from `items`, each used equally often, in seeded order."""
    picks = [items[i % len(items)] for i in range(count)]
    rng.shuffle(picks)
    return picks


def build_floor(workpieces: int, seed: int) -> TaskInstance:
    """A validated floor of `workpieces` workpieces (a multiple of 3)."""
    if workpieces <= 0 or workpieces % 3:
        raise ValueError("workpiece count must be a positive multiple of 3")
    rng = random.Random(f"large:{workpieces}:{seed}")
    handheld = rng.random() < 0.5
    points = frozenset({"Photo_Point"}) if handheld else frozenset()

    wp_ids = [f"w{i + 1}" for i in range(workpieces)]
    table_ids = [f"table_{i + 1}" for i in range(TABLES)]
    pallet_ids = [f"pallet_{i + 1}" for i in range(PALLETS)]
    machines = (
        (Machine(id="conveyor", name="conveyor belt", exclusive=False,
                 points=points, held_workpieces=tuple(wp_ids)),)
        + tuple(Machine(id=t, name="work table", exclusive=True, points=points)
                for t in table_ids)
        + tuple(Machine(id=p, name="pallet", exclusive=False, points=points)
                for p in pallet_ids)
    )
    reach = frozenset(m.id for m in machines)
    devices = _DEVICES | {"camera" if handheld else "bracket_camera"}
    robot_ids = [f"r{i + 1}" for i in range(ROBOTS)]
    robots = tuple(Robot(id=r, devices=devices, reachable_machines=reach)
                   for r in robot_ids)

    step_counts = _balanced(rng, [1, 2, 3], workpieces)
    tables = _balanced(rng, table_ids, workpieces)
    pallets = _balanced(rng, pallet_ids, workpieces)
    owners = _balanced(rng, robot_ids, workpieces)

    operations: list[Operation] = []
    by_op: dict[str, str] = {}
    chains: dict[str, tuple[str, ...]] = {}
    parts: list[Workpiece] = []
    sentences: list[str] = []
    for wp, count, table, pallet, robot in zip(
        wp_ids, step_counts, tables, pallets, owners
    ):
        flags = tuple(rng.sample(sorted(_VERBS), count))
        kind = rng.choice(_KINDS)
        steps = [(OperationType.TRANSPORT, "conveyor", table)]
        steps += [(_TYPE_FOR_FLAG[f], table, None) for f in flags]
        steps.append((OperationType.TRANSPORT, table, pallet))
        chain: list[str] = []
        for op_type, machine_1, machine_2 in steps:
            op_id = f"o{len(operations) + 1}"
            operations.append(Operation(id=op_id, op_type=op_type, workpiece=wp,
                                        machine_1=machine_1, machine_2=machine_2))
            by_op[op_id] = robot
            chain.append(op_id)
        chains[wp] = tuple(chain)
        parts.append(Workpiece(id=wp, kind=kind,
                               state_sequence=flags + (at_label(pallet),)))
        sentences.append(
            f"Take {wp} (a {kind}) from the conveyor to {table}, "
            + ", then ".join(_VERBS[f] for f in flags)
            + f", and set it down on {pallet}."
        )

    scene = Scene(robots=robots, machines=machines, workpieces=tuple(parts))
    allocation = Allocation(by_op=by_op)
    precedence = PrecedenceSet(chains=chains)
    graph = build_graph(operations, precedence, allocation, scene)
    first = solve_fifo(graph, [op.id for op in operations])
    position = {op.id: i for i, op in enumerate(operations)}
    ordered = tuple(sorted(
        operations, key=lambda op: (first.start_steps[op.id], position[op.id])
    ))
    schedule = solve_fifo(graph, [op.id for op in ordered])

    problems = validate_scene(scene)
    problems += validate_planner_output(ordered, allocation, precedence, scene).violations
    if problems:
        raise ValueError(f"large floor {workpieces}/{seed} is invalid: {problems[:3]}")
    return TaskInstance(
        scene=scene,
        instruction=" ".join(sentences),
        ground_truth=GroundTruth(
            operations=ordered,
            allocation=allocation,
            precedence=precedence,
            schedule=schedule_to_record(schedule, source="fifo"),
        ),
    )
