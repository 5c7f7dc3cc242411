"""Hypothesis strategies and hand-rolled oracles shared by test modules."""

from __future__ import annotations

from hypothesis import strategies as st

from conftest import FULL_KIT, make_machine, make_robot, make_workpiece
from shopfloor.bench import Tier, generate_instance
from shopfloor.model import Allocation, Operation, OperationType, PrecedenceSet, Scene

_TYPES = list(OperationType)


@st.composite
def plan_triples(draw, max_workpieces=4, max_ops_per=3, n_machines=4, n_robots=3):
    """A random, structurally valid (ops, alloc, prec, scene) quadruple.

    Machines may be shared or exclusive; transports occupy two machines;
    allocation can concentrate many ops on one robot. The operation list
    order doubles as the dispatch order.
    """
    machine_ids = [f"m{i}" for i in range(n_machines)]
    exclusive = [draw(st.booleans()) for _ in machine_ids]
    n_wp = draw(st.integers(1, max_workpieces))
    ops: list[Operation] = []
    chains: dict[str, tuple[str, ...]] = {}
    alloc: dict[str, str] = {}
    for j in range(n_wp):
        wp = f"w{j}"
        count = draw(st.integers(0, max_ops_per))
        chain = []
        for i in range(count):
            op_id = f"o{j}_{i}"
            op_type = draw(st.sampled_from(_TYPES))
            m1 = draw(st.sampled_from(machine_ids))
            m2 = None
            if op_type is OperationType.TRANSPORT:
                m2 = draw(st.sampled_from([m for m in machine_ids if m != m1]))
            ops.append(Operation(id=op_id, op_type=op_type, workpiece=wp,
                                 machine_1=m1, machine_2=m2))
            alloc[op_id] = draw(st.sampled_from([f"r{k}" for k in range(n_robots)]))
            chain.append(op_id)
        chains[wp] = tuple(chain)
    order = draw(st.permutations(ops))
    machines = tuple(
        make_machine(mid, name=f"station {mid}", exclusive=excl,
                     held=[f"w{j}" for j in range(n_wp)] if mid == "m0" else ())
        for mid, excl in zip(machine_ids, exclusive)
    )
    scene = Scene(
        robots=tuple(make_robot(f"r{k}", devices=FULL_KIT, reachable=machine_ids)
                     for k in range(n_robots)),
        machines=machines,
        workpieces=tuple(make_workpiece(f"w{j}", states=()) for j in range(n_wp)),
    )
    return tuple(order), Allocation(by_op=alloc), PrecedenceSet(chains=chains), scene


def _ground_truth_triple(tier, seed):
    task = generate_instance(tier, seed)
    gt = task.ground_truth
    return gt.operations, gt.allocation, gt.precedence, task.scene


def generated_triples(max_seed=30):
    """The (ops, alloc, prec, scene) of a generated task's ground truth, its
    operations in stored (start-step) order."""
    return st.builds(_ground_truth_triple, st.sampled_from(list(Tier)), st.integers(0, max_seed))


def predecessors_by_rivals(schedule):
    """Oracle for ScheduleGraph.predecessors: the chain predecessor and every
    resource rival that starts earlier, read from the pairwise arcs (of two
    rivals on one step, the smaller id waits for the larger)."""
    steps = schedule.start_steps
    preds = {op: set(chain_pred) for op, chain_pred in schedule.graph.preds.items()}
    for arc in schedule.graph.disjunctive:
        if steps[arc.a] < steps[arc.b]:
            preds[arc.b].add(arc.a)
        else:
            preds[arc.a].add(arc.b)
    return preds


def transitive_closure(relation):
    """Every operation's ancestors under a predecessor relation (acyclic)."""
    closed: dict[str, frozenset[str]] = {}

    def ancestors(op):
        if op not in closed:
            closed[op] = frozenset().union(*({p} | ancestors(p) for p in relation[op]))
        return closed[op]

    return {op: ancestors(op) for op in relation}


def earliest_clash_by_arcs(graph, start_steps):
    """Oracle for the clash rule: the message naming the earliest (step, a, b)
    over the disjunctive arcs whose ends share a step, or None."""
    clashes = [
        (start_steps[arc.a], arc.a, arc.b)
        for arc in graph.disjunctive
        if start_steps[arc.a] == start_steps[arc.b]
    ]
    if not clashes:
        return None
    step, a, b = min(clashes)
    return f"operations '{a}' and '{b}' share step {step} but compete for a resource"


def optimal_by_enumeration(graph):
    """Independent oracle for tiny instances: try every start-step assignment
    with steps below the op count, keep the feasible minimum; ties resolved
    by the smallest assignment vector in id order. Returns (makespan, steps).
    """
    from itertools import product

    ops = sorted(graph.op_ids)
    n = len(ops)
    if n == 0:
        return 0, {}
    conj = [(u, v) for chain in graph.chains for u, v in zip(chain, chain[1:])]
    disj = [(arc.a, arc.b) for arc in graph.disjunctive]
    best = None
    for assignment in product(range(n), repeat=n):
        steps = dict(zip(ops, assignment))
        if any(steps[v] < steps[u] + 1 for u, v in conj):
            continue
        if any(steps[a] == steps[b] for a, b in disj):
            continue
        cand = (max(assignment) + 1, assignment)
        if best is None or cand < best:
            best = cand
    span, assignment = best
    return span, dict(zip(ops, assignment))
