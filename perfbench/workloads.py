"""The four workloads: what one benchmark operation is, how it is checked,
and how the traced run replays it stage by stage.

One round (round.py) scores every input of a workload once, as a closed
loop with one client in one process: the next operation starts only after
the previous one finished, as `shopfloor run` processes its tasks. An
operation is one task scored (suite, faulty, large) or one instance
generated (generate).
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from shopfloor.bench import (
    METRIC_FIELDS,
    BenchTask,
    TaskResult,
    Tier,
    generate_instance,
    load_bench_task,
    run_benchmark,
    summarize,
    write_outputs,
)
from shopfloor.errors import AmbiguousBranch, NoBranch, ValidationError
from shopfloor.executor import ExecutionOutcome, execute
from shopfloor.graph import build_graph
from shopfloor.metrics import evaluate_instance, ground_truth_run, report_to_json
from shopfloor.model import canonical_json, parse_task_instance, serialize_task_instance
from shopfloor.planner import (
    GroundTruthPlanner,
    LlmConfig,
    LlmPlanner,
    RecordedTransport,
    build_prompt,
    parse_planner_text,
    render_planner_text,
)
from shopfloor.solve import DEFAULT_BRUTE_FORCE_CAP, brute_force_optimal, solve_fifo
from shopfloor.tree import ProcessTree, assemble_program

from calibrate import reference_pass
from faults import Fault, check_outcome
from inputs import PER_TIER
from tracing import Tracer

# The recorded transport never contacts this endpoint.
OFFLINE = LlmConfig(base_url="recorded://offline", model="recorded")


def _doc(row: TaskResult) -> str:
    return canonical_json({"error": row.error, **report_to_json(row.report)})


class TaskWorkload:
    """suite, faulty and large: score each task file, one at a time. A
    round's outputs go to its own `out_dir`."""

    def __init__(self, name: str, work: Path, out_dir: Path, tree: ProcessTree):
        self.name = name
        self.tree = tree
        self.out_dir = out_dir
        self.items = sorted((work / "tasks").glob("*.json"))
        self.faults: dict[str, Fault] = {}
        if name == "faulty":
            manifest = json.loads((work / "faults.json").read_text(encoding="utf-8"))
            self.faults = {task_id: Fault(**entry) for task_id, entry in manifest.items()}

    @staticmethod
    def key(path: Path) -> str:
        return path.stem

    @staticmethod
    def digest(row: TaskResult) -> str:
        return _doc(row)

    def _planner(self, task_id: str):
        if self.name == "faulty":
            return LlmPlanner(OFFLINE, transport=RecordedTransport([self.faults[task_id].reply]))
        return GroundTruthPlanner()

    def run(self, path: Path) -> tuple[float, TaskResult]:
        planner = self._planner(path.stem)
        start = time.perf_counter()
        bench_task = load_bench_task(path)
        result = run_benchmark([bench_task], planner, out_dir=self.out_dir, tree=self.tree)
        return time.perf_counter() - start, result.results[0]

    @staticmethod
    def operations(row: TaskResult) -> int:
        return row.report.metadata["gt_operation_count"]

    def replay(self, path: Path, tracer: Tracer) -> TaskResult:
        """run() stage by stage, with a span around each stage: the body of
        load_bench_task, the planner's plan(), and run_benchmark for one task."""
        return self._stages(path, tracer)[0]

    def _stages(self, path: Path, tracer: Tracer):
        """replay(), also returning the task and its execution outcome."""
        span, counts = tracer.span, tracer.counts
        planner = self._planner(path.stem)
        graph = program = schedule = execution = None
        error = None
        with span("task", path.stem):
            with span("bench.load_bench_task"):
                text = path.read_text(encoding="utf-8")
                with span("model.parse_task_instance"):
                    task = parse_task_instance(text, str(path))
                bench_task = BenchTask(task_id=path.stem, tier=_tier(path.stem), instance=task)
            with span("planner.plan"):
                output = self._plan(planner, task, tracer)
            if output.ok:
                try:
                    with span("graph.build_graph"):
                        graph = build_graph(output.operations, output.precedence,
                                            output.allocation, task.scene)
                    with span("solve.solve_fifo"):
                        schedule = solve_fifo(graph, [op.id for op in output.operations])
                    with span("tree.assemble_program"):
                        program = assemble_program(self.tree, output.operations,
                                                   output.allocation, task.scene)
                    with span("executor.execute"):
                        execution = execute(schedule, program, task.scene, output.operations)
                except (ValidationError, NoBranch, AmbiguousBranch) as exc:
                    error = f"pipeline failed: {exc}"
            else:
                error = "planner output invalid: " + "; ".join(output.report.violations[:3])
            with span("metrics.evaluate_instance"):
                report = evaluate_instance(task, output.operations, output.allocation,
                                           schedule, execution, self.tree, degenerate_se=0.0)
            if report.metadata["degenerate_efficiency"] and error is None:
                error = "efficiency scale degenerate; scored 0"
            rows = [TaskResult(task_id=bench_task.task_id, tier=bench_task.tier,
                               report=report, error=error)]
            with span("bench.summarize"):
                summary = summarize(rows)
            with span("bench.write_outputs"):
                write_outputs(self.out_dir, rows, summary)
        gc.collect()  # the task's garbage is not collected inside the re-timed call
        with span("retime", path.stem):
            with span("metrics.ground_truth_run"):
                ground_truth_run(task, self.tree)

        counts["model.bytes_parsed"] += len(text.encode("utf-8"))
        counts["planner.invalid_plans"] += not output.ok
        if graph is not None:
            counts["graph.disjunctive_arcs"] += len(graph.disjunctive)
        if schedule is not None:
            counts["solve.makespan_steps"] += schedule.makespan
        if program is not None:
            counts["tree.executions"] += len(program.executions)
            counts["tree.program_calls"] += len(program.calls)
        if execution is not None:
            _count_execution(counts, execution)
        return rows[0], task, execution

    @staticmethod
    def _plan(planner, task, tracer: Tracer):
        """The planner's plan(), one span per step."""
        span = tracer.span
        if isinstance(planner, LlmPlanner):
            with span("planner.build_prompt"):
                prompt = build_prompt(task, planner.template)
            with span("planner.transport"):
                reply = planner.transport(planner.config, prompt)
            with span("planner.parse_planner_text"):
                return parse_planner_text(reply, task.scene)
        gt = task.ground_truth
        with span("planner.render_planner_text"):
            text = render_planner_text(gt.operations, gt.allocation, gt.precedence)
        with span("planner.parse_planner_text"):
            return parse_planner_text(text, task.scene)

    def check(self, path: Path, row: TaskResult) -> str | None:
        """Why the task's result is wrong, or None."""
        written = json.loads((self.out_dir / f"{row.task_id}.metrics.json").read_text(encoding="utf-8"))
        if written["task_id"] != row.task_id or any(
            written[f] != getattr(row.report, f) for f in METRIC_FIELDS
        ):
            return f"{row.task_id}: written metrics disagree with the report"
        if self.name != "faulty":
            scores = [getattr(row.report, f) for f in METRIC_FIELDS]
            if row.error is not None or scores != [1.0] * len(METRIC_FIELDS):
                return f"{row.task_id}: ground truth scored {scores}, error {row.error!r}"
            return None
        replayed, task, execution = self._stages(path, Tracer())
        if _doc(replayed) != _doc(row):
            return f"{row.task_id}: stage replay disagrees with run_benchmark"
        fault = self.faults[row.task_id]
        why = check_outcome(fault, task, row.report, row.error, execution)
        return None if why is None else f"{row.task_id} ({fault.mutator}): {why}"


def _tier(task_id: str) -> Tier:
    return next(t for t in Tier if task_id.startswith(t.value + "_"))


def _count_execution(counts, execution: ExecutionOutcome) -> None:
    counts["executor.steps"] += len(execution.trace)
    counts["executor.ops_run"] += sum(len(r.operations) for r in execution.trace)
    counts["executor.failures"] += sum(len(r.failures) for r in execution.trace)


@dataclass(frozen=True)
class Generated:
    text: str
    operations: int


class GenerateWorkload:
    """generate: one instance per operation, the suite's tiers and seeds."""

    def __init__(self, seed: int, tree: ProcessTree):
        self.tree = tree
        self.items = [(tier, seed * PER_TIER + i) for i in range(PER_TIER) for tier in Tier]

    @staticmethod
    def key(item: tuple[Tier, int]) -> str:
        tier, seed = item
        return f"{tier.value}_{seed}"

    @staticmethod
    def digest(row: Generated) -> str:
        return hashlib.sha256(row.text.encode("utf-8")).hexdigest()

    def run(self, item: tuple[Tier, int]) -> tuple[float, Generated]:
        tier, seed = item
        start = time.perf_counter()
        task = generate_instance(tier, seed)
        text = serialize_task_instance(task)
        elapsed = time.perf_counter() - start
        return elapsed, Generated(text, len(task.ground_truth.operations))

    @staticmethod
    def operations(row: Generated) -> int:
        return row.operations

    def replay(self, item: tuple[Tier, int], tracer: Tracer) -> Generated:
        """run() with a span per call, then the graph, exact solve and
        ground-truth replay that generate_instance makes inside, re-timed."""
        tier, seed = item
        span, counts = tracer.span, tracer.counts
        task_id = self.key(item)
        with span("task", task_id):
            with span("bench.generate_instance"):
                task = generate_instance(tier, seed)
            with span("model.serialize_task_instance"):
                text = serialize_task_instance(task)
        gt = task.ground_truth
        gc.collect()  # the instance's garbage is not collected inside the re-timed calls
        with span("retime", task_id):
            with span("graph.build_graph"):
                graph = build_graph(gt.operations, gt.precedence, gt.allocation, task.scene)
            if len(gt.operations) <= DEFAULT_BRUTE_FORCE_CAP:
                with span("solve.brute_force_optimal"):
                    brute_force_optimal(graph)
                counts["solve.exact_calls"] += 1
            with span("metrics.ground_truth_run"):
                replay = ground_truth_run(task, self.tree)
        counts["graph.disjunctive_arcs"] += len(graph.disjunctive)
        counts["solve.makespan_steps"] += gt.schedule.makespan
        _count_execution(counts, replay.outcome)
        return Generated(text, len(gt.operations))

    def check(self, item: tuple[Tier, int], row: Generated) -> str | None:
        tier, seed = item
        name = f"{tier.value} seed {seed}"
        task = parse_task_instance(row.text)
        if serialize_task_instance(task) != row.text:
            return f"{name}: re-parsed instance serializes to other bytes"
        replay = ground_truth_run(task, self.tree)
        if not (replay.outcome.executed_fully and replay.status):
            return f"{name}: ground-truth replay did not execute fully"
        return None


@dataclass
class Sample:
    """One operation of a round: its latency and the calibration pass timed
    just before it (None when traced), shop-floor operations, result digest,
    and why it failed its check, if it did."""

    key: str
    ms: float | None = None
    reference_ms: float | None = None
    ops: int = 0
    digest: str | None = None
    problem: str | None = None


def score_round(workload, check: bool, tracer: Tracer | None = None,
                settle: bool = False) -> list[Sample]:
    """Every input once, in order. Untraced, each operation is timed, right
    after a calibration pass; with a tracer, each is replayed stage by stage
    instead. With `check`, each
    result is checked in full; every result's digest goes back to run.py,
    which holds it equal to the same input's result in the other rounds.
    With `settle`, a full collection precedes every operation.
    """
    samples = []
    gc.collect()  # every round starts from the same collector state
    for item in workload.items:
        sample = Sample(workload.key(item))
        try:
            if settle:
                gc.collect()
            if tracer is not None:
                with tracer.collector_spans():
                    row = workload.replay(item, tracer)
            else:
                sample.reference_ms = reference_pass()
                elapsed, row = workload.run(item)
                sample.ms = elapsed * 1e3
            sample.ops = workload.operations(row)
            sample.digest = workload.digest(row)
            if check:
                sample.problem = workload.check(item, row)
        except Exception:  # a failed operation is counted, never fatal
            sample.problem = traceback.format_exc(limit=-3)
        samples.append(sample)
    return samples


def make(name: str, work: Path, out_dir: Path, seed: int, tree: ProcessTree):
    if name == "generate":
        return GenerateWorkload(seed, tree)
    return TaskWorkload(name, work, out_dir, tree)
