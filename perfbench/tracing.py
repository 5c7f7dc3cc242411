"""In-memory spans for the traced run, and the per-layer figures made from them.

A span records a name, start, end, the index of the span that caused it and
the benchmark operation (task or instance) it belongs to. Each operation has
one `task` root whose descendants are the pipeline stages the untraced run
executes, and one `retime` root whose children re-run calls that the program
makes from inside a stage, where the benchmark cannot place a span: the
ground-truth replay inside `evaluate_instance`, and on `generate` the graph,
exact solve and replay inside `generate_instance`. Re-timed calls show their
cost without being counted in the operation's time.

Span names are `<module>.<function>`; the module part is the layer. Inside
`collector_spans()`, every pause of Python's cyclic garbage collector that
falls inside a root is a `gc.collect` span under the span it interrupted: it
counts in that span's busy time, not in its layer's self time, and
`trace.gc_ms` totals the pauses inside `task` roots.
"""

from __future__ import annotations

import gc
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# Stages and re-timed calls, in pipeline order. Each gets .calls, .busy_ms
# and .share metrics on every workload (zero where a workload never calls it).
SPANS = (
    "bench.generate_instance",
    "model.serialize_task_instance",
    "bench.load_bench_task",
    "model.parse_task_instance",
    "planner.plan",
    "planner.render_planner_text",
    "planner.build_prompt",
    "planner.transport",
    "planner.parse_planner_text",
    "graph.build_graph",
    "solve.solve_fifo",
    "solve.brute_force_optimal",
    "tree.assemble_program",
    "executor.execute",
    "metrics.evaluate_instance",
    "metrics.ground_truth_run",
    "bench.summarize",
    "bench.write_outputs",
)

LAYERS = ("model", "planner", "graph", "solve", "tree", "executor", "metrics", "bench")

COUNTS = (
    "graph.disjunctive_arcs",
    "solve.makespan_steps",
    "solve.exact_calls",
    "tree.executions_per_call",
    "executor.steps",
    "executor.ops_run",
    "executor.failures",
    "planner.invalid_plans",
    "model.bytes_parsed",
)

GC_SPAN = "gc.collect"


class Tracer:
    """Collects spans and work counts in memory for one traced round, or
    the spans of every traced round of a run, read back with load()."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, task]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._task = ""
        self._in_gc = False

    def _open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._task])

    def _close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str, task: str | None = None):
        if task is not None:
            self._task = task
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start" and self._stack:
            self._open(GC_SPAN)
            self._in_gc = True
        elif phase == "stop" and self._in_gc:
            self._close()
            self._in_gc = False

    @contextmanager
    def collector_spans(self):
        """Record collector pauses as spans while the block runs."""
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, task in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "task": task}) + "\n")

    def load(self, path: Path, counts: dict) -> None:
        """Add the spans another process wrote to `path`, and its counts."""
        offset = len(self.spans)
        with path.open(encoding="utf-8") as lines:
            for line in lines:
                span = json.loads(line)
                parent = span["parent"] + offset if span["parent"] >= 0 else -1
                self.spans.append([span["name"], span["start"], span["end"],
                                   parent, span["task"]])
        self.counts.update(counts)

    def layer_metrics(self, operations: int,
                      untraced_ms: dict[str, float]) -> dict[str, tuple[float, str]]:
        """Per-operation span and layer figures, as {name: (value, unit)}.

        `operations` is how many tasks or instances ran traced. Calls, busy
        and self times are means over them. The `trace.*` times compare each
        input's fastest traced `task` root with `untraced_ms`, its fastest
        latency with tracing off, both averaged over the inputs. Collector
        spans count toward the time of the span they interrupted and toward
        `trace.gc_ms`, but are not stages of their own.
        """
        child_ms = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1e3
        root_of: list[str] = []
        calls: Counter = Counter()
        busy: Counter = Counter()
        self_ms: Counter = Counter()
        fastest: dict[str, tuple[float, float]] = {}  # input: (root ms, stages ms)
        task_ms = gc_ms = 0.0
        for i, (name, start, end, parent, task) in enumerate(self.spans):
            ms = (end - start) * 1e3
            root_of.append(name if parent < 0 else root_of[parent])
            if name == "task":
                task_ms += ms
                fastest[task] = min(fastest.get(task, (ms, child_ms[i])), (ms, child_ms[i]))
            elif name == GC_SPAN:
                if root_of[i] == "task":
                    gc_ms += ms
            elif name != "retime":
                calls[name] += 1
                busy[name] += ms
                if root_of[i] == "task":
                    self_ms[name.split(".", 1)[0]] += ms - child_ms[i]
        n = max(operations, 1)
        out: dict[str, tuple[float, str]] = {}
        for name in SPANS:
            out[f"{name}.calls"] = (calls[name] / n, "1/task")
            out[f"{name}.busy_ms"] = (busy[name] / n, "ms/task")
            out[f"{name}.share"] = (busy[name] / task_ms if task_ms else 0.0, "fraction")
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = (self_ms[layer] / n, "ms/task")
        for name in COUNTS:
            if name == "tree.executions_per_call":
                calls_made = self.counts["tree.program_calls"]
                ratio = self.counts["tree.executions"] / calls_made if calls_made else 0.0
                out[name] = (ratio, "ratio")
            else:
                out[name] = (self.counts[name] / n, "1/task")
        out["trace.gc_ms"] = (gc_ms / n, "ms/task")
        both = [key for key in fastest if key in untraced_ms]
        m = max(len(both), 1)
        traced_ms = sum(fastest[key][0] for key in both) / m
        stages_ms = sum(fastest[key][1] for key in both) / m
        plain_ms = sum(untraced_ms[key] for key in both) / m
        out["trace.task_ms"] = (traced_ms, "ms/task")
        out["trace.stages_ms"] = (stages_ms, "ms/task")
        out["trace.unattributed_ms"] = (traced_ms - stages_ms, "ms/task")
        out["trace.untraced_task_ms"] = (plain_ms, "ms/task")
        out["trace.overhead_ms"] = (traced_ms - plain_ms, "ms/task")
        return out
