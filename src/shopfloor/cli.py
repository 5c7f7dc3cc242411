"""Command-line front end for the scheduling pipeline.

Exit codes: 0 on success, 1 for usage problems and runtime failures
(unavailable planner, oversized exact solve, invalid plan, a task scored
by evaluate or run whose ground truth cannot be replayed, an output that
cannot be written),
2 when an input file cannot be read or parsed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import (
    GROUND_TRUTH_INVALID,
    INTERNAL_ERROR,
    Tier,
    _run_pipeline,
    generate_instance,
    generate_suite,
    load_bench_task,
    load_bundled_tasks,
    run_benchmark,
    task_id_for,
)
from .errors import ParseError, ShopfloorError, ValidationError
from .executor import trace_to_jsonl
from .gantt import render_gantt
from .graph import build_graph, to_dot
from .metrics import ground_truth_run, report_to_json
from .model import (
    PROGRAM,
    SCHEDULE_RECORD,
    Codec,
    TaskInstance,
    canonical_json,
    load_task_instance,
    parse_json,
    serialize_task_instance,
    write_file,
)
from .planner import GroundTruthPlanner, LlmPlanner, config_from_env
from .solve import brute_force_optimal, reference_schedule, schedule_to_record, solve_fifo
from .tree import assemble_program, load_reference_tree


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage problems; this front end
    reserves 2 for unreadable input files, so usage errors become 1."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


class _InputError(Exception):
    pass


def _load_task(path: str) -> TaskInstance:
    try:
        return load_task_instance(path)
    except (ParseError, ValidationError) as exc:
        raise _InputError(f"invalid task file {path}: {exc}") from None


def _load_file(path: str | None, label: str, codec: Codec):
    """An optional input file: None when no path is given."""
    if not path:
        return None
    try:
        return codec.load(parse_json(Path(path).read_text(encoding="utf-8"), path), path)
    except OSError as exc:
        raise _InputError(f"cannot read {label} file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise _InputError(f"invalid {label} file {path}: not UTF-8: {exc}") from None
    except ParseError as exc:
        raise _InputError(f"invalid {label} file {path}: {exc}") from None


def _tier_list(text: str) -> tuple[Tier, ...]:
    try:
        return tuple(Tier(t) for t in text.split(","))
    except ValueError:
        valid = ", ".join(t.value for t in Tier)
        raise argparse.ArgumentTypeError(
            f"invalid tiers {text!r}; choose from {valid}"
        ) from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a whole number of at least 1, got {text!r}")
    return value


def _planner(name: str):
    if name == "gt":
        return GroundTruthPlanner()
    return LlmPlanner(config_from_env())


def _emit(text: str, out: str | None) -> None:
    if out:
        write_file(out, text)
    else:
        sys.stdout.write(text)


def _ground_truth(task: TaskInstance):
    gt = task.ground_truth
    if gt is None:
        raise _InputError("task file carries no ground truth")
    return gt


# ---------------------------------------------------------------------------
# subcommands


def _cmd_generate(args) -> int:
    if args.suite:
        paths = generate_suite(
            Path(args.suite),
            per_tier=args.per_tier,
            base_seed=args.base_seed,
            tiers=args.tiers or tuple(Tier),
        )
        print(f"wrote {len(paths)} task files to {args.suite}")
        return 0
    tier = Tier(args.tier)
    task = generate_instance(tier, args.seed)
    text = serialize_task_instance(task)
    out = args.out or f"{task_id_for(tier, args.seed)}.json"
    write_file(out, text)
    print(f"wrote {out}")
    return 0


def _cmd_plan(args) -> int:
    task = _load_task(args.task)
    if args.planner == "gt":
        _ground_truth(task)
    output = _planner(args.planner).plan(task)
    _emit(output.raw, args.out)
    if not output.ok:
        for violation in output.report.violations:
            print(f"violation: {violation}", file=sys.stderr)
        return 1
    return 0


def _cmd_graph(args) -> int:
    task = _load_task(args.task)
    gt = _ground_truth(task)
    graph = build_graph(gt.operations, gt.precedence, gt.allocation, task.scene)
    _emit(to_dot(graph), args.out)
    return 0


def _cmd_solve(args) -> int:
    task = _load_task(args.task)
    gt = _ground_truth(task)
    graph = build_graph(gt.operations, gt.precedence, gt.allocation, task.scene)
    if args.optimal:
        schedule = brute_force_optimal(graph)
        source = "optimal"
    else:
        schedule = solve_fifo(graph, [op.id for op in gt.operations])
        source = "fifo"
    record = schedule_to_record(schedule, source=source)
    _emit(SCHEDULE_RECORD.serialize(record), args.out)
    return 0


def _cmd_assemble(args) -> int:
    task = _load_task(args.task)
    gt = _ground_truth(task)
    program = assemble_program(
        load_reference_tree(), gt.operations, gt.allocation, task.scene
    )
    _emit(PROGRAM.serialize(program), args.out)
    return 0


def _cmd_execute(args) -> int:
    task = _load_task(args.task)
    gt = _ground_truth(task)
    record = _load_file(args.schedule, "schedule", SCHEDULE_RECORD)
    program = _load_file(args.program, "program", PROGRAM)
    gt = gt._replace(schedule=record or gt.schedule, program=program or gt.program)
    run = ground_truth_run(task._replace(ground_truth=gt))
    _emit(trace_to_jsonl(run.outcome.trace), args.trace)
    print(
        f"executed fully: {run.outcome.executed_fully}; makespan {run.schedule.makespan}; "
        f"status delta: {sorted(run.status)}",
        file=sys.stderr,
    )
    return 0


# Task errors after which evaluate and run exit 1, once every output is written.
_FATAL = (GROUND_TRUTH_INVALID, INTERNAL_ERROR)


def _cmd_evaluate(args) -> int:
    task = _load_task(args.task)
    _ground_truth(task)
    report, error = _run_pipeline(task, _planner(args.planner), load_reference_tree())
    doc = report_to_json(report)
    doc["error"] = error
    _emit(canonical_json(doc), args.out)
    return 1 if error is not None and error.startswith(_FATAL) else 0


def _cmd_gantt(args) -> int:
    task = _load_task(args.task)
    gt = _ground_truth(task)
    record = _load_file(args.schedule, "schedule", SCHEDULE_RECORD) or gt.schedule
    graph = build_graph(gt.operations, gt.precedence, gt.allocation, task.scene)
    schedule = reference_schedule(graph, record)
    chart = render_gantt(schedule, gt.allocation, gt.operations)
    sys.stdout.write(chart.text)
    if args.svg:
        write_file(args.svg, chart.svg)
    return 0


def _cmd_run(args) -> int:
    if args.bundled:
        tasks = load_bundled_tasks()
    else:
        task_dir = Path(args.tasks)
        if not task_dir.is_dir():
            raise _InputError(f"task directory not found: {task_dir}")
        paths = sorted(task_dir.glob("*.json"))
        if not paths:
            raise _InputError(f"no task files in {task_dir}")
        try:
            tasks = [load_bench_task(p) for p in paths]
        except (ParseError, ValidationError, ValueError) as exc:
            raise _InputError(str(exc)) from None
    result = run_benchmark(
        tasks,
        _planner(args.planner),
        out_dir=Path(args.out) if args.out else None,
    )
    sys.stdout.write(canonical_json(result.summary))
    code = 0
    for prefix in _FATAL:
        ids = [row.task_id for row in result.results
               if row.error is not None and row.error.startswith(prefix)]
        if ids:
            print(f"{prefix.rstrip(': ')} in: {', '.join(ids)}", file=sys.stderr)
            code = 1
    return code


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="shopfloor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate benchmark task files")
    target = p.add_mutually_exclusive_group()
    target.add_argument("--tier", choices=[t.value for t in Tier], help="tier for a single task")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output file for a single task")
    target.add_argument("--suite", help="directory to fill with a full suite")
    p.add_argument("--per-tier", type=_positive_int, default=5)
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--tiers", type=_tier_list, help="comma-separated tier names for --suite")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("plan", help="produce the operation/allocation/precedence text")
    p.add_argument("task")
    p.add_argument("--planner", choices=["gt", "llm"], default="gt")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("graph", help="the ground-truth plan's disjunctive graph as GraphViz dot")
    p.add_argument("task")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("solve", help="schedule the task's ground-truth plan")
    p.add_argument("task")
    p.add_argument("--optimal", action="store_true", help="exact solve instead of first-in-first-out")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("assemble", help="assemble the executable program")
    p.add_argument("task")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_assemble)

    p = sub.add_parser("execute", help="symbolically execute and emit the trace")
    p.add_argument("task")
    p.add_argument("--schedule", help="schedule record JSON to use")
    p.add_argument("--program", help="program JSON to use")
    p.add_argument("--trace", help="file for the JSONL trace (default stdout)")
    p.set_defaults(func=_cmd_execute)

    p = sub.add_parser("evaluate", help="score one task end to end")
    p.add_argument("task")
    p.add_argument("--planner", choices=["gt", "llm"], default="gt")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("gantt", help="render the schedule as a chart")
    p.add_argument("task")
    p.add_argument("--schedule", help="schedule record JSON to use")
    p.add_argument("--svg", help="also write an SVG file")
    p.set_defaults(func=_cmd_gantt)

    p = sub.add_parser("run", help="run a benchmark suite")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--tasks", help="directory of task JSON files")
    source.add_argument("--bundled", action="store_true",
                        help="use the tasks shipped with the package")
    p.add_argument("--planner", choices=["gt", "llm"], default="gt")
    p.add_argument("--out", help="directory for metrics, CSV and summary")
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "generate" and not args.suite and not args.tier:
            parser.error("generate needs --tier or --suite")
        if args.command == "run" and not args.bundled and not args.tasks:
            parser.error("run needs --tasks or --bundled")
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except _InputError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ShopfloorError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # Every input read is caught above as an _InputError, so an OSError
        # here comes from writing an output.
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
