"""Robot-by-step charts for a solved schedule, as text and as SVG.

Both renderings carry exactly the same cell labels so they can be checked
against each other; only the presentation differs.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .model import Allocation, Operation
from .solve import ScheduleGraph

_TYPE_FILLS = {
    "transport": "#9ecae1",
    "polishing": "#a1d99b",
    "welding": "#fdae6b",
    "beveling": "#bcbddc",
    "assembly": "#fee08b",
}
_UNASSIGNED = "(unassigned)"


def _escape(text: str) -> str:
    """text with &, < and > written as XML entities, as in SVG text content."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class GanttChart(NamedTuple):
    text: str
    svg: str


def _cells(
    schedule: ScheduleGraph,
    allocation: Allocation,
    operations: Sequence[Operation],
) -> tuple[list[str], dict[tuple[str, int], list[tuple[str, str]]]]:
    """Row order and (robot, step) -> [(label, op type)] with labels sorted."""
    by_id = {op.id: op for op in operations}
    cells: dict[tuple[str, int], list[tuple[str, str]]] = {}
    robots: set[str] = set()
    for op_id, step in schedule.start_steps.items():
        op = by_id.get(op_id)
        robot = allocation.robot_for(op_id) or _UNASSIGNED
        robots.add(robot)
        kind = op.op_type.value if op is not None else "transport"
        label = f"{op_id} ({op.op_type.value})" if op is not None else op_id
        cells.setdefault((robot, step), []).append((label, kind))
    for entries in cells.values():
        entries.sort()
    return sorted(robots), cells


def render_gantt(
    schedule: ScheduleGraph,
    allocation: Allocation,
    operations: Sequence[Operation],
) -> GanttChart:
    if schedule.makespan == 0:
        empty = "(empty schedule)"
        return GanttChart(
            text=empty + "\n",
            svg=(
                '<svg xmlns="http://www.w3.org/2000/svg" width="240" height="40">'
                f'<text x="8" y="24">{empty}</text></svg>'
            ),
        )
    robots, cells = _cells(schedule, allocation, operations)
    steps = range(schedule.makespan)

    def cell_text(robot: str, step: int) -> str:
        return ", ".join(label for label, _ in cells.get((robot, step), []))

    gutter = max(len("robot"), max(len(r) for r in robots))
    width = max(
        [len(str(schedule.makespan - 1))]
        + [len(cell_text(r, s)) for r in robots for s in steps]
    )
    lines = [
        "robot".ljust(gutter)
        + " | "
        + " | ".join(str(s).ljust(width) for s in steps)
    ]
    lines.append("-" * gutter + "-+-" + "-+-".join("-" * width for _ in steps))
    for robot in robots:
        lines.append(
            robot.ljust(gutter)
            + " | "
            + " | ".join(cell_text(robot, s).ljust(width) for s in steps)
        )
    text = "\n".join(line.rstrip() for line in lines) + "\n"

    cell_w, cell_h, left, top = 150, 28, 110, 26
    svg_w = left + cell_w * schedule.makespan + 10
    svg_h = top + cell_h * len(robots) + 10
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{svg_w}" height="{svg_h}" '
        f'viewBox="0 0 {svg_w} {svg_h}">',
        "<style>text{font-family:monospace;font-size:11px}</style>",
    ]
    for i, step in enumerate(steps):
        parts.append(
            f'<text x="{left + i * cell_w + 4}" y="{top - 8}">{step}</text>'
        )
    for j, robot in enumerate(robots):
        y = top + j * cell_h
        parts.append(f'<text x="4" y="{y + 18}">{_escape(robot)}</text>')
        for i, step in enumerate(steps):
            x = left + i * cell_w
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell_w}" height="{cell_h}" '
                f'fill="none" stroke="#bbb"/>'
            )
            entries = cells.get((robot, step), [])
            if entries:
                fill = _TYPE_FILLS.get(entries[0][1], "#dddddd")
                parts.append(
                    f'<rect x="{x + 1}" y="{y + 1}" width="{cell_w - 2}" '
                    f'height="{cell_h - 2}" fill="{fill}"/>'
                )
                label = ", ".join(label for label, _ in entries)
                parts.append(
                    f'<text x="{x + 4}" y="{y + 18}">{_escape(label)}</text>'
                )
    parts.append("</svg>")
    return GanttChart(text=text, svg="".join(parts))
