"""The console smoke run: the commands a first-time user types, in one
working directory, each through cli.main, with the checks made on what
they write.

Each check stands for one assertion of the smoke run; run by hand with
PYTHONPATH=src python -m pytest tests/test_console_smoke.py.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from shopfloor.cli import main


def shopfloor(capsys, *argv: str) -> tuple[int, str]:
    """main(argv)'s exit code and standard error."""
    code = main(list(argv))
    return code, capsys.readouterr().err


def _load(path: str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _dump(doc: dict, path: str) -> None:
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


@pytest.fixture
def workdir(tmp_path, monkeypatch, capsys):
    """A directory holding the smoke run's first outputs: a generated task,
    its schedule and trace, and the scored bundled tasks."""
    monkeypatch.chdir(tmp_path)
    for argv in (
        ("generate", "--tier", "simple_multi", "--seed", "3", "--out", "task.json"),
        ("solve", "task.json", "--out", "schedule.json"),
        ("execute", "task.json", "--schedule", "schedule.json", "--trace", "trace.jsonl"),
        ("run", "--bundled", "--out", "run"),
    ):
        assert shopfloor(capsys, *argv)[0] == 0, argv
    return tmp_path


def test_every_json_file_written_is_the_stdlib_indent_layout(workdir):
    # a round trip alone would not show the layout
    paths = sorted([*workdir.glob("*.json"), *workdir.glob("run/*.json")])
    assert len(paths) == 5, paths
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, ensure_ascii=False) + "\n", path


def test_hostile_json_is_a_parse_error_not_a_traceback(workdir, capsys):
    Path("nested.json").write_text("[" * 100_000 + "\n", encoding="utf-8")
    assert shopfloor(capsys, "evaluate", "nested.json")[0] == 2


def test_a_partial_reference_exits_1_and_says_why(workdir, capsys):
    # the stored program leaves o4 unfinished once no robot has the polisher
    assert shopfloor(capsys, "assemble", "task.json", "--out", "program.json")[0] == 0
    doc = _load("task.json")
    doc["ground_truth"]["program"] = _load("program.json")
    for robot in doc["scene"]["robots"]:
        robot["devices"].remove("polisher")
    _dump(doc, "partial.json")
    code, _ = shopfloor(capsys, "evaluate", "partial.json", "--out", "partial_report.json")
    assert code == 1
    error = _load("partial_report.json")["error"]
    assert error.startswith("ground truth invalid: ground truth does not execute fully"), error


def test_a_nested_leaf_of_another_type_names_its_full_path(workdir, capsys):
    # the path is built as the fault unwinds
    doc = _load("task.json")
    doc["ground_truth"]["operations"][2]["machine_1"] = 7
    _dump(doc, "task.json")
    code, err = shopfloor(capsys, "evaluate", "task.json")
    assert code == 2
    assert "task.json.ground_truth.operations[2].machine_1: expected a string, got int" in err
