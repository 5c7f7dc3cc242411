"""Planner text protocol, ground-truth echo, and the remote client."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shopfloor
from shopfloor.bench import load_bundled_tasks
from shopfloor.errors import PlannerUnavailable
from shopfloor.model import (
    Allocation,
    GroundTruth,
    TaskInstance,
    parse_task_instance,
)
from shopfloor.planner import (
    GroundTruthPlanner,
    LlmConfig,
    LlmPlanner,
    RecordedTransport,
    build_prompt,
    config_from_env,
    http_transport,
    load_prompt_template,
    parse_planner_text,
    render_planner_text,
)

from conftest import LINE_BREAKS, chat_reply, make_robot, make_scene, simple_plan
from strategies import plan_triples


def gt_task():
    ops, alloc, prec = simple_plan()
    return TaskInstance(
        scene=make_scene(),
        instruction="polish both plates and palletize them",
        ground_truth=GroundTruth(operations=ops, allocation=alloc, precedence=prec),
    )


GOLDEN = """\
```OPERATIONS
t1 | transport | w1 | conveyor | table_1
p1 | polishing | w1 | table_1
t2 | transport | w1 | table_1 | pallet_1
t3 | transport | w2 | conveyor | table_1
p2 | polishing | w2 | table_1
t4 | transport | w2 | table_1 | pallet_2
```

```ALLOCATION
p1 | r1
p2 | r2
t1 | r1
t2 | r1
t3 | r2
t4 | r2
```

```PRECEDENCE
w1 | t1, p1, t2
w2 | t3, p2, t4
```
"""


def test_render_matches_golden_text():
    ops, alloc, prec = simple_plan()
    assert render_planner_text(ops, alloc, prec) == GOLDEN


def test_parse_recovers_the_rendered_plan(scene):
    ops, alloc, prec = simple_plan()
    output = parse_planner_text(GOLDEN, scene)
    assert output.ok, output.report.violations
    assert output.operations == ops
    assert output.allocation == alloc
    assert output.precedence == prec
    assert output.raw == GOLDEN


def test_parse_tolerates_surrounding_prose(scene):
    ops, alloc, prec = simple_plan()
    chatty = (
        "Sure! Here is the plan you asked for.\n\n"
        + GOLDEN
        + "\nLet me know if anything needs adjusting.\n"
    )
    output = parse_planner_text(chatty, scene)
    assert output.ok
    assert output.operations == ops


def test_parse_missing_section_is_reported_not_raised(scene):
    text = GOLDEN.split("```ALLOCATION")[0]
    output = parse_planner_text(text, scene)
    assert output.operations is not None
    assert output.allocation is None
    assert output.precedence is None
    assert not output.ok
    assert any("no ALLOCATION section" in v for v in output.report.violations)
    assert any("no PRECEDENCE section" in v for v in output.report.violations)


def test_parse_empty_text_reports_all_sections(scene):
    output = parse_planner_text("I cannot help with that.", scene)
    assert output.operations is None
    assert [v for v in output.report.violations if "section found" in v] == [
        "no OPERATIONS section found",
        "no ALLOCATION section found",
        "no PRECEDENCE section found",
    ]


def test_parse_skips_malformed_lines_with_a_violation(scene):
    text = GOLDEN.replace(
        "p1 | polishing | w1 | table_1", "p1 | polishing | w1"
    )
    output = parse_planner_text(text, scene)
    assert len(output.operations) == 5
    assert any("4 or 5 fields" in v for v in output.report.violations)
    assert not output.ok


def test_malformed_lines_of_each_section_name_their_section(scene):
    text = (
        GOLDEN.replace("p1 | polishing | w1 | table_1", "p1 | polishing | w1")
        .replace("```ALLOCATION\n", "```ALLOCATION\n  t1  \n")
        .replace("```PRECEDENCE\n", "```PRECEDENCE\nw1 | t1 | p1\n")
    )
    output = parse_planner_text(text, scene)
    assert output.report.violations[:3] == (
        "operation line needs 4 or 5 fields, got 3: 'p1 | polishing | w1'",
        "allocation line needs 2 fields, got 1: 't1'",
        "precedence line needs 2 fields, got 3: 'w1 | t1 | p1'",
    )


def test_parse_rejects_unknown_operation_type(scene):
    text = GOLDEN.replace("p1 | polishing", "p1 | painting")
    output = parse_planner_text(text, scene)
    assert all(op.id != "p1" for op in output.operations)
    assert any("unknown operation type 'painting'" in v for v in output.report.violations)


def test_parse_keeps_first_of_duplicate_sections(scene):
    text = GOLDEN + "\n```PRECEDENCE\nw1 | t1\n```\n"
    output = parse_planner_text(text, scene)
    assert output.precedence.chains["w1"] == ("t1", "p1", "t2")
    assert any("duplicate PRECEDENCE" in v for v in output.report.violations)


@pytest.mark.parametrize(
    "section, line, kept",
    [
        ("ALLOCATION", "a1 | r_nonexistent", lambda out: out.allocation.by_op["a1"]),
        ("PRECEDENCE", "w1 | bogus_op", lambda out: out.precedence.chains["w1"]),
    ],
    ids=["allocation", "precedence"],
)
def test_parse_keeps_first_of_repeated_lines(section, line, kept):
    task = next(t.instance for t in load_bundled_tasks() if t.task_id == "simple_multi_relay")
    gt = task.ground_truth
    text = render_planner_text(gt.operations, gt.allocation, gt.precedence)
    text = text.replace(f"```{section}\n", f"```{section}\n{line}\n")
    output = parse_planner_text(text, task.scene)
    key, value = line.split(" | ")
    assert not output.ok
    assert f"duplicate {section.lower()} line for {key!r}; keeping the first" in (
        output.report.violations
    )
    assert kept(output) in (value, (value,))


def test_parse_applies_semantic_validation(scene):
    text = GOLDEN.replace("t1 | r1", "t1 | r9")
    output = parse_planner_text(text, scene)
    assert not output.ok
    assert any("r9" in v for v in output.report.violations)


def test_parse_ignores_unrelated_fences(scene):
    text = "```python\nprint('hi')\n```\n" + GOLDEN
    output = parse_planner_text(text, scene)
    assert output.ok


@settings(max_examples=50, deadline=None)
@given(case=plan_triples())
def test_render_parse_round_trip(case):
    ops, alloc, prec, scene = case
    output = parse_planner_text(render_planner_text(ops, alloc, prec), scene)
    assert output.ok, output.report.violations
    assert output.operations == tuple(ops)
    assert output.allocation == alloc
    assert output.precedence == prec


@settings(max_examples=50, deadline=None)
@given(case=plan_triples(), data=st.data())
def test_parse_tolerates_crlf_and_blanks_after_section_tags(case, data):
    ops, alloc, prec, scene = case
    text = render_planner_text(ops, alloc, prec)
    perturbed = ""
    for line in text.splitlines():
        if line.startswith("```") and len(line) > 3:
            line += data.draw(st.text(alphabet=" \t", max_size=3))
        perturbed += line + data.draw(st.sampled_from(["\n", "\r\n"]))
    plain = parse_planner_text(text, scene)
    sloppy = parse_planner_text(perturbed, scene)
    assert sloppy.ok, sloppy.report.violations
    assert (sloppy.operations, sloppy.allocation, sloppy.precedence, sloppy.report) == (
        plain.operations, plain.allocation, plain.precedence, plain.report
    )


@pytest.mark.parametrize("line_break", LINE_BREAKS)
def test_a_line_break_inside_an_id_stays_in_its_field(line_break):
    robot = f"r{line_break}1"
    scene = make_scene(robots=(make_robot(robot), make_robot("r2")))
    ops, alloc, prec = simple_plan()
    alloc = Allocation(by_op={op: robot if r == "r1" else r for op, r in alloc.by_op.items()})
    output = parse_planner_text(render_planner_text(ops, alloc, prec), scene)
    assert output.ok, output.report.violations
    assert output.allocation == alloc


# ---------------------------------------------------------------------------
# planners


def test_ground_truth_planner_echoes_the_plan():
    task = gt_task()
    output = GroundTruthPlanner().plan(task)
    assert output.ok
    assert output.operations == task.ground_truth.operations
    assert output.allocation == task.ground_truth.allocation
    assert output.precedence == task.ground_truth.precedence


def test_ground_truth_planner_needs_ground_truth(scene):
    task = TaskInstance(scene=scene, instruction="noop", ground_truth=None)
    with pytest.raises(ValueError, match="ground truth"):
        GroundTruthPlanner().plan(task)


def test_config_from_env_requires_endpoint():
    with pytest.raises(PlannerUnavailable, match="SHOPFLOOR_LLM_BASE_URL"):
        config_from_env({})
    config = config_from_env(
        {
            "SHOPFLOOR_LLM_BASE_URL": "http://localhost:8000/v1/",
            "SHOPFLOOR_LLM_MODEL": "m",
            "SHOPFLOOR_LLM_TIMEOUT": "5",
        }
    )
    assert config.base_url == "http://localhost:8000/v1"
    assert config.timeout == 5.0
    assert config.api_key is None


@pytest.mark.parametrize("timeout", ["abc", "-5", "0", "nan", "inf", ""])
def test_config_from_env_rejects_bad_timeout(timeout):
    env = {
        "SHOPFLOOR_LLM_BASE_URL": "http://localhost:8000/v1",
        "SHOPFLOOR_LLM_MODEL": "m",
        "SHOPFLOOR_LLM_TIMEOUT": timeout,
    }
    with pytest.raises(PlannerUnavailable, match="SHOPFLOOR_LLM_TIMEOUT"):
        config_from_env(env)


def test_config_from_env_accepts_fractional_timeout():
    env = {
        "SHOPFLOOR_LLM_BASE_URL": "http://localhost:8000/v1",
        "SHOPFLOOR_LLM_MODEL": "m",
        "SHOPFLOOR_LLM_TIMEOUT": "2.5",
    }
    assert config_from_env(env).timeout == 2.5


def test_prompt_carries_scene_and_instruction():
    task = gt_task()
    prompt = build_prompt(task)
    assert task.instruction in prompt
    assert '"conveyor"' in prompt
    for section in ("OPERATIONS", "ALLOCATION", "PRECEDENCE"):
        assert section in prompt
    assert "<<SCENE>>" not in prompt
    assert "<<INSTRUCTION>>" not in prompt


def test_placeholder_in_the_scene_stays_literal():
    # A machine named like a placeholder is not filled in after the scene is.
    path = Path(shopfloor.__file__).parent / "data" / "tasks" / "simple_multi_relay.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["scene"]["machines"][0]["name"] = "<<INSTRUCTION>>"
    task = parse_task_instance(json.dumps(doc))
    prompt = build_prompt(task)
    assert '"name": "<<INSTRUCTION>>"' in prompt
    assert prompt.count(task.instruction) == 1


def test_prompt_template_loads_from_package_data():
    template = load_prompt_template()
    assert "<<SCENE>>" in template
    assert "<<INSTRUCTION>>" in template


def test_prompt_template_is_read_once():
    assert load_prompt_template() is load_prompt_template()


def test_llm_planner_parses_recorded_reply():
    task = gt_task()
    transport = RecordedTransport([GOLDEN])
    planner = LlmPlanner(LlmConfig(base_url="http://x", model="m"), transport)
    output = planner.plan(task)
    assert output.ok
    assert output.operations == task.ground_truth.operations
    assert len(transport.prompts) == 1
    assert task.instruction in transport.prompts[0]


def test_recorded_transport_exhaustion_is_planner_unavailable():
    task = gt_task()
    planner = LlmPlanner(
        LlmConfig(base_url="http://x", model="m"), RecordedTransport([])
    )
    with pytest.raises(PlannerUnavailable, match="no recorded response"):
        planner.plan(task)


def test_importing_the_pipeline_leaves_requests_unloaded():
    src = str(Path(shopfloor.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    # the same load steps under the interpreter's usual start-up: site hooks
    # may preload modules of their own, so the check is on what the package
    # adds to sys.modules
    code = (
        "import sys; before = set(sys.modules); "
        "import shopfloor.cli, shopfloor.bench, shopfloor.planner, shopfloor.gantt; "
        "shopfloor.bench.load_reference_tree(); shopfloor.planner.load_prompt_template(); "
        "print([m for m in ('requests', 'xml.sax', 'urllib.request', 'http.client', "
        "'dataclasses', 'inspect', 'ast', 'dis', 'tokenize') "
        "if m in sys.modules and m not in before])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.stdout.strip() == "[]"


def test_a_bare_interpreter_loads_no_resource_reader():
    # -S keeps site hooks from preloading modules, so the list is what the
    # package itself loads for what a command or a benchmark round does
    # before its first task: its data files are read by path, without
    # importlib.resources and the archive and source tools it pulls in, and
    # the HTTP modules wait for the first remote planner call.
    src = str(Path(shopfloor.__file__).resolve().parents[1])
    code = (
        "import sys, shopfloor.cli, shopfloor.bench, shopfloor.planner, shopfloor.gantt; "
        "shopfloor.bench.load_reference_tree(); shopfloor.planner.load_prompt_template(); "
        "shopfloor.bench.load_bundled_tasks(); "
        "print([m for m in ('requests', 'xml.sax', 'urllib.request', 'http.client', "
        "'dataclasses', 'importlib.resources', 'zipfile', 'tempfile', 'inspect', "
        "'ast', 'dis', 'tokenize') if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.strip() == "[]"


def test_http_transport_unreachable_endpoint():
    config = LlmConfig(base_url="http://127.0.0.1:9", model="m", timeout=0.5)
    with pytest.raises(PlannerUnavailable, match="unreachable"):
        http_transport(config, "hello")


# ---------------------------------------------------------------------------
# http_transport against a loopback endpoint


def _drop(handler):
    pass  # the server closes the connection without a status line


def _cut_short(handler):
    handler.send_response(200)
    handler.send_header("Content-Length", "100")
    handler.end_headers()
    handler.wfile.write(b'{"choices": [')


def _bad_status_line(handler):
    handler.wfile.write(b"nonsense\r\n\r\n")


def _too_slow(handler):
    handler.server.released.wait(10)


def _redirect(handler):
    handler.send_response(307)
    handler.send_header("Location", "/v2/chat/completions")
    handler.send_header("Content-Length", "0")
    handler.end_headers()


UNREACHABLE = "planner endpoint unreachable: "
NO_CONTENT = "planner response had no message content"
NOT_TEXT = "planner response content was not text"


@pytest.mark.parametrize(
    "body, status, message",
    [
        (b"boom", 500, "planner endpoint answered 500"),
        (chat_reply("plan"), 201, "planner endpoint answered 201"),
        (b"<html>not json</html>", 200, NO_CONTENT),
        (b"\xff\xfe\xfd", 200, NO_CONTENT),
        ({"error": "overloaded"}, 200, NO_CONTENT),
        ({"choices": []}, 200, NO_CONTENT),
        ({"choices": "text"}, 200, NO_CONTENT),
        (chat_reply(7), 200, NOT_TEXT),
        (chat_reply(None), 200, NOT_TEXT),
    ],
)
def test_http_transport_classifies_each_answer(endpoint, body, status, message):
    endpoint.answer(body, status)
    config = LlmConfig(base_url=endpoint.url, model="m", timeout=5)
    with pytest.raises(PlannerUnavailable) as info:
        http_transport(config, "hello")
    assert str(info.value) == message


@pytest.mark.parametrize(
    "reply, timeout, reason",
    [
        (_drop, 5, "Remote end closed connection without response"),
        (_cut_short, 5, "IncompleteRead"),
        (_bad_status_line, 5, "nonsense"),
        (_too_slow, 0.3, "timed out"),
    ],
)
def test_http_transport_classifies_each_broken_exchange(endpoint, reply, timeout, reason):
    endpoint.reply = reply
    config = LlmConfig(base_url=endpoint.url, model="m", timeout=timeout)
    with pytest.raises(PlannerUnavailable) as info:
        http_transport(config, "hello")
    assert str(info.value).startswith(UNREACHABLE)
    assert reason in str(info.value)


def test_a_redirect_of_the_post_is_an_answer_not_followed(endpoint):
    endpoint.reply = _redirect
    config = LlmConfig(base_url=endpoint.url, model="m", timeout=5)
    with pytest.raises(PlannerUnavailable, match="^planner endpoint answered 307$"):
        http_transport(config, "hello")
    assert len(endpoint.received) == 1


@pytest.mark.parametrize("base_url", ["no-scheme", "http://[::1"])
def test_http_transport_malformed_url_is_unreachable(base_url):
    config = LlmConfig(base_url=base_url, model="m", timeout=0.5)
    with pytest.raises(PlannerUnavailable, match=f"^{UNREACHABLE}"):
        http_transport(config, "hello")


def test_http_transport_refuses_a_file_url_without_reading_it(tmp_path):
    # The directory holds a valid reply where the POST would go: the
    # transport refuses the scheme instead of reading the file.
    (tmp_path / "chat").mkdir()
    (tmp_path / "chat" / "completions").write_text(json.dumps(chat_reply("the plan")))
    config = LlmConfig(base_url=tmp_path.as_uri(), model="m", timeout=0.5)
    with pytest.raises(PlannerUnavailable) as info:
        http_transport(config, "hello")
    assert str(info.value) == f"{UNREACHABLE}unsupported URL scheme 'file'"


@pytest.mark.parametrize(
    "base_url, scheme", [("data:,x", "data"), ("ftp://127.0.0.1:9", "ftp")]
)
def test_http_transport_refuses_a_scheme_other_than_http(base_url, scheme):
    config = LlmConfig(base_url=base_url, model="m", timeout=0.5)
    with pytest.raises(PlannerUnavailable) as info:
        http_transport(config, "hello")
    assert str(info.value) == f"{UNREACHABLE}unsupported URL scheme '{scheme}'"


@pytest.mark.parametrize("api_key", [None, "k"])
def test_http_transport_posts_one_user_message(endpoint, api_key):
    prompt = "polish the Werkstück ✓ 溶接   twice"
    endpoint.answer(chat_reply("the plan"))
    config = LlmConfig(base_url=endpoint.url, model="m-7", api_key=api_key, timeout=5)
    assert http_transport(config, prompt) == "the plan"
    [(path, headers, body)] = endpoint.received
    assert path == "/v1/chat/completions"
    assert headers["Content-Type"] == "application/json"
    assert headers.get("Authorization") == (f"Bearer {api_key}" if api_key else None)
    assert body == {"model": "m-7", "messages": [{"role": "user", "content": prompt}]}

