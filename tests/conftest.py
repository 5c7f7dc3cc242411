"""Shared builders for tests.

The default workshop: one conveyor feeding a polishing table and two pallets,
two robots with full device kits. Individual tests override pieces of it.
The endpoint fixture is a chat-completion server on a loopback port.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from shopfloor.graph import DisjunctiveGraph
from shopfloor.model import (
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
)
from shopfloor.planner import parse_planner_text, render_planner_text

FULL_KIT = frozenset(
    {"camera", "magnetic_gripper", "polisher", "welding_gun", "beveler"}
)


# The line breaks str.splitlines splits on besides LF and CR; any of them
# may sit inside an id.
LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


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


def renamed_plan(ops, alloc, prec, old, new):
    """The plan triple with operation id old renamed to new throughout."""

    def rename(op_id):
        return new if op_id == old else op_id

    return (
        tuple(op._replace(id=rename(op.id)) for op in ops),
        Allocation(by_op={rename(k): v for k, v in alloc.by_op.items()}),
        PrecedenceSet(chains={w: tuple(map(rename, c)) for w, c in prec.chains.items()}),
    )


def unscheduled_task():
    """b1 and a1 share robot r1 and the ground truth lists b1 first, with no
    stored schedule: FIFO in that order delays the chain a1 -> a2 -> a3 by
    one step (makespan 4), the exact solve does not (makespan 3)."""
    ops = (
        transport("b1", "w2", "conveyor", "pallet_2"),
        transport("a1", "w1", "conveyor", "table_1"),
        make_op("a2", OperationType.POLISHING, "w1", "table_1"),
        transport("a3", "w1", "table_1", "pallet_1"),
    )
    return TaskInstance(
        scene=make_scene(
            robots=(make_robot("r1"), make_robot("r2"), make_robot("r3")),
            workpieces=(
                make_workpiece("w1", states=("polished", at_label("pallet_1"))),
                make_workpiece("w2", states=(at_label("pallet_2"),)),
            ),
        ),
        instruction="polish w1 and palletize both workpieces",
        ground_truth=GroundTruth(
            operations=ops,
            allocation=Allocation(by_op={"b1": "r1", "a1": "r1", "a2": "r2", "a3": "r3"}),
            precedence=PrecedenceSet(chains={"w1": ("a1", "a2", "a3"), "w2": ("b1",)}),
        ),
    )


class FixedPlanner:
    """Replies with one plan through the text protocol."""

    def __init__(self, ops, alloc, prec):
        self.text = render_planner_text(ops, alloc, prec)

    def plan(self, task):
        return parse_planner_text(self.text, task.scene)


@pytest.fixture
def scene():
    return make_scene()


@pytest.fixture
def plan(scene):
    return simple_plan(scene)


def arcless(*op_ids):
    """A graph without arcs: every start step is allowed, nothing waits."""
    return DisjunctiveGraph(op_ids=op_ids, chains=(), resources={})


def chat_reply(content):
    """A chat-completion response body whose one message holds content."""
    return {"choices": [{"message": {"role": "assistant", "content": content}}]}


class _EndpointHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        self.server.received.append((self.path, self.headers, body))
        self.server.reply(self)

    def log_message(self, format, *args):
        pass


class LoopbackEndpoint(ThreadingHTTPServer):
    """A server on 127.0.0.1 that keeps each request's path, headers and
    decoded JSON body in received and answers it with reply(handler),
    which each test sets, directly or through answer."""

    daemon_threads = False  # so server_close joins every handler thread

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _EndpointHandler)
        self.received = []
        self.released = threading.Event()

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server_port}/v1"

    def answer(self, body, status=200):
        """Reply with status and body: bytes as they are, else as JSON."""
        data = body if isinstance(body, bytes) else json.dumps(body).encode()

        def reply(handler):
            handler.send_response(status)
            handler.send_header("Content-Type", "application/json")
            handler.send_header("Content-Length", str(len(data)))
            handler.end_headers()
            handler.wfile.write(data)

        self.reply = reply

    def handle_error(self, request, client_address):
        pass


@pytest.fixture
def endpoint():
    """A LoopbackEndpoint serving from a thread; at teardown it is released
    (a reply waiting on released goes on), shut down and closed."""
    server = LoopbackEndpoint()
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield server
    server.released.set()
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()
