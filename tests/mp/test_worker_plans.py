"""Worker-side plan gossip: typed rejections are counted, never swallowed.

A worker ships the plans it captures to the parent and installs the
plans the parent gossips back.  Blobs that fail the §3.3 plan checks
(``ModelFormatError``) are counted in the worker's metrics — which the
parent merges — and the worker keeps serving.
"""

import multiprocessing
import time

import numpy as np

from repro.config import SystemConfig
from repro.edgetpu.isa import Opcode
from repro.host.platform import Platform
from repro.mp.worker import _Outbox, _ship_new_plans, _warm_plans, _WorkerState
from repro.plan import serialize_plan
from repro.plan.compiled import CompiledPlan, IntegrityTemplate
from repro.runtime.opqueue import OperationRequest, QuantMode
from repro.serve.metrics import ServingMetrics
from repro.serve.server import ServeConfig, TpuServer


class _FakeOutbox:
    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)


def _state():
    server = TpuServer(Platform(SystemConfig().with_tpus(2)), ServeConfig())
    return _WorkerState(None, server, _FakeOutbox())


def _captured_blob():
    """A real plan blob, captured by lowering one GEMM."""
    server = TpuServer(Platform(SystemConfig().with_tpus(1)), ServeConfig())
    rng = np.random.default_rng(0)
    server.tensorizer.lower(OperationRequest(
        task_id=1, opcode=Opcode.CONV2D,
        inputs=(rng.standard_normal((16, 8)), rng.standard_normal((8, 4))),
        quant=QuantMode.SCALE, attrs={"gemm": True},
    ))
    (plan,) = server.plan_cache.plans()
    return plan.signature, serialize_plan(plan)


class TestPlanGossip:
    def test_corrupt_blob_is_counted_and_not_installed(self):
        state = _state()
        signature, blob = _captured_blob()
        corrupt = b"XXXX" + blob[4:]  # bad magic
        _warm_plans(state, [corrupt])
        metrics = state.server.metrics
        assert metrics.plan_parse_failed == 1
        assert state.server.plan_cache.peek(signature) is None
        assert len(state.server.plan_cache) == 0
        # The worker keeps going: a good blob still installs.
        _warm_plans(state, [blob])
        assert state.server.plan_cache.peek(signature) is not None
        assert metrics.plan_parse_failed == 1
        assert state.server.snapshot()["plan_gossip"]["parse_failed"] == 1

    def test_unshippable_plan_is_counted_and_kept_local(self):
        state = _state()
        bad = CompiledPlan(
            signature="bad", kind="generic", opname="add", cpu_seconds=0.0,
            integrity_mode="off",
            integrity=[IntegrityTemplate(label="t", rows=(0, 1), cols=(0, 1))],
        )
        state.server.plan_cache.put("bad", bad)
        _ship_new_plans(state)
        assert state.server.metrics.plan_ship_failed == 1
        assert state.outbox.sent == []
        assert state.server.plan_cache.peek("bad") is bad

    def test_counters_merge_into_the_parent(self):
        worker = ServingMetrics(worker_id=1)
        worker.plan_parse_failed, worker.plan_ship_failed = 2, 1
        parent = ServingMetrics()
        parent.merge_state(worker.export_state())
        assert parent.snapshot()["plan_gossip"] == {"ship_failed": 1, "parse_failed": 2}


class TestOutbox:
    def test_send_never_waits_for_the_reader_and_keeps_order(self):
        # A captured plan can be far larger than the pipe buffer.  If the
        # worker's event loop waited for the parent to read it while the
        # parent waited to write a command to the worker, both processes
        # would stop; only the outbox's writer thread may wait.
        recv, conn = multiprocessing.Pipe(duplex=False)
        outbox = _Outbox(conn)
        plans = ("plans", [("sig", bytes(4 << 20))])
        messages = [plans, ("done", 1, True, None, None), ("event", "dispatch", 1, 0)]
        t0 = time.monotonic()
        for msg in messages:
            outbox.send(msg)
        assert time.monotonic() - t0 < 1.0  # nothing has been read yet
        assert [recv.recv() for _ in messages] == messages
        outbox.close(timeout=5.0)
        assert not outbox._thread.is_alive()
        recv.close()
        conn.close()
