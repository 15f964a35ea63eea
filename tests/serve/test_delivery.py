"""Satellite 4: one completion-accounting path, exactly-once.

``ServingMetrics.record_delivery`` is the single place resolve +
latency accounting happen; the dispatcher's last-group completion and
the server's degenerate-op fast path both route through it.  These
tests pin the once-only contract and prove neither path double-counts.
"""

import asyncio

import numpy as np
import pytest

from repro.edgetpu.isa import Opcode
from repro.host.platform import Platform
from repro.runtime.opqueue import LoweredOperation, OperationRequest, QuantMode
from repro.serve import ServeConfig, TpuServer
from repro.serve.metrics import ServingMetrics, exactly_once_violations
from repro.serve.request import ServeRequest


def _sreq(loop_future, submitted=0.0):
    request = OperationRequest(
        task_id=1,
        opcode=Opcode.ADD,
        inputs=(np.zeros((2, 2)),),
        quant=QuantMode.SCALE,
    )
    op = LoweredOperation(request, [], np.ones((2, 2)), cpu_seconds=0.0)
    return ServeRequest(
        serve_id=1,
        tenant="t",
        request=request,
        future=loop_future,
        submitted=submitted,
        op=op,
    )


class TestRecordDelivery:
    def test_second_call_is_a_no_op(self):
        async def main():
            metrics = ServingMetrics()
            sreq = _sreq(asyncio.get_running_loop().create_future(), submitted=1.0)
            assert metrics.record_delivery(sreq, 3.0) is True
            assert metrics.record_delivery(sreq, 9.0) is False
            return metrics, await sreq.future

        metrics, result = asyncio.run(main())
        assert metrics.completed == 1
        assert list(metrics.latencies.values()) == [pytest.approx(2.0)]
        assert np.array_equal(result, np.ones((2, 2)))

    def test_failed_request_is_never_recorded(self):
        async def main():
            metrics = ServingMetrics()
            sreq = _sreq(asyncio.get_running_loop().create_future())
            sreq.reject(RuntimeError("boom"))
            assert metrics.record_delivery(sreq, 5.0) is False
            with pytest.raises(RuntimeError):
                await sreq.future
            return metrics

        metrics = asyncio.run(main())
        assert metrics.completed == 0
        assert len(metrics.latencies) == 0


class TestDeliveryPathsEndToEnd:
    def test_normal_request_recorded_exactly_once(self):
        async def main():
            rng = np.random.default_rng(0)
            request = OperationRequest(
                task_id=0,
                opcode=Opcode.CONV2D,
                inputs=(rng.normal(size=(32, 32)), rng.normal(size=(32, 32))),
                quant=QuantMode.SCALE,
                attrs={"gemm": True},
            )
            async with TpuServer(
                Platform.with_tpus(2), ServeConfig(time_scale=0.0)
            ) as server:
                await server.submit(request)
                await server.drain()
                return server.metrics

        metrics = asyncio.run(main())
        assert metrics.completed == 1
        assert metrics.latencies.count == 1  # not the old double-count
        assert metrics.lost == 0

    def test_degenerate_op_uses_the_same_path(self):
        # An op that lowers to zero device instructions takes the
        # server's fast path — which must account through
        # record_delivery, exactly once, like the dispatcher does.
        async def main():
            server = TpuServer(Platform.with_tpus(1), ServeConfig(time_scale=0.0))

            def lower_to_nothing(request):
                return LoweredOperation(
                    request, [], np.full((2, 2), 5.0), cpu_seconds=0.0
                )

            server.tensorizer.lower = lower_to_nothing
            events = []
            server.pool.observer = lambda *event: events.append(event)
            async with server:
                result = await server.gemm(np.eye(2), np.eye(2))
                await server.drain()
                return server.metrics, result, events

        metrics, result, events = asyncio.run(main())
        assert np.array_equal(result, np.full((2, 2), 5.0))
        assert metrics.completed == 1
        assert metrics.latencies.count == 1
        assert metrics.lost == 0
        # ... and it reports the delivery like the dispatcher does.
        assert [e for e in events if e[0] == "deliver"] == [("deliver", 1, -1)]
        assert exactly_once_violations(events, metrics.completed) == []


class TestExactlyOnceAudit:
    def test_clean_log_has_no_violations(self):
        log = [
            ("dispatch", 1, 0),
            ("deliver", 1, 0),
            ("retry", 2, 1),
            ("give-up", 2, -1),
            ("timeout", 3, -1),
        ]
        assert exactly_once_violations(log, completed=1) == []

    def test_double_delivery(self):
        log = [("deliver", 4, 0), ("deliver", 4, 1)]
        assert exactly_once_violations(log, completed=2) == [
            "serve_id 4 delivered 2 times"
        ]

    def test_delivered_and_given_up(self):
        log = [("give-up", 5, -1), ("deliver", 5, 0)]
        assert exactly_once_violations(log, completed=1) == [
            "serve_id 5 both delivered and gave up"
        ]

    def test_delivered_and_timed_out(self):
        log = [("deliver", 6, 0), ("timeout", 6, -1)]
        assert exactly_once_violations(log, completed=1) == [
            "serve_id 6 both delivered and timed out"
        ]

    def test_deliver_events_must_match_completed(self):
        log = [("deliver", 7, 0), ("dispatch", 8, 0)]
        assert exactly_once_violations(log, completed=2) == [
            "deliver events (1) != completed (2)"
        ]
        assert exactly_once_violations([], completed=1) == [
            "deliver events (0) != completed (1)"
        ]
