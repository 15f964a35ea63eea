"""Sustained open-loop serving: EDF, shedding, preemption, determinism."""

import asyncio
import dataclasses

import numpy as np
import pytest

from repro.edgetpu.isa import Opcode
from repro.errors import LoadShed, QueueFull, ServingError
from repro.host.platform import Platform
from repro.runtime.opqueue import OperationRequest, QuantMode
from repro.runtime.tensorizer import Tensorizer
from repro.serve import (
    ServeConfig,
    SloPolicy,
    SustainedSpec,
    TpuServer,
    run_sustained,
)
from repro.serve.admission import AdmissionController
from repro.serve.coalescer import coalesce
from repro.serve.dispatcher import DevicePool, DispatchWork
from repro.serve.metrics import ServingMetrics
from repro.serve.request import ServeRequest


def _sreq(serve_id, tenant="t", deadline=None, priority=0, outstanding=0):
    request = OperationRequest(
        task_id=serve_id,
        opcode=Opcode.ADD,
        inputs=(np.zeros((2, 2)),),
        quant=QuantMode.SCALE,
        tenant=tenant,
    )
    loop = asyncio.new_event_loop()
    try:
        future = loop.create_future()
    finally:
        loop.close()
    return ServeRequest(
        serve_id=serve_id,
        tenant=tenant,
        request=request,
        future=future,
        submitted=0.0,
        deadline=deadline,
        priority=priority,
        outstanding=outstanding,
    )


class TestEdfAdmission:
    def test_drains_earliest_deadline_first(self):
        ctl = AdmissionController(capacity=8, scheduling="edf")
        ctl.offer(_sreq(1, deadline=9.0))
        ctl.offer(_sreq(2, deadline=1.0))
        ctl.offer(_sreq(3, deadline=5.0))
        assert [s.serve_id for s in ctl.drain(10)] == [2, 3, 1]

    def test_no_deadline_sorts_last_priority_breaks_ties(self):
        ctl = AdmissionController(capacity=8, scheduling="edf")
        ctl.offer(_sreq(1, priority=2))  # no deadline
        ctl.offer(_sreq(2, deadline=4.0, priority=1))
        ctl.offer(_sreq(3, deadline=4.0, priority=0))
        ctl.offer(_sreq(4, priority=0))  # no deadline, higher tier
        assert [s.serve_id for s in ctl.drain(10)] == [3, 2, 4, 1]

    def test_requeue_bypasses_capacity(self):
        ctl = AdmissionController(capacity=1, scheduling="edf")
        ctl.offer(_sreq(1, deadline=2.0))
        with pytest.raises(QueueFull):
            ctl.offer(_sreq(2, deadline=1.0))
        ctl.requeue(_sreq(3, deadline=1.0))  # preempted: must re-enter
        assert ctl.depth == 2
        assert [s.serve_id for s in ctl.drain(10)] == [3, 1]

    def test_expire_rebuilds_heap(self):
        ctl = AdmissionController(capacity=8, scheduling="edf")
        ctl.offer(_sreq(1, deadline=1.0))
        ctl.offer(_sreq(2, deadline=9.0))
        ctl.offer(_sreq(3, deadline=2.0))
        expired = ctl.expire(now=5.0)
        assert sorted(s.serve_id for s in expired) == [1, 3]
        assert ctl.depth == 1
        assert [s.serve_id for s in ctl.drain(10)] == [2]


class TestPoolPreemption:
    def test_preempts_only_fully_queued_lower_priority(self):
        async def scenario():
            platform = Platform.with_tpus(2)
            metrics = ServingMetrics()
            pool = DevicePool(platform, metrics, time_scale=0.0)
            pool.start()
            events = []
            pool.observer = lambda e, sid, dev: events.append((e, sid))
            gold = _sreq(1, priority=0, outstanding=1)
            bronze = _sreq(2, priority=2, outstanding=1)
            started = _sreq(3, priority=2, outstanding=2)
            started.started = 1  # one group already executing
            pool.submit(DispatchWork(group=None, sreq=gold))
            pool.submit(DispatchWork(group=None, sreq=bronze))
            pool.submit(DispatchWork(group=None, sreq=started))
            # No awaits since submit: everything still sits in the inbox.
            owners = pool.preempt(below_priority=0)
            assert [s.serve_id for s in owners] == [2]
            assert ("preempt", 2) in events
            assert pool.in_flight == 2  # gold + started stay
            for sreq in (gold, bronze, started):
                sreq.future.cancel()
            await pool.stop()

        asyncio.run(scenario())


class TestSustainedRuns:
    def test_bit_for_bit_reproducible(self):
        spec = SustainedSpec(requests=600, rate=60.0, seed=11)
        a = run_sustained(spec)
        b = run_sustained(spec)
        assert a.digest == b.digest
        assert a.outcomes == b.outcomes
        assert a.violations == [] and b.violations == []

    def test_different_seed_different_digest(self):
        a = run_sustained(SustainedSpec(requests=300, rate=60.0, seed=1))
        b = run_sustained(SustainedSpec(requests=300, rate=60.0, seed=2))
        assert a.digest != b.digest

    def test_overload_sheds_lowest_tier_first(self):
        """4x overload: bronze sheds en masse, gold never sheds, and the
        run stays invariant-clean (exactly-once, zero lost)."""
        result = run_sustained(
            SustainedSpec(requests=2500, rate=400.0, seed=7, burst=32, ticks=1)
        )
        assert result.violations == []
        tiers = result.tier_table
        assert tiers["bronze"]["shed"] > 0
        assert tiers["gold"]["shed"] == 0
        # Silver sheds only if bronze did (ladder order).
        if tiers["silver"]["shed"]:
            assert tiers["bronze"]["shed"] > 0
        assert result.outcomes.get("S", 0) == sum(
            t["shed"] for t in tiers.values()
        )

    def test_churn_keeps_invariants(self):
        """Fail-stop churn mid-run: zero lost, exactly-once, ordered
        shedding all hold while the breaker/requeue machinery runs."""
        result = run_sustained(
            SustainedSpec(
                requests=1200,
                rate=80.0,
                seed=7,
                burst=16,
                fail_after_instructions=2000,
            )
        )
        assert result.violations == []
        assert result.snapshot["outcomes"]["lost"] == 0

    def test_snapshot_has_p999_and_tiers(self):
        result = run_sustained(SustainedSpec(requests=400, rate=40.0, seed=3))
        latency = result.snapshot["latency"]
        assert "p999_seconds" in latency
        assert latency["p999_seconds"] >= latency["p99_seconds"]
        assert set(result.tier_table) == {"gold", "silver", "bronze"}
        for row in result.tier_table.values():
            assert row["joules_per_request"] is None or row["joules_per_request"] > 0

    def test_energy_table_prices_busy_time(self):
        result = run_sustained(SustainedSpec(requests=400, rate=40.0, seed=3))
        assert result.energy["active_joules"] > 0
        assert result.energy["idle_joules"] > 0
        # Active joules = busy seconds x 1.2 W across tiers.
        busy = sum(t["busy_seconds"] for t in result.tier_table.values())
        assert result.energy["active_joules"] == pytest.approx(busy * 1.2)


class TestOverloadGoldenDigests:
    """Preemption-heavy overload: outcome digests pinned, and every
    admitted request lowered once however often it is preempted."""

    @pytest.mark.parametrize(
        "seed, digest, outcomes, preemptions",
        [
            (
                11,
                "1675651f373afa78e6a111dc7256aaffbf693239db97a67b7770a573e2917ac5",
                {"D": 398, "T": 2},
                1817,
            ),
            (
                12,
                "e3571cba8cc7ae7774008d50f613fa3bfbfdbc2a5d6e9272c1a71a0f0097cbb7",
                {"D": 394, "T": 6},
                1500,
            ),
        ],
    )
    def test_digest_pinned_and_each_request_lowered_once(
        self, monkeypatch, seed, digest, outcomes, preemptions
    ):
        tensorizers = []
        init = Tensorizer.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            tensorizers.append(self)

        monkeypatch.setattr(Tensorizer, "__init__", recording_init)
        result = run_sustained(
            SustainedSpec(
                requests=400,
                rate=60.0,
                seed=seed,
                burst=10,
                ticks=2,
                integrity="abft",
                shard="off",
                tier_shares={"gold": 0.2, "silver": 0.3, "bronze": 0.5},
            )
        )
        assert result.violations == []
        assert result.digest == digest
        assert result.outcomes == outcomes
        assert result.snapshot["preemptions"] == preemptions
        counts = result.snapshot["outcomes"]
        admitted = counts["submitted"] - counts["shed"] - counts["rejected"]
        lowered = sum(t.stats.operations_lowered for t in tensorizers)
        assert 0 < lowered <= admitted


class TestRequeueKeepsOp:
    """A preempted request relaunches with the op it was lowered to."""

    @staticmethod
    def _server():
        return TpuServer(
            Platform.with_tpus(2), ServeConfig(time_scale=0.0, shard="off")
        )

    @staticmethod
    def _gemm(serve_id, b, priority):
        rng = np.random.default_rng(serve_id)
        request = OperationRequest(
            task_id=serve_id,
            opcode=Opcode.CONV2D,
            inputs=(rng.integers(-64, 64, size=(32, 32)).astype(b.dtype), b),
            quant=QuantMode.SCALE,
            attrs={"gemm": True, "gemm_chunks": 1},
            input_name=f"serve{serve_id}",
        )
        return ServeRequest(
            serve_id=serve_id,
            tenant="t",
            request=request,
            future=asyncio.get_running_loop().create_future(),
            submitted=0.0,
            priority=priority,
        )

    def _preempt(self, server, victims):
        """Launch *victims* as one group, then preempt them all."""
        server._lower_and_launch(victims)
        urgent = self._gemm(99, victims[0].request.inputs[1], priority=0)
        server._maybe_preempt([urgent])
        assert all(s.preemptions == 1 for s in victims)
        assert server.pool.in_flight == 0
        requeued = server.admission.drain(8)
        assert sorted(s.serve_id for s in requeued) == [s.serve_id for s in victims]
        return requeued

    def test_relaunch_reuses_op_and_delivers_solo_bytes(self):
        async def scenario():
            server = self._server()
            server.pool.start()
            b = np.random.default_rng(0).integers(-64, 64, (32, 32)).astype(np.float32)
            victims = [self._gemm(i, b, priority=2) for i in (1, 2)]
            solo = [
                Tensorizer().lower(dataclasses.replace(s.request)).result
                for s in victims
            ]
            requeued = self._preempt(server, victims)
            ops = [s.op for s in victims]
            lowered = server.tensorizer.stats.operations_lowered
            assert lowered == 2
            for group in coalesce(requeued):
                server._lower_and_launch(group)
            assert all(s.op is op for s, op in zip(victims, ops))
            assert server.tensorizer.stats.operations_lowered == lowered
            delivered = [await s.future for s in victims]
            await server.pool.stop()
            for got, want in zip(delivered, solo):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

        asyncio.run(scenario())

    def test_lowering_failure_rejects_only_fresh_members(self, monkeypatch):
        async def scenario():
            server = self._server()
            server.pool.start()
            # float64 B survives lowering as the same array, so the kept
            # request still coalesces with fresh ones sharing it.
            b = np.random.default_rng(0).integers(-64, 64, (32, 32)).astype(np.float64)
            kept = self._gemm(1, b, priority=2)
            self._preempt(server, [kept])
            op = kept.op
            fresh = [self._gemm(i, b, priority=2) for i in (3, 4)]
            (group,) = coalesce([fresh[0], kept, fresh[1]])

            def broken(requests):
                raise RuntimeError("injected lowering fault")

            monkeypatch.setattr(server.tensorizer, "lower_gemm_coalesced", broken)
            server._lower_and_launch(group)
            assert server.metrics.failed == 2
            assert server.metrics.lowering_failed == 2
            outcomes = server.metrics.snapshot()["outcomes"]
            assert outcomes["failed"] == outcomes["lowering_failed"] == 2
            for sreq in fresh:
                assert sreq.failed and sreq.op is None
                with pytest.raises(ServingError, match="lowering failed"):
                    await sreq.future
            assert kept.op is op and not kept.failed
            delivered = await kept.future
            await server.pool.stop()
            assert np.asarray(delivered).tobytes() == np.asarray(op.result).tobytes()

        asyncio.run(scenario())


class TestShedAccounting:
    """LoadShed is typed, counted apart from QueueFull, and per-tier."""

    def _config(self):
        return ServeConfig(
            max_queue_depth=4,
            time_scale=0.0,
            slo=SloPolicy(
                tenant_tiers={"vip": "gold"},
                high_watermark=0.5,
                low_watermark=0.25,
            ),
        )

    def _request(self, tenant):
        return OperationRequest(
            task_id=0,
            opcode=Opcode.CONV2D,
            inputs=(np.ones((8, 8), np.float32), np.ones((8, 8), np.float32)),
            quant=QuantMode.SCALE,
            attrs={"gemm": True, "gemm_chunks": 1},
            tenant=tenant,
        )

    def test_load_shed_is_a_queue_full_subtype_with_tier(self):
        assert issubclass(LoadShed, QueueFull)
        exc = LoadShed("shed", tier="bronze")
        assert exc.tier == "bronze"

    def test_shed_counted_apart_from_rejected(self):
        async def scenario():
            server = TpuServer(Platform.with_tpus(2), self._config())
            async with server:
                # Force the governor to the deepest shed level.
                server.overload.observe(depth=4, misses=0, drained=0)
                assert server.overload.level >= 1
                with pytest.raises(LoadShed):
                    server.submit_nowait(self._request("anyone"))
                # Gold passes the governor (unsheddable).
                fut = server.submit_nowait(self._request("vip"))
                await fut
                snap = server.snapshot()
                assert snap["outcomes"]["shed"] == 1
                assert snap["outcomes"]["rejected"] == 0
                assert snap["tiers"]["bronze"]["shed"] == 1
                assert snap["tiers"]["gold"]["shed"] == 0
                counters = server.counter_registry().snapshot()["serving"]
                assert counters["shed"] == 1
                assert counters["shed.bronze"] == 1
                assert counters["completed.gold"] == 1

        asyncio.run(scenario())
