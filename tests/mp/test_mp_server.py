"""MpTpuServer: bit-identity, merged snapshots, exactly-once events."""

import asyncio
import time

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.edgetpu.isa import Opcode
from repro.errors import RequestTimeout
from repro.host.platform import Platform
from repro.mp import MpTpuServer
from repro.runtime.opqueue import OperationRequest, QuantMode
from repro.runtime.tensorizer import Tensorizer
from repro.serve.metrics import exactly_once_violations
from repro.serve.server import ServeConfig, make_server


def _platform(tpus=4):
    return Platform(SystemConfig().with_tpus(tpus))


def _gemm(task_id, rng, m=64, k=48, n=32, b=None):
    return OperationRequest(
        task_id=task_id,
        opcode=Opcode.CONV2D,
        inputs=(
            rng.standard_normal((m, k)),
            rng.standard_normal((k, n)) if b is None else b,
        ),
        quant=QuantMode.SCALE,
        attrs={"gemm": True},
        tenant=f"tenant{task_id % 3}",
    )


class TestMpServer:
    def test_sequential_distinct_b_stays_bit_identical(self):
        """Same-shape GEMMs with different B through a warmed plan cache.

        Regression: ring blocks are recycled at identical offsets, so a
        cached plan's ``b_ref`` view aliases the *next* request's bytes;
        matching by value against it replayed stale quantized weights.
        """
        rng = np.random.default_rng(11)
        requests = [_gemm(i + 1, rng) for i in range(4)]
        wants = [Tensorizer().lower(r).result for r in requests]

        async def run():
            config = ServeConfig(time_scale=0.0)
            async with MpTpuServer(_platform(), config, workers=2) as server:
                return [await server.submit(r) for r in requests]

        results = asyncio.run(run())
        for i, (got, want) in enumerate(zip(results, wants)):
            assert got.tobytes() == want.tobytes(), f"request {i} differs"

    def test_concurrent_shared_b_load_merges_and_delivers_exactly_once(self):
        rng = np.random.default_rng(12)
        shared_b = rng.standard_normal((48, 32))
        requests = [_gemm(i + 1, rng, b=shared_b) for i in range(9)]
        wants = [Tensorizer().lower(r).result for r in requests]
        events = []

        async def run():
            config = ServeConfig(time_scale=0.0)
            server = MpTpuServer(_platform(), config, workers=2)
            server.pool.observer = lambda event, sid, dev: events.append(
                (event, sid)
            )
            async with server:
                futures = [server.submit_nowait(r) for r in requests]
                results = await asyncio.gather(*futures)
                await server.drain()
                live = server.snapshot()
            return results, live, server.snapshot()

        results, live, final = asyncio.run(run())
        for got, want in zip(results, wants):
            assert got.tobytes() == want.tobytes()
        # Both the live (round-trip) and post-stop (cached) snapshots
        # must reflect the merged multi-process state.
        for snap in (live, final):
            out = snap["outcomes"]
            assert out["completed"] == len(requests)
            assert out["lost"] == 0
            assert snap["workers"]["count"] == 2
            assert len(set(snap["workers"]["pids"])) == 2
        assert live["coalescing"]["requests_coalesced"] > 0
        delivers = [sid for event, sid in events if event == "deliver"]
        assert sorted(delivers) == sorted(set(delivers))
        assert len(delivers) == len(requests)

    def test_fault_injection_and_breaker_state_cross_the_boundary(self):
        rng = np.random.default_rng(13)
        platform = _platform()
        # Armed before start: the injector ships to whichever worker
        # owns tpu0 and fires there.
        platform.devices[0].inject_fault(after_instructions=0, failures=2)
        requests = [_gemm(i + 1, rng) for i in range(6)]
        wants = [Tensorizer().lower(r).result for r in requests]

        async def run():
            config = ServeConfig(
                time_scale=0.0, max_retries=4, breaker_cooldown=0.01
            )
            async with MpTpuServer(platform, config, workers=2) as server:
                results = [await server.submit(r) for r in requests]
                await server.drain()
                return results, server.snapshot()

        results, snap = asyncio.run(run())
        for got, want in zip(results, wants):
            assert got.tobytes() == want.tobytes()
        assert snap["outcomes"]["completed"] == len(requests)
        assert snap["outcomes"]["lost"] == 0
        assert snap["device_failures"] >= 1
        assert snap["retries"] >= 1
        # Global device names survive the merge: every worker reports
        # breakers for its slice under the worker-global names, and the
        # devices that executed groups appear under theirs.
        assert set(snap["breakers"]) == {f"tpu{i}" for i in range(4)}
        assert set(snap["devices"]) <= {f"tpu{i}" for i in range(4)}
        assert len(snap["devices"]) >= 2  # intra-worker shard fan-out

    def test_worker_count_validation(self):
        with pytest.raises(ValueError):
            MpTpuServer(_platform(tpus=2), ServeConfig(), workers=3)
        with pytest.raises(ValueError):
            MpTpuServer(_platform(), ServeConfig(), workers=0)

    def test_snapshot_is_prompt_while_a_worker_ships_a_large_plan(self):
        """A plan-gossip message larger than the pipe buffer waits until
        the parent reads it, and the parent reads no events while it
        waits for a snapshot reply.  The worker must still answer an
        on-loop and an off-loop snapshot promptly (not after the 30 s
        reply timeout, with no worker payload), and the gossip must
        still arrive.
        """
        rng = np.random.default_rng(14)
        a = rng.standard_normal((64, 1024))
        bs = [rng.standard_normal((1024, 1024)), rng.standard_normal((1024, 960))]

        async def run():
            loop = asyncio.get_running_loop()
            config = ServeConfig(time_scale=0.0)
            server = MpTpuServer(_platform(tpus=1), config, workers=1)
            seconds = []
            async with server:
                await server.gemm(a, bs[0])
                t0 = time.monotonic()
                on_loop = server.snapshot()
                seconds.append(time.monotonic() - t0)
                await server.gemm(a, bs[1])
                t0 = time.monotonic()
                off_loop = await loop.run_in_executor(None, server.snapshot)
                seconds.append(time.monotonic() - t0)
                for _ in range(100):
                    if len(server._plan_blobs) == 2:
                        break
                    await asyncio.sleep(0.01)
                gossiped = len(server._plan_blobs)
                t0 = time.monotonic()
            seconds.append(time.monotonic() - t0)  # stop()
            return on_loop, off_loop, gossiped, seconds, server.snapshot()

        on_loop, off_loop, gossiped, seconds, final = asyncio.run(run())
        assert max(seconds) < 10.0, seconds
        assert on_loop["plan_cache"]["misses"] == 1
        assert off_loop["plan_cache"]["misses"] == 2
        assert final["plan_cache"]["misses"] == 2
        assert gossiped == 2  # no event-pipe message was lost
        assert final["outcomes"]["completed"] == 2


@pytest.mark.parametrize("workers", [0, 1])
def test_admission_expiry_reports_one_observer_timeout(workers):
    """Both data planes share the front-end that expires queued work."""
    now = [0.0]
    request = _gemm(1, np.random.default_rng(15))

    async def run():
        config = ServeConfig(time_scale=0.0)
        server = make_server(_platform(tpus=1), config, workers, lambda: now[0])
        events = []
        async with server:
            server.pool.observer = lambda *event: events.append(event)
            future = server.submit_nowait(request, deadline_seconds=1.0)
            now[0] = 2.0  # past the deadline before the loop drains it
            with pytest.raises(RequestTimeout, match="admission queue"):
                await future
            await server.drain()
            return events, server.snapshot()

    events, snap = asyncio.run(run())
    assert events == [("timeout", 1, -1)]
    assert snap["outcomes"]["timeouts"] == 1
    assert exactly_once_violations(events, snap["outcomes"]["completed"]) == []
