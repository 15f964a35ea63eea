"""The data-plane worker process.

Each worker runs a complete in-process :class:`~repro.serve.server.TpuServer`
over its own slice of the platform's simulated TPUs (devices renamed to
their *global* identities, so breakers, quarantine, and shard profiles
merge back into parent snapshots without translation).  Host lowering,
the plan cache, the ABFT/vote integrity layer, intra-worker sharding,
and quarantine/breaker handling all run here, on a core of their own —
the escape hatch from the parent's GIL.

Protocol: see :mod:`repro.mp.messages`.  The worker never forwards
terminal pool events (deliver / give-up / timeout); the parent is
authoritative for exactly-once accounting, which is what makes a crash
requeue of this worker's in-flight requests safe.

The event loop never blocks on the parent: messages to the parent go
through :class:`_Outbox`, whose writer thread is the only one that can
wait for the parent to read.
"""

from __future__ import annotations

import asyncio
import os
import queue
import threading
import time
from collections import deque
from dataclasses import replace
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ModelFormatError
from repro.host.platform import Platform
from repro.mp.messages import (
    TERMINAL_EVENTS,
    WorkerSpec,
    decode_request,
    encode_error,
)
from repro.mp.shm import RingFull, ShmRing
from repro.plan import parse_plan, serialize_plan
from repro.serve.metrics import ServingMetrics
from repro.serve.server import TpuServer
from repro.telemetry import SpanTracer, to_chrome_trace


class _Outbox:
    """The event pipe to the parent, written in order by one thread.

    A message larger than the pipe buffer, such as a captured plan blob,
    blocks its writer until the parent reads it.  The parent may at that
    moment be blocked writing to this worker's command pipe, or waiting
    for its snapshot reply.  Only the writer thread waits, so the event
    loop keeps reading commands and the two processes never wait on
    each other.
    """

    def __init__(self, conn) -> None:
        self._conn = conn
        self._queue: "queue.SimpleQueue[Optional[tuple]]" = queue.SimpleQueue()
        self._thread = threading.Thread(
            target=self._write, name="worker-outbox", daemon=True
        )
        self._thread.start()

    def send(self, msg: tuple) -> None:
        self._queue.put(msg)

    def close(self, timeout: float) -> None:
        """Write what is queued (waiting at most *timeout*), then stop."""
        self._queue.put(None)
        self._thread.join(timeout)

    def _write(self) -> None:
        while (msg := self._queue.get()) is not None:
            try:
                self._conn.send(msg)
            except (BrokenPipeError, OSError):
                return  # parent is gone; the daemon flag reaps us shortly


class _WorkerState:
    """Mutable worker-side session state shared by the pipe handlers."""

    def __init__(self, spec: WorkerSpec, server: TpuServer, outbox) -> None:
        self.spec = spec
        self.server = server
        self.outbox = outbox
        #: worker-local serve id -> parent (global) serve id.
        self.id_map: Dict[int, int] = {}
        #: global serve ids whose results wait for result-ring space.
        self.parked: Deque[Tuple[int, np.ndarray]] = deque()
        #: plan signatures already shipped to the parent.
        self.shipped_plans: set = set()
        self.stopping = False


def _global_device(spec: WorkerSpec, local_index: int) -> int:
    """Translate a worker-local device index to the global index."""
    if 0 <= local_index < len(spec.device_names):
        return int(spec.device_names[local_index][3:])
    return -1


def _forward_event(state: _WorkerState, event: str, local_id: int, device: int) -> None:
    if event in TERMINAL_EVENTS:
        return
    gid = state.id_map.get(local_id, -1)
    state.outbox.send(("event", event, gid, _global_device(state.spec, device)))


def _ship_new_plans(state: _WorkerState) -> None:
    """Gossip freshly captured plans to the parent (§3.3 bytes)."""
    cache = state.server.plan_cache
    if cache is None:
        return
    fresh = []
    for plan in cache.plans():
        if plan.signature not in state.shipped_plans:
            state.shipped_plans.add(plan.signature)
            try:
                fresh.append((plan.signature, serialize_plan(plan)))
            except ModelFormatError:
                # A plan the §3.3 layout cannot carry stays worker-local.
                state.server.metrics.plan_ship_failed += 1
    if fresh:
        state.outbox.send(("plans", fresh))


def _flush_parked(state: _WorkerState, res_ring: ShmRing) -> None:
    while state.parked:
        gid, result = state.parked[0]
        if not _try_send_result(state, res_ring, gid, result):
            return
        state.parked.popleft()


def _try_send_result(
    state: _WorkerState, res_ring: ShmRing, gid: int, result: np.ndarray
) -> bool:
    try:
        ref = res_ring.write_array(result)
    except RingFull:
        return False
    state.outbox.send(("done", gid, True, ref, None))
    return True


def _on_future_done(state: _WorkerState, res_ring: ShmRing, gid: int, fut) -> None:
    exc = fut.exception() if not fut.cancelled() else None
    if fut.cancelled() or exc is not None:
        err = encode_error(exc) if exc is not None else ("ServingError", "cancelled")
        state.outbox.send(("done", gid, False, None, err))
    else:
        result = np.asarray(fut.result())
        if not _try_send_result(state, res_ring, gid, result):
            state.parked.append((gid, result))
    _ship_new_plans(state)


def _warm_plans(state: _WorkerState, blobs: List[bytes]) -> None:
    cache = state.server.plan_cache
    if cache is None:
        return
    for blob in blobs:
        try:
            plan = parse_plan(blob)
        except ModelFormatError:
            state.server.metrics.plan_parse_failed += 1
            continue
        state.shipped_plans.add(plan.signature)
        if cache.peek(plan.signature) is None:
            cache.put(plan.signature, plan)


def _remap_profile(spec: WorkerSpec, snap: dict) -> dict:
    """Rewrite local ``tpu{i}`` shard-profile keys to global names."""
    profile = snap.get("sharding", {}).get("profile")
    if profile:
        spi = profile.get("seconds_per_instruction", {})
        profile["seconds_per_instruction"] = {
            spec.device_names[int(name[3:])]: value for name, value in spi.items()
        }
    return snap


def _snapshot_payload(
    state: _WorkerState, host_t0: float, wall_t0: float
) -> dict:
    return {
        "pid": os.getpid(),
        "worker_id": state.spec.worker_id,
        "host_seconds": time.process_time() - host_t0,
        "wall_seconds": time.monotonic() - wall_t0,
        "metrics": state.server.metrics.export_state(),
        "snapshot": _remap_profile(state.spec, state.server.snapshot()),
    }


async def _amain(spec: WorkerSpec, inbox, outbox_conn, snapbox) -> None:
    host_t0 = time.process_time()
    wall_t0 = time.monotonic()
    req_ring = ShmRing.attach(spec.req_ring_name, spec.req_ring_capacity)
    res_ring = ShmRing.attach(spec.res_ring_name, spec.res_ring_capacity)

    n_local = len(spec.device_names)
    platform = Platform(spec.system_config.with_tpus(n_local), trace=False)
    for device, name, injector in zip(
        platform.devices, spec.device_names, spec.injectors or (None,) * n_local
    ):
        device.name = name  # global identity: snapshots merge key-for-key
        if injector is not None:
            device.fault_injector = injector
    # Admission already happened in the parent; the worker queue only
    # buffers the parent's shipments, so it must never fast-reject or
    # shed (the SLO policy stays so tiers still price deadlines/busy).
    config = replace(
        spec.config,
        max_queue_depth=max(spec.config.max_queue_depth * 2, 64),
        per_tenant_limit=None,
        shed_enabled=False,
    )
    outbox = _Outbox(outbox_conn)
    tracer = SpanTracer(enabled=spec.trace)
    metrics = ServingMetrics(base_seed=spec.base_seed, worker_id=spec.worker_id + 1)
    server = TpuServer(platform, config, tracer=tracer, metrics=metrics)
    state = _WorkerState(spec, server, outbox)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()

    def handle_inbox() -> None:
        try:
            while inbox.poll(0):
                msg = inbox.recv()
                kind = msg[0]
                if kind == "req":
                    for entry in msg[1]:
                        try:
                            request = decode_request(req_ring, entry)
                            fut = server.submit_nowait(
                                request, deadline_seconds=entry["deadline"]
                            )
                        except Exception as exc:
                            # A synchronous reject (QueueFull should be
                            # impossible at worker depth, decode bugs) must
                            # still produce a done, or the parent waits
                            # forever.
                            outbox.send(
                                ("done", entry["serve_id"], False, None, encode_error(exc))
                            )
                            continue
                        state.id_map[server._serve_seq] = entry["serve_id"]
                        fut.add_done_callback(
                            lambda f, gid=entry["serve_id"]: _on_future_done(
                                state, res_ring, gid, f
                            )
                        )
                elif kind == "rfree":
                    res_ring.free(msg[1])
                    _flush_parked(state, res_ring)
                elif kind == "warm":
                    _warm_plans(state, msg[1])
                elif kind == "snapshot":
                    snapbox.send(
                        ("snapshot", spec.worker_id, _snapshot_payload(state, host_t0, wall_t0))
                    )
                elif kind == "trace":
                    snapbox.send(
                        (
                            "trace",
                            spec.worker_id,
                            to_chrome_trace(
                                tracer,
                                pid=os.getpid(),
                                process_name=f"repro-worker{spec.worker_id}",
                                time_origin=wall_t0,
                            ),
                        )
                    )
                elif kind == "stop":
                    state.stopping = True
                    stop.set()
        except (EOFError, OSError):
            stop.set()  # parent went away

    server.pool.observer = lambda event, sid, dev: _forward_event(
        state, event, sid, dev
    )
    loop.add_reader(inbox.fileno(), handle_inbox)
    async with server:
        outbox.send(("ready", spec.worker_id, os.getpid()))
        await stop.wait()
        await server.drain()
    loop.remove_reader(inbox.fileno())
    outbox.close(timeout=5.0)
    req_ring.close()
    res_ring.close()


def worker_main(spec: WorkerSpec, inbox, outbox, snapbox) -> None:
    """Spawn entry point: run one data-plane worker to completion."""
    try:
        asyncio.run(_amain(spec, inbox, outbox, snapbox))
    except KeyboardInterrupt:
        pass
    finally:
        for conn in (inbox, outbox, snapbox):
            try:
                conn.close()
            except OSError:
                pass
