"""Multi-process serving: the asyncio front-end over worker data planes.

:class:`MpTpuServer` is a :class:`~repro.serve.server.TpuServer` whose
data plane is a fleet of N spawned worker processes, each owning a
contiguous slice of the TPUs (GPTPU's parallel host-side task
dispatch, §6.1, without the GIL).  The front-end — admission control,
tenant fairness, SLO stamping and shedding, deadline expiry, the
overload governor, preemption bookkeeping, GEMM coalescing and the
client API — is inherited unchanged; this class supplies the fleet's
start/stop, shipping of coalesce groups (``_launch_group``), parked
group preemption (``_preempt``), drain, crash requeue, plan gossip and
the merged ``snapshot()``.

Data path: operand and result tensors cross the boundary through
per-worker :class:`~repro.mp.shm.ShmRing` segments (zero-copy views);
pipes carry only offsets and control messages.  Compiled plans gossip
between workers as §3.3 byte blobs so every worker's
:class:`~repro.plan.PlanCache` warms from any worker's first lowering.

Crash contract: the parent owns every shared-memory segment and every
terminal outcome.  When a worker dies (including SIGKILL), its pipe is
drained to EOF, its unresolved in-flight requests are requeued to
surviving workers, its segments are unlinked, and ``snapshot()`` keeps
reporting its last known device state — delivery stays exactly-once
because only the parent's once-only future resolve counts.
"""

from __future__ import annotations

import asyncio
import dataclasses
import multiprocessing as mp
import threading
import time
from collections import deque
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import DeviceFailure, RequestTimeout, ServingError
from repro.host.platform import Platform
from repro.mp.messages import WorkerSpec, decode_error, encode_request
from repro.mp.shm import RingFull, ShmRing
from repro.mp.worker import worker_main
from repro.serve.metrics import ServingMetrics
from repro.serve.request import ServeRequest
from repro.serve.server import ServeConfig, TpuServer
from repro.telemetry import SpanTracer, merge_chrome_traces, to_chrome_trace

#: Per-worker shared-memory ring capacity (one request ring + one
#: result ring each).  16 MiB holds hundreds of in-flight 1k² float32
#: operands; RingFull just parks the shipment until a completion frees
#: space, so undersizing degrades to backpressure, never failure.
DEFAULT_RING_BYTES = 16 * 1024 * 1024

_SNAPSHOT_TIMEOUT = 30.0


class _PoolFacade:
    """The slice of ``DevicePool`` surface the MP parent re-exports.

    The conformance campaigns arm ``server.pool.observer`` — events
    stream in from the workers (non-terminal) and the parent (terminal),
    so the suites run unchanged against the multi-process server.
    """

    def __init__(self) -> None:
        self.observer: Optional[Callable[[str, int, int], None]] = None


@dataclasses.dataclass
class _Shipment:
    """One in-flight request shipped to a worker."""

    sreq: ServeRequest
    worker_id: int
    #: Request-ring offsets to free once the worker reports done.
    offsets: Tuple[int, ...]


class _Worker:
    """Parent-side handle for one spawned data-plane worker."""

    def __init__(self, wid: int, device_names: Tuple[str, ...]) -> None:
        self.wid = wid
        self.device_names = device_names
        self.process: Optional[mp.process.BaseProcess] = None
        self.inbox = None  # parent -> worker command pipe (send side)
        self.outbox = None  # worker -> parent event pipe (recv side)
        self.snapbox = None  # worker -> parent snapshot/trace pipe
        self.req_ring: Optional[ShmRing] = None
        self.res_ring: Optional[ShmRing] = None
        self.alive = False
        self.ready = asyncio.Event()
        self.pid: Optional[int] = None
        #: Coalesce groups parked on RingFull, re-shipped as space frees.
        self.pending: deque = deque()
        self.inflight = 0
        #: Serialized sends: the dispatch task and sync snapshot() may
        #: write the command pipe from different threads.
        self.lock = threading.Lock()
        #: Last snapshot payload received (survives a crash).
        self.last_payload: Optional[dict] = None
        #: Out-of-band replies read while waiting for another kind.
        self.snap_stash: deque = deque()

    def send(self, msg: tuple) -> bool:
        if not self.alive:
            return False
        try:
            with self.lock:
                self.inbox.send(msg)
            return True
        except (BrokenPipeError, OSError):
            return False


class MpTpuServer(TpuServer):
    """Drop-in multi-process variant of :class:`TpuServer`."""

    def __init__(
        self,
        platform: Optional[Platform] = None,
        config: Optional[ServeConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        tracer: Optional[SpanTracer] = None,
        *,
        workers: int = 2,
        base_seed: int = 0,
        ring_bytes: int = DEFAULT_RING_BYTES,
    ) -> None:
        # The front-end only: the worker fleet replaces the in-process
        # Tensorizer and device pool that TpuServer.__init__ builds.
        self._init_front_end(
            platform,
            config,
            clock,
            tracer,
            ServingMetrics(base_seed=base_seed, worker_id=0),
        )
        n = self.platform.num_tpus
        if not 1 <= workers <= n:
            raise ValueError(
                f"workers must be in [1, num_tpus={n}], got {workers}"
            )
        self.num_workers = workers
        self.base_seed = base_seed
        self.ring_bytes = ring_bytes
        self.pool = _PoolFacade()
        # Contiguous device slices; worker 0 owns tpu0, so single-request
        # behaviour (and the shard suite's tpu0 expectations) match the
        # in-process server.
        per, extra = divmod(n, workers)
        self._workers: List[_Worker] = []
        base = 0
        for wid in range(workers):
            count = per + (1 if wid < extra else 0)
            names = tuple(
                self.platform.devices[base + i].name for i in range(count)
            )
            self._workers.append(_Worker(wid, names))
            base += count
        #: Sticky routing: coalesce key -> worker id, so a shared-B GEMM
        #: stream keeps hitting one worker's warmed plan + residency.
        self._routes: Dict[tuple, int] = {}
        self._inflight: Dict[int, _Shipment] = {}
        self._plan_blobs: Dict[str, bytes] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopping = False
        self.worker_crashes = 0
        self.requeued = 0
        self._final_snapshot: Optional[dict] = None
        self.worker_traces: List[dict] = []

    # -- lifecycle ------------------------------------------------------

    async def _start_plane(self) -> None:
        """Spawn the worker fleet and wait until every worker is ready."""
        self._loop = asyncio.get_running_loop()
        ctx = mp.get_context("spawn")
        base = 0
        for worker in self._workers:
            count = len(worker.device_names)
            injectors = tuple(
                self.platform.devices[base + i].fault_injector
                for i in range(count)
            )
            base += count
            worker.req_ring = ShmRing.create(self.ring_bytes)
            worker.res_ring = ShmRing.create(self.ring_bytes)
            cmd_recv, cmd_send = ctx.Pipe(duplex=False)
            out_recv, out_send = ctx.Pipe(duplex=False)
            snap_recv, snap_send = ctx.Pipe(duplex=False)
            spec = WorkerSpec(
                worker_id=worker.wid,
                base_seed=self.base_seed,
                system_config=self.platform.config,
                device_names=worker.device_names,
                config=self.config,
                req_ring_name=worker.req_ring.shm.name,
                req_ring_capacity=self.ring_bytes,
                res_ring_name=worker.res_ring.shm.name,
                res_ring_capacity=self.ring_bytes,
                injectors=injectors,
                trace=self.tracer.enabled,
            )
            worker.process = ctx.Process(
                target=worker_main,
                args=(spec, cmd_recv, out_send, snap_send),
                daemon=True,
                name=f"repro-mp-worker{worker.wid}",
            )
            worker.process.start()
            cmd_recv.close()
            out_send.close()
            snap_send.close()
            worker.inbox = cmd_send
            worker.outbox = out_recv
            worker.snapbox = snap_recv
            worker.alive = True
            self._loop.add_reader(
                worker.outbox.fileno(), self._drain_outbox, worker
            )
            self._loop.add_reader(
                worker.process.sentinel, self._on_worker_exit, worker
            )
        await asyncio.wait_for(
            asyncio.gather(*(w.ready.wait() for w in self._workers)),
            timeout=120.0,
        )

    async def _stop_plane(self) -> None:
        """Drain snapshots, stop workers, reap processes, unlink rings."""
        if self._loop is None:
            return
        self._stopping = True
        # Fail anything still unresolved (mirrors pool.stop semantics:
        # stop() after drain() sees none).
        for gid in list(self._inflight):
            shipment = self._inflight.pop(gid)
            if shipment.sreq.reject(
                ServingError("server stopped with requests in flight")
            ):
                self.metrics.failed += 1
        # Cache the final merged snapshot (and per-worker traces) while
        # the fleet can still answer, so post-stop snapshot() works.
        self._refresh_worker_payloads()
        if self.tracer.enabled:
            self._collect_traces()
        self._final_snapshot = self._merged_snapshot()
        for worker in self._workers:
            worker.send(("stop",))
        deadline = time.monotonic() + 10.0
        for worker in self._workers:
            if worker.process is None:
                continue
            timeout = max(deadline - time.monotonic(), 0.1)
            await self._loop.run_in_executor(None, worker.process.join, timeout)
            if worker.process.exitcode is None:
                worker.process.terminate()
                await self._loop.run_in_executor(None, worker.process.join, 5.0)
            self._teardown_worker(worker)
        self._loop = None

    def _teardown_worker(self, worker: _Worker) -> None:
        """Remove readers, close pipes, unlink rings (idempotent)."""
        worker.alive = False
        if self._loop is not None:
            if worker.outbox is not None:
                try:
                    self._loop.remove_reader(worker.outbox.fileno())
                except (OSError, ValueError):
                    pass
            if worker.process is not None:
                try:
                    self._loop.remove_reader(worker.process.sentinel)
                except (OSError, ValueError):
                    pass
        for conn in (worker.inbox, worker.outbox, worker.snapbox):
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
        worker.inbox = worker.outbox = worker.snapbox = None
        for ring in (worker.req_ring, worker.res_ring):
            if ring is not None:
                ring.close()
                ring.unlink()
        worker.req_ring = worker.res_ring = None

    async def drain(self) -> None:
        """Wait until no request is queued, parked, or in a worker."""
        while (
            self.admission.depth > 0
            or self._inflight
            or any(w.pending for w in self._workers)
        ):
            self._wakeup.set()
            await asyncio.sleep(0.001)

    # -- data plane: preemption and shipping -----------------------------

    def _preempt(self, urgent: int) -> List[ServeRequest]:
        """Take back parked groups whose every live member ranks below *urgent*.

        Only groups still parked on a worker's pending deque (never
        shipped, not lowered) are preemptible — anything already in a
        worker's ring may be executing.
        """
        victims: List[ServeRequest] = []
        for worker in self._workers:
            if not worker.pending:
                continue
            keep: deque = deque()
            for group in worker.pending:
                live = [s for s in group if not s.failed]
                if live and all(s.priority > urgent for s in live):
                    for sreq in live:
                        self._emit("preempt", sreq.serve_id)
                    victims.extend(live)
                else:
                    keep.append(group)
            worker.pending = keep
        return victims

    def _alive_workers(self) -> List[_Worker]:
        return [w for w in self._workers if w.alive]

    def _route(self, group: List[ServeRequest]) -> Optional[_Worker]:
        """Pick the worker for one coalescible group (sticky by key)."""
        alive = self._alive_workers()
        if not alive:
            return None
        # Set by coalesce(); the parent never lowers, so B never changes.
        key = group[0].coalesce_key
        if key is not None:
            wid = self._routes.get(key)
            if wid is not None and self._workers[wid].alive:
                return self._workers[wid]
        pick = min(alive, key=lambda w: (w.inflight + len(w.pending), w.wid))
        if key is not None:
            self._routes[key] = pick.wid
        return pick

    def _launch_group(self, group: List[ServeRequest]) -> None:
        live = [s for s in group if not s.failed]
        if not live:
            return
        worker = self._route(live)
        if worker is None:
            for sreq in live:
                if sreq.reject(
                    DeviceFailure("no live data-plane workers remain")
                ):
                    self.metrics.failed += 1
                    self._emit("give-up", sreq.serve_id)
            return
        if worker.pending:
            # Preserve FIFO per worker behind already-parked groups.
            worker.pending.append(live)
            return
        if not self._try_ship(worker, live):
            worker.pending.append(live)

    def _try_ship(self, worker: _Worker, group: List[ServeRequest]) -> bool:
        """Stage one group into the worker's request ring and send it.

        Returns False (after rolling back any partial staging) when the
        ring lacks space; the caller parks the group.
        """
        live = [s for s in group if not s.failed]
        if not live:
            return True
        now = self._clock()
        entries = []
        staged: List[Tuple[ServeRequest, Tuple[int, ...]]] = []
        try:
            for sreq in live:
                remaining = (
                    None if sreq.deadline is None else max(sreq.deadline - now, 0.0)
                )
                entry, offsets = encode_request(
                    worker.req_ring, sreq.serve_id, sreq.request, remaining
                )
                entries.append(entry)
                staged.append((sreq, tuple(offsets)))
        except RingFull:
            for _sreq, offsets in staged:
                for offset in offsets:
                    worker.req_ring.free(offset)
            return False
        if not worker.send(("req", entries)):
            for _sreq, offsets in staged:
                for offset in offsets:
                    worker.req_ring.free(offset)
            return False
        for sreq, offsets in staged:
            self._inflight[sreq.serve_id] = _Shipment(sreq, worker.wid, offsets)
            worker.inflight += 1
        return True

    def _flush_pending(self, worker: _Worker) -> None:
        while worker.pending:
            group = worker.pending[0]
            if not self._try_ship(worker, group):
                return
            worker.pending.popleft()

    # -- worker -> parent messages --------------------------------------

    def _drain_outbox(self, worker: _Worker) -> None:
        try:
            while worker.outbox is not None and worker.outbox.poll(0):
                self._handle_message(worker, worker.outbox.recv())
        except Exception:
            # Truncated pickle from a dying worker; the sentinel reader
            # performs the actual crash handling.
            pass

    def _handle_message(self, worker: _Worker, msg: tuple) -> None:
        kind = msg[0]
        if kind == "ready":
            worker.pid = msg[2]
            worker.ready.set()
        elif kind == "done":
            self._on_done(worker, *msg[1:])
        elif kind == "event":
            _kind, event, gid, device = msg
            self._emit(event, gid, device)
        elif kind == "plans":
            self._gossip_plans(worker, msg[1])

    def _on_done(
        self,
        worker: _Worker,
        gid: int,
        ok: bool,
        ref: Optional[tuple],
        err: Optional[tuple],
    ) -> None:
        shipment = self._inflight.pop(gid, None)
        if shipment is not None:
            owner = self._workers[shipment.worker_id]
            owner.inflight = max(owner.inflight - 1, 0)
            if owner.req_ring is not None:
                for offset in shipment.offsets:
                    owner.req_ring.free(offset)
                self._flush_pending(owner)
        if shipment is None:
            # Late duplicate after a crash requeue already re-shipped
            # (or resolved) this id; still recycle the result block.
            if ok and ref is not None:
                worker.send(("rfree", ref[0]))
            return
        sreq = shipment.sreq
        if ok:
            offset, _nbytes, shape, dtype = ref
            result = np.array(
                worker.res_ring.read_view(offset, shape, dtype), copy=True
            )
            worker.send(("rfree", offset))
            # Deadline holds at parent-side delivery (mirrors the
            # in-process dispatcher): a worker answer that crossed the
            # boundary after the budget elapsed is a miss, not a result.
            if sreq.expired(self._clock()):
                if sreq.reject(RequestTimeout(
                    f"request {gid} completed after its deadline"
                )):
                    self.metrics.record_timeout(sreq)
                self._emit("timeout", gid)
                return
            # resolve() reads sreq.op.result — THE single delivery path
            # (record_delivery) stays intact across the process boundary.
            sreq.op = SimpleNamespace(result=result)
            if self.metrics.record_delivery(sreq, self._clock()):
                self._emit("deliver", gid)
        else:
            exc = decode_error(err)
            if sreq.reject(exc):
                if isinstance(exc, RequestTimeout):
                    self.metrics.record_timeout(sreq)
                    self._emit("timeout", gid)
                else:
                    self.metrics.failed += 1
                    self._emit("give-up", gid)

    def _gossip_plans(self, origin: _Worker, plans: List[Tuple[str, bytes]]) -> None:
        fresh = [
            (sig, blob) for sig, blob in plans if sig not in self._plan_blobs
        ]
        if not fresh:
            return
        for sig, blob in fresh:
            self._plan_blobs[sig] = blob
        blobs = [blob for _sig, blob in fresh]
        for worker in self._alive_workers():
            if worker.wid != origin.wid:
                worker.send(("warm", blobs))

    # -- crash recovery -------------------------------------------------

    def _on_worker_exit(self, worker: _Worker) -> None:
        if self._loop is not None and worker.process is not None:
            try:
                self._loop.remove_reader(worker.process.sentinel)
            except (OSError, ValueError):
                pass
        if self._stopping or not worker.alive:
            return
        # Consume everything the worker managed to send before dying —
        # a request it completed (and reported) must not be re-executed.
        self._drain_outbox(worker)
        self.worker_crashes += 1
        orphaned = [
            gid
            for gid, shipment in self._inflight.items()
            if shipment.worker_id == worker.wid
        ]
        orphans = [self._inflight.pop(gid).sreq for gid in orphaned]
        parked = [group for group in worker.pending]
        worker.pending.clear()
        worker.inflight = 0
        self._routes = {
            key: wid for key, wid in self._routes.items() if wid != worker.wid
        }
        self._teardown_worker(worker)
        for sreq in orphans:
            if not sreq.failed and not sreq.future.done():
                self.requeued += 1
                self._emit("retry", sreq.serve_id)
                self._launch_group([sreq])
        for group in parked:
            self._launch_group([s for s in group if not s.failed])

    # -- snapshots / traces ---------------------------------------------

    def _round_trip(self, worker: _Worker, request: tuple, kind: str) -> Optional[Any]:
        """Synchronously ask one worker for a reply of *kind*."""
        if not worker.send(request):
            return None
        deadline = time.monotonic() + _SNAPSHOT_TIMEOUT
        stash = worker.snap_stash
        for _ in range(len(stash)):
            msg = stash.popleft()
            if msg[0] == kind:
                return msg[2]
            stash.append(msg)
        while time.monotonic() < deadline:
            try:
                if not worker.snapbox.poll(0.05):
                    continue
                msg = worker.snapbox.recv()
            except (EOFError, OSError):
                return None
            if msg[0] == kind:
                return msg[2]
            stash.append(msg)
        return None

    def _refresh_worker_payloads(self) -> None:
        for worker in self._alive_workers():
            payload = self._round_trip(worker, ("snapshot",), "snapshot")
            if payload is not None:
                worker.last_payload = payload

    def _collect_traces(self) -> None:
        self.worker_traces = []
        for worker in self._alive_workers():
            trace = self._round_trip(worker, ("trace",), "trace")
            if trace is not None:
                self.worker_traces.append(trace)

    def chrome_trace(self, counters: Optional[dict] = None) -> dict:
        """Merged pid-tagged Chrome trace: parent lane + one per worker."""
        import os

        parent = to_chrome_trace(
            self.tracer,
            counters,
            pid=os.getpid(),
            process_name="repro-mp-parent",
        )
        return merge_chrome_traces([parent] + self.worker_traces)

    def snapshot(self) -> dict:
        """Merged metrics snapshot in the TpuServer schema (+ workers)."""
        if self._loop is None and self._final_snapshot is not None:
            return self._final_snapshot
        self._refresh_worker_payloads()
        return self._merged_snapshot()

    @staticmethod
    def _strip_terminal(state: dict) -> dict:
        """Zero a worker's terminal accounting before merging.

        The parent's once-only resolve is the authority for outcomes and
        end-to-end latency; a worker's local view of the same requests
        would double-count them (and its latencies exclude queueing in
        the parent).
        """
        state = dict(state)
        for key in ("submitted", "rejected", "shed", "timeouts", "completed", "failed"):
            state[key] = 0
        empty = {"count": 0, "total": 0.0, "max": float("-inf"), "values": []}
        state["latencies"] = empty
        state["queue_depth_samples"] = dict(empty)
        # Per-tier terminal outcomes are parent-authoritative too; only
        # busy_seconds-by-tier is genuinely worker-side (the parent never
        # sees device occupancy).
        for key in (
            "submitted_by_tier",
            "completed_by_tier",
            "shed_by_tier",
            "miss_by_tier",
        ):
            state[key] = {}
        state["latency_by_tier"] = {}
        return state

    def _merged_snapshot(self) -> dict:
        elapsed = (
            self._clock() - self.started_at if self.started_at is not None else None
        )
        merged = ServingMetrics(base_seed=self.base_seed, worker_id=0)
        merged.merge_state(self.metrics.export_state())
        payloads = [w.last_payload for w in self._workers if w.last_payload]
        for payload in payloads:
            merged.merge_state(self._strip_terminal(payload["metrics"]))
        snap = merged.snapshot(elapsed)
        healthy = 0
        breakers: dict = {}
        quarantine: dict = {}
        plan_cache: Optional[dict] = None
        profile = {"observations": 0, "profiled": False, "seconds_per_instruction": {}}
        shard_enabled = False
        for payload in payloads:
            wsnap = payload["snapshot"]
            healthy += wsnap.get("platform", {}).get("healthy", 0)
            breakers.update(wsnap.get("breakers", {}))
            quarantine.update(wsnap.get("quarantine", {}))
            if "plan_cache" in wsnap:
                if plan_cache is None:
                    plan_cache = dict.fromkeys(wsnap["plan_cache"], 0.0)
                for key, value in wsnap["plan_cache"].items():
                    plan_cache[key] += value
            wprofile = wsnap.get("sharding", {}).get("profile", {})
            profile["observations"] += wprofile.get("observations", 0)
            profile["profiled"] = profile["profiled"] or wprofile.get("profiled", False)
            profile["seconds_per_instruction"].update(
                wprofile.get("seconds_per_instruction", {})
            )
            shard_enabled = shard_enabled or wsnap.get("sharding", {}).get(
                "enabled", False
            )
        snap["platform"] = {"tpus": self.platform.num_tpus, "healthy": healthy}
        snap["breakers"] = breakers
        if quarantine:
            snap["quarantine"] = quarantine
        if plan_cache is not None:
            lookups = plan_cache.get("hits", 0) + plan_cache.get("misses", 0)
            plan_cache["hit_rate"] = (
                plan_cache.get("hits", 0) / lookups if lookups else 0.0
            )
            snap["plan_cache"] = plan_cache
        snap["sharding"]["enabled"] = shard_enabled
        snap["sharding"]["profile"] = profile
        if self.overload is not None:
            snap["overload"] = self.overload.snapshot()
        snap["workers"] = {
            "count": self.num_workers,
            "alive": len(self._alive_workers()),
            "crashes": self.worker_crashes,
            "requeued": self.requeued,
            "pids": {
                w.wid: (w.last_payload or {}).get("pid", w.pid)
                for w in self._workers
            },
            "host_seconds": {
                w.wid: w.last_payload["host_seconds"]
                for w in self._workers
                if w.last_payload
            },
            "devices": {w.wid: list(w.device_names) for w in self._workers},
        }
        return snap

    def worker_pids(self) -> Dict[int, Optional[int]]:
        """Live worker pids (the crash-injection hook for tests/bench)."""
        return {w.wid: w.pid for w in self._workers if w.alive}
