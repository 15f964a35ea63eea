"""Load generators for the serving layer: closed-loop and open-loop.

The original, closed-loop half (:func:`run_loadgen`) drives a
:class:`~repro.serve.server.TpuServer` with ``tenants`` concurrent
clients, each issuing ``requests_per_tenant`` GEMMs back-to-back
against a shared model operand *B* (the coalescing-friendly "many
clients, one weight matrix" serving pattern), optionally killing one
simulated TPU mid-run to exercise retry/requeue and the circuit
breaker.  Deterministic: inputs come from a seeded RNG and every
client's result is checked bit-for-bit against the solo lowering of the
same request, so the benchmark asserts the zero-lost / zero-duplicated
/ bit-identical invariants rather than just timing them.

The sustained, open-loop half (:func:`run_sustained`) replays a seeded
Poisson schedule from :mod:`repro.serve.arrivals` against a virtual
clock: arrivals fire at their scheduled model-time instants whether or
not earlier requests completed, so admission queues genuinely build and
the SLO machinery (EDF, shedding, preemption, deadline expiry) is
exercised at 10⁵–10⁶ request scale in seconds of wall time.  The run's
outcome stream is fingerprinted so a seed reproduces it bit-for-bit on
the in-process server.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.edgetpu.isa import Opcode
from repro.errors import DeviceFailure, LoadShed, QueueFull, RequestTimeout
from repro.host.energy import EnergyModel
from repro.host.platform import Platform
from repro.runtime.opqueue import OperationRequest, QuantMode
from repro.runtime.tensorizer import Tensorizer
from repro.serve.arrivals import build_schedule
from repro.serve.metrics import exactly_once_violations
from repro.serve.server import ServeConfig, TpuServer, make_server
from repro.serve.slo import SloPolicy, gold_silver_bronze


@dataclass(frozen=True)
class LoadgenSpec:
    """One load-generation scenario."""

    tpus: int = 8
    tenants: int = 6
    requests_per_tenant: int = 8
    #: Square GEMM size per request (m = k = n = size).
    size: int = 128
    seed: int = 7
    #: Kill device ``fail_device`` after this many instructions (0 = no
    #: fault injection).  -1 failures = permanent death.
    fail_after_instructions: int = 0
    fail_device: int = 0
    #: Fault mode for the injected plan: "fail-stop" raises, while the
    #: corruption modes ("bitflip", "stuck", "skew") silently mangle
    #: returned tiles — pair those with ``integrity != "off"`` or the
    #: bit-identity verification below will flag mismatches.
    fail_mode: str = "fail-stop"
    #: SDC-defense mode for the server ("off", "abft", "vote").
    integrity: str = "off"
    #: Real seconds per modeled second; 0 runs as fast as asyncio allows.
    time_scale: float = 0.0
    #: Per-request deadline, or None.
    deadline_seconds: Optional[float] = None
    #: Verify every delivered result bit-for-bit against solo lowering.
    verify: bool = True
    #: AOT compiled-plan cache on the server (lower once, bind many).
    plan_cache: bool = True
    #: Request shape mix: "gemm" is the classic coalescing-friendly
    #: shared-B GEMM stream; "nn" cycles each tenant through an NN
    #: inference triple — a shared-weight conv2D_nn layer, an
    #: attention-score GEMM, and a softmax over the scores.  Only the
    #: GEMMs are coalescible; conv2D_nn and softmax requests must ride
    #: through the server as singletons.
    mix: str = "gemm"
    #: Multi-TPU segmentation mode ("auto" or "off"; see repro.shard).
    shard: str = "auto"
    #: Worker processes for the data plane (0 = in-process server; see
    #: repro.mp).  Requires 1 <= workers <= tpus when non-zero.
    workers: int = 0


@dataclass
class LoadgenResult:
    """Outcome of one :func:`run_loadgen` scenario."""

    snapshot: dict
    wall_seconds: float
    #: Results that did not match the solo-lowering reference.
    mismatches: int
    #: Per-tenant delivered-result counts.
    delivered_by_tenant: dict


async def _client(
    server: TpuServer,
    tenant: str,
    requests: List[OperationRequest],
    results: dict,
    spec: LoadgenSpec,
) -> None:
    delivered = 0
    for i, request in enumerate(requests):
        try:
            result = await server.submit(
                request, deadline_seconds=spec.deadline_seconds
            )
        except QueueFull:
            await asyncio.sleep(0.001)  # back off and drop this request
            continue
        except (DeviceFailure, RequestTimeout):
            continue  # surfaced failure — counted server-side
        results[(tenant, i)] = result
        delivered += 1
    results[("__delivered__", tenant)] = delivered


def _nn_mix(spec: LoadgenSpec, rng: np.random.Generator) -> dict:
    """Per-tenant NN inference traffic: conv layer, attention GEMM, softmax.

    The conv weights and the attention key matrix are shared across
    tenants (the "many clients, one model" serving pattern); activations
    are per-request.  The stream deliberately interleaves coalescible
    GEMMs with non-coalescible NN ops so the serving path proves it
    keeps them apart.
    """
    seq, d_head = 48, 32
    conv_w = rng.normal(size=(8, 3, 3, 3))
    k_t = rng.normal(size=(d_head, seq))  # shared Kᵀ for the score GEMM
    per_tenant: dict = {}
    for t in range(spec.tenants):
        tenant = f"tenant{t}"
        reqs = []
        for i in range(spec.requests_per_tenant):
            shape_kind = i % 3
            if shape_kind == 0:
                reqs.append(
                    OperationRequest(
                        task_id=0,
                        opcode=Opcode.CONV2D_NN,
                        inputs=(rng.normal(size=(1, 3, 14, 14)) * 2.0, conv_w),
                        quant=QuantMode.SCALE,
                        attrs={"stride": (1, 1), "padding": (1, 1, 1, 1),
                               "relu": True},
                        tenant=tenant,
                    )
                )
            elif shape_kind == 1:
                reqs.append(
                    OperationRequest(
                        task_id=0,
                        opcode=Opcode.CONV2D,
                        inputs=(rng.normal(size=(seq, d_head)), k_t),
                        quant=QuantMode.SCALE,
                        attrs={"gemm": True},
                        tenant=tenant,
                    )
                )
            else:
                reqs.append(
                    OperationRequest(
                        task_id=0,
                        opcode=Opcode.SOFTMAX,
                        inputs=(rng.normal(size=(seq, seq)) * 2.0,),
                        quant=QuantMode.SCALE,
                        attrs={},
                        tenant=tenant,
                    )
                )
        per_tenant[tenant] = reqs
    return per_tenant


async def _run(
    spec: LoadgenSpec, clock: Callable[[], float] = time.monotonic
) -> LoadgenResult:
    rng = np.random.default_rng(spec.seed)
    platform = Platform.with_tpus(spec.tpus)
    config = ServeConfig(
        max_queue_depth=max(spec.tenants * spec.requests_per_tenant, 8),
        time_scale=spec.time_scale,
        breaker_cooldown=0.02,
        integrity=spec.integrity,
        quarantine_seconds=0.02,
        plan_cache=spec.plan_cache,
        shard=spec.shard,
    )
    per_tenant: dict = {}
    if spec.mix == "nn":
        per_tenant = _nn_mix(spec, rng)
    elif spec.mix == "gemm":
        # One shared weight matrix across all tenants → coalescible traffic.
        b = rng.integers(-64, 64, size=(spec.size, spec.size)).astype(np.float32)
        for t in range(spec.tenants):
            tenant = f"tenant{t}"
            per_tenant[tenant] = [
                OperationRequest(
                    task_id=0,
                    opcode=Opcode.CONV2D,
                    inputs=(
                        rng.integers(-64, 64, size=(spec.size, spec.size)).astype(
                            np.float32
                        ),
                        b,
                    ),
                    quant=QuantMode.SCALE,
                    attrs={"gemm": True},
                    tenant=tenant,
                )
                for _ in range(spec.requests_per_tenant)
            ]
    else:
        raise ValueError(f"unknown loadgen mix {spec.mix!r}; choose gemm or nn")

    if spec.fail_after_instructions > 0:
        platform.devices[spec.fail_device % spec.tpus].inject_fault(
            after_instructions=spec.fail_after_instructions,
            failures=-1,
            reason="loadgen-injected permanent fault",
            mode=spec.fail_mode,
            seed=spec.seed,
        )

    server = make_server(platform, config, spec.workers, clock)

    results: dict = {}
    start = clock()
    async with server:
        await asyncio.gather(
            *(
                _client(server, tenant, reqs, results, spec)
                for tenant, reqs in per_tenant.items()
            )
        )
        await server.drain()
        snapshot = server.snapshot()
    wall = clock() - start

    mismatches = 0
    if spec.verify:
        # Solo reference: a fresh Tensorizer lowering each request alone
        # must be bit-identical to whatever the (possibly coalesced,
        # possibly retried) serving path delivered.
        reference = Tensorizer(platform.config.edgetpu, cpu=platform.cpu)
        for tenant, reqs in per_tenant.items():
            for i, request in enumerate(reqs):
                got = results.get((tenant, i))
                if got is None:
                    continue
                want = reference.lower(request).result
                if not np.array_equal(got, want):
                    mismatches += 1
    delivered_by_tenant = {
        tenant: results.get(("__delivered__", tenant), 0) for tenant in per_tenant
    }
    return LoadgenResult(
        snapshot=snapshot,
        wall_seconds=wall,
        mismatches=mismatches,
        delivered_by_tenant=delivered_by_tenant,
    )


def run_loadgen(
    spec: Optional[LoadgenSpec] = None,
    *,
    clock: Callable[[], float] = time.monotonic,
) -> LoadgenResult:
    """Run one scenario to completion on a private event loop.

    ``clock`` is injectable (the same contract as ``DevicePool``): the
    reported wall time and the server's internal time base both read it,
    so tests can pin a deterministic fake clock instead of racing
    ``time.monotonic()``.
    """
    return asyncio.run(_run(spec or LoadgenSpec(), clock))


# -- sustained open-loop runs ----------------------------------------------


@dataclass(frozen=True)
class SustainedSpec:
    """One sustained open-loop scenario (hours compressed to seconds)."""

    tpus: int = 8
    #: Worker processes (0 = in-process asyncio server).  Only the
    #: in-process server is bit-for-bit reproducible; the MP run asserts
    #: invariants instead (its cross-process ordering is real).
    workers: int = 0
    requests: int = 100_000
    #: Open-loop arrival rate in model requests/second.  10⁵ requests at
    #: 40/s compress ~42 model-minutes into one run.
    rate: float = 40.0
    seed: int = 7
    #: Relative traffic share per tier-named tenant.
    tier_shares: Dict[str, float] = field(
        default_factory=lambda: {"gold": 0.2, "silver": 0.3, "bronze": 0.5}
    )
    gold_budget: float = 0.5
    silver_budget: float = 2.0
    bronze_budget: float = 8.0
    #: Lognormal request-shape mix (median GEMM side, tail width).
    size_median: float = 64.0
    size_sigma: float = 0.6
    max_queue_depth: int = 256
    #: Arrivals submitted between cooperative-scheduler grants; with
    #: ``ticks`` this is the run's service-capacity model (each grant
    #: lets the dispatch loop and device pool make progress).  Keep
    #: ``burst / rate`` well under ``gold_budget`` or gold expires on
    #: scheduling granularity alone.
    burst: int = 8
    ticks: int = 2
    #: Real seconds awaited per tick grant.  0 keeps grants as pure
    #: cooperative yields (the bit-for-bit asyncio mode); MP runs need a
    #: small positive value so worker processes get wall time to answer
    #: between virtual-clock jumps.
    tick_seconds: float = 0.0
    #: Fail-stop churn: kill this device permanently after N
    #: instructions (0 = off).
    fail_after_instructions: int = 0
    fail_device: int = 1
    #: SDC churn: silently corrupt this device's tiles N times (0 = off);
    #: pair with ``integrity="abft"`` so the server catches them.
    sdc_after_instructions: int = 0
    sdc_failures: int = 4
    sdc_device: int = 2
    integrity: str = "off"
    shard: str = "off"
    energy_aware: bool = False
    #: Dispatch groups per GEMM.  1 keeps requests unshardable (pure
    #: throughput mode); >1 gives the shard planner material so an
    #: ``energy_aware`` run can trade deadline slack for joules.
    gemm_chunks: int = 1
    high_watermark: float = 0.6
    low_watermark: float = 0.3
    preempt: bool = True


@dataclass
class SustainedResult:
    """Outcome of one :func:`run_sustained` scenario."""

    snapshot: dict
    #: SHA-256 over (schedule fingerprint + per-arrival outcome codes):
    #: the whole run's identity.  Stable across reruns of the in-process
    #: server with the same spec.
    digest: str
    schedule_digest: str
    #: Outcome code counts: D delivered, T timeout, F failed, S shed,
    #: Q queue-full.
    outcomes: Dict[str, int]
    #: Per-tier table: counts, latency percentiles, joules/request.
    tier_table: Dict[str, dict]
    #: Run-level energy decomposition (§8.1: idle + active over model time).
    energy: dict
    model_seconds: float
    wall_seconds: float
    #: Human-readable invariant violations (empty on a clean run).
    violations: List[str]


class _VirtualClock:
    """A settable model-time clock (the injectable-clock contract)."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _sustained_policy(spec: SustainedSpec) -> SloPolicy:
    return SloPolicy(
        tiers=gold_silver_bronze(
            spec.gold_budget, spec.silver_budget, spec.bronze_budget
        ),
        tenant_tiers={name: name for name in spec.tier_shares},
        high_watermark=spec.high_watermark,
        low_watermark=spec.low_watermark,
        preempt=spec.preempt,
    )


async def _run_sustained(spec: SustainedSpec) -> SustainedResult:
    schedule = build_schedule(
        requests=spec.requests,
        rate=spec.rate,
        seed=spec.seed,
        tenant_shares=spec.tier_shares,
        size_median=spec.size_median,
        size_sigma=spec.size_sigma,
    )
    policy = _sustained_policy(spec)
    clock = _VirtualClock()
    platform = Platform.with_tpus(spec.tpus)
    if spec.fail_after_instructions > 0:
        platform.devices[spec.fail_device % spec.tpus].inject_fault(
            after_instructions=spec.fail_after_instructions,
            failures=-1,
            reason="sustained fail-stop churn",
            mode="fail-stop",
            seed=spec.seed,
        )
    if spec.sdc_after_instructions > 0:
        platform.devices[spec.sdc_device % spec.tpus].inject_fault(
            after_instructions=spec.sdc_after_instructions,
            failures=spec.sdc_failures,
            reason="sustained SDC churn",
            mode="bitflip",
            seed=spec.seed + 1,
        )
    config = ServeConfig(
        max_queue_depth=spec.max_queue_depth,
        # Model time is entirely virtual: real-time device sleeps would
        # interleave wall-clock timers into the event loop and break
        # bit-for-bit reproducibility of the outcome stream.
        time_scale=0.0,
        breaker_cooldown=0.05,
        quarantine_seconds=0.05,
        integrity=spec.integrity,
        shard=spec.shard,
        slo=policy,
        energy_aware=spec.energy_aware,
    )
    server = make_server(platform, config, spec.workers, clock)

    # One shared weight matrix per ladder size: keeps the stream
    # coalescible and the plan cache warm, like real shared-model serving.
    rng = np.random.default_rng(spec.seed + 3)
    sizes = sorted({a.size for a in schedule.arrivals})
    weights = {
        n: rng.integers(-64, 64, size=(n, n)).astype(np.float32) for n in sizes
    }

    codes = ["?"] * spec.requests
    shed_audit: List[Tuple[int, Optional[int]]] = []
    events: List[Tuple[str, int, int]] = []

    def on_done(index: int):
        def callback(fut: "asyncio.Future") -> None:
            exc = fut.exception()
            if exc is None:
                codes[index] = "D"
            elif isinstance(exc, RequestTimeout):
                codes[index] = "T"
            else:
                codes[index] = "F"

        return callback

    wall_start = time.monotonic()
    async with server:
        server.pool.observer = lambda *event: events.append(event)
        prio_of = {name: policy.tier_of(name).priority for name in spec.tier_shares}
        for index, arrival in enumerate(schedule.arrivals):
            clock.now = arrival.at
            size = arrival.size
            request = OperationRequest(
                task_id=0,
                opcode=Opcode.CONV2D,
                inputs=(
                    rng.integers(-64, 64, size=(size, size)).astype(np.float32),
                    weights[size],
                ),
                quant=QuantMode.SCALE,
                attrs={"gemm": True, "gemm_chunks": spec.gemm_chunks},
                tenant=arrival.tenant,
            )
            try:
                fut = server.submit_nowait(request)
            except LoadShed:
                codes[index] = "S"
                if server.overload is not None:
                    shed_audit.append(
                        (prio_of[arrival.tenant], server.overload.shed_floor())
                    )
                continue
            except QueueFull:
                codes[index] = "Q"
                continue
            fut.add_done_callback(on_done(index))
            if (index + 1) % spec.burst == 0:
                for _ in range(spec.ticks):
                    await asyncio.sleep(spec.tick_seconds)
        await server.drain()
        # Callbacks fire one loop turn after the resolving future; give
        # the loop a couple of turns so every code lands.
        for _ in range(4):
            await asyncio.sleep(0)
        snapshot = server.snapshot()
    wall = time.monotonic() - wall_start
    model_seconds = schedule.span_seconds

    outcomes = dict(Counter(codes))
    violations: List[str] = []
    if "?" in outcomes:
        violations.append(f"{outcomes['?']} requests never resolved")
    lost = snapshot["outcomes"].get("lost", 0)
    if lost:
        violations.append(f"accounting lost {lost} requests")
    violations.extend(
        exactly_once_violations(events, snapshot["outcomes"]["completed"])
    )
    for priority, floor in shed_audit:
        if floor is None or priority < floor:
            violations.append(
                f"shed a priority-{priority} request below floor {floor}"
            )
            break

    # Per-tier table + §8.1 energy decomposition over model time.
    energy_model = EnergyModel(platform.config)
    tpu_watts = energy_model.active_power_watts("tpu0")
    idle_watts = energy_model.idle_power_watts()
    tiers = snapshot.get("tiers", {})
    total_completed = sum(t.get("completed", 0) for t in tiers.values()) or 1
    total_busy = 0.0
    tier_table: Dict[str, dict] = {}
    for name, stats in sorted(tiers.items()):
        completed = stats.get("completed", 0)
        busy = stats.get("busy_seconds", 0.0)
        total_busy += busy
        latency = stats.get("latency") or {}
        active_j = busy * tpu_watts
        idle_j = idle_watts * model_seconds * (completed / total_completed)
        tier_table[name] = {
            "submitted": stats.get("submitted", 0),
            "completed": completed,
            "shed": stats.get("shed", 0),
            "deadline_misses": stats.get("deadline_misses", 0),
            "p99_seconds": latency.get("p99_seconds"),
            "p999_seconds": latency.get("p999_seconds"),
            "busy_seconds": busy,
            "active_joules_per_request": (
                active_j / completed if completed else None
            ),
            "joules_per_request": (
                (active_j + idle_j) / completed if completed else None
            ),
        }
    budgets = {
        "gold": spec.gold_budget,
        "silver": spec.silver_budget,
        "bronze": spec.bronze_budget,
    }
    for name, row in tier_table.items():
        budget = budgets.get(name)
        if budget is None:
            continue
        for key in ("p99_seconds", "p999_seconds"):
            value = row.get(key)
            if value is not None and value > budget:
                violations.append(
                    f"{name} {key} {value:.3f}s exceeds budget {budget}s"
                )
    energy = {
        "model_seconds": model_seconds,
        "idle_joules": idle_watts * model_seconds,
        "active_joules": total_busy * tpu_watts,
        "energy_plans": snapshot.get("sharding", {}).get("energy_plans", 0),
    }

    h = hashlib.sha256()
    h.update(schedule.digest().encode())
    h.update("".join(codes).encode())
    return SustainedResult(
        snapshot=snapshot,
        digest=h.hexdigest(),
        schedule_digest=schedule.digest(),
        outcomes=outcomes,
        tier_table=tier_table,
        energy=energy,
        model_seconds=model_seconds,
        wall_seconds=wall,
        violations=violations,
    )


def run_sustained(spec: Optional[SustainedSpec] = None) -> SustainedResult:
    """Run one sustained open-loop scenario on a private event loop."""
    return asyncio.run(_run_sustained(spec or SustainedSpec()))
