"""The ``shard`` conformance suite: sharded-vs-solo bit-identity.

Four checks compose the suite:

* **gemms** — a catalog of ragged/prime GEMM shapes through an 8-TPU
  sharded server: the merged result must equal the solo lowering's
  bytes exactly, and the plan must genuinely fan out (two or more
  devices execute groups);
* **models** — LeNet and the attention block end-to-end through the
  sharded serving layer, each with a seeded fail-stop fault armed on
  one pool device, compared bit-for-bit against a direct
  :class:`~repro.runtime.api.OpenCtpu` inference on an identical
  platform;
* **scenarios** — seeded fail-stop and SDC fault campaigns (dead
  device, transient failure, permanent bitflip + ABFT quarantine,
  vote adjudication with distinct injector seeds): every scenario must
  deliver exactly once per request — proven from the pool's observer
  event log — lose nothing, and stay bit-identical;
* **profile** — the arXiv 2503.01025 profiled-segmentation proof:
  device-exec spans recorded by a tracer feed
  :meth:`~repro.shard.ShardProfile.from_tracer`, and a profile that
  marks one device slow must shift the planner's split points away
  from it.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import SystemConfig
from repro.conformance.oracles import derive_rng
from repro.edgetpu.isa import Opcode
from repro.host.platform import Platform
from repro.nn.models import MODELS, sample_input
from repro.runtime.opqueue import OperationRequest, QuantMode
from repro.runtime.scheduler import build_dispatch_groups
from repro.runtime.tensorizer import Tensorizer
from repro.serve.metrics import exactly_once_violations
from repro.serve.server import ServeConfig, TpuServer, make_server
from repro.shard import ShardPlanner, ShardProfile
from repro.telemetry.tracer import SpanTracer

#: Pool size the suite shards across (the paper's prototype has 8).
SHARD_TPUS = 8

#: Ragged GEMM shapes: primes and off-by-one dims cross tile edges the
#: same way the property tests do, so row spans never divide evenly.
GEMM_SHAPES: Tuple[Tuple[str, int, int, int], ...] = (
    ("ragged-prime", 257, 193, 181),
    ("tile-edge", 129, 127, 128),
    ("tall-skinny", 384, 65, 48),
    ("wide", 96, 131, 320),
)


@dataclass
class ShardReport:
    """Aggregate outcome of one ``shard`` suite run."""

    gemms: List[dict] = field(default_factory=list)
    models: List[dict] = field(default_factory=list)
    scenarios: List[dict] = field(default_factory=list)
    profile: dict = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "gemms": list(self.gemms),
            "models": list(self.models),
            "scenarios": list(self.scenarios),
            "profile": dict(self.profile),
            "violations": list(self.violations),
            "ok": self.ok,
        }


def _gemm_request(task_id: int, rng: np.random.Generator,
                  m: int, k: int, n: int) -> OperationRequest:
    return OperationRequest(
        task_id=task_id,
        opcode=Opcode.CONV2D,
        inputs=(
            rng.standard_normal((m, k)),
            rng.standard_normal((k, n)),
        ),
        quant=QuantMode.SCALE,
        attrs={"gemm": True},
    )


def _reference(request: OperationRequest) -> np.ndarray:
    return Tensorizer().lower(request).result


def _pool_platform() -> Platform:
    return Platform(SystemConfig().with_tpus(SHARD_TPUS))


def _config(**kwargs: object) -> ServeConfig:
    kwargs.setdefault("time_scale", 0.0)
    kwargs.setdefault("quarantine_seconds", 0.01)
    return ServeConfig(**kwargs)  # type: ignore[arg-type]


async def _run_requests(
    server: TpuServer,
    requests: Sequence[OperationRequest],
    events: List[Tuple[str, int, str]],
) -> List[np.ndarray]:
    server.pool.observer = lambda event, serve_id, device: events.append(
        (event, serve_id, device)
    )
    results = []
    async with server:
        for request in requests:
            results.append(await server.submit(request))
        await server.drain()
    return results


# -- gemms -------------------------------------------------------------


def _check_gemm(name: str, m: int, k: int, n: int, seed: int,
                report: ShardReport, workers: int = 0) -> None:
    rng = derive_rng(seed, "shard", name)
    request = _gemm_request(1, rng, m, k, n)
    want = _reference(request)
    server = make_server(_pool_platform(), _config(), workers)
    events: List[Tuple[str, int, str]] = []
    (got,) = asyncio.run(_run_requests(server, [request], events))
    snap = server.snapshot()
    busy = sorted(
        dev for dev, entry in snap["devices"].items() if entry["groups"] > 0
    )
    entry = {
        "case": name,
        "shape": [m, k, n],
        "plans": snap["sharding"]["plans"],
        "segments": snap["sharding"]["segments"],
        "merged": snap["sharding"]["merged"],
        "devices_used": busy,
    }
    report.gemms.append(entry)
    if got.tobytes() != want.tobytes():
        report.violations.append(
            f"shard: {name} sharded result differs from solo lowering"
        )
    if snap["sharding"]["plans"] < 1 or snap["sharding"]["merged"] < 1:
        report.violations.append(
            f"shard: {name} never planned/merged a segmented execution"
        )
    if len(busy) < 2:
        report.violations.append(
            f"shard: {name} executed on {busy}; a shard must fan out"
        )
    if snap["outcomes"]["lost"]:
        report.violations.append(f"shard: {name} lost a request")
    report.violations.extend(
        f"shard: {name} {problem}" for problem in exactly_once_violations(events, 1)
    )


# -- models ------------------------------------------------------------


class _ServedContext:
    """The slice of :class:`OpenCtpu` that ``Sequential.forward`` uses.

    Every operator invocation becomes one serving request submitted to
    the sharded server's event loop (running on a worker thread); the
    call blocks until the merged result is delivered, so layer ordering
    is preserved exactly as in the direct runtime.
    """

    def __init__(self, server: TpuServer, loop: asyncio.AbstractEventLoop):
        self._server = server
        self._loop = loop
        self.tracer = server.tracer
        self._task_ids = itertools.count(1)
        self.invocations = 0

    @property
    def pending_operations(self) -> int:
        return 0

    def sync(self) -> None:  # every invoke already synced
        return None

    def invoke_operator(self, op, *inputs, out=None, quant=None,
                        depends_on=None, **attrs) -> np.ndarray:
        opcode = op if isinstance(op, Opcode) else Opcode[str(op).upper()]
        request = OperationRequest(
            task_id=next(self._task_ids),
            opcode=opcode,
            inputs=tuple(np.asarray(x, dtype=np.float64) for x in inputs),
            quant=quant or QuantMode.SCALE,
            attrs=dict(attrs),
        )
        self.invocations += 1
        future = asyncio.run_coroutine_threadsafe(
            self._server.submit(request), self._loop
        )
        result = future.result(timeout=300.0)
        if out is not None:
            out.fill(result)
        return result


def _with_served_server(
    platform: Platform,
    fn: Callable[[TpuServer, asyncio.AbstractEventLoop], np.ndarray],
    workers: int = 0,
) -> Tuple[np.ndarray, dict]:
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    server = make_server(platform, _config(), workers)
    asyncio.run_coroutine_threadsafe(server.start(), loop).result(timeout=60)
    try:
        out = fn(server, loop)

        async def _shutdown() -> None:
            await server.drain()
            await server.stop()

        asyncio.run_coroutine_threadsafe(_shutdown(), loop).result(timeout=60)
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30)
        loop.close()
    return out, server.snapshot()


def _check_model(name: str, seed: int, faulted_device: int,
                 report: ShardReport, workers: int = 0) -> None:
    model_seed = int(derive_rng(seed, "shard-nn", name).integers(0, 2**31))
    model = MODELS[name](seed=model_seed)
    x = sample_input(model, batch=2, seed=model_seed)

    direct_ctx_platform = _pool_platform()
    from repro.runtime.api import OpenCtpu  # local: avoids cycle at import

    direct_ctx = OpenCtpu(direct_ctx_platform)
    want = model.forward(direct_ctx, x)
    if direct_ctx.pending_operations:
        direct_ctx.sync()

    served_platform = _pool_platform()
    # A seeded transient fail-stop: the first group pinned on this
    # device fails once and must migrate without changing the bytes.
    served_platform.devices[faulted_device].inject_fault(
        after_instructions=0, failures=1
    )
    invocations = 0

    def run(server: TpuServer, loop: asyncio.AbstractEventLoop) -> np.ndarray:
        nonlocal invocations
        ctx = _ServedContext(server, loop)
        out = model.forward(ctx, x)
        invocations = ctx.invocations
        return out

    got, snap = _with_served_server(served_platform, run, workers)
    entry = {
        "model": name,
        "model_seed": model_seed,
        "operators_served": invocations,
        "shard_plans": snap["sharding"]["plans"],
        "faulted_device": f"tpu{faulted_device}",
        "output_shape": list(got.shape),
    }
    report.models.append(entry)
    if got.shape != want.shape or got.tobytes() != want.tobytes():
        report.violations.append(
            f"shard: {name} served inference differs from direct runtime"
        )
    if snap["outcomes"]["completed"] != invocations:
        report.violations.append(
            f"shard: {name} completed {snap['outcomes']['completed']} of "
            f"{invocations} served operators"
        )
    if snap["outcomes"]["lost"]:
        report.violations.append(f"shard: {name} lost an operator request")
    if not np.all(np.isfinite(got)):
        report.violations.append(f"shard: {name} produced non-finite output")


# -- fault scenarios ---------------------------------------------------


@dataclass(frozen=True)
class ShardScenario:
    """One seeded fault campaign over the sharded serving path."""

    name: str
    description: str
    #: Mutates the platform before the server boots (arms injectors).
    arm: Callable[[Platform], None]
    config: Dict[str, object] = field(default_factory=dict)
    requests: int = 1
    #: Invariants beyond bit-identity/exactly-once, given the snapshot.
    expect: Optional[Callable[[dict], Optional[str]]] = None


def _arm_dead_device(platform: Platform) -> None:
    platform.devices[0].inject_fault(after_instructions=0)


def _arm_transient(platform: Platform) -> None:
    platform.devices[3].inject_fault(after_instructions=0, failures=1)


def _arm_permanent_bitflip(platform: Platform) -> None:
    platform.devices[0].inject_fault(
        after_instructions=0, failures=-1, mode="bitflip", seed=9
    )


def _arm_vote_corruption(platform: Platform) -> None:
    # Distinct seeds: a witness's corruption never mirrors the
    # primary's, so every corrupt transmission is adjudicated away.
    for i, device in enumerate(platform.devices[1:], start=1):
        device.inject_fault(
            after_instructions=0, failures=1, mode="bitflip", seed=100 + i
        )
        device.check_fault(1)


def _expect_migration(snap: dict) -> Optional[str]:
    if snap["sharding"]["migrations"] < 1:
        return "dead device produced no segment migrations"
    if snap["devices"].get("tpu0", {}).get("groups", 0) != 0:
        return "dead tpu0 still executed groups"
    return None


def _expect_clean_merge(snap: dict) -> Optional[str]:
    if snap["sharding"]["merged"] < 1:
        return "transient failure prevented the segment merge"
    if snap["outcomes"]["failed"]:
        return "transient failure escalated to a failed request"
    return None


def _expect_quarantine(snap: dict) -> Optional[str]:
    if not snap["quarantine"].get("tpu0", {}).get("quarantined"):
        return "permanently corrupting tpu0 was never quarantined"
    if not snap["integrity"]["sdc_detected"]:
        return "ABFT never flagged the injected corruption"
    return None


def _expect_adjudication(snap: dict) -> Optional[str]:
    integ = snap["integrity"]
    if integ["sdc_detected"] + integ["vote_adjudications"] < 1:
        return "vote mode never detected the seeded corruption"
    return None


SHARD_SCENARIOS: Tuple[ShardScenario, ...] = (
    ShardScenario(
        "failstop-dead-device",
        "tpu0 dead on arrival: every segment pinned there migrates",
        _arm_dead_device,
        expect=_expect_migration,
    ),
    ShardScenario(
        "failstop-transient",
        "one transient first-attempt failure exercises requeue + re-pin",
        _arm_transient,
        expect=_expect_clean_merge,
    ),
    ShardScenario(
        "sdc-bitflip-quarantine",
        "permanent bitflip under ABFT: detect, quarantine, plan around",
        _arm_permanent_bitflip,
        config={"integrity": "abft", "quarantine_seconds": 30.0,
                "max_retries": 8},
        requests=2,
        expect=_expect_quarantine,
    ),
    ShardScenario(
        "sdc-vote-distinct-seeds",
        "vote integrity with distinct injector seeds on seven devices",
        _arm_vote_corruption,
        config={"integrity": "vote", "max_retries": 8},
        expect=_expect_adjudication,
    ),
)


def _check_scenario(scenario: ShardScenario, seed: int,
                    report: ShardReport, workers: int = 0) -> None:
    rng = derive_rng(seed, "shard-fault", scenario.name)
    requests = [
        _gemm_request(i + 1, rng, 257, 193, 181)
        for i in range(scenario.requests)
    ]
    references = [_reference(r) for r in requests]
    platform = _pool_platform()
    scenario.arm(platform)
    server = make_server(platform, _config(**scenario.config), workers)
    events: List[Tuple[str, int, str]] = []
    results = asyncio.run(_run_requests(server, requests, events))
    snap = server.snapshot()
    entry = {
        "scenario": scenario.name,
        "description": scenario.description,
        "requests": scenario.requests,
        "migrations": snap["sharding"]["migrations"],
        "completed": snap["outcomes"]["completed"],
        "lost": snap["outcomes"]["lost"],
        "sdc_detected": snap["integrity"]["sdc_detected"],
    }
    report.scenarios.append(entry)
    for i, (got, want) in enumerate(zip(results, references)):
        if got.tobytes() != want.tobytes():
            report.violations.append(
                f"shard: {scenario.name} request {i} is not bit-identical"
            )
    if snap["outcomes"]["completed"] != scenario.requests:
        report.violations.append(
            f"shard: {scenario.name} completed "
            f"{snap['outcomes']['completed']}/{scenario.requests}"
        )
    if snap["outcomes"]["lost"]:
        report.violations.append(f"shard: {scenario.name} lost a request")
    report.violations.extend(
        f"shard: {scenario.name} {problem}"
        for problem in exactly_once_violations(events, scenario.requests)
    )
    if scenario.expect is not None:
        problem = scenario.expect(snap)
        if problem:
            report.violations.append(f"shard: {scenario.name}: {problem}")


# -- profiled split points ---------------------------------------------


def _check_profiled_splits(seed: int, report: ShardReport) -> None:
    """Spans -> profile -> planner: a slow device's share must shrink."""
    rng = derive_rng(seed, "shard", "profiled-splits")
    request = _gemm_request(1, rng, 257, 193, 181)
    op = Tensorizer().lower(request)
    groups = build_dispatch_groups(op.instrs)
    platform = _pool_platform()

    tracer = SpanTracer(enabled=True)
    for device in range(SHARD_TPUS):
        for _ in range(3):
            span = tracer.begin(
                "exec_group", cat="device", track=f"tpu{device}",
                instructions=1000,
                service_seconds=4.0 if device == 0 else 1.0,
            )
            tracer.end(span)
    profile = ShardProfile.from_tracer(tracer, SHARD_TPUS)

    balanced = ShardPlanner(platform).plan(
        groups, result_rows=op.result.shape[0]
    )
    skewed = ShardPlanner(platform, profile=profile).plan(
        groups, result_rows=op.result.shape[0]
    )

    def share(plan, device: int) -> int:
        return sum(
            seg.group_count for seg in plan.segments if seg.device == device
        )

    section = {
        "observations": profile.observations,
        "balanced_splits": balanced.describe() if balanced else None,
        "skewed_splits": skewed.describe() if skewed else None,
    }
    report.profile = section
    if balanced is None or skewed is None:
        report.violations.append("shard: profiled-splits produced no plan")
        return
    if not skewed.profiled:
        report.violations.append(
            "shard: planner ignored the tracer-derived profile"
        )
    slow = share(skewed, 0)
    fast = [share(skewed, d) for d in range(1, SHARD_TPUS)]
    if not (slow < share(balanced, 0) and slow < min(fast)):
        report.violations.append(
            "shard: profiled split points did not shift load off the "
            "slow device"
        )


# -- entry point -------------------------------------------------------


def run_shard(seed: int, workers: int = 0) -> ShardReport:
    """Run the full sharding conformance suite.

    ``workers`` > 0 runs every served check through the multi-process
    :class:`~repro.mp.MpTpuServer` instead of the in-process server;
    the profiled-splits check is planner-only and runs unchanged.
    """
    report = ShardReport()
    workers = min(workers, SHARD_TPUS)
    for name, m, k, n in GEMM_SHAPES:
        _check_gemm(name, m, k, n, seed, report, workers)
    for device, name in enumerate(sorted(MODELS), start=2):
        _check_model(
            name, seed, faulted_device=device, report=report, workers=workers
        )
    for scenario in SHARD_SCENARIOS:
        _check_scenario(scenario, seed, report, workers)
    _check_profiled_splits(seed, report)
    return report
