"""Fault-injection campaigns over the serving stack.

Each :class:`FaultScenario` arms one or more :class:`FaultInjector`
plans on a fresh simulated platform, drives a closed-loop multi-tenant
workload through :class:`~repro.serve.server.TpuServer`, and then
asserts the serving contract **from the outside**:

* **zero lost** — every admitted request's future settles; the
  accounting balance ``submitted == rejected + completed + failed +
  timeouts`` holds after a drain;
* **exactly-once** — the dispatcher's campaign hook
  (:attr:`~repro.serve.dispatcher.DevicePool.observer`) records every
  lifecycle event; no serve ID may be delivered twice, and no ID may be
  both delivered and timed-out / given-up on;
* **bit-identity** — every delivered result must equal the solo
  lowering of the same request on a healthy Tensorizer, byte for byte
  (retries and coalescing are pure scheduling transforms).

Scenarios are deterministic in the campaign seed; only wall-clock
dependent *counters* (how many requests raced past a breaker cooldown)
vary run to run — the invariants hold regardless.
"""

from __future__ import annotations

import asyncio
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.conformance.oracles import derive_rng
from repro.edgetpu.isa import Opcode
from repro.errors import DeviceFailure, QueueFull, RequestTimeout
from repro.host.platform import Platform
from repro.runtime.opqueue import OperationRequest, QuantMode
from repro.runtime.tensorizer import Tensorizer
from repro.serve.metrics import exactly_once_violations
from repro.serve.server import ServeConfig, TpuServer, make_server


@dataclass(frozen=True)
class FaultPlan:
    """One armed injector: which device dies, when, and how often."""

    device: int
    after_instructions: int = 0
    #: -1 = permanent death; positive = transient, clears after firing.
    failures: int = -1


@dataclass(frozen=True)
class FaultScenario:
    """One campaign scenario: topology, workload, and fault plans."""

    name: str
    description: str
    tpus: int = 4
    tenants: int = 4
    requests_per_tenant: int = 4
    #: Square GEMM size per request (m = k = n = size).
    size: int = 96
    faults: Tuple[FaultPlan, ...] = ()
    deadline_seconds: Optional[float] = None
    max_retries: int = 3
    #: The scenario is vacuous unless the injectors actually fired.
    expect_device_failures: bool = True
    #: Scenario must surface RequestTimeout rejections.
    expect_timeouts: bool = False
    #: Scenario must surface DeviceFailure rejections (retries exhausted).
    expect_failed: bool = False


#: The default campaign: >= 3 distinct failure modes (ISSUE acceptance).
DEFAULT_SCENARIOS: Tuple[FaultScenario, ...] = (
    FaultScenario(
        name="device-death",
        description="one of four devices dies permanently mid-run; "
        "work re-routes, nothing is lost",
        faults=(FaultPlan(device=0, after_instructions=40),),
    ),
    FaultScenario(
        name="dead-on-arrival",
        description="a device is dead before the first group lands; the "
        "breaker quarantines it after threshold failures",
        tpus=3,
        faults=(FaultPlan(device=1, after_instructions=0),),
    ),
    FaultScenario(
        name="retry-storm",
        description="two devices throw transient faults that clear; "
        "every request survives via bounded retries",
        faults=(
            FaultPlan(device=0, after_instructions=20, failures=2),
            FaultPlan(device=2, after_instructions=60, failures=3),
        ),
    ),
    FaultScenario(
        name="double-death",
        description="half the pool dies permanently; the survivors "
        "absorb the full load",
        faults=(
            FaultPlan(device=1, after_instructions=30),
            FaultPlan(device=3, after_instructions=90),
        ),
    ),
    FaultScenario(
        name="single-tpu-permadeath",
        description="the only device dies; retries exhaust and every "
        "in-flight request fails loudly — none hang, none are lost",
        tpus=1,
        tenants=2,
        requests_per_tenant=3,
        faults=(FaultPlan(device=0, after_instructions=25),),
        max_retries=2,
        expect_failed=True,
    ),
    FaultScenario(
        name="deadline-storm",
        description="zero-second deadlines expire every request before "
        "dispatch; all surface RequestTimeout, none are lost",
        tenants=3,
        requests_per_tenant=3,
        faults=(),
        deadline_seconds=0.0,
        expect_device_failures=False,
        expect_timeouts=True,
    ),
)


@dataclass
class ScenarioResult:
    """Outcome of one scenario run, with its invariant verdicts."""

    scenario: FaultScenario
    snapshot: dict
    #: Observer lifecycle-event counts by type.
    events: Dict[str, int] = field(default_factory=dict)
    #: Delivered results that differed from the solo-lowering reference.
    mismatches: int = 0
    #: Human-readable invariant violations (must stay empty).
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        out = self.snapshot["outcomes"]
        return {
            "name": self.scenario.name,
            "description": self.scenario.description,
            "outcomes": dict(out),
            "retries": self.snapshot["retries"],
            "device_failures": self.snapshot["device_failures"],
            "events": dict(sorted(self.events.items())),
            "mismatches": self.mismatches,
            "violations": list(self.violations),
            "ok": self.ok,
        }


async def _campaign_client(
    server: TpuServer,
    tenant: str,
    requests: List[OperationRequest],
    results: dict,
    deadline_seconds: Optional[float],
) -> None:
    for i, request in enumerate(requests):
        try:
            results[(tenant, i)] = await server.submit(
                request, deadline_seconds=deadline_seconds
            )
        except QueueFull:
            # The queue is sized for the full offered load; reaching
            # here breaks the scenario's accounting assumptions.
            results[("__queue_full__", tenant, i)] = True
        except (DeviceFailure, RequestTimeout):
            continue  # surfaced failure — counted server-side


async def _run_scenario(
    scenario: FaultScenario, seed: int, workers: int = 0
) -> ScenarioResult:
    rng = derive_rng(seed, "campaign", scenario.name)
    platform = Platform.with_tpus(scenario.tpus)
    for plan in scenario.faults:
        platform.devices[plan.device % scenario.tpus].inject_fault(
            after_instructions=plan.after_instructions,
            failures=plan.failures,
            reason=f"campaign:{scenario.name}",
        )

    total = scenario.tenants * scenario.requests_per_tenant
    config = ServeConfig(
        max_queue_depth=max(total * 2, 16),
        max_retries=scenario.max_retries,
        breaker_cooldown=0.01,
        time_scale=0.0,
    )
    b = rng.integers(-64, 64, size=(scenario.size, scenario.size)).astype(
        np.float32
    )
    per_tenant: Dict[str, List[OperationRequest]] = {}
    for t in range(scenario.tenants):
        tenant = f"tenant{t}"
        per_tenant[tenant] = [
            OperationRequest(
                task_id=0,
                opcode=Opcode.CONV2D,
                inputs=(
                    rng.integers(
                        -64, 64, size=(scenario.size, scenario.size)
                    ).astype(np.float32),
                    b,
                ),
                quant=QuantMode.SCALE,
                attrs={"gemm": True},
                tenant=tenant,
            )
            for _ in range(scenario.requests_per_tenant)
        ]

    event_log: List[Tuple[str, int, int]] = []
    results: dict = {}
    # The scenario code is identical in-process and multi-process: the
    # campaign proves the serving contract holds across the process
    # boundary without loosening a single invariant.
    workers = min(workers, platform.num_tpus)
    async with make_server(platform, config, workers) as server:
        server.pool.observer = lambda event, serve_id, device: event_log.append(
            (event, serve_id, device)
        )
        await asyncio.gather(
            *(
                _campaign_client(
                    server, tenant, reqs, results, scenario.deadline_seconds
                )
                for tenant, reqs in per_tenant.items()
            )
        )
        await server.drain()
        snapshot = server.snapshot()

    result = ScenarioResult(
        scenario=scenario,
        snapshot=snapshot,
        events=dict(Counter(event for event, _, _ in event_log)),
    )
    _check_invariants(result, event_log, per_tenant, results, platform)
    return result


def _check_invariants(
    result: ScenarioResult,
    event_log: List[Tuple[str, int, int]],
    per_tenant: Dict[str, List[OperationRequest]],
    results: dict,
    platform: Platform,
) -> None:
    scenario = result.scenario
    out = result.snapshot["outcomes"]
    violations = result.violations

    # Zero lost + accounting balance.
    if out["lost"] != 0:
        violations.append(f"lost != 0: {out['lost']}")
    balance = out["rejected"] + out["completed"] + out["failed"] + out["timeouts"]
    if out["submitted"] != balance:
        violations.append(
            f"accounting imbalance: submitted={out['submitted']} "
            f"!= rejected+completed+failed+timeouts={balance}"
        )
    if any(key[0] == "__queue_full__" for key in results):
        violations.append("admission queue overflowed a sized-to-fit campaign")

    # Exactly-once, proven from the observer event stream.
    violations.extend(exactly_once_violations(event_log, out["completed"]))
    delivered_results = sum(
        1 for key in results if isinstance(key[1], int)
    )
    if delivered_results != out["completed"]:
        violations.append(
            f"client-side deliveries ({delivered_results}) != server "
            f"completed ({out['completed']})"
        )

    # Bit-identity of every delivered result vs solo lowering.
    reference = Tensorizer(platform.config.edgetpu, cpu=platform.cpu)
    for tenant, reqs in per_tenant.items():
        for i, request in enumerate(reqs):
            got = results.get((tenant, i))
            if got is None:
                continue
            want = reference.lower(request).result
            if not np.array_equal(got, want):
                result.mismatches += 1
    if result.mismatches:
        violations.append(
            f"{result.mismatches} delivered results differ from solo lowering"
        )

    # The scenario must actually exercise what it claims to.
    if scenario.expect_device_failures and not result.snapshot["device_failures"]:
        violations.append("no injected fault fired (vacuous scenario)")
    if scenario.expect_timeouts and not out["timeouts"]:
        violations.append("expected RequestTimeout rejections, saw none")
    if scenario.expect_failed and not out["failed"]:
        violations.append("expected DeviceFailure rejections, saw none")


def run_campaign(
    seed: int,
    scenarios: Optional[Tuple[FaultScenario, ...]] = None,
    workers: int = 0,
) -> List[ScenarioResult]:
    """Run every scenario to completion, each on a private event loop.

    ``workers`` > 0 drives the same scenarios, unchanged, through the
    multi-process :class:`~repro.mp.MpTpuServer` (clamped per scenario
    to its TPU count).
    """
    return [
        asyncio.run(_run_scenario(scenario, seed, workers))
        for scenario in (scenarios or DEFAULT_SCENARIOS)
    ]
