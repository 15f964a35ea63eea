"""Silent-data-corruption campaigns over the integrity-checked stack.

The fail-stop campaigns (:mod:`repro.conformance.campaign`) prove the
serving contract when devices *raise*.  These scenarios prove it when
devices **lie**: each arms a seeded corruption injector — output bit
flips, stuck-tile replay, quantization-scale skew — on a platform
served with ``integrity="abft"`` or ``"vote"``, drives a closed-loop
multi-tenant workload, and asserts the SDC contract from the outside:

* **100% detection** — every corrupted tile the injector produced was
  caught (``sdc_detected`` accounts for every firing; for bit flips,
  whose deviation is >= 32 output quanta by construction, the match is
  exact).  Nothing corrupt reached a client: every delivered result is
  bit-identical to the solo clean lowering of the same request.
* **zero false positives** — a clean run under the same verification
  reports no incidents, and every request still delivers.
* **quarantine** — a persistently corrupting device is pulled from
  rotation (``quarantines >= 1``) without opening its circuit breaker.
* the fail-stop invariants still hold: zero lost, exactly-once
  (proven from the observer event stream), accounting balance.

Scenarios are deterministic in the campaign seed: the workload RNG and
every injector RNG derive from it.
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
from repro.serve.server import ServeConfig, TpuServer


@dataclass(frozen=True)
class CorruptionPlan:
    """One armed corruption injector on one device."""

    device: int
    #: "bitflip", "stuck", or "skew" (see FAULT_MODES).
    mode: str
    after_instructions: int = 0
    #: -1 = corrupts forever; positive = that many corrupted transmits.
    failures: int = -1


@dataclass(frozen=True)
class IntegrityScenario:
    """One SDC campaign scenario: topology, workload, defense, faults."""

    name: str
    description: str
    integrity: str = "abft"
    tpus: int = 4
    tenants: int = 3
    requests_per_tenant: int = 3
    #: Square GEMM size per request (m = k = n = size).
    size: int = 96
    corruptions: Tuple[CorruptionPlan, ...] = ()
    #: Scenario must detect SDC (vacuous otherwise); clean scenarios
    #: instead require *zero* incidents (the false-positive gate).
    expect_detections: bool = True
    #: Every injector firing must map to a detection (bit flips only:
    #: their deviation is above the ABFT bound by construction).
    exact_detection: bool = False
    #: A device must enter quarantine during the run.
    expect_quarantine: bool = True


#: The default SDC campaign: every corruption mode, both defenses, and
#: the clean-traffic false-positive / overhead gates.
DEFAULT_INTEGRITY_SCENARIOS: Tuple[IntegrityScenario, ...] = (
    IntegrityScenario(
        name="clean-abft",
        description="no faults under abft verification: zero false "
        "positives, every request delivers bit-identical",
        corruptions=(),
        expect_detections=False,
        expect_quarantine=False,
    ),
    IntegrityScenario(
        name="bitflip-abft",
        description="one device flips high-order output bits forever; "
        "abft catches every corrupted tile and quarantines it",
        corruptions=(CorruptionPlan(device=0, mode="bitflip"),),
        exact_detection=True,
    ),
    IntegrityScenario(
        name="stuck-abft",
        description="one device replays a stale tile on every transmit; "
        "abft detects the replays and the pool routes around it",
        corruptions=(CorruptionPlan(device=1, mode="stuck"),),
    ),
    IntegrityScenario(
        name="skew-abft",
        description="one device mis-applies the requantization scale "
        "(x1.25); the checksum deviation exceeds the error bound",
        corruptions=(CorruptionPlan(device=2, mode="skew"),),
    ),
    IntegrityScenario(
        name="skew-transient-abft",
        description="a scale skew that clears after three transmits; "
        "the device is quarantined, then re-earns trust on probation",
        corruptions=(CorruptionPlan(device=0, mode="skew", failures=3),),
    ),
    IntegrityScenario(
        name="bitflip-vote",
        description="dual-execution voting catches a bit-flipping "
        "device by witness disagreement + checksum adjudication",
        integrity="vote",
        corruptions=(CorruptionPlan(device=0, mode="bitflip"),),
        exact_detection=True,
    ),
    IntegrityScenario(
        name="clean-off",
        description="integrity off on clean traffic: the baseline path "
        "performs no verification at all and stays bit-identical",
        integrity="off",
        corruptions=(),
        expect_detections=False,
        expect_quarantine=False,
    ),
)


@dataclass
class IntegrityResult:
    """Outcome of one SDC scenario, with its invariant verdicts."""

    scenario: IntegrityScenario
    snapshot: dict
    events: Dict[str, int] = field(default_factory=dict)
    #: Corrupted transmits the injectors actually produced.
    injected: int = 0
    #: Delivered results that differed from the solo clean reference.
    mismatches: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "name": self.scenario.name,
            "description": self.scenario.description,
            "integrity": self.scenario.integrity,
            "outcomes": dict(self.snapshot["outcomes"]),
            "integrity_counters": dict(self.snapshot["integrity"]),
            "injected": self.injected,
            "events": dict(sorted(self.events.items())),
            "mismatches": self.mismatches,
            "violations": list(self.violations),
            "ok": self.ok,
        }


async def _integrity_client(
    server: TpuServer,
    tenant: str,
    requests: List[OperationRequest],
    results: dict,
) -> None:
    for i, request in enumerate(requests):
        try:
            results[(tenant, i)] = await server.submit(request)
        except QueueFull:
            results[("__queue_full__", tenant, i)] = True
        except (DeviceFailure, RequestTimeout):
            continue  # surfaced failure — counted server-side


async def _run_integrity_scenario(
    scenario: IntegrityScenario, seed: int
) -> IntegrityResult:
    rng = derive_rng(seed, "integrity", scenario.name)
    platform = Platform.with_tpus(scenario.tpus)
    for k, plan in enumerate(scenario.corruptions):
        platform.devices[plan.device % scenario.tpus].inject_fault(
            after_instructions=plan.after_instructions,
            failures=plan.failures,
            reason=f"integrity:{scenario.name}",
            mode=plan.mode,
            seed=seed * 1000 + k,
        )

    total = scenario.tenants * scenario.requests_per_tenant
    config = ServeConfig(
        max_queue_depth=max(total * 2, 16),
        breaker_cooldown=0.01,
        time_scale=0.0,
        integrity=scenario.integrity,
        quarantine_seconds=0.01,
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
    async with TpuServer(platform, config) as server:
        server.pool.observer = lambda event, serve_id, device: event_log.append(
            (event, serve_id, device)
        )
        await asyncio.gather(
            *(
                _integrity_client(server, tenant, reqs, results)
                for tenant, reqs in per_tenant.items()
            )
        )
        await server.drain()
        snapshot = server.snapshot()

    result = IntegrityResult(
        scenario=scenario,
        snapshot=snapshot,
        events=dict(Counter(event for event, _, _ in event_log)),
        injected=sum(
            d.fault_injector.fired
            for d in platform.devices
            if d.fault_injector is not None
        ),
    )
    _check_integrity_invariants(result, event_log, per_tenant, results, platform)
    return result


def _check_integrity_invariants(
    result: IntegrityResult,
    event_log: List[Tuple[str, int, int]],
    per_tenant: Dict[str, List[OperationRequest]],
    results: dict,
    platform: Platform,
) -> None:
    scenario = result.scenario
    out = result.snapshot["outcomes"]
    integ = result.snapshot["integrity"]
    violations = result.violations

    # Fail-stop invariants carry over: zero lost, accounting balance.
    if out["lost"] != 0:
        violations.append(f"lost != 0: {out['lost']}")
    balance = out["rejected"] + out["completed"] + out["failed"] + out["timeouts"]
    if out["submitted"] != balance:
        violations.append(
            f"accounting imbalance: submitted={out['submitted']} != {balance}"
        )
    # Corruption is recoverable by re-dispatch: nothing may fail loudly
    # in a pool with healthy devices left, let alone silently.
    if out["completed"] != out["submitted"] - out["rejected"]:
        violations.append(
            f"only {out['completed']}/{out['submitted']} requests delivered"
        )

    # Exactly-once, proven from the observer event stream.
    violations.extend(exactly_once_violations(event_log, out["completed"]))

    # 100% detection: no corrupt bytes may reach a client.  Every
    # delivered result must be bit-identical to the solo clean lowering.
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
            f"{result.mismatches} delivered results differ from the clean "
            "reference (corruption escaped detection)"
        )

    if scenario.expect_detections:
        if result.injected == 0:
            violations.append("no injected corruption fired (vacuous scenario)")
        if integ["sdc_detected"] == 0:
            violations.append("corruption injected but zero detections")
        if scenario.exact_detection and integ["sdc_detected"] != result.injected:
            violations.append(
                f"detection gap: {result.injected} corrupted transmits, "
                f"{integ['sdc_detected']} detections"
            )
        if integ["sdc_corrected"] == 0:
            violations.append("detections were never corrected by re-dispatch")
    else:
        # False-positive gate: clean traffic must verify clean.
        if integ["sdc_incidents"] != 0:
            violations.append(
                f"false positives on clean traffic: {integ['sdc_incidents']}"
            )
        if scenario.integrity == "off":
            if integ["tiles_verified"] != 0:
                violations.append(
                    "integrity off but tiles were verified (overhead leak)"
                )
        elif integ["tiles_verified"] == 0:
            violations.append("verification enabled but no tiles checked")

    quarantines = integ["quarantines"]
    if scenario.expect_quarantine and quarantines == 0:
        violations.append("corrupting device never quarantined")
    if not scenario.expect_quarantine and quarantines != 0:
        violations.append(f"unexpected quarantines on clean traffic: {quarantines}")
    # SDC feeds the quarantine, never the circuit breaker.
    breakers_opened = sum(
        b["opened"] for b in result.snapshot["breakers"].values()
    )
    if breakers_opened:
        violations.append(
            f"circuit breaker opened {breakers_opened} times on SDC-only faults"
        )


def run_integrity_campaign(
    seed: int,
    scenarios: Optional[Tuple[IntegrityScenario, ...]] = None,
) -> List[IntegrityResult]:
    """Run every SDC scenario to completion, each on a private loop."""
    return [
        asyncio.run(_run_integrity_scenario(scenario, seed))
        for scenario in (scenarios or DEFAULT_INTEGRITY_SCENARIOS)
    ]
