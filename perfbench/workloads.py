"""The benchmark's three workloads.

Each workload has the same life cycle, driven by ``run.py``:

``setup()``    program set-up counted in ``setup_s``: imports, platform
               and server construction, warm-up;
``run()``      timed units (schedule runs, app passes)
               until ``seconds`` have passed, with every output checked;
               check material (the apps' CPU references) is built
               outside the timed window.  With a
               :class:`~layers.LayerTracer` it alternates untraced and
               traced units so the tracing overhead is measured inside
               the same run.  Peak RSS is read right after the window;
``close()``    stops everything the workload started.

Model time (the simulator's clock) and host time (``perf_counter``) are
kept in separately named metrics and never added together.
"""

from __future__ import annotations

import contextlib
import dataclasses
import resource
import statistics
import time
from collections import Counter
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from layers import APP_ENTRY_POINTS, ENTRY_POINTS, LayerTracer, layer_table

TIERS = ("gold", "silver", "bronze")
TIER_SHARES = {"gold": 0.2, "silver": 0.3, "bronze": 0.5}
#: TPUs behind the serving workloads (SustainedSpec's default).
SERVING_TPUS = 8


class CheckFailed(Exception):
    """An output check failed: the run is wrong, not noisy."""


def percentile_ms(groups: List[List[float]], q: float) -> float:
    """The q-th percentile of each group of latencies, median over groups, in ms.

    Groups are the run's units (schedule runs or passes); the median over
    them keeps one burst of host noise from setting a run's tail.
    """
    return statistics.median(float(np.percentile(g, q)) for g in groups if g) * 1e3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def alternate(seconds: float, minimum: int, tracer: Optional[LayerTracer], unit):
    """Run ``unit(tracer or None, index)`` until ``seconds`` pass; return both lists.

    Untraced and traced units alternate, so a traced run compares the two
    under the same conditions: traced unit ``i`` repeats the work of
    untraced unit ``i``.  Each side gets at least ``minimum`` units;
    ``index`` counts the units of its own side.
    """
    start = time.perf_counter()
    plain: list = []
    traced: list = []
    while (
        len(plain) < minimum
        or (tracer is not None and len(traced) < minimum)
        or time.perf_counter() - start < seconds
    ):
        if tracer is not None and len(traced) < len(plain):
            traced.append(unit(tracer, len(traced)))
        else:
            plain.append(unit(None, len(plain)))
    return plain, traced


# -- sustained / overload ------------------------------------------------------


@contextlib.contextmanager
def patched(owner, name: str, wrap):
    """Replace ``owner.name`` with ``wrap(original)`` inside the block."""
    original = vars(owner)[name]
    setattr(owner, name, wrap(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


@contextlib.contextmanager
def latency_probe(samples: List[float]):
    """Host seconds from ``submit_nowait`` to delivery, per request.

    Wraps two public methods for one unit; the probe never touches the
    request or its future, only remembers when each was submitted.
    """
    from repro.serve.metrics import ServingMetrics
    from repro.serve.server import TpuServer

    started: Dict[object, float] = {}

    def wrap_submit(submit):
        def submit_nowait(server, request, **kwargs):
            t0 = time.perf_counter()
            future = submit(server, request, **kwargs)
            started[future] = t0
            return future

        return submit_nowait

    def wrap_deliver(deliver):
        def record_delivery(metrics, sreq, now):
            delivered = deliver(metrics, sreq, now)
            t0 = started.pop(sreq.future, None)
            if delivered and t0 is not None:
                samples.append(time.perf_counter() - t0)
            return delivered

        return record_delivery

    with patched(TpuServer, "submit_nowait", wrap_submit), patched(
        ServingMetrics, "record_delivery", wrap_deliver
    ):
        yield


class Unit(NamedTuple):
    """One ``run_sustained`` call and what was measured around it."""

    #: Which sub-schedule ran.
    schedule: int
    result: object
    wall_s: float
    cpu_s: float
    #: Host seconds from submit to delivery, per delivered request.
    latencies: List[float]


class OpenLoopWorkload:
    """Seeded open-loop schedules replayed on the virtual clock.

    ``--seed`` derives ``schedules`` independent sub-schedules.  The timed
    units run them in turn, each on a fresh in-process ``TpuServer``,
    until the window is spent and every sub-schedule ran at least once.
    Overload dynamics differ a lot from one schedule to the next, so a
    run pools several short schedules instead of one long one.  Every
    replay of a sub-schedule must reproduce its outcome digest exactly.
    """

    #: Sub-schedule k of seed s uses seed ``s * SUBSEED_STRIDE + k``.
    SUBSEED_STRIDE = 1000
    #: Seed of the warm-up schedule (never a sub-schedule's seed).
    WARMUP_SEED = 999_999

    def __init__(self, schedules: int, requests: int, burst: int, ticks: int) -> None:
        self.schedules = schedules
        self.requests = requests
        self.burst = burst
        self.ticks = ticks

    def setup(self, seed: int) -> None:
        from repro.serve import SustainedSpec, run_sustained

        self._run_sustained = run_sustained
        # The ROADMAP reference spec: gold/silver/bronze mix, lognormal
        # GEMM ladder (median 64), ABFT on, plan cache on, sharding off.
        self.specs = [
            SustainedSpec(
                requests=self.requests,
                rate=60.0,
                seed=seed * self.SUBSEED_STRIDE + k,
                burst=self.burst,
                ticks=self.ticks,
                integrity="abft",
                shard="off",
                tier_shares=dict(TIER_SHARES),
            )
            for k in range(self.schedules)
        ]
        # Warm-up on a fixed schedule: the same work for every seed, so
        # set-up time does not depend on the seed's overload dynamics.
        run_sustained(dataclasses.replace(self.specs[0], requests=200, seed=self.WARMUP_SEED))

    def close(self) -> None:
        pass

    def _unit(self, tracer: Optional[LayerTracer], index: int) -> Unit:
        k = index % self.schedules
        samples: List[float] = []
        with latency_probe(samples):
            if tracer is not None:
                tracer.install(ENTRY_POINTS)
            try:
                t0, cpu0 = time.perf_counter(), time.process_time()
                result = self._run_sustained(self.specs[k])
                wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
            finally:
                if tracer is not None:
                    tracer.uninstall()
        return Unit(k, result, wall, cpu, samples)

    def run(self, seconds: float, tracer: Optional[LayerTracer] = None) -> dict:
        plain, traced = alternate(seconds, self.schedules, tracer, self._unit)
        rss = peak_rss_mb()
        replays = plain + traced
        if len(replays) == self.schedules:
            # One pass over the schedules filled the window: replay the
            # first once, untimed, so the digest check compares two runs.
            replays.append(self._unit(None, 0))
        self._check(replays)

        first = plain[: self.schedules]
        delivered = sum(u.result.outcomes.get("D", 0) for u in first)
        failed = sum(
            u.result.outcomes.get("F", 0) + u.result.outcomes.get("?", 0)
            for u in plain + traced
        )
        latencies = [u.latencies for u in plain]
        # Every unit offers ``requests``; medians over units keep a burst
        # of host noise in one unit from moving the run's figure.
        metrics = {
            "req_per_s": statistics.median(self.requests / u.wall_s for u in plain),
            "host_cpu_us_per_req": statistics.median(u.cpu_s for u in plain)
            / self.requests
            * 1e6,
            "p50_wall_ms": percentile_ms(latencies, 50),
            "p99_wall_ms": percentile_ms(latencies, 99),
            "goodput_share": delivered / (self.requests * self.schedules),
            "active_joules_per_req": sum(u.result.energy["active_joules"] for u in first)
            / delivered,
            "peak_rss_mb": rss,
        }
        out = {
            "attempted": self.requests * (len(plain) + len(traced)),
            "failed": failed,
            "metrics": metrics,
            "samples": {
                "units": len(plain),
                "schedules": self.schedules,
                "requests_per_unit": self.requests,
                "latency_samples": sum(len(g) for g in latencies),
            },
            "deterministic": [self._deterministic(u.result) for u in first],
        }
        if tracer is not None:
            out["layers"] = self._layers(first, tracer, plain, traced)
        return out

    @staticmethod
    def _check(units: List[Unit]) -> None:
        problems = []
        digests: Dict[int, str] = {}
        for unit in units:
            k, result = unit.schedule, unit.result
            if result.violations:
                problems.append(f"schedule {k} violations: {result.violations[:3]}")
            expected = digests.setdefault(k, result.digest)
            if result.digest != expected:
                problems.append(
                    f"schedule {k} outcome digest {result.digest[:12]} != {expected[:12]}"
                )
        if problems:
            raise CheckFailed("; ".join(problems))

    @staticmethod
    def _deterministic(result) -> dict:
        """Figures that must repeat exactly for a seed (model time, counts)."""
        snap = result.snapshot
        return {
            "digest": result.digest,
            "outcomes": dict(sorted(result.outcomes.items())),
            "latency_model": snap["latency"],
            "tiers": result.tier_table,
            "energy": result.energy,
            "plan_cache": snap["plan_cache"],
            "preemptions": snap["preemptions"],
            "coalescing": snap["coalescing"],
            "tiles_verified": snap["integrity"]["tiles_verified"],
            "bytes": snap["bytes"],
        }

    def _layers(self, first: List[Unit], tracer: LayerTracer, plain, traced) -> dict:
        snaps = [u.result.snapshot for u in first]
        totals = sum((counters(snap) for snap in snaps), Counter())
        layers = serving_layers(
            tracer,
            totals,
            depth_max=max(snap["queue_depth"]["max"] for snap in snaps),
            attempted=self.requests * len(traced),
            counted=self.requests * self.schedules,
            delivered=sum(u.result.outcomes.get("D", 0) for u in first),
            traced_delivered=sum(u.result.outcomes.get("D", 0) for u in traced),
            units=len(traced),
        )
        # Model-time latency: median over the schedules.
        layers["slo.p50_model_ms"] = (
            statistics.median(snap["latency"]["p50_seconds"] for snap in snaps) * 1e3
        )
        for tier in TIERS:
            layers[f"slo.{tier}_p99_model_ms"] = (
                statistics.median(
                    (u.result.tier_table.get(tier, {}).get("p99_seconds") or 0.0)
                    for u in first
                )
                * 1e3
            )
        # Traced unit i replays the schedule of untraced unit i.
        overhead = statistics.median(t.wall_s / p.wall_s for p, t in zip(plain, traced)) - 1.0
        layers.update(trace_health(tracer, sum(u.wall_s for u in traced), overhead))
        return layers


def counters(snap: dict) -> Counter:
    """The additive counters of one server snapshot, flattened.

    Counters of several snapshots add with ``+`` (absent entries read
    back as 0).
    """
    c: Counter = Counter()
    for name, device in snap["devices"].items():
        c[f"busy_s.{name}"] += device["busy_seconds"]
        c[f"groups.{name}"] += device["groups"]
    for key in ("hits", "misses", "binds"):
        c[f"plan.{key}"] += snap.get("plan_cache", {}).get(key, 0)
    for tier, row in snap["tiers"].items():
        for key in ("submitted", "completed", "shed", "deadline_misses"):
            c[f"{tier}.{key}"] += row[key]
    for key in ("shed", "rejected"):
        c[key] += snap["outcomes"][key]
    c["preemptions"] += snap["preemptions"]
    c["retries"] += snap["retries"]
    c["tiles_verified"] += snap["integrity"]["tiles_verified"]
    c["bytes"] += snap["bytes"]["in"] + snap["bytes"]["out"]
    c["escalations"] += snap.get("overload", {}).get("escalations", 0)
    depth = snap["queue_depth"]
    c["depth.samples"] += depth["samples"]
    c["depth.total"] += depth["mean"] * depth["samples"]
    return c


def serving_layers(
    tracer: LayerTracer,
    c: Counter,
    *,
    depth_max: int,
    attempted: int,
    counted: int,
    delivered: int,
    traced_delivered: int,
    units: int,
) -> dict:
    """Per-layer figures of the serving workloads.

    ``c`` holds the program's :func:`counters` over ``counted`` attempted
    requests (``delivered`` of them delivered); self times come from the
    tracer over ``units`` traced units of ``attempted`` requests, of
    which ``traced_delivered`` were delivered.
    """
    self_s = tracer.layer_self_s()

    def us_per_req(layer: str) -> float:
        return self_s[layer] / attempted * 1e6 if attempted else 0.0

    busy = [c[f"busy_s.tpu{i}"] for i in range(SERVING_TPUS)]
    groups = sum(c[f"groups.tpu{i}"] for i in range(SERVING_TPUS))
    lookups = c["plan.hits"] + c["plan.misses"]
    sig_self, _sig_total, sig_calls = tracer.entry("plan_signature")
    coalesced = tracer.units["coalesce.groups"]
    out = {
        "admission.self_us_per_req": us_per_req("serve.admission"),
        "admission.shed_share": c["shed"] / counted,
        "admission.queue_full_share": c["rejected"] / counted,
        "admission.queue_depth_mean": (
            c["depth.total"] / c["depth.samples"] if c["depth.samples"] else 0.0
        ),
        "admission.queue_depth_max": float(depth_max),
        "slo.escalations": float(c["escalations"]),
        "slo.gold_slo_share": (
            c["gold.completed"] / c["gold.submitted"] if c["gold.submitted"] else 0.0
        ),
        "coalescer.self_us_per_req": us_per_req("serve.coalescer"),
        "coalescer.requests_per_group": (
            tracer.units["coalesce.requests"] / coalesced if coalesced else 0.0
        ),
        "plan.signature_self_us_per_call": sig_self / sig_calls * 1e6 if sig_calls else 0.0,
        "plan.hit_rate": c["plan.hits"] / lookups if lookups else 0.0,
        "plan.misses": float(c["plan.misses"]),
        "plan.binds_per_delivered": c["plan.binds"] / delivered if delivered else 0.0,
        "tensorizer.self_us_per_req": us_per_req("runtime.tensorizer"),
        "tensorizer.lowerings_per_delivered": (
            tracer.units["lowered"] / traced_delivered if traced_delivered else 0.0
        ),
        "tensorizer.self_s": self_s["runtime.tensorizer"] / units,
        "dispatcher.self_us_per_req": us_per_req("serve.dispatcher"),
        "dispatcher.groups_per_req": groups / counted,
        "dispatcher.preemptions_per_req": c["preemptions"] / counted,
        "dispatcher.retries": float(c["retries"]),
        "integrity.self_us_per_req": us_per_req("integrity"),
        "integrity.tiles_verified_per_req": c["tiles_verified"] / counted,
        "edgetpu.busy_model_s": sum(busy),
        "edgetpu.busy_max_over_mean": (
            max(busy) / (sum(busy) / len(busy)) if sum(busy) else 0.0
        ),
        "edgetpu.bytes_moved_mb": c["bytes"] / 1e6,
        "executor.self_s": self_s["runtime.executor"] / units,
    }
    for tier in TIERS:
        out[f"slo.shed.{tier}"] = float(c[f"{tier}.shed"])
        out[f"slo.deadline_miss.{tier}"] = float(c[f"{tier}.deadline_misses"])
    return out


def trace_health(tracer: LayerTracer, traced_wall: float, overhead: float) -> dict:
    """Self-time shares, tracing overhead and the unattributed remainder."""
    rows = layer_table(tracer, traced_wall)
    out = {f"self_share.{layer}": share for layer, _s, _calls, share in rows[:-1]}
    out.update(
        {
            "trace.overhead_pct": overhead * 100.0,
            "trace.unattributed_share": rows[-1][3],
            "_table": rows,
            "_traced_wall_s": traced_wall,
        }
    )
    return out


# -- paper-apps ----------------------------------------------------------------


class AppRun(NamedTuple):
    """One timed ``run_gptpu`` call."""

    host_s: float
    cpu_s: float
    result: object
    #: Modeled busy seconds per TPU, from the run's sync reports.
    busy: Dict[str, float]


class PaperAppsWorkload:
    """The seven Table 3 applications on 8 simulated TPUs, no plan cache.

    Only ``run_gptpu`` is timed; inputs, platform construction and the
    CPU reference sit outside the timed calls.  The problems are a
    quarter of the apps' default sizes or smaller: a pass takes about
    0.25 s instead of 3 s, so one window holds dozens of passes and the
    per-pass medians are steady.  Every app still lowers, executes and
    passes its Table 4 envelope at these sizes.
    """

    tpus = 8
    params = {
        "backprop": {"batch": 512, "n_in": 512, "n_hidden": 256, "n_out": 64},
        "blackscholes": {"n_options": 1 << 14},
        "gaussian": {"n": 256},
        "gemm": {"n": 256},
        "hotspot3d": {"n": 128, "layers": 4, "iterations": 4},
        "lud": {"n": 256},
        "pagerank": {"n": 512, "iterations": 15},
    }
    min_passes = 5

    def setup(self, seed: int) -> None:
        from repro.apps import all_applications
        from repro.host.platform import Platform
        from repro.runtime.api import OpenCtpu

        self._platform = lambda: Platform.with_tpus(self.tpus)
        self._context = OpenCtpu
        self.apps = all_applications()
        self.inputs = {
            name: app.generate(seed=seed, **self.params[name])
            for name, app in self.apps.items()
        }
        # Warm-up: the first pass pays lazy imports and first-call costs.
        for name, app in self.apps.items():
            app.run_gptpu(self.inputs[name], self._context(self._platform()))

    def close(self) -> None:
        pass

    def _pass(self, tracer: Optional[LayerTracer]) -> Dict[str, AppRun]:
        busy: Dict[str, float] = Counter()

        def wrap_sync(sync):
            def recording_sync(ctx):
                report = sync(ctx)
                busy.update(
                    {u: s for u, s in report.timeline.busy_by_unit.items() if u.startswith("tpu")}
                )
                return report

            return recording_sync

        out = {}
        with patched(self._context, "sync", wrap_sync):
            if tracer is not None:
                tracer.install(ENTRY_POINTS + APP_ENTRY_POINTS)
            try:
                for name, app in self.apps.items():
                    ctx = self._context(self._platform())
                    busy.clear()
                    t0, cpu0 = time.perf_counter(), time.process_time()
                    result = app.run_gptpu(self.inputs[name], ctx)
                    host, cpu = time.perf_counter() - t0, time.process_time() - cpu0
                    out[name] = AppRun(host, cpu, result, dict(busy))
            finally:
                if tracer is not None:
                    tracer.uninstall()
        return out

    def run(self, seconds: float, tracer: Optional[LayerTracer] = None) -> dict:
        from repro.metrics import TABLE4_BOUNDS

        first: Dict[str, AppRun] = {}
        problems: List[str] = []

        def checked_pass(use: Optional[LayerTracer], _index: int) -> Dict[str, AppRun]:
            # Every pass must reproduce the first bit for bit; only the
            # first keeps its values (for the envelope check after the
            # window), so peak RSS does not grow with the pass count.
            one_pass = self._pass(use)
            for name, run in one_pass.items():
                if name not in first:
                    first[name] = run
                    continue
                same = first[name].result
                if run.result.wall_seconds != same.wall_seconds:
                    problems.append(f"{name}: modeled time changed between passes")
                if not np.array_equal(run.result.value, same.value):
                    problems.append(f"{name}: result changed between passes")
                one_pass[name] = run._replace(result=dataclasses.replace(run.result, value=None))
            return one_pass

        plain, traced = alternate(seconds, self.min_passes, tracer, checked_pass)
        rss = peak_rss_mb()
        self.reference = {
            name: app.run_cpu(self.inputs[name], self._platform().cpu)
            for name, app in self.apps.items()
        }
        for name, run in first.items():
            check = TABLE4_BOUNDS[name].check(run.result.value, self.reference[name].value)
            if not check.ok:
                problems.append(f"{name}: {check.violations()}")
        if problems:
            raise CheckFailed("; ".join(problems[:5]))

        apps = len(self.apps)
        per_pass = [[run.host_s for run in one_pass.values()] for one_pass in plain]
        active = [run.result.energy.active_joules for run in first.values()]
        # One request is one app run; medians over passes keep a burst of
        # host noise in one pass from moving the run's figure.
        metrics = {
            "req_per_s": statistics.median(apps / sum(hosts) for hosts in per_pass),
            "host_cpu_us_per_req": statistics.median(
                sum(run.cpu_s for run in one_pass.values()) for one_pass in plain
            )
            / apps
            * 1e6,
            "p50_wall_ms": percentile_ms(per_pass, 50),
            "p99_wall_ms": percentile_ms(per_pass, 99),
            # A wrong or changed app result fails the run instead, so
            # every app run that returns is delivered.
            "goodput_share": 1.0,
            "active_joules_per_req": sum(active) / len(active),
            "peak_rss_mb": rss,
        }
        out = {
            "attempted": apps * (len(plain) + len(traced)),
            "failed": 0,
            "metrics": metrics,
            "samples": {"units": len(plain), "latency_samples": apps * len(plain)},
            "deterministic": {
                name: {
                    "model_s": run.result.wall_seconds,
                    "active_joules": run.result.energy.active_joules,
                    "instructions": run.result.instructions,
                    "bytes": run.result.bytes_transferred,
                }
                for name, run in sorted(first.items())
            },
        }
        out["deterministic"]["_summary"] = self._summary(first)
        if tracer is not None:
            out["layers"] = self._layers(tracer, plain, traced)
        return out

    def _summary(self, one_pass: Dict[str, AppRun]) -> dict:
        from repro.metrics import mape_percent

        speedups, mapes = [], []
        for name, run in one_pass.items():
            cpu = self.reference[name]
            speedups.append(cpu.seconds / run.result.wall_seconds)
            mapes.append(mape_percent(run.result.value, cpu.value))
        return {
            "apps_model_s": sum(run.result.wall_seconds for run in one_pass.values()),
            "apps_speedup_mean": sum(speedups) / len(speedups),
            "apps_mape_max_pct": max(mapes),
        }

    def _layers(self, tracer: LayerTracer, plain, traced) -> dict:
        first = plain[0]
        summary = self._summary(first)
        self_s = tracer.layer_self_s()
        units = len(traced)
        plain_pass = [sum(run.host_s for run in p.values()) for p in plain]
        traced_pass = [sum(run.host_s for run in p.values()) for p in traced]
        busy: Dict[str, float] = Counter()
        for run in first.values():
            busy.update(run.busy)
        per_tpu = [busy.get(f"tpu{i}", 0.0) for i in range(self.tpus)]
        layers = {
            "apps.host_s": statistics.median(plain_pass),
            "apps.model_s": summary["apps_model_s"],
            "apps.speedup_mean": summary["apps_speedup_mean"],
            "apps.mape_max_pct": summary["apps_mape_max_pct"],
            "tensorizer.self_s": self_s["runtime.tensorizer"] / units,
            "tensorizer.lowerings_per_delivered": tracer.units["lowered"] / units / len(first),
            "executor.self_s": self_s["runtime.executor"] / units,
            "edgetpu.busy_model_s": sum(per_tpu),
            "edgetpu.busy_max_over_mean": max(per_tpu) / (sum(per_tpu) / len(per_tpu)),
            "edgetpu.bytes_moved_mb": sum(
                run.result.bytes_transferred for run in first.values()
            )
            / 1e6,
        }
        for name in sorted(first):
            layers[f"apps.{name}.host_s"] = statistics.median(p[name].host_s for p in plain)
            layers[f"apps.{name}.model_ms"] = first[name].result.wall_seconds * 1e3
        layers.update(
            trace_health(
                tracer,
                sum(traced_pass),
                statistics.median(traced_pass) / statistics.median(plain_pass) - 1.0,
            )
        )
        return layers


WORKLOADS = {
    # The ROADMAP reference operating point: 8 arrivals per 4 grants.
    # Eight schedules, as on overload: the host-time tail of one schedule
    # varies with its arrival bursts, and replays add no new schedules.
    "sustained": lambda: OpenLoopWorkload(schedules=8, requests=750, burst=8, ticks=4),
    # 10 arrivals per 2 grants: offered load exceeds capacity.  Eight
    # schedules: the goodput and tail of one overloaded schedule vary a
    # lot with its seed, and replays add no new schedules.
    "overload": lambda: OpenLoopWorkload(schedules=8, requests=1000, burst=10, ticks=2),
    "paper-apps": PaperAppsWorkload,
}
