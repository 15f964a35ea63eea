"""Per-layer self-time tracing by wrapping each layer's entry points.

Nothing in ``src/`` is edited: :class:`LayerTracer` replaces selected
functions and methods with timing wrappers for the duration of a traced
run and restores the originals afterwards.  A layer's *self time* is the
time spent inside its entry points minus the time spent in nested
entry points of any layer, so the self times of all layers plus the
unattributed remainder add up to the traced wall time exactly.

Coroutine functions (the serving dispatch loops) are wrapped per step:
every stretch of code the event loop runs between two ``await`` points
is one span.  Host time comes from ``time.perf_counter``; model time is
never mixed in here.

Only calls on the thread that installed the tracer are timed; calls
from other threads pass straight through.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
import types
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

#: (module, attribute path, layer).  A module-level function imported by
#: name elsewhere is listed at its point of use, because that is the
#: binding the caller looks up.  An entry that no longer exists is
#: skipped and reported in ``missing`` (its time becomes unattributed).
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    # serving front end: submission and the dispatch loop's own code
    ("repro.serve.server", "TpuServer.submit_nowait", "serve.server"),
    ("repro.serve.server", "TpuServer._dispatch_loop", "serve.server"),
    ("repro.serve.admission", "AdmissionController.offer", "serve.admission"),
    ("repro.serve.admission", "AdmissionController.drain", "serve.admission"),
    ("repro.serve.admission", "AdmissionController.expire", "serve.admission"),
    ("repro.serve.admission", "AdmissionController.requeue", "serve.admission"),
    ("repro.serve.slo", "OverloadController.observe", "serve.slo"),
    ("repro.serve.slo", "OverloadController.should_shed", "serve.slo"),
    ("repro.serve.slo", "OverloadController.shed_floor", "serve.slo"),
    ("repro.serve.slo", "SloPolicy.tier_of", "serve.slo"),
    ("repro.serve.server", "coalesce", "serve.coalescer"),
    ("repro.serve.coalescer", "coalesce_key", "serve.coalescer"),
    ("repro.serve.metrics", "ServingMetrics.record_delivery", "serve.metrics"),
    ("repro.serve.metrics", "ServingMetrics.record_group", "serve.metrics"),
    ("repro.serve.metrics", "ServingMetrics.record_timeout", "serve.metrics"),
    ("repro.serve.metrics", "ServingMetrics.sample_queue_depth", "serve.metrics"),
    ("repro.serve.server", "build_dispatch_groups", "runtime.scheduler"),
    # compiled-plan cache
    ("repro.runtime.tensorizer", "plan_signature", "plan"),
    ("repro.plan.cache", "PlanCache.get", "plan"),
    ("repro.plan.cache", "PlanCache.put", "plan"),
    ("repro.plan.cache", "PlanCache.note_bind", "plan"),
    # lowering
    ("repro.runtime.tensorizer", "Tensorizer.lower", "runtime.tensorizer"),
    ("repro.runtime.tensorizer", "Tensorizer.lower_gemm_coalesced", "runtime.tensorizer"),
    # device pool
    ("repro.serve.dispatcher", "DevicePool.submit", "serve.dispatcher"),
    ("repro.serve.dispatcher", "DevicePool.preempt", "serve.dispatcher"),
    ("repro.serve.dispatcher", "DevicePool._router", "serve.dispatcher"),
    ("repro.serve.dispatcher", "DevicePool._worker", "serve.dispatcher"),
    ("repro.integrity.verifier", "IntegrityVerifier.verify_op", "integrity"),
    ("repro.integrity.verifier", "GroupVerdict.apply", "integrity"),
    # modeled device: functional execution, wire return, fault hook
    ("repro.edgetpu.device", "EdgeTPUDevice.execute", "edgetpu"),
    ("repro.edgetpu.device", "EdgeTPUDevice.transmit", "edgetpu"),
    ("repro.edgetpu.device", "EdgeTPUDevice.check_fault", "edgetpu"),
    # modeled timing: per-group service cost and the batch DES replay
    ("repro.serve.dispatcher", "group_service_seconds", "runtime.executor"),
    ("repro.runtime.executor", "Executor.run", "runtime.executor"),
    # batch runtime API used by the applications
    ("repro.runtime.api", "OpenCtpu.invoke_operator", "runtime.api"),
    ("repro.runtime.api", "OpenCtpu.sync", "runtime.api"),
    # the event loop blocked in select(): idle host time, not work
    ("selectors", "EpollSelector.select", "asyncio.wait"),
)

#: Application entry points (one per Table 3 app), layer ``apps``.
APP_ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = tuple(
    (f"repro.apps.{module}", f"{cls}.run_gptpu", "apps")
    for module, cls in (
        ("backprop", "BackpropApp"),
        ("blackscholes", "BlackScholesApp"),
        ("gaussian", "GaussianApp"),
        ("gemm_app", "GemmApp"),
        ("hotspot3d", "HotSpot3DApp"),
        ("lud", "LUDApp"),
        ("pagerank", "PageRankApp"),
    )
)

#: Work counted at an entry point, keyed by attribute path: a function
#: of (positional args, result) returning counter increments.  Lowerings
#: are counted per request; a coalesced call of one request delegates to
#: ``Tensorizer.lower``, which counts it.
TALLIES = {
    "Tensorizer.lower": lambda args, result: {"lowered": 1},
    "Tensorizer.lower_gemm_coalesced": lambda args, result: {
        "lowered": len(args[1]) if len(args[1]) > 1 else 0
    },
    "coalesce": lambda args, result: {
        "coalesce.requests": len(args[0]),
        "coalesce.groups": len(result),
    },
}

#: Every layer the tables report, in pipeline order.
LAYERS: Tuple[str, ...] = (
    "serve.server",
    "serve.admission",
    "serve.slo",
    "serve.coalescer",
    "plan",
    "runtime.tensorizer",
    "runtime.scheduler",
    "serve.dispatcher",
    "integrity",
    "edgetpu",
    "runtime.executor",
    "serve.metrics",
    "runtime.api",
    "apps",
    "asyncio.wait",
)


def _resolve(module_name: str, path: str):
    """Return (owner, attribute name, static attribute) or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    name = parts[-1]
    try:
        static = inspect.getattr_static(owner, name)
    except AttributeError:
        return None
    return owner, name, static


class LayerTracer:
    """Accumulates self time, inclusive time and calls per entry point."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._thread = threading.get_ident()
        #: Child time accumulated by each open span, innermost last.
        self._stack: List[float] = []
        self.self_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.total_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Work counted by :data:`TALLIES`.
        self.units: Counter = Counter()
        #: Time covered by outermost spans (the attributed part of wall).
        self.top_s = 0.0
        #: Entry points that could not be wrapped.
        self.missing: set = set()
        #: (owner, name, original or None when the name was inherited).
        self._patches: List[Tuple[object, str, object]] = []

    # -- span accounting --------------------------------------------------

    def _close(self, key: Tuple[str, str], t0: float) -> None:
        dur = self._clock() - t0
        child = self._stack.pop()
        self.self_s[key] += dur - child
        self.total_s[key] += dur
        self.calls[key] += 1
        if self._stack:
            self._stack[-1] += dur
        else:
            self.top_s += dur

    def _wrap_function(self, fn: Callable, key: Tuple[str, str]) -> Callable:
        tracer = self
        tally = TALLIES.get(key[1])

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            tracer._stack.append(0.0)
            t0 = tracer._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(key, t0)
            if tally is not None:
                tracer.units.update(tally(args, result))
            return result

        return timed

    def _wrap_coroutine_function(self, fn: Callable, key: Tuple[str, str]) -> Callable:
        tracer = self

        @types.coroutine
        def stepped(coro):
            send_value, error = None, None
            while True:
                tracer._stack.append(0.0)
                t0 = tracer._clock()
                try:
                    if error is None:
                        yielded = coro.send(send_value)
                    else:
                        yielded = coro.throw(error)
                except StopIteration as stop:
                    tracer._close(key, t0)
                    return stop.value
                except BaseException:
                    tracer._close(key, t0)
                    raise
                tracer._close(key, t0)
                try:
                    send_value, error = (yield yielded), None
                except BaseException as exc:  # cancellation is re-thrown inside
                    send_value, error = None, exc

        @functools.wraps(fn)
        async def timed(*args, **kwargs):
            return await stepped(fn(*args, **kwargs))

        return timed

    # -- installation -----------------------------------------------------

    def install(self, entry_points) -> None:
        """Wrap every resolvable entry point; remember what to restore."""
        for module_name, path, layer in entry_points:
            found = _resolve(module_name, path)
            if found is None:
                self.missing.add(f"{module_name}:{path}")
                continue
            owner, name, static = found
            key = (layer, path)
            if isinstance(static, (staticmethod, classmethod)):
                self.missing.add(f"{module_name}:{path} (static/classmethod)")
                continue
            fn = static
            if inspect.iscoroutinefunction(fn):
                wrapped = self._wrap_coroutine_function(fn, key)
            else:
                wrapped = self._wrap_function(fn, key)
            own = name in vars(owner)
            self._patches.append((owner, name, static if own else None))
            setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        """Restore every original, innermost patch last-in first-out."""
        while self._patches:
            owner, name, original = self._patches.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    # -- reporting --------------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds per layer (every layer in LAYERS, zero if idle)."""
        out = dict.fromkeys(LAYERS, 0.0)
        for (layer, _path), seconds in self.self_s.items():
            out[layer] = out.get(layer, 0.0) + seconds
        return out

    def layer_calls(self) -> Dict[str, int]:
        out = dict.fromkeys(LAYERS, 0)
        for (layer, _path), n in self.calls.items():
            out[layer] = out.get(layer, 0) + n
        return out

    def entry(self, path: str) -> Tuple[float, float, int]:
        """(self seconds, inclusive seconds, calls) of one entry point."""
        self_s = total_s = 0.0
        calls = 0
        for key in self.calls:
            if key[1] == path:
                self_s += self.self_s[key]
                total_s += self.total_s[key]
                calls += self.calls[key]
        return self_s, total_s, calls


def layer_table(tracer: LayerTracer, wall_s: float) -> List[Tuple[str, float, int, float]]:
    """Rows (layer, self seconds, calls, share of wall) plus unattributed."""
    rows = []
    calls = tracer.layer_calls()
    for layer, seconds in tracer.layer_self_s().items():
        rows.append((layer, seconds, calls.get(layer, 0), seconds / wall_s if wall_s else 0.0))
    unattributed = wall_s - tracer.top_s
    rows.append(("(unattributed)", unattributed, 0, unattributed / wall_s if wall_s else 0.0))
    return rows
