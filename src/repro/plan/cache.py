"""Bounded LRU cache of :class:`~repro.plan.compiled.CompiledPlan`\\ s.

The key is the **full lowering signature**: opcode, operand shapes and
dtypes, quantization mode, every lowering-relevant request attribute,
and digests of the :class:`~repro.runtime.tensorizer.TensorizerOptions`
and :class:`~repro.config.EdgeTPUConfig` in force.  Two requests with
equal signatures lower to the same geometry, the same instruction
templates, and the same integrity layout — only the data-dependent
values (input scales, measured output bounds, results) differ, and
those are recomputed per request at bind time.

The coalescing compatibility key is by construction a sub-key of this
signature (same opcode/shape/quant/`gemm_chunks` + shared B), so one
plan serves a whole coalesced group.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from collections import OrderedDict
from typing import Dict, Optional

import numpy as np

from repro.plan.compiled import CompiledPlan

#: Default cache bound; a serving mix rarely has more live shapes.
DEFAULT_MAX_ENTRIES = 128


@functools.lru_cache(maxsize=64)
def _dataclass_digest(obj) -> str:
    """Stable one-line digest of a frozen config dataclass.

    Memoized: the configs are frozen and hashable, and every
    :func:`plan_signature` call digests the same two of them.
    """
    pairs = sorted(dataclasses.asdict(obj).items())
    return ",".join(f"{k}={v!r}" for k, v in pairs)


def _attr_token(value) -> str:
    """Canonical signature token for one request attribute value.

    ``repr`` alone is unsafe for array-valued attributes: NumPy elides
    large arrays with ``...``, so two different per-channel quant vectors
    (e.g. a ``channel_scales`` override on a wide conv2D_nn layer) could
    collapse to one ambiguous token and replay the wrong plan.  Arrays
    are digested over their full byte content instead; nested sequences
    are canonicalized recursively so tuples and lists of the same values
    produce one token.
    """
    if isinstance(value, np.ndarray):
        payload = np.ascontiguousarray(value).tobytes()
        digest = hashlib.blake2b(payload, digest_size=8).hexdigest()
        return f"ndarray{tuple(value.shape)}:{value.dtype.str}:{digest}"
    if isinstance(value, (list, tuple)):
        return "(" + ",".join(_attr_token(v) for v in value) + ")"
    return repr(value)


def plan_signature(request, options, tpu_config) -> str:
    """The canonical lowering signature for one request.

    Deliberately data-independent: names (``input_name`` and friends)
    and operand *values* are excluded — they are bound per request.
    Every request attribute is included, because attributes steer
    lowering (``gemm``, ``gemm_chunks``, ``crop_box``, ``ext_shape``...).
    """
    shapes = ";".join(
        f"{tuple(x.shape)}:{x.dtype.str}" for x in request.inputs
    )
    attrs = ";".join(
        f"{key}={_attr_token(request.attrs[key])}" for key in sorted(request.attrs)
    )
    return (
        f"plan-v1|op={request.opcode.opname}|quant={request.quant.name}"
        f"|shapes={shapes}|attrs={attrs}"
        f"|opts={_dataclass_digest(options)}|cfg={_dataclass_digest(tpu_config)}"
    )


class PlanCache:
    """Bounded LRU over compiled plans, with lifetime counters."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries <= 0:
            raise ValueError(f"plan cache needs a positive bound, got {max_entries}")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[str, CompiledPlan]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stores = 0
        #: Requests bound from a cached plan (a coalesced group counts
        #: one bind per member request).
        self.binds = 0

    # -- lookup ---------------------------------------------------------

    def get(self, signature: str) -> Optional[CompiledPlan]:
        """Return the cached plan (refreshing recency) or None."""
        plan = self._entries.get(signature)
        if plan is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(signature)
        return plan

    def peek(self, signature: str) -> Optional[CompiledPlan]:
        """Lookup without touching recency or counters (introspection)."""
        return self._entries.get(signature)

    def put(self, signature: str, plan: CompiledPlan) -> None:
        """Insert (or refresh) a plan, evicting the LRU entry at capacity."""
        if signature in self._entries:
            self._entries.move_to_end(signature)
        self._entries[signature] = plan
        self.stores += 1
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def note_bind(self, requests: int = 1) -> None:
        """Record *requests* bound from cached plans."""
        self.binds += int(requests)

    # -- introspection --------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, signature: str) -> bool:
        return signature in self._entries

    def plans(self) -> list:
        """The cached plans, LRU → MRU order (introspection/persistence)."""
        return list(self._entries.values())

    def clear(self) -> None:
        """Drop every entry (counters keep their lifetime values)."""
        self._entries.clear()

    @property
    def hit_rate(self) -> float:
        """Hits over lookups, 0.0 before the first lookup."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def counters(self) -> Dict[str, float]:
        """Flat counter mapping for the telemetry CounterRegistry."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "stores": self.stores,
            "binds": self.binds,
            "entries": len(self._entries),
            "hit_rate": self.hit_rate,
        }
