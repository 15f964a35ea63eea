"""In-flight request state for the serving layer.

A :class:`ServeRequest` wraps one client :class:`OperationRequest` from
submission to delivery: the asyncio future the client awaits, the
deadline, and the dispatch-group bookkeeping that guarantees each
request resolves **exactly once** — the serving layer's zero-lost /
zero-duplicated invariant.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Tuple

from repro.runtime.opqueue import LoweredOperation, OperationRequest

if TYPE_CHECKING:  # no runtime dependency on the shard package
    from repro.shard.merge import MergeBuffer


@dataclass
class ServeRequest:
    """One admitted client request and its lifecycle state."""

    serve_id: int
    tenant: str
    request: OperationRequest
    future: "asyncio.Future"
    #: Monotonic instant the client submitted (latency measurement base).
    submitted: float
    #: Absolute monotonic deadline, or None for no deadline.
    deadline: Optional[float] = None
    #: SLO tier name ("" when the server has no SLO policy).
    tier: str = ""
    #: Tier priority (lower = more important; EDF tiebreak + preemption).
    priority: int = 0
    #: May the overload controller shed this request at admission?
    sheddable: bool = True
    #: Dispatch groups that have started executing on a device.  A
    #: request is preemptible only while this is zero — un-coalescing
    #: work that already touched a device would break exactly-once.
    started: int = 0
    #: Times this request was preempted back into the admission queue.
    preemptions: int = 0
    #: Dispatch retries consumed across this request's groups.
    retries: int = 0
    #: Dispatch groups still in flight (set at launch).
    outstanding: int = 0
    #: Lowered form, attached by the dispatch loop and kept across
    #: preemption (no group started, so nothing consumed it).
    op: Optional[LoweredOperation] = None
    #: Row-merge buffer when the request was sharded across devices
    #: (:mod:`repro.shard.merge`); the last completing segment finalizes
    #: it into ``op.result`` before delivery.
    merge: Optional["MergeBuffer"] = None
    #: Set once the request failed; siblings still queued are dropped.
    failed: bool = field(default=False)
    #: Memoized :func:`repro.serve.coalescer.coalesce_key` and the model
    #: operand *B* it hashed; valid while ``request.inputs[1]`` is still
    #: that array (lowering swaps in a float64 copy once).
    coalesce_key: Optional[Tuple] = None
    key_operand: Any = None

    def expired(self, now: float) -> bool:
        """True when the deadline has passed at monotonic instant *now*."""
        return self.deadline is not None and now > self.deadline

    def resolve(self) -> bool:
        """Deliver the functional result exactly once.

        Returns True when this call delivered it (False when the future
        was already settled — e.g. the client cancelled, or a sibling
        group already failed the request).
        """
        if self.failed or self.future.done() or self.op is None:
            return False
        self.future.set_result(self.op.result)
        return True

    def reject(self, exc: BaseException) -> bool:
        """Fail the request exactly once; later resolves become no-ops."""
        self.failed = True
        if self.future.done():
            return False
        self.future.set_exception(exc)
        return True
