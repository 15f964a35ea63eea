"""Request coalescing: merge compatible multi-client GEMMs.

Serving traffic is dominated by the "many clients, one weight matrix"
pattern — the same model operand *B* multiplied against each client's
own data.  The coalescer groups admitted GEMM requests whose lowering
is provably mergeable and hands each group to
:meth:`repro.runtime.tensorizer.Tensorizer.lower_gemm_coalesced`.  It
runs the Tensorizer's one GEMM kernel — the same one that lowers a solo
GEMM as a group of one — over the whole group and de-multiplexes
bit-identical per-client results.

Compatibility (conservative by construction — anything else stays a
singleton and lowers normally):

* conv2D-GEMM opcode (``gemm=True``) with only known GEMM attributes;
* SCALE quantization (GLOBAL derives scales from each request's whole
  dataset, so merged scales would differ from solo ones);
* identical data-operand shape (identical chunk geometry);
* identical model operand *B*, keyed by a content digest and verified
  by value inside the coalesced lowering.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.edgetpu.isa import Opcode
from repro.runtime.opqueue import OperationRequest, QuantMode
from repro.serve.request import ServeRequest

#: GEMM lowering attributes the coalescer understands; a request with
#: any other attribute is left alone rather than guessed about.
GEMM_ATTR_KEYS = frozenset({"gemm", "gemm_chunks"})


def coalesce_key(request: OperationRequest) -> Optional[Tuple]:
    """Grouping key for a coalescible GEMM, or None when not eligible."""
    if request.opcode is not Opcode.CONV2D or not request.attrs.get("gemm", False):
        return None
    if request.quant is not QuantMode.SCALE:
        return None
    if set(request.attrs) - GEMM_ATTR_KEYS:
        return None
    if len(request.inputs) != 2:
        return None
    a, b = request.inputs
    if getattr(a, "ndim", 0) != 2 or getattr(b, "ndim", 0) != 2:
        return None
    if a.shape[1] != b.shape[0]:
        return None
    digest = hashlib.sha256(np.ascontiguousarray(b).tobytes()).hexdigest()
    return (a.shape, b.shape, digest, request.attrs.get("gemm_chunks"))


def _memo_key(sreq: ServeRequest) -> Optional[Tuple]:
    """:func:`coalesce_key`, recomputed only when the B operand changed."""
    inputs = sreq.request.inputs
    b = inputs[1] if len(inputs) == 2 else None
    if b is None or b is not sreq.key_operand:
        sreq.coalesce_key = coalesce_key(sreq.request)
        sreq.key_operand = b
    return sreq.coalesce_key


def coalesce(
    sreqs: Sequence[ServeRequest], max_group: int = 16
) -> List[List[ServeRequest]]:
    """Partition requests into coalescible groups, preserving FCFS order.

    Groups are ordered by their first member's arrival; non-eligible
    requests become singleton groups.  ``max_group`` bounds lowering
    working-set size (the stacked operand is ``group × data`` rows).
    Each request's key is memoized on it (``ServeRequest.coalesce_key``),
    so a preempted request is not re-hashed on every pass.
    """
    if max_group < 1:
        raise ValueError(f"max_group must be >= 1, got {max_group}")
    groups: List[List[ServeRequest]] = []
    open_by_key: Dict[Tuple, List[ServeRequest]] = {}
    for sreq in sreqs:
        key = _memo_key(sreq)
        if key is None:
            groups.append([sreq])
            continue
        group = open_by_key.get(key)
        if group is None or len(group) >= max_group:
            group = [sreq]
            groups.append(group)
            open_by_key[key] = group
        else:
            group.append(sreq)
    return groups
