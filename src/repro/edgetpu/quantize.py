"""8-bit quantization, following the paper's conventions.

The Edge TPU computes on 8-bit integers.  The reverse-engineered model
format (§3.3) stores a single float scaling factor ``f`` per tensor such
that *"an 8-bit integer value in the data section is calculated by
multiplying its raw value by f"* — i.e. symmetric scale quantization:

    q = clip(round(raw * f), -128, 127)        raw ≈ q / f

§6.2.2 gives the rules the runtime uses to pick ``f`` for an operator's
*output* so that no intermediate overflows (Eqs. 4–8).  Those rules are
implemented by :func:`operator_output_scale`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import QuantizationError

#: Representable int8 range.
QMIN, QMAX = -128, 127


@dataclass(frozen=True)
class QuantParams:
    """Symmetric quantization parameters for one tensor.

    Attributes
    ----------
    scale:
        The paper's factor ``f``: quantized = raw * f.  Note this is the
        *inverse* of the TFLite convention (raw = quantized * scale); we
        follow the paper's §3.3 description.
    """

    scale: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.scale) or self.scale <= 0:
            raise QuantizationError(f"scale must be a finite positive number, got {self.scale}")

    @property
    def step(self) -> float:
        """Raw-value spacing between adjacent quantized levels (1/f)."""
        return 1.0 / self.scale


def params_for_range(max_abs: float) -> QuantParams:
    """Quantization parameters covering raw values in ``[-max_abs, max_abs]``.

    Uses the full positive int8 range: ``f = 127 / max_abs``.  A zero or
    all-zero range quantizes with ``f = 1`` (any scale represents zeros
    exactly).
    """
    return QuantParams(scale=scale_for_range(max_abs))


def scale_for_range(max_abs: float) -> float:
    """The scale of :func:`params_for_range`, as a bare float."""
    if not math.isfinite(max_abs) or max_abs < 0:
        raise QuantizationError(f"max_abs must be finite and >= 0, got {max_abs}")
    if max_abs == 0.0:
        return 1.0
    scale = QMAX / max_abs
    # Denormal-range data is indistinguishable from zero at 8 bits.
    return scale if math.isfinite(scale) else 1.0


def params_for_data(data: np.ndarray) -> QuantParams:
    """Quantization parameters covering every value in *data*."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.size == 0:
        raise QuantizationError("cannot derive quantization parameters from empty data")
    if not np.all(np.isfinite(arr)):
        raise QuantizationError("data contains non-finite values")
    return params_for_range(float(np.max(np.abs(arr))))


def quantize(data: np.ndarray, params: QuantParams) -> np.ndarray:
    """Quantize raw floats to int8 using the paper's convention q = raw*f."""
    arr = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise QuantizationError("data contains non-finite values")
    q = np.rint(arr * params.scale)
    return np.clip(q, QMIN, QMAX).astype(np.int8)


def dequantize(q: np.ndarray, params: QuantParams) -> np.ndarray:
    """Recover raw values: raw = q / f (float64 to protect aggregation)."""
    return np.asarray(q, dtype=np.float64) / params.scale


def quantization_rmse(data: np.ndarray, params: QuantParams) -> float:
    """Root-mean-square round-trip error of quantizing *data*."""
    arr = np.asarray(data, dtype=np.float64)
    round_trip = dequantize(quantize(arr, params), params)
    return float(np.sqrt(np.mean((arr - round_trip) ** 2)))


# ---------------------------------------------------------------------------
# Batched (per-tile-vectorized) quantization
# ---------------------------------------------------------------------------
#
# The vectorized Tensorizer path stacks all same-shape tiles of an
# operand into one (n_tiles, t, t) array and quantizes them with one
# NumPy call instead of one Python call per tile.  Every helper below is
# bit-for-bit equivalent to mapping its scalar counterpart over the
# stack: the same IEEE-754 operations are applied elementwise, only the
# dispatch is batched.


def batch_max_abs(stacked: np.ndarray) -> np.ndarray:
    """Per-tile ``max |x|`` over a ``(n, ...)`` stack — the Eq. 4 input bound.

    Equals ``max(abs(lo), abs(hi))`` of each tile's :func:`data_range`.
    Zero padding cannot change the result (absolute values are >= 0).
    """
    arr = np.asarray(stacked, dtype=np.float64)
    if arr.size == 0:
        raise QuantizationError("cannot derive quantization parameters from empty data")
    # max|x| == max(max, -min): two reductions, no np.abs temporary.
    # NaN propagates through max and ±inf survives negation, so
    # validating the (tiny) reduced vector covers the whole stack.
    axes = tuple(range(1, arr.ndim))
    max_abs = np.maximum(arr.max(axis=axes), -arr.min(axis=axes))
    if not np.all(np.isfinite(max_abs)):
        raise QuantizationError("data contains non-finite values")
    return max_abs


def scales_for_ranges(max_abs: np.ndarray) -> np.ndarray:
    """Vectorized :func:`params_for_range`: one scale per tile.

    Identical semantics per element: ``f = 127 / max_abs``, falling back
    to ``1.0`` for zero ranges and denormal-range data.
    """
    max_abs = np.asarray(max_abs, dtype=np.float64)
    if not np.all(np.isfinite(max_abs)) or np.any(max_abs < 0):
        raise QuantizationError("max_abs must be finite and >= 0")
    safe = np.where(max_abs > 0, max_abs, 1.0)
    with np.errstate(over="ignore"):
        scales = QMAX / safe
    scales = np.where(max_abs > 0, scales, 1.0)
    return np.where(np.isfinite(scales), scales, 1.0)


def quantize_batched(
    stacked: np.ndarray, scales: np.ndarray, assume_finite: bool = False
) -> np.ndarray:
    """Quantize a tile stack with per-tile scales in one call.

    ``scales`` has shape ``(n,)`` and broadcasts over each tile; the
    result is bit-identical to :func:`quantize` applied per tile.
    ``assume_finite=True`` skips the non-finite check for callers that
    already validated the stack (e.g. via :func:`batch_max_abs`).
    """
    arr = np.asarray(stacked, dtype=np.float64)
    if not assume_finite and not np.all(np.isfinite(arr)):
        raise QuantizationError("data contains non-finite values")
    scales = np.asarray(scales, dtype=np.float64)
    expand = (slice(None),) + (None,) * (arr.ndim - 1)
    q = arr * scales[expand]
    np.rint(q, out=q)
    np.clip(q, QMIN, QMAX, out=q)
    return q.astype(np.int8)


def requantize_batched(
    acc: np.ndarray, acc_scales: np.ndarray, out_scales: np.ndarray
) -> Tuple[np.ndarray, int]:
    """Rescale a stack of wide accumulators into int8 at per-tile scales.

    Mirrors :meth:`repro.edgetpu.device.EdgeTPUDevice._requantize` — the
    same ``rescale = out/acc`` division, ``rint`` and clip — batched over
    the leading axis.  Returns the int8 stack and the total number of
    saturated (clipped) values.
    """
    acc_scales = np.asarray(acc_scales, dtype=np.float64)
    out_scales = np.asarray(out_scales, dtype=np.float64)
    rescale = out_scales / acc_scales
    expand = (slice(None),) + (None,) * (acc.ndim - 1)
    q = np.rint(acc * rescale[expand])
    saturated = int(np.count_nonzero((q < QMIN) | (q > QMAX)))
    return np.clip(q, QMIN, QMAX).astype(np.int8), saturated


def dequantize_batched(q: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Recover raw values of a tile stack: ``raw = q / f`` per tile."""
    scales = np.asarray(scales, dtype=np.float64)
    expand = (slice(None),) + (None,) * (q.ndim - 1)
    return np.asarray(q, dtype=np.float64) / scales[expand]


# ---------------------------------------------------------------------------
# §6.2.2 scaling-factor rules (Eqs. 4–8)
# ---------------------------------------------------------------------------

def data_range(*arrays: np.ndarray) -> Tuple[float, float]:
    """(min, max) over all given arrays, as float."""
    if not arrays:
        raise QuantizationError("data_range needs at least one array")
    lo = min(float(np.min(np.asarray(a, dtype=np.float64))) for a in arrays)
    hi = max(float(np.max(np.asarray(a, dtype=np.float64))) for a in arrays)
    return lo, hi


def operator_output_scale(opname: str, lo: float, hi: float, n: int = 1) -> float:
    """The paper's output scaling factor ``S`` for one operator (Eqs. 5–8).

    Parameters
    ----------
    opname:
        Edge TPU operator name (Table 1 spelling).
    lo, hi:
        Minimum/maximum raw input value (paper's *min*/*max*).
    n:
        Inner dimension N for the matrix operators (Eq. 5).

    Returns
    -------
    float
        ``S`` such that quantized output = raw output * S without overflow.
        The general rule (Eq. 4) bounds S by 1/|expected max output|;
        Eqs. 5–8 instantiate it per operator class.
    """
    span = abs(hi - lo)
    if span == 0.0:
        # Constant inputs: the largest magnitude still bounds the output.
        span = max(abs(hi), abs(lo))
        if span == 0.0:
            return 1.0
    if opname in ("conv2D", "FullyConnected"):
        if n < 1:
            raise QuantizationError(f"matrix operators need n >= 1, got {n}")
        scale = 1.0 / (span * span * n) if span * span * n > 0 else 1.0  # Eq. 5
    elif opname in ("add", "sub"):
        scale = 1.0 / (2.0 * span)  # Eq. 6
    elif opname == "mul":
        scale = 1.0 / (span * span) if span * span > 0 else 1.0  # Eq. 7
    else:
        scale = 1.0 / span  # Eq. 8 — all other operators
    # Denormal-range data under- or overflows the closed forms; any
    # positive scale represents such data equally well at 8 bits.
    if not np.isfinite(scale) or scale <= 0:
        return 1.0
    return scale


def estimate_output_bound(opname: str, lo: float, hi: float, n: int = 1) -> float:
    """Expected maximum |output| for one operator — the Eq. 4 denominator."""
    return 1.0 / operator_output_scale(opname, lo, hi, n)


def output_quant_params(opname: str, lo: float, hi: float, n: int = 1) -> QuantParams:
    """Output :class:`QuantParams` for one operator per §6.2.2.

    The paper's ``S`` (Eqs. 5–8) normalizes outputs into [-1, 1]; the
    device encodes that interval across the full int8 range, so the
    effective quantization factor is ``127 * S``.
    """
    scale = QMAX * operator_output_scale(opname, lo, hi, n)
    # Denormal-range data: S itself survives the closed-form guards but
    # 127 * S can still overflow to inf.  As in operator_output_scale,
    # any positive scale represents such data equally well at 8 bits.
    if not np.isfinite(scale) or scale <= 0:
        return QuantParams(scale=1.0)
    return QuantParams(scale=scale)


def sample_range(data: np.ndarray, sample: int = 4096, seed: int = 0) -> Tuple[float, float]:
    """Estimate (min, max) from a random sample of *data*.

    §6.2.2: "For most datasets, sampling is efficient enough in large
    datasets" [70].  Deterministic for a given seed; exact for small data.
    """
    arr = np.asarray(data, dtype=np.float64).ravel()
    if arr.size <= sample:
        return data_range(arr)
    rng = np.random.default_rng(seed)
    idx = rng.choice(arr.size, size=sample, replace=False)
    picked = arr[idx]
    return float(np.min(picked)), float(np.max(picked))
