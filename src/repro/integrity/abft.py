"""ABFT checksum arithmetic (Huang & Abraham, IEEE ToC 1984) for GEMM.

The classic scheme augments ``C = A @ B`` with a checksum row and
column: because matrix multiplication is linear, the row sums of the
product equal the product of ``A`` with ``B``'s row-sum vector, so a
single corrupted element shows up as one bad row sum *and* one bad
column sum, localizing it to their intersection.

In this reproduction the host already holds the exact float64
accumulator for every GEMM strip (lowering computes functional results
on the host), so the checksums come for free: the Tensorizer records

``row_sums[i] = rescale * sum_j acc[i, j]``
``col_sums[j] = rescale * sum_i acc[i, j]``

for each chunk×kernel-batch piece before the accumulator strip is
requantized in place.  A clean device returns the int8 tile
``q = clip(rint(acc * rescale))``; since ``|rint(x) - x| <= 0.5`` for
every element (and the clip is a no-op on non-saturating strips, which
is exactly when this bound is used), a clean tile's sums obey

``|sum_j q[i, j] - row_sums[i]| <= 0.5 * ncols``
``|sum_i q[i, j] - col_sums[j]| <= 0.5 * nrows``

— the **requantization error bound**.  Any deviation beyond it is not
quantization noise; it is corruption.  Saturating strips fall back to
exact post-requantization checksums (integer sums, tolerance ~0),
because clipping breaks the linear relation the bound relies on.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Worst-case |rint(x) - x| contributed by each summed element of a
#: clean requantized tile (§6.2.2 rounding).
TOLERANCE_QUANTA = 0.5

#: Relative slack for the float64 checksum arithmetic itself (one
#: multiply by ``rescale`` per sum; the integer sums are exact).
_FLOAT_SLACK = 1e-9


def tolerance_for(summed_elements, magnitude):
    """Detection threshold for sums over *summed_elements* clean values
    whose largest ``|sum|`` is *magnitude* (scalars or arrays).

    ``0.5`` quanta of rounding per element, plus relative float slack
    proportional to the largest checksum magnitude.
    """
    return TOLERANCE_QUANTA * summed_elements + _FLOAT_SLACK * (1.0 + magnitude)


def checksum_tolerance(summed_elements: int, sums: np.ndarray) -> float:
    """:func:`tolerance_for` one tile's checksum vector *sums*."""
    mag = float(np.max(np.abs(sums))) if sums.size else 0.0
    return tolerance_for(summed_elements, mag)


def tile_checksums(tile: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Exact row/column sums of an int8 (or float-int) tile, as float64."""
    t = np.asarray(tile, dtype=np.float64)
    return t.sum(axis=1), t.sum(axis=0)


def verify_tile(
    returned: np.ndarray,
    row_sums: np.ndarray,
    col_sums: np.ndarray,
    row_tol: float,
    col_tol: float,
) -> Tuple[bool, Tuple[int, ...], Tuple[int, ...], float]:
    """Check one device-returned tile against its recorded checksums.

    Returns ``(ok, bad_rows, bad_cols, max_deviation_quanta)`` where the
    bad indices localize the corruption (Huang–Abraham: a flipped
    element lies on the intersection of a bad row and a bad column) and
    the deviation is reported in output quanta for diagnostics.
    """
    got_rows, got_cols = tile_checksums(returned)
    row_dev = np.abs(got_rows - row_sums)
    col_dev = np.abs(got_cols - col_sums)
    bad_rows = np.flatnonzero(row_dev > row_tol)
    bad_cols = np.flatnonzero(col_dev > col_tol)
    ok = bad_rows.size == 0 and bad_cols.size == 0
    max_dev = float(max(row_dev.max(initial=0.0), col_dev.max(initial=0.0)))
    return ok, tuple(int(i) for i in bad_rows), tuple(int(j) for j in bad_cols), max_dev
