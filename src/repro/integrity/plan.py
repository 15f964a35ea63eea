"""Per-operation integrity plans built by the Tensorizer at lowering.

A plan is pure bookkeeping: it records, for each device instruction
that returns a result tile, what a clean device must send back
(`expected`), where that tile lands in the operation's result array,
and the checksums + tolerance the verifier compares against.  Building
a plan never changes the lowering arithmetic — ``--integrity off``
skips construction entirely, so the GEMM path stays bit-identical and
allocation-free (the overhead-guard test pins this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.integrity.abft import checksum_tolerance, tile_checksums, tolerance_for


@dataclass(frozen=True)
class TileCheck:
    """Everything needed to verify one device-returned result tile."""

    #: :attr:`LoweredInstr.label` of the instruction producing this tile.
    label: str
    #: Result-array row / column ranges ``[start, stop)`` the tile fills.
    rows: Tuple[int, int]
    cols: Tuple[int, int]
    #: The int8 tile a clean device returns over the wire.
    expected: np.ndarray
    #: Output quantization scale (write-back divides by this).
    out_scale: float
    #: Recorded checksums (float64) and their detection thresholds.
    row_sums: np.ndarray
    col_sums: np.ndarray
    row_tol: float
    col_tol: float
    #: True when the sums are exact post-requantization checksums
    #: (saturating GEMM strips, non-GEMM tiles) rather than
    #: accumulator-derived ABFT sums with the quantization tolerance.
    exact: bool = False

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows[1] - self.rows[0], self.cols[1] - self.cols[0])

    def write_back(self, result: np.ndarray, returned: np.ndarray) -> None:
        """Install the device-returned tile into the delivered result.

        For a clean transmission this reproduces the host's own
        requantize arithmetic bit-for-bit: the host divided the same
        integer values by the same ``out_scale``.
        """
        r0, r1 = self.rows
        c0, c1 = self.cols
        np.divide(
            np.asarray(returned, dtype=np.float64),
            self.out_scale,
            out=result[r0:r1, c0:c1],
        )


def make_gemm_checks(
    pieces: Sequence[Tuple[str, Tuple[int, int], Tuple[int, int]]],
    q: np.ndarray,
    acc_sums: Tuple[np.ndarray, np.ndarray],
    q_sums: Optional[Tuple[np.ndarray, np.ndarray]],
    rescale: np.ndarray,
    out_scales: np.ndarray,
    exact: Sequence[bool],
    row_starts: np.ndarray,
    heights: np.ndarray,
    col_starts: np.ndarray,
    widths: np.ndarray,
) -> List[TileCheck]:
    """Build the checks for a grid of GEMM pieces in one pass.

    *q* is a requantized ``(R, K)`` row block (float64 holding exact int8
    values) cut into G row chunks (*row_starts*, *heights*) and B kernel
    batches (*col_starts*, *widths*).  *acc_sums* holds the exact
    accumulator's per-batch row sums ``(R, B)`` and per-chunk column sums
    ``(G, K)``, taken before requantization; *rescale* and *out_scales*
    are ``(G, B)``.  The checksums are ABFT sums — ``rescale *`` the
    accumulator sums — with the half-quantum-per-element tolerance,
    except for the chunks flagged in *exact* (strips that may saturate):
    clipping breaks the linear relation, so those fall back to exact
    post-clip checksums of *q* itself, *q_sums* (same layout as
    *acc_sums*; ``None`` when no chunk is flagged).

    *pieces* gives each (chunk, batch) piece's label and its row/column
    ranges in result coordinates, chunk-major.  Returned checks come in
    the same order and hold views of the block's arrays.
    """
    row_sums = acc_sums[0] * rescale.repeat(heights, axis=0)
    col_sums = acc_sums[1] * rescale.repeat(widths, axis=1)
    if q_sums is not None:
        flags = np.asarray(exact)
        row_sums = np.where(flags.repeat(heights)[:, None], q_sums[0], row_sums)
        col_sums = np.where(flags[:, None], q_sums[1], col_sums)
    row_mags = np.maximum.reduceat(np.abs(row_sums), row_starts, axis=0).tolist()
    col_mags = np.maximum.reduceat(np.abs(col_sums), col_starts, axis=1).tolist()
    expected = q.astype(np.int8)
    spans = list(zip(col_starts.tolist(), widths.tolist()))
    checks = []
    pieces = iter(pieces)
    for g, (r0, nrows, flag, scales) in enumerate(
        zip(row_starts.tolist(), heights.tolist(), exact, out_scales.tolist())
    ):
        r1 = r0 + nrows
        for bi, (c0, ncols) in enumerate(spans):
            label, rows, cols = next(pieces)
            checks.append(TileCheck(
                label=label,
                rows=rows,
                cols=cols,
                expected=expected[r0:r1, c0 : c0 + ncols],
                out_scale=scales[bi],
                row_sums=row_sums[r0:r1, bi],
                col_sums=col_sums[g, c0 : c0 + ncols],
                row_tol=tolerance_for(0 if flag else ncols, row_mags[g][bi]),
                col_tol=tolerance_for(0 if flag else nrows, col_mags[g][bi]),
                exact=flag,
            ))
    return checks


def make_exact_check(
    label: str,
    rows: Tuple[int, int],
    cols: Tuple[int, int],
    q: np.ndarray,
    out_scale: float,
) -> TileCheck:
    """Exact output checksum for a non-GEMM tile (pairwise ops).

    These ops have no linear accumulator structure to exploit, so the
    checksums are the expected tile's own integer sums (tolerance ~0);
    under ``vote`` they additionally get dual-device byte comparison.
    """
    expected = np.asarray(q).astype(np.int8)
    row_sums, col_sums = tile_checksums(expected)
    return TileCheck(
        label=label,
        rows=rows,
        cols=cols,
        expected=expected,
        out_scale=out_scale,
        row_sums=row_sums,
        col_sums=col_sums,
        row_tol=checksum_tolerance(0, row_sums),
        col_tol=checksum_tolerance(0, col_sums),
        exact=True,
    )


@dataclass
class IntegrityPlan:
    """All tile checks for one lowered operation, keyed by instr label."""

    #: ``"abft"`` or ``"vote"`` (``"off"`` never constructs a plan).
    mode: str
    checks: Dict[str, TileCheck] = field(default_factory=dict)

    def add(self, check: TileCheck) -> None:
        self.checks[check.label] = check

    def pieces_for(self, labels: Iterable[str]) -> List[TileCheck]:
        """Checks covering a dispatch group's instruction labels."""
        return [self.checks[lb] for lb in labels if lb in self.checks]

    @property
    def tiles(self) -> int:
        return len(self.checks)
