"""Silent-data-corruption (SDC) defense for the GPTPU reproduction.

GPTPU targets consumer-grade Edge TPUs: no ECC anywhere on the return
path, a reverse-engineered wire protocol, and int8 payloads the runtime
(§6) trusts byte-for-byte.  The serving layer's fault tolerance covers
*fail-stop* faults only — a device that answers with **wrong** bytes is
invisible to circuit breakers.  This package closes that gap:

* :mod:`repro.integrity.abft` — Huang–Abraham-style row/column checksum
  arithmetic for the tile-GEMM path, with the tolerance derived from
  the requantization error bound (each int8 output carries at most half
  a quantum of rounding error, so a clean R×C tile's row sums deviate
  from the rescaled accumulator sums by at most ``0.5 * C``);
* :mod:`repro.integrity.plan` — the per-operation
  :class:`~repro.integrity.plan.IntegrityPlan` the Tensorizer builds at
  lowering time (expected int8 tiles, checksums, result coordinates),
  keyed by instruction label so the dispatcher can verify one dispatch
  group at a time;
* :mod:`repro.integrity.verifier` — transmit-and-verify: pushes each
  expected tile through :meth:`EdgeTPUDevice.transmit` (where armed
  corruption injectors mangle bytes), checks what comes back, and
  stages verified tiles for write-back into the delivered result;
* :mod:`repro.integrity.quarantine` — the
  :class:`~repro.integrity.quarantine.QuarantineManager` suspicion
  score: devices caught corrupting are quarantined (distinct from the
  circuit breaker), released on probation, and re-quarantined with
  exponential backoff if they re-offend.

Modes (``repro serve --integrity abft|vote|off``):

* ``abft`` — checksum verification on GEMM tiles; exact output
  checksums on other tiled ops that carry a payload;
* ``vote`` — dual-execution: a witness device transmits the same
  block and the copies are byte-compared, with ABFT checksums used to
  adjudicate disagreements when available;
* ``off`` — today's behavior, bit-identical, zero per-tile allocation.
"""

from repro.integrity.abft import (
    TOLERANCE_QUANTA,
    checksum_tolerance,
    tile_checksums,
    verify_tile,
)
from repro.integrity.plan import IntegrityPlan, TileCheck, make_exact_check, make_gemm_checks
from repro.integrity.quarantine import QuarantineManager
from repro.integrity.verifier import GroupVerdict, IntegrityVerifier, TileVerdict

#: Valid settings for the ``integrity`` knob across the stack.
INTEGRITY_MODES = ("off", "abft", "vote")

__all__ = [
    "INTEGRITY_MODES",
    "TOLERANCE_QUANTA",
    "GroupVerdict",
    "IntegrityPlan",
    "IntegrityVerifier",
    "QuarantineManager",
    "TileCheck",
    "TileVerdict",
    "checksum_tolerance",
    "make_exact_check",
    "make_gemm_checks",
    "tile_checksums",
    "verify_tile",
]
