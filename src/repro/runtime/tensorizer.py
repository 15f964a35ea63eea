"""Tensorizer: dynamic lowering of operations to Edge TPU instructions.

Implements paper §6.2 in full:

* **Mapping operators into instructions** (§6.2.1).  Pair-wise and
  element-wise operators tile into 128×128 sub-matrices; matrix-wise
  reductions (mean/max) tile into 64×64 sub-matrices with CPU-side
  aggregation; arithmetic operators (FullyConnected, conv2D) follow the
  blocking algorithm with CPU aggregation of partial products.
* **The conv2D GEMM algorithm** (§7.1.2): rows of the source matrix
  become √N×√N sub-matrices, columns of the other matrix become kernels,
  and strided conv2D produces exact matrix-multiply results.  Lives here
  because the *partitioning* (chunking + kernel batching) is Tensorizer's
  job; the user-facing entry point is :func:`repro.ops.gemm.tpu_gemm`.
* **Data transformation** (§6.2.2): per-tile (or global) input scales
  and the Eqs. 5–8 output scaling factors.
* **Fast model creation** (§6.2.3): every model is costed through the
  1.8 ms/2K² Tensorizer builder (or the 2.7 s TFLite flow when the fast
  path is disabled — the paper's motivating baseline).

Lowering executes each instruction *functionally* with exact int8
semantics (including output requantization), so accuracy results are
real; the timing metadata is replayed on the DES by the executor to
obtain the parallel timeline.

Two execution strategies produce that functional result:

* the **scalar path** (``TensorizerOptions.vectorized=False``) dispatches
  one Python/scratch-device call per tile — the reference oracle;
* the **vectorized path** (the default) stacks all same-shape tiles of
  an operand into one ``(n_tiles, t, t)`` array and runs each lowering
  rule as a handful of batched NumPy kernels (see
  ``docs/performance.md``).  Both paths emit byte-for-byte identical
  ``LoweredInstr`` streams and bit-identical results; the property tests
  in ``tests/runtime/test_vectorized_equivalence.py`` enforce it.
"""

from __future__ import annotations

import functools
import math
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.config import EdgeTPUConfig
from repro.errors import QuantizationError, TensorizerError
from repro.edgetpu import functional
from repro.edgetpu.device import EdgeTPUDevice
from repro.edgetpu.isa import Instruction, Opcode
from repro.edgetpu.model_format import HEADER_SIZE
from repro.edgetpu.quantize import (
    QMAX,
    QMIN,
    QuantParams,
    batch_max_abs,
    data_range,
    dequantize_batched,
    output_quant_params,
    params_for_range,
    quantize,
    quantize_batched,
    requantize_batched,
    scale_for_range,
    scales_for_ranges,
)
from repro.edgetpu.timing import TimingModel
from repro.host.cpu import CPUCoreModel
from repro.integrity.plan import IntegrityPlan, make_exact_check, make_gemm_checks
from repro.plan.cache import PlanCache, plan_signature
from repro.plan.compiled import (
    KIND_GEMM,
    MODEL_SRC_TOKEN,
    SRC_TOKEN,
    TASK_TOKEN,
    CompiledPlan,
    GemmGeometry,
    InstrTemplate,
    IntegrityTemplate,
    model_block_for,
)
from repro.runtime.opqueue import (
    LoweredInstr,
    LoweredOperation,
    OperationRequest,
    QuantMode,
)
from repro.runtime.tiling import (
    fill_padding,
    grid_shape,
    iter_tiles,
    scatter_tiles,
    stack_tiles,
    tile_sizes,
)
from repro.telemetry import SpanTracer, get_tracer

#: Serialized-model overhead beyond the data section (§3.3 header + metadata).
MODEL_OVERHEAD_BYTES = HEADER_SIZE + 12

#: Quant-param memo bound; ranges seen per run are few (repeated chunks,
#: iterative apps), but pathological streams must not grow without bound.
_QUANT_CACHE_MAX = 65536

#: Float64 copies of non-float64 GEMM model operands kept across calls
#: (serving reuses a handful of weight matrices).
_MODEL_COPY_SLOTS = 16

#: Memoized scratch-view sets (one per group shape; a few small objects).
_GEMM_VIEW_SLOTS = 256

#: Byte budget of one conv2D-GEMM row block (float64 strip).  Serving
#: groups fit in one block — one set of NumPy calls per group — while a
#: large GEMM is processed in whole-chunk blocks that stay cache-resident.
_GEMM_BLOCK_BYTES = 1 << 20


def _scale_for_extrema(hi: float, lo: float) -> float:
    """Quantization scale of data whose maximum is *hi* and minimum *lo*.

    ``max|x| == max(max, -min)``; a NaN anywhere makes both reductions
    NaN and ±inf survives negation, so the fold catches non-finite data.
    """
    max_abs = max(hi, -lo)
    if not math.isfinite(max_abs):
        raise QuantizationError("data contains non-finite values")
    return scale_for_range(max_abs)


def _segments(sizes: np.ndarray, even: bool):
    """``(split, repeat, onehot)`` of consecutive segments of *sizes*.

    Equal segments split an axis as (segments, size), so a per-segment
    factor broadcasts as a scalar; unequal ones as (elements, 1), with
    factors repeated per element.  Integer data times the (elements,
    segments) ``onehot`` sums each segment exactly, on BLAS.
    """
    split = (len(sizes), int(sizes[0])) if even else (int(sizes.sum()), 1)
    ids = np.arange(len(sizes))
    onehot = (ids.repeat(sizes)[:, None] == ids).astype(np.float64)
    return split, None if even else sizes, onehot


def _spread(factors: np.ndarray, blk: "_RowBlock", lay: "_GemmLayout") -> np.ndarray:
    """Per-piece ``(chunks, batches)`` factors broadcastable against a row
    block viewed as ``blk.split + lay.split``."""
    if lay.repeat is not None:
        factors = factors.repeat(lay.repeat, axis=1)
    if blk.repeat is not None:
        factors = factors.repeat(blk.repeat, axis=0)
    return factors[:, None, :, None]


def _extrema(view: np.ndarray, blk: "_RowBlock", col_cuts) -> Tuple[np.ndarray, np.ndarray]:
    """Per-piece (max, min) of a row block viewed as ``blk.split + (batches,
    cols)``.  Max and min are exact in any order, so the pieces reduce
    through the fastest view; an unevenly split axis (one element per
    segment) is then folded per segment."""
    if view.shape[2] == 1:
        hi, lo = view.max(axis=(1, 3)), view.min(axis=(1, 3))
    else:
        hi, lo = view.max(axis=1).max(axis=2), view.min(axis=1).min(axis=2)
    if col_cuts is not None:
        hi = np.maximum.reduceat(hi, col_cuts, axis=1)
        lo = np.minimum.reduceat(lo, col_cuts, axis=1)
    if blk.repeat is not None:
        hi, lo = np.maximum.reduceat(hi, blk.local), np.minimum.reduceat(lo, blk.local)
    return hi, lo


class _RowBlock(NamedTuple):
    """Whole chunks ``[g0, g1)`` of a GEMM group: stacked rows ``[r0, r1)``."""

    g0: int
    g1: int
    r0: int
    r1: int
    local: np.ndarray  # chunk starts relative to r0
    heights: np.ndarray
    split: Tuple[int, int]  # _segments of the chunks; onehot is (chunks, rows)
    repeat: Optional[np.ndarray]
    onehot: np.ndarray
    pieces: list  # (label, rows, cols) per (chunk, batch) piece
    owners: list  # member index per piece


class _GemmLayout:
    """Shape-only facts of lowering one GEMM group: the chunk table over
    the stacked rows, the row blocks and the piece labels."""

    def __init__(self, n_req: int, m: int, n: int, k: int, h: int, batch: int) -> None:
        chunk_starts = np.arange(0, m, h)
        chunk_heights = np.minimum(h, m - chunk_starts)
        self.col_starts = np.arange(0, k, batch)
        self.widths = np.minimum(batch, k - self.col_starts)
        self.n_rows, self.n_cols = len(chunk_starts), len(self.col_starts)
        self.split, self.repeat, self.onehot = _segments(
            self.widths, k % batch == 0 or self.n_cols == 1
        )
        self.col_cuts = None if self.repeat is None else self.col_starts
        labels = [
            [
                (f"convGEMM:r{c0}:k{j0}", (c0, c0 + hh), (j0, j0 + w))
                for j0, w in zip(self.col_starts.tolist(), self.widths.tolist())
            ]
            for c0, hh in zip(chunk_starts.tolist(), chunk_heights.tolist())
        ]
        self.labels = [piece for row in labels for piece in row]
        # Chunk g of the stack is member g // n_rows's chunk g % n_rows.
        starts = (np.arange(0, n_req * m, m)[:, None] + chunk_starts).ravel()
        heights = np.tile(chunk_heights, n_req)
        bounds = starts.tolist() + [n_req * m]
        per_block = max(1, _GEMM_BLOCK_BYTES // (8 * h * max(n, k)))
        self.blocks = []
        for g0 in range(0, len(starts), per_block):
            g1 = min(g0 + per_block, len(starts))
            split, repeat, onehot = _segments(heights[g0:g1], m % h == 0 or g1 - g0 == 1)
            self.blocks.append(_RowBlock(
                g0, g1, bounds[g0], bounds[g1], starts[g0:g1] - bounds[g0],
                heights[g0:g1], split, repeat, np.ascontiguousarray(onehot.T),
                pieces=[p for g in range(g0, g1) for p in labels[g % self.n_rows]],
                owners=[g // self.n_rows for g in range(g0, g1) for _ in labels[0]],
            ))
        #: Elements of the float64 strip one row block needs.
        self.strip_elems = max(blk.r1 - blk.r0 for blk in self.blocks) * max(n, k)


@functools.lru_cache(maxsize=256)
def _gemm_layout(n_req: int, m: int, n: int, k: int, h: int, batch: int) -> _GemmLayout:
    """Memoized :class:`_GemmLayout`: a serving mix meets each (group
    size, shape) pair it coalesces over and over."""
    return _GemmLayout(n_req, m, n, k, h, batch)


@dataclass(frozen=True)
class TensorizerOptions:
    """Tunable lowering policy (ablation knobs)."""

    #: Optimal sub-matrix edge for arithmetic/pairwise instructions
    #: (§6.2.1 / §3.3: 128×128).
    arithmetic_tile: int = 128
    #: Optimal sub-matrix edge for mean/max (§6.2.1: 64×64).
    reduction_tile: int = 64
    #: Use the §6.2.3 fast model builder; False falls back to the stock
    #: TFLite compile cost (the paper's 1500×-slower baseline).
    fast_model_builder: bool = True
    #: Batch several GEMM kernels (output channels) into one conv2D
    #: instruction, filling the 128² result tile.  Disabling emits one
    #: instruction per kernel, as §7.1.2 describes literally.
    kernel_batching: bool = True
    #: How output quantization scales are chosen (§6.2.2):
    #: "measured" instantiates Eq. 4 with the sampled/true output extreme
    #: (Tensorizer "dynamically evaluates input data"); "formula" applies
    #: the closed-form worst cases of Eqs. 5-8 literally (ablation — far
    #: looser, so quantization error grows on non-uniform data).
    scaling_rule: str = "measured"
    #: Upper bound on a resident GEMM data chunk (leaves room for models
    #: and output buffers in the 8 MB on-chip memory).
    max_chunk_bytes: int = 2 * 1024 * 1024
    #: Minimum number of row chunks a GEMM is split into, so small
    #: problems still expose parallelism to multiple TPUs.
    min_gemm_chunks: int = 32
    #: Lower tiles through the batched NumPy kernels (one dispatch per
    #: operand stack) instead of one scratch-device call per tile.  Both
    #: paths are bit-identical; False keeps the scalar reference oracle.
    vectorized: bool = True
    #: Silent-data-corruption defense (:mod:`repro.integrity`): "off"
    #: builds nothing (bit-identical, allocation-free); "abft" records
    #: Huang–Abraham row/column checksums for GEMM pieces (plus exact
    #: output checksums for pairwise tiles); "vote" records the same
    #: plans for dual-device cross-checking at dispatch.  Requires the
    #: vectorized path.
    integrity: str = "off"


@dataclass
class TensorizerStats:
    """Lifetime counters for one Tensorizer instance."""

    operations_lowered: int = 0
    instructions_emitted: int = 0
    models_built: int = 0
    model_build_seconds: float = 0.0
    saturated_values: int = 0
    #: Tiles (or GEMM chunk×kernel-batch pieces) processed by lowering.
    tiles_lowered: int = 0
    #: Batched NumPy kernel invocations on stacked tiles (vectorized path).
    batched_dispatches: int = 0
    #: Per-tile scratch executions / per-piece loop bodies (scalar path).
    scalar_dispatches: int = 0
    #: Quant-param memo hits/misses (per-(range) QuantParams reuse).
    quant_cache_hits: int = 0
    quant_cache_misses: int = 0
    #: Operations lowered through :meth:`Tensorizer.lower_gemm_coalesced`
    #: (multi-client GEMMs that shared one batched dispatch).
    coalesced_operations: int = 0
    #: Integrity plans attached to lowered operations (SDC defense).
    integrity_plans: int = 0
    #: Tile checks (expected tile + checksums) recorded across plans.
    integrity_tiles_planned: int = 0
    #: Compiled plans captured into the plan cache (misses that lowered
    #: fresh and stored their outcome).
    plan_captures: int = 0
    #: Operations replayed from a cached plan (warm binds; a coalesced
    #: group counts one per member request).
    plan_replays: int = 0


class Tensorizer:
    """Lowers :class:`OperationRequest` entries into instruction streams."""

    def __init__(
        self,
        tpu_config: Optional[EdgeTPUConfig] = None,
        options: Optional[TensorizerOptions] = None,
        cpu: Optional[CPUCoreModel] = None,
        tracer: Optional["SpanTracer"] = None,
        plan_cache: Optional[PlanCache] = None,
    ) -> None:
        self.tpu_config = tpu_config or EdgeTPUConfig()
        self.options = options or TensorizerOptions()
        self.cpu = cpu or CPUCoreModel()
        self.timing = TimingModel(self.tpu_config)
        if self.options.scaling_rule not in ("measured", "formula"):
            raise TensorizerError(
                f"unknown scaling_rule {self.options.scaling_rule!r}; "
                "choose 'measured' or 'formula'"
            )
        if self.options.integrity not in ("off", "abft", "vote"):
            raise TensorizerError(
                f"unknown integrity mode {self.options.integrity!r}; "
                "choose 'off', 'abft' or 'vote'"
            )
        if self.options.integrity != "off" and not self.options.vectorized:
            raise TensorizerError(
                "integrity checking requires the vectorized lowering path "
                "(the scalar path is the bit-identity oracle and stays plan-free)"
            )
        self._scratch = EdgeTPUDevice("tensorizer-scratch", self.tpu_config, self.timing)
        self.stats = TensorizerStats()
        self._tracer = tracer if tracer is not None else get_tracer()
        self._op_seq = 0
        self._quant_cache: "OrderedDict[float, QuantParams]" = OrderedDict()
        self._quant_cache_max = _QUANT_CACHE_MAX
        self._global_params: Optional[QuantParams] = None
        # AOT compiled-plan cache (opt-in).  None keeps the legacy
        # lower-every-time path — including its per-call model-build
        # accounting, which several tests and the ablation CLI pin.
        self.plan_cache = plan_cache
        if plan_cache is not None and not self.options.vectorized:
            raise TensorizerError(
                "the plan cache requires the vectorized lowering path "
                "(the scalar path is the bit-identity oracle and stays plan-free)"
            )
        # True while re-running a lowering rule under a cached plan;
        # model builds then bind at zero cost without touching stats.
        self._replaying = False
        # Grow-only conv2D-GEMM scratch pools: name -> flat array.
        self._gemm_scratch: Dict[str, np.ndarray] = {}
        self._gemm_views: Dict[tuple, dict] = {}
        # id(source) -> (weakref to source, snapshot, float64 copy).
        self._model_copies: "OrderedDict[int, tuple]" = OrderedDict()

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------

    def lower(self, request: OperationRequest) -> LoweredOperation:
        """Lower one OPQ entry into instructions plus its exact result."""
        tracer = self._tracer
        if not tracer.enabled:
            return self._lower_impl(request)
        with tracer.span(
            f"lower:{request.opcode.opname}",
            cat="lower",
            track="tensorizer",
            task_id=request.task_id,
        ) as sp:
            lowered = self._lower_impl(request)
            sp.add_device_seconds(lowered.total_exec_seconds)
            sp.set(instructions=lowered.instruction_count)
            return lowered

    def _lower_impl(self, request: OperationRequest) -> LoweredOperation:
        gemm = request.opcode is Opcode.CONV2D and request.attrs.get("gemm", False)
        if gemm:
            self._share_model_operands([request])
        self._normalize_inputs(request)
        self._global_params = None  # per-operation GLOBAL-params memo
        cache = self.plan_cache
        if cache is None or not self.options.vectorized or gemm or request.opcode.is_macro:
            # conv2D-GEMM consults the cache inside its own rule (it has
            # a dedicated fast-replay path reusing the quantized model);
            # macro ops (conv2D_nn) delegate to that same self-planning
            # GEMM path after im2col; every other vectorized rule
            # replays generically below.
            lowered = self._dispatch_rule(request)
        else:
            lowered = self._lower_generic_planned(request, cache)
        self.stats.operations_lowered += 1
        self.stats.instructions_emitted += lowered.instruction_count
        self.stats.saturated_values += lowered.saturated
        self._op_seq += 1
        return lowered

    def _lower_generic_planned(
        self, request: OperationRequest, cache: PlanCache
    ) -> LoweredOperation:
        """Plan capture/replay for every rule without a dedicated path.

        A miss runs the rule as usual and freezes its instruction stream
        into a plan; a hit re-runs the same rule under ``_replaying``, so
        the §6.2.3 model builds — already accounted at capture — bind at
        zero cost, and the emitted stream is validated against the plan.
        Results are bit-identical either way: the rule's arithmetic is
        a pure function of the request.
        """
        signature = plan_signature(request, self.options, self.tpu_config)
        plan = cache.get(signature)
        tracer = self._tracer
        if plan is None:
            tracer.instant(
                "plan_miss", cat="plan", track="tensorizer", op=request.opcode.opname
            )
            lowered = self._dispatch_rule(request)
            cache.put(signature, self._capture_generic(signature, request, lowered))
            self.stats.plan_captures += 1
            return lowered
        tracer.instant(
            "plan_hit", cat="plan", track="tensorizer", op=request.opcode.opname
        )
        sp = tracer.begin(
            "plan_bind", cat="plan", track="tensorizer", op=request.opcode.opname
        )
        self._replaying = True
        try:
            lowered = self._dispatch_rule(request)
        finally:
            self._replaying = False
            tracer.end(sp)
        if len(lowered.instrs) != len(plan.templates):
            raise TensorizerError(
                f"cached plan for {request.opcode.opname} records "
                f"{len(plan.templates)} instruction templates but replay "
                f"emitted {len(lowered.instrs)}"
            )
        plan.replays += 1
        cache.note_bind()
        self.stats.plan_replays += 1
        return lowered

    def _capture_generic(
        self, signature: str, request: OperationRequest, lowered: LoweredOperation
    ) -> CompiledPlan:
        """Freeze a just-lowered operation's stream into a generic plan."""
        templates = [
            InstrTemplate(
                opname=i.opcode.opname,
                label=i.label,
                group_key=i.group_key,
                cache_key=i.cache_key,
                model_cache_key=i.model_cache_key,
                data_bytes=i.data_bytes,
                model_bytes=i.model_bytes,
                out_bytes=i.out_bytes,
                count=i.count,
                model_build_seconds=i.model_build_seconds,
                exec_seconds=i.exec_seconds,
            )
            for i in lowered.instrs
        ]
        integ = lowered.integrity
        checks = (
            [
                IntegrityTemplate(label=c.label, rows=c.rows, cols=c.cols)
                for c in integ.checks.values()
            ]
            if integ is not None
            else []
        )
        return CompiledPlan(
            signature=signature,
            kind="generic",
            opname=request.opcode.opname,
            cpu_seconds=lowered.cpu_seconds,
            templates=templates,
            integrity_mode=integ.mode if integ is not None else "off",
            integrity=checks,
        )

    def _dispatch_rule(self, request: OperationRequest) -> LoweredOperation:
        op = request.opcode
        vec = self.options.vectorized
        if op.is_pairwise:
            lowered = (
                self._lower_pairwise_batched(request)
                if vec
                else self._lower_pairwise_scalar(request)
            )
        elif op.is_elementwise_unary:
            lowered = (
                self._lower_unary_batched(request)
                if vec
                else self._lower_unary_scalar(request)
            )
        elif op.is_reduction:
            lowered = (
                self._lower_reduction_batched(request)
                if vec
                else self._lower_reduction_scalar(request)
            )
        elif op is Opcode.FULLY_CONNECTED:
            data = request.inputs[0]
            if data.ndim == 1:
                lowered = (
                    self._lower_matvec_batched(request)
                    if vec
                    else self._lower_matvec_scalar(request)
                )
            else:
                lowered = (
                    self._lower_gemm_fc_batched(request)
                    if vec
                    else self._lower_gemm_fc_scalar(request)
                )
        elif op is Opcode.CONV2D:
            if request.attrs.get("gemm", False):
                lowered = (
                    self._lower_gemm_conv2d_batched(request)
                    if vec
                    else self._lower_gemm_conv2d_scalar(request)
                )
            else:
                lowered = self._lower_conv2d_stencil(request)
        elif op is Opcode.CROP:
            lowered = self._lower_crop(request)
        elif op is Opcode.EXT:
            lowered = self._lower_ext(request)
        elif op is Opcode.CONV2D_NN:
            lowered = self._lower_conv2d_nn(request)
        elif op is Opcode.POOL:
            lowered = (
                self._lower_pool_batched(request)
                if vec
                else self._lower_pool_scalar(request)
            )
        elif op is Opcode.SOFTMAX:
            lowered = (
                self._lower_softmax_batched(request)
                if vec
                else self._lower_softmax_scalar(request)
            )
        else:  # pragma: no cover - all opcodes handled above
            raise TensorizerError(f"no lowering rule for {op!r}")
        return lowered

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _normalize_inputs(request: OperationRequest) -> None:
        """Convert operands to C-contiguous float64 exactly once.

        Every lowering rule (and, in GLOBAL mode, every per-tile range
        scan) used to re-run ``np.asarray(x, dtype=np.float64)`` on the
        full operands; converting up front makes all later ``asarray``
        calls free and keeps tile slices views of one buffer.
        """
        request.inputs = tuple(
            np.ascontiguousarray(x, dtype=np.float64) for x in request.inputs
        )
        for arr in request.inputs:
            assert arr.flags.c_contiguous, "normalized operand must be C-contiguous"

    def _share_model_operands(self, requests: Sequence[OperationRequest]) -> None:
        """Give conv2D-GEMMs one float64 model operand per source array.

        Serving multiplies many requests by a few (often float32) weight
        matrices.  Normalizing B per request converted it every time, and
        the fresh copy never matched a cached plan's model block by
        identity, so every warm bind hashed B again.  The copy of an array
        that owns its data is reused while the array still holds the
        values it was made from (checked exactly against a snapshot, once
        per call and source), and is held by weak reference, so no
        caller's array is kept alive.  Views, such as shared-memory ring
        slots, are fresh per request: they are only converted, once per
        group.
        """
        copies, seen = self._model_copies, {}
        for request in requests:
            b = request.inputs[1] if len(request.inputs) == 2 else None
            if not isinstance(b, np.ndarray) or (b.dtype == np.float64 and b.flags.c_contiguous):
                continue  # nothing to convert
            if id(b) not in seen:
                hit = copies.get(id(b))
                if hit is not None and hit[0]() is b and np.array_equal(b, hit[1]):
                    copies.move_to_end(id(b))
                    seen[id(b)] = hit[2]
                else:
                    seen[id(b)] = np.ascontiguousarray(b, dtype=np.float64)
                    if b.flags.owndata:
                        copies[id(b)] = (weakref.ref(b), b.copy(), seen[id(b)])
                        if len(copies) > _MODEL_COPY_SLOTS:
                            copies.popitem(last=False)
            request.inputs = (request.inputs[0], seen[id(b)])

    def _model_build_seconds(self, elems: int) -> float:
        """Cost of creating one model blob (fast path or TFLite)."""
        if self._replaying:
            # AOT replay: the model was built — and its cost accounted —
            # once, at plan capture.  The warm bind ships it for free.
            return 0.0
        if self.options.fast_model_builder:
            seconds = self.timing.tensorizer_build_seconds(elems)
        else:
            seconds = self.timing.tflite_compile_seconds(elems)
        self.stats.models_built += 1
        self.stats.model_build_seconds += seconds
        return seconds

    @staticmethod
    def _model_bytes(elems: int) -> int:
        """Serialized size of a model with *elems* int8 weights."""
        return elems + MODEL_OVERHEAD_BYTES

    def _params_for_range(self, max_abs: float) -> QuantParams:
        """Memoized :func:`params_for_range` (per-range QuantParams).

        Iterative apps (PageRank power iterations, backprop epochs)
        re-lower chunks with recurring value ranges; the memo returns
        the previously built params instead of recomputing them.

        The memo is a true LRU: at capacity it evicts the single
        least-recently-used entry rather than dropping the whole table
        (which caused a full miss storm exactly when the cache was
        hottest).  Keys are canonicalized floats: ``-0.0`` folds into
        ``0.0`` and NaN is rejected up front — a NaN key can never hit
        (NaN != NaN), so admitting them grew the table without bound.
        """
        key = float(max_abs) + 0.0  # -0.0 + 0.0 == +0.0
        if math.isnan(key):
            raise QuantizationError("cannot derive quantization parameters from NaN range")
        hit = self._quant_cache.get(key)
        if hit is not None:
            self.stats.quant_cache_hits += 1
            self._quant_cache.move_to_end(key)
            return hit
        self.stats.quant_cache_misses += 1
        params = params_for_range(key)
        if len(self._quant_cache) >= self._quant_cache_max:
            self._quant_cache.popitem(last=False)
        self._quant_cache[key] = params
        return params

    def _params_for_data(self, data: np.ndarray) -> QuantParams:
        """:func:`params_for_data` routed through the per-range memo."""
        if data.size == 0:
            raise QuantizationError("cannot derive quantization parameters from empty data")
        if not np.all(np.isfinite(data)):
            raise QuantizationError("data contains non-finite values")
        return self._params_for_range(float(np.max(np.abs(data))))

    def _input_params(self, request: OperationRequest, *tiles: np.ndarray) -> QuantParams:
        """Input quantization: per-tile (SCALE) or whole-dataset (GLOBAL)."""
        if request.quant is QuantMode.GLOBAL:
            if self._global_params is None:
                lo, hi = data_range(*request.inputs)
                self._global_params = self._params_for_range(max(abs(lo), abs(hi)))
            return self._global_params
        lo, hi = data_range(*tiles)
        return self._params_for_range(max(abs(lo), abs(hi)))

    def _input_scales(self, request: OperationRequest, stacked: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_input_params`: one scale per stacked tile.

        Zero padding in the stack cannot change a tile's ``max |x|``, so
        scales match the scalar per-tile (unpadded) computation exactly.
        """
        if request.quant is QuantMode.GLOBAL:
            return np.full(stacked.shape[0], self._input_params(request).scale)
        return scales_for_ranges(batch_max_abs(stacked))

    def _output_params(
        self, opname: str, measured_bound: float, lo: float, hi: float, n: int = 1
    ) -> QuantParams:
        """Output scale per §6.2.2: measured Eq. 4 bound or Eqs. 5-8."""
        if self.options.scaling_rule == "measured" and measured_bound > 0:
            return self._params_for_range(measured_bound * 1.05)
        return output_quant_params(opname, lo, hi, n)

    def _output_scales(
        self,
        opname: str,
        measured: np.ndarray,
        lo: float,
        hi: float,
        ns: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`_output_params`: one output scale per tile.

        ``ns`` broadcasts against ``measured``; the Eqs. 5-8 fallback is
        evaluated once per distinct inner dimension.
        """
        measured = np.asarray(measured, dtype=np.float64)
        ns_arr = np.broadcast_to(np.asarray(ns, dtype=np.int64), measured.shape)
        fallback = np.empty_like(measured)
        for n in np.unique(ns_arr):
            fallback[ns_arr == n] = output_quant_params(opname, lo, hi, int(n)).scale
        if self.options.scaling_rule != "measured":
            return fallback
        meas_scales = scales_for_ranges(measured * 1.05)
        return np.where(measured > 0, meas_scales, fallback)

    def _require_2d_pair(self, request: OperationRequest) -> Tuple[np.ndarray, np.ndarray]:
        if len(request.inputs) != 2:
            raise TensorizerError(f"{request.opcode.opname} needs two inputs")
        a, b = request.inputs  # normalized to float64 by lower()
        if a.ndim != 2 or b.ndim != 2:
            raise TensorizerError(
                f"{request.opcode.opname} operates on 2-D matrices, got {a.shape} and {b.shape}"
            )
        return a, b

    # ------------------------------------------------------------------
    # pair-wise operators: add / sub / mul (§6.2.1 rule 1)
    # ------------------------------------------------------------------

    def _lower_pairwise_scalar(self, request: OperationRequest) -> LoweredOperation:
        a, b = self._require_2d_pair(request)
        if a.shape != b.shape:
            raise TensorizerError(f"pairwise shapes differ: {a.shape} vs {b.shape}")
        op = request.opcode
        tile = self.options.arithmetic_tile
        lo, hi = data_range(a, b)
        # Optional on-chip residency for the first operand when the
        # caller marks it stable across calls (e.g. Black-Scholes keeps
        # the option grid resident through the Horner recurrence).
        data_name = str(request.attrs.get("data_name", ""))
        result = np.empty_like(a)
        instrs: List[LoweredInstr] = []
        saturated = 0
        float_op = {Opcode.ADD: np.add, Opcode.SUB: np.subtract, Opcode.MUL: np.multiply}[op]
        for t in iter_tiles(a.shape, tile):
            ta = a[t.rows, t.cols]
            tb = b[t.rows, t.cols]
            if op is Opcode.MUL:
                pa = self._input_params(request, ta)
                pb = self._input_params(request, tb)
            else:
                # add/sub share one scale so integer addition is aligned.
                pa = pb = self._input_params(request, ta, tb)
            measured = float(np.abs(float_op(ta, tb)).max())
            out_params = self._output_params(op.opname, measured, lo, hi)
            instr = Instruction(
                op,
                quantize(ta, pa),
                pa,
                model=quantize(tb, pb),
                model_params=pb,
                out_params=out_params,
                task_id=request.task_id,
            )
            execd = self._scratch.execute(instr)
            self.stats.tiles_lowered += 1
            self.stats.scalar_dispatches += 1
            saturated += execd.saturated
            result[t.rows, t.cols] = execd.dequantized()
            elems = ta.size
            instrs.append(
                LoweredInstr(
                    opcode=op,
                    task_id=request.task_id,
                    group_key="",
                    cache_key=f"{data_name}:t{t.index}" if data_name else "",
                    data_bytes=elems,
                    model_bytes=self._model_bytes(elems),
                    model_build_seconds=self._model_build_seconds(elems),
                    exec_seconds=execd.seconds,
                    out_bytes=elems,
                    label=f"{op.opname}@{t.index}",
                )
            )
        return LoweredOperation(request, instrs, result, saturated=saturated)

    def _lower_pairwise_batched(self, request: OperationRequest) -> LoweredOperation:
        a, b = self._require_2d_pair(request)
        if a.shape != b.shape:
            raise TensorizerError(f"pairwise shapes differ: {a.shape} vs {b.shape}")
        op = request.opcode
        tile = self.options.arithmetic_tile
        lo, hi = data_range(a, b)
        data_name = str(request.attrs.get("data_name", ""))
        float_op = {Opcode.ADD: np.add, Opcode.SUB: np.subtract, Opcode.MUL: np.multiply}[op]

        sa, tiles = stack_tiles(a, tile)
        sb, _ = stack_tiles(b, tile)
        sizes = tile_sizes(tiles)
        # Input scales (§6.2.2): padding zeros cannot change a max |x|.
        if request.quant is QuantMode.GLOBAL:
            a_scales = b_scales = self._input_scales(request, sa)
        elif op is Opcode.MUL:
            a_scales = scales_for_ranges(batch_max_abs(sa))
            b_scales = scales_for_ranges(batch_max_abs(sb))
        else:
            # add/sub share one scale so integer addition is aligned.
            a_scales = b_scales = scales_for_ranges(
                np.maximum(batch_max_abs(sa), batch_max_abs(sb))
            )
        # Measured Eq. 4 bound on the raw (pre-quantization) outputs;
        # op(0, 0) == 0 for add/sub/mul, so padding never wins the max.
        measured = np.abs(float_op(sa, sb)).max(axis=(1, 2))
        out_scales = self._output_scales(op.opname, measured, lo, hi, np.int64(1))

        qa = quantize_batched(sa, a_scales, assume_finite=True)
        qb = quantize_batched(sb, b_scales, assume_finite=True)
        batched = functional.pairwise_batched(op, qa, qb, a_scales, b_scales, sizes)
        q_out, saturated = requantize_batched(batched.acc, batched.acc_scales, out_scales)
        result = scatter_tiles(dequantize_batched(q_out, out_scales), a.shape, tile)
        self.stats.tiles_lowered += len(tiles)
        self.stats.batched_dispatches += 1

        # Pairwise ops have no linear accumulator structure for ABFT, so
        # their plan carries exact post-requantization checksums (and,
        # under "vote", the payload for dual-device byte comparison).
        plan = (
            IntegrityPlan(mode=self.options.integrity)
            if self.options.integrity != "off"
            else None
        )
        instrs: List[LoweredInstr] = []
        for i, t in enumerate(tiles):
            elems = int(sizes[i])
            instrs.append(
                LoweredInstr(
                    opcode=op,
                    task_id=request.task_id,
                    group_key="",
                    cache_key=f"{data_name}:t{t.index}" if data_name else "",
                    data_bytes=elems,
                    model_bytes=self._model_bytes(elems),
                    model_build_seconds=self._model_build_seconds(elems),
                    exec_seconds=self.timing.instruction_seconds(
                        op, elems, int(batched.macs[i])
                    ),
                    out_bytes=elems,
                    label=f"{op.opname}@{t.index}",
                )
            )
            if plan is not None:
                h, w = t.shape()
                plan.add(make_exact_check(
                    label=f"{op.opname}@{t.index}",
                    rows=(t.rows.start, t.rows.stop),
                    cols=(t.cols.start, t.cols.stop),
                    q=q_out[i, :h, :w],
                    out_scale=float(out_scales[i]),
                ))
        if plan is not None:
            self.stats.integrity_plans += 1
            self.stats.integrity_tiles_planned += plan.tiles
        return LoweredOperation(request, instrs, result, saturated=saturated, integrity=plan)

    # ------------------------------------------------------------------
    # element-wise unary operators: tanh / ReLu (§6.2.1 rule 1)
    # ------------------------------------------------------------------

    def _lower_unary_scalar(self, request: OperationRequest) -> LoweredOperation:
        if len(request.inputs) != 1:
            raise TensorizerError(f"{request.opcode.opname} takes one input")
        a = request.inputs[0]
        if a.ndim != 2:
            raise TensorizerError(f"{request.opcode.opname} operates on a 2-D matrix")
        op = request.opcode
        tile = self.options.arithmetic_tile
        result = np.empty_like(a)
        instrs: List[LoweredInstr] = []
        saturated = 0
        for t in iter_tiles(a.shape, tile):
            ta = a[t.rows, t.cols]
            pa = self._input_params(request, ta)
            instr = Instruction(op, quantize(ta, pa), pa, task_id=request.task_id)
            execd = self._scratch.execute(instr)
            self.stats.tiles_lowered += 1
            self.stats.scalar_dispatches += 1
            saturated += execd.saturated
            result[t.rows, t.cols] = execd.dequantized()
            instrs.append(
                LoweredInstr(
                    opcode=op,
                    task_id=request.task_id,
                    group_key="",
                    cache_key="",
                    data_bytes=ta.size,
                    model_bytes=0,
                    model_build_seconds=0.0,
                    exec_seconds=execd.seconds,
                    out_bytes=ta.size,
                    label=f"{op.opname}@{t.index}",
                )
            )
        return LoweredOperation(request, instrs, result, saturated=saturated)

    def _lower_unary_batched(self, request: OperationRequest) -> LoweredOperation:
        if len(request.inputs) != 1:
            raise TensorizerError(f"{request.opcode.opname} takes one input")
        a = request.inputs[0]
        if a.ndim != 2:
            raise TensorizerError(f"{request.opcode.opname} operates on a 2-D matrix")
        op = request.opcode
        tile = self.options.arithmetic_tile

        sa, tiles = stack_tiles(a, tile)
        sizes = tile_sizes(tiles)
        scales = self._input_scales(request, sa)
        qa = quantize_batched(sa, scales, assume_finite=True)
        if op is Opcode.TANH:
            batched = functional.tanh_batched(qa, scales)
        else:
            batched = functional.relu_batched(qa, scales)
        # The device requantizes these ops losslessly at the accumulator
        # scale (out/acc == 1.0 exactly), mirroring its default out_params.
        q_out, saturated = requantize_batched(
            batched.acc, batched.acc_scales, batched.acc_scales
        )
        result = scatter_tiles(
            dequantize_batched(q_out, batched.acc_scales), a.shape, tile
        )
        self.stats.tiles_lowered += len(tiles)
        self.stats.batched_dispatches += 1

        instrs: List[LoweredInstr] = []
        for i, t in enumerate(tiles):
            elems = int(sizes[i])
            instrs.append(
                LoweredInstr(
                    opcode=op,
                    task_id=request.task_id,
                    group_key="",
                    cache_key="",
                    data_bytes=elems,
                    model_bytes=0,
                    model_build_seconds=0.0,
                    exec_seconds=self.timing.instruction_seconds(
                        op, elems, int(batched.macs[i])
                    ),
                    out_bytes=elems,
                    label=f"{op.opname}@{t.index}",
                )
            )
        return LoweredOperation(request, instrs, result, saturated=saturated)

    # ------------------------------------------------------------------
    # matrix-wise reductions: mean / max (§6.2.1 rule 2)
    # ------------------------------------------------------------------

    def _lower_reduction_scalar(self, request: OperationRequest) -> LoweredOperation:
        if len(request.inputs) != 1:
            raise TensorizerError(f"{request.opcode.opname} takes one input")
        a = request.inputs[0]
        if a.ndim != 2:
            raise TensorizerError(f"{request.opcode.opname} operates on a 2-D matrix")
        op = request.opcode
        tile = self.options.reduction_tile
        instrs: List[LoweredInstr] = []
        partials: List[float] = []
        weights: List[int] = []
        for t in iter_tiles(a.shape, tile):
            ta = a[t.rows, t.cols]
            pa = self._input_params(request, ta)
            instr = Instruction(op, quantize(ta, pa), pa, task_id=request.task_id)
            execd = self._scratch.execute(instr)
            self.stats.tiles_lowered += 1
            self.stats.scalar_dispatches += 1
            partials.append(float(execd.dequantized()[0, 0]))
            weights.append(ta.size)
            instrs.append(
                LoweredInstr(
                    opcode=op,
                    task_id=request.task_id,
                    group_key="",
                    cache_key="",
                    data_bytes=ta.size,
                    model_bytes=0,
                    model_build_seconds=0.0,
                    exec_seconds=execd.seconds,
                    out_bytes=1,
                    label=f"{op.opname}@{t.index}",
                )
            )
        # §6.2.1: "Tensorizer will additionally generate CPU code to
        # aggregate the received values" — the TPU round already shrank
        # the data by 4096x, so CPU aggregation is the cheap choice.
        if op is Opcode.MEAN:
            value = float(np.average(partials, weights=weights))
        else:
            value = float(np.max(partials))
        cpu_seconds = self.cpu.aggregate_seconds(len(partials))
        return LoweredOperation(
            request, instrs, np.array(value), cpu_seconds=cpu_seconds
        )

    def _lower_reduction_batched(self, request: OperationRequest) -> LoweredOperation:
        if len(request.inputs) != 1:
            raise TensorizerError(f"{request.opcode.opname} takes one input")
        a = request.inputs[0]
        if a.ndim != 2:
            raise TensorizerError(f"{request.opcode.opname} operates on a 2-D matrix")
        op = request.opcode
        tile = self.options.reduction_tile

        sa, tiles = stack_tiles(a, tile)
        sizes = tile_sizes(tiles)
        scales = self._input_scales(request, sa)
        qa = quantize_batched(sa, scales, assume_finite=True)
        if op is Opcode.MEAN:
            # Zero padding adds nothing to the exact int64 sums; the
            # per-tile effective scale folds in the *actual* tile size.
            batched = functional.mean_batched(qa, scales, sizes)
            out_scales = scales  # device MEAN default: the input scale
        else:
            # Zero padding would win a max over all-negative tiles:
            # refill it with the int8 minimum first.
            fill_padding(qa, a.shape, tile, QMIN)
            batched = functional.max_batched(qa, scales, sizes)
            out_scales = batched.acc_scales  # lossless, out/acc == 1.0
        q_out, _ = requantize_batched(batched.acc, batched.acc_scales, out_scales)
        partial_arr = dequantize_batched(q_out, out_scales)[:, 0, 0]
        partials = [float(v) for v in partial_arr]
        weights = [int(s) for s in sizes]
        self.stats.tiles_lowered += len(tiles)
        self.stats.batched_dispatches += 1

        instrs: List[LoweredInstr] = []
        for i, t in enumerate(tiles):
            elems = int(sizes[i])
            instrs.append(
                LoweredInstr(
                    opcode=op,
                    task_id=request.task_id,
                    group_key="",
                    cache_key="",
                    data_bytes=elems,
                    model_bytes=0,
                    model_build_seconds=0.0,
                    exec_seconds=self.timing.instruction_seconds(
                        op, 1, int(batched.macs[i])
                    ),
                    out_bytes=1,
                    label=f"{op.opname}@{t.index}",
                )
            )
        if op is Opcode.MEAN:
            value = float(np.average(partials, weights=weights))
        else:
            value = float(np.max(partials))
        cpu_seconds = self.cpu.aggregate_seconds(len(partials))
        return LoweredOperation(
            request, instrs, np.array(value), cpu_seconds=cpu_seconds
        )

    # ------------------------------------------------------------------
    # FullyConnected on a vector (matrix-vector product)
    # ------------------------------------------------------------------

    def _check_matvec(self, request: OperationRequest) -> Tuple[np.ndarray, np.ndarray]:
        vec, mat = request.inputs[0], request.inputs[1]
        if vec.ndim != 1 or mat.ndim != 2 or mat.shape[0] != vec.shape[0]:
            raise TensorizerError(
                f"matvec expects (n,) x (n, m), got {vec.shape} x {mat.shape}"
            )
        return vec, mat

    def _matvec_instr(
        self,
        request: OperationRequest,
        t,
        seg_size: int,
        out_size: int,
        model_elems: int,
        exec_seconds: float,
    ) -> LoweredInstr:
        """One matvec IQ entry; shared by both paths so fields agree."""
        return LoweredInstr(
            opcode=Opcode.FULLY_CONNECTED,
            task_id=request.task_id,
            group_key=f"task{request.task_id}:{request.input_name}:col{t.col}",
            cache_key="",
            data_bytes=seg_size,
            model_bytes=self._model_bytes(model_elems),
            model_build_seconds=self._model_build_seconds(model_elems),
            exec_seconds=exec_seconds,
            out_bytes=out_size,
            label=f"FC@{t.index}",
            model_cache_key=(
                f"{request.attrs['model_name']}:{t.index}"
                if "model_name" in request.attrs
                else ""
            ),
        )

    def _lower_matvec_scalar(self, request: OperationRequest) -> LoweredOperation:
        vec, mat = self._check_matvec(request)
        tile = self.options.arithmetic_tile
        lo, hi = data_range(vec, mat)
        instrs: List[LoweredInstr] = []
        result = np.zeros(mat.shape[1], dtype=np.float64)
        saturated = 0
        n_ktiles = -(-vec.shape[0] // tile)
        for t in iter_tiles(mat.shape, tile):
            seg = vec[t.rows]
            wt = mat[t.rows, t.cols]
            p_seg = self._input_params(request, seg)
            p_wt = self._input_params(request, wt)
            # Eq. 4 with a measured bound: the closed-form Eq. 5 worst case
            # (span²·n) is hopelessly loose for e.g. stochastic matrices
            # (PageRank), collapsing every partial to zero.  Tensorizer
            # "dynamically evaluates input data" (§6.2), so it estimates
            # the true per-instruction output extreme and adds headroom.
            measured = float(np.abs(seg @ wt).max())
            out_params = self._output_params(
                Opcode.FULLY_CONNECTED.opname, measured, lo, hi, n=seg.size
            )
            instr = Instruction(
                Opcode.FULLY_CONNECTED,
                quantize(seg, p_seg),
                p_seg,
                model=quantize(wt, p_wt),
                model_params=p_wt,
                out_params=out_params,
                task_id=request.task_id,
            )
            execd = self._scratch.execute(instr)
            self.stats.tiles_lowered += 1
            self.stats.scalar_dispatches += 1
            saturated += execd.saturated
            result[t.cols] += execd.dequantized()
            instrs.append(
                self._matvec_instr(
                    request, t, seg.size, execd.out_elems, wt.size, execd.seconds
                )
            )
        # CPU sums the k-partials in wide registers (§6.2.1).
        cpu_seconds = self.cpu.aggregate_seconds(mat.shape[1] * n_ktiles)
        return LoweredOperation(request, instrs, result, cpu_seconds=cpu_seconds, saturated=saturated)

    def _lower_matvec_batched(self, request: OperationRequest) -> LoweredOperation:
        vec, mat = self._check_matvec(request)
        tile = self.options.arithmetic_tile
        lo, hi = data_range(vec, mat)
        n_ktiles = -(-vec.shape[0] // tile)

        smat, tiles = self._stack_with_stats(mat, tile)
        n_r, n_c = grid_shape(mat.shape, tile)
        # Vector segments, zero-padded to the tile length per k-tile row.
        vpad = np.zeros(n_r * tile, dtype=np.float64)
        vpad[: vec.shape[0]] = vec
        vseg = vpad.reshape(n_r, tile)

        if request.quant is QuantMode.GLOBAL:
            g = self._input_params(request).scale
            seg_scales = np.full(n_r, g)
            wt_scales = np.full(len(tiles), g)
        else:
            seg_scales = scales_for_ranges(batch_max_abs(vseg))
            wt_scales = scales_for_ranges(batch_max_abs(smat))
        q_vseg = quantize_batched(vseg, seg_scales, assume_finite=True)
        q_mat = quantize_batched(smat, wt_scales, assume_finite=True)

        rows_idx = np.array([t.row for t in tiles], dtype=np.intp)
        seg_sizes = np.array([t.shape()[0] for t in tiles], dtype=np.int64)
        out_sizes = np.array([t.shape()[1] for t in tiles], dtype=np.int64)
        # Measured Eq. 4 bounds stay per-tile on the *raw* views: a true
        # float64 GEMV is BLAS-order-sensitive, so batching it would not
        # be bit-identical (the integer accumulations below are).
        measured = np.array(
            [float(np.abs(vec[t.rows] @ mat[t.rows, t.cols]).max()) for t in tiles]
        )
        out_scales = self._output_scales(
            Opcode.FULLY_CONNECTED.opname, measured, lo, hi, seg_sizes
        )

        batched = functional.fully_connected_batched(
            q_vseg[rows_idx],
            q_mat,
            seg_scales[rows_idx],
            wt_scales,
            seg_sizes,
            out_sizes,
        )
        q_out, saturated = requantize_batched(batched.acc, batched.acc_scales, out_scales)
        deq = dequantize_batched(q_out, out_scales)
        self.stats.batched_dispatches += 1

        result = np.zeros(mat.shape[1], dtype=np.float64)
        instrs: List[LoweredInstr] = []
        for i, t in enumerate(tiles):
            # Row-major accumulation order matches the scalar loop
            # (float += is order-sensitive).
            result[t.cols] += deq[i, : int(out_sizes[i])]
            instrs.append(
                self._matvec_instr(
                    request,
                    t,
                    int(seg_sizes[i]),
                    int(out_sizes[i]),
                    int(seg_sizes[i] * out_sizes[i]),
                    self.timing.instruction_seconds(
                        Opcode.FULLY_CONNECTED, int(out_sizes[i]), int(batched.macs[i])
                    ),
                )
            )
        cpu_seconds = self.cpu.aggregate_seconds(mat.shape[1] * n_ktiles)
        return LoweredOperation(request, instrs, result, cpu_seconds=cpu_seconds, saturated=saturated)

    def _stack_with_stats(self, matrix: np.ndarray, tile: int):
        stacked, tiles = stack_tiles(matrix, tile)
        self.stats.tiles_lowered += len(tiles)
        return stacked, tiles

    # ------------------------------------------------------------------
    # GEMM via FullyConnected (§7.1.1) — the slow path of Fig. 6
    # ------------------------------------------------------------------

    def _gemm_fc_instr(
        self,
        request: OperationRequest,
        t,
        m: int,
        a_block_elems: int,
        model_elems: int,
        exec_seconds: float,
        out_width: int,
    ) -> LoweredInstr:
        return LoweredInstr(
            opcode=Opcode.FULLY_CONNECTED,
            task_id=request.task_id,
            group_key=f"task{request.task_id}:fcgemm:{t.index}",
            cache_key="",
            data_bytes=a_block_elems,
            model_bytes=self._model_bytes(model_elems),
            model_build_seconds=self._model_build_seconds(model_elems),
            exec_seconds=exec_seconds,
            out_bytes=m * out_width,
            label=f"FCGEMM@{t.index}",
            count=m,
        )

    def _lower_gemm_fc_scalar(self, request: OperationRequest) -> LoweredOperation:
        a, b = self._require_2d_pair(request)
        if a.shape[1] != b.shape[0]:
            raise TensorizerError(f"GEMM inner dims differ: {a.shape} x {b.shape}")
        m, n = a.shape
        k = b.shape[1]
        tile = self.options.arithmetic_tile
        lo, hi = data_range(a, b)
        result = np.zeros((m, k), dtype=np.float64)
        instrs: List[LoweredInstr] = []
        saturated = 0
        # One FullyConnected per (row of A, 128x128 tile of B): M·⌈N/128⌉·
        # ⌈K/128⌉ instructions.  Functionally we evaluate whole row-blocks
        # with one exact integer matmul; for the IQ each (k-tile, n-tile)
        # pair becomes an M-instruction burst.
        for t in iter_tiles(b.shape, tile):
            a_block = a[:, t.rows]
            w = b[t.rows, t.cols]
            p_a = self._input_params(request, a_block)
            p_w = self._input_params(request, w)
            q_a = quantize(a_block, p_a).astype(np.float64)
            q_w = quantize(w, p_w).astype(np.float64)
            acc = q_a @ q_w  # exact: |values| << 2^53
            self.stats.tiles_lowered += 1
            self.stats.scalar_dispatches += 1
            measured = float(np.abs(acc).max()) / (p_a.scale * p_w.scale)
            out_params = self._output_params(
                Opcode.FULLY_CONNECTED.opname, measured, lo, hi, n=a_block.shape[1]
            )
            rescale = out_params.scale / (p_a.scale * p_w.scale)
            q_out = np.rint(acc * rescale)
            saturated += int(np.count_nonzero(np.abs(q_out) > 127))
            q_out = np.clip(q_out, -128, 127)
            result[:, t.cols] += q_out / out_params.scale
            per_instr = self.timing.instruction_seconds(
                Opcode.FULLY_CONNECTED,
                out_elems=w.shape[1],
                macs=a_block.shape[1] * w.shape[1],
            )
            instrs.append(
                self._gemm_fc_instr(
                    request, t, m, a_block.size, w.size, per_instr, w.shape[1]
                )
            )
        cpu_seconds = self.cpu.aggregate_seconds(m * k * (-(-n // tile)))
        return LoweredOperation(request, instrs, result, cpu_seconds=cpu_seconds, saturated=saturated)

    def _lower_gemm_fc_batched(self, request: OperationRequest) -> LoweredOperation:
        a, b = self._require_2d_pair(request)
        if a.shape[1] != b.shape[0]:
            raise TensorizerError(f"GEMM inner dims differ: {a.shape} x {b.shape}")
        m, n = a.shape
        k = b.shape[1]
        tile = self.options.arithmetic_tile
        lo, hi = data_range(a, b)
        result = np.zeros((m, k), dtype=np.float64)
        instrs: List[LoweredInstr] = []
        saturated = 0

        sb, tiles = self._stack_with_stats(b, tile)
        n_kt, n_ct = grid_shape(b.shape, tile)
        if request.quant is QuantMode.GLOBAL:
            wt_scales = np.full(len(tiles), self._input_params(request).scale)
        else:
            wt_scales = scales_for_ranges(batch_max_abs(sb))
        q_b = quantize_batched(sb, wt_scales, assume_finite=True).reshape(n_kt, n_ct, tile, tile)
        wt_scales_2d = wt_scales.reshape(n_kt, n_ct)

        # One batched matmul per k-block row: the A column block is
        # quantized once (the scalar loop re-quantizes it per B tile) and
        # swept across all n_ct B tiles in a single dispatch.
        for r in range(n_kt):
            r0 = r * tile
            r1 = min(r0 + tile, n)
            w_r = r1 - r0
            a_block = a[:, r0:r1]
            p_a = self._input_params(request, a_block)
            q_a = quantize(a_block, p_a).astype(np.float64)
            # (m, w_r) @ (n_ct, w_r, tile) -> (n_ct, m, tile); integer
            # float64 products/sums are exact, so padding and summation
            # order cannot change the accumulator.
            acc = np.matmul(q_a, q_b[r, :, :w_r, :].astype(np.float64))
            self.stats.batched_dispatches += 1
            measured = np.abs(acc).max(axis=(1, 2)) / (p_a.scale * wt_scales_2d[r])
            out_scales = self._output_scales(
                Opcode.FULLY_CONNECTED.opname, measured, lo, hi, np.int64(w_r)
            )
            rescale = out_scales / (p_a.scale * wt_scales_2d[r])
            q_out = np.rint(acc * rescale[:, None, None])
            saturated += int(np.count_nonzero(np.abs(q_out) > 127))
            q_out = np.clip(q_out, -128, 127)
            deq = q_out / out_scales[:, None, None]
            for c in range(n_ct):
                t = tiles[r * n_ct + c]
                w_c = t.shape()[1]
                result[:, t.cols] += deq[c][:, :w_c]
                per_instr = self.timing.instruction_seconds(
                    Opcode.FULLY_CONNECTED, out_elems=w_c, macs=w_r * w_c
                )
                instrs.append(
                    self._gemm_fc_instr(
                        request, t, m, m * w_r, w_r * w_c, per_instr, w_c
                    )
                )
        cpu_seconds = self.cpu.aggregate_seconds(m * k * (-(-n // tile)))
        return LoweredOperation(request, instrs, result, cpu_seconds=cpu_seconds, saturated=saturated)

    # ------------------------------------------------------------------
    # GEMM via strided conv2D (§7.1.2) — the fast path of Fig. 6
    # ------------------------------------------------------------------

    def _gemm_conv2d_geometry(self, request: OperationRequest, m: int, n: int):
        """Shared chunk/batch geometry so both paths partition identically."""
        opts = self.options
        # §7.1.2: stride = round-up of the square root of the inner dim.
        s = math.isqrt(n)
        if s * s < n:
            s += 1
        # Chunk rows of A so a chunk's reshaped form (rows × s²) stays
        # resident on chip while every kernel sweeps it (locality), and so
        # at least min_gemm_chunks chunks exist for multi-TPU parallelism.
        # An operation may cap its own chunk count via the "gemm_chunks"
        # attribute (LUD's four-partition recursion, §9.3: only one of
        # the four partitions is open to parallel execution at a time).
        chunk_target = int(request.attrs.get("gemm_chunks", opts.min_gemm_chunks))
        rows_per_chunk = max(1, opts.max_chunk_bytes // (s * s))
        rows_per_chunk = min(rows_per_chunk, max(1, -(-m // chunk_target)))
        # Kernel batch: fill the 128² result tile per instruction.
        optimal_out = self.timing.optimal_out_elems(Opcode.CONV2D)
        batch = max(1, optimal_out // rows_per_chunk) if opts.kernel_batching else 1
        return s, rows_per_chunk, batch

    def _gemm_buffers(self, rows: int, n: int, k: int, strip_elems: int) -> dict:
        """Scratch for one GEMM group (quantized operands, slab products, a
        float64 row-block strip): views of grow-only pools shared by every
        call.  Nothing in them outlives a call (a plan's model block copies
        ``q_b``), so no geometry ever refaults pages, and the pools stay
        the size of the largest GEMM lowered.  Views are kept per shape
        until a pool grows."""
        key = (rows, n, k, strip_elems)
        views = self._gemm_views.get(key)
        if views is not None:
            return views
        pools = self._gemm_scratch

        def take(name: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
            size = math.prod(shape)
            if name not in pools or pools[name].size < size:
                pools[name] = np.empty(size, dtype=dtype)
                self._gemm_views.clear()  # views of the old pool are stale
            return pools[name][:size].reshape(shape)

        views = {
            "q_a": take("q_a", (rows, n), np.float32),
            "q_b": take("q_b", (n, k), np.float32),
            "strip": take("strip", (strip_elems,), np.float64),
            "parts": [
                take(f"part{i}", (rows, k), np.float32)
                for i, _ in enumerate(functional.f32_slab_starts(n))
            ],
        }
        if len(self._gemm_views) >= _GEMM_VIEW_SLOTS:
            self._gemm_views.clear()
        self._gemm_views[key] = views
        return views

    def _gemm_capture(self, request: OperationRequest, signature: str) -> CompiledPlan:
        """Capture the data-independent half of one conv2D-GEMM lowering.

        Geometry, per-piece instruction templates (identity left as
        ``{src}``/``{task}``/``{msrc}`` placeholders, in the exact
        (chunk, kernel-batch) emission order), the integrity-check
        layout, and the §7.1.3 host-transform cost.  Model builds are
        costed here, once — binding a warm replay charges nothing.
        """
        a, b = self._require_2d_pair(request)
        if a.shape[1] != b.shape[0]:
            raise TensorizerError(f"GEMM inner dims differ: {a.shape} x {b.shape}")
        (m, n), k = a.shape, b.shape[1]
        s, rows_per_chunk, batch = self._gemm_conv2d_geometry(request, m, n)
        labels = _gemm_layout(1, m, n, k, rows_per_chunk, batch).labels
        templates = []
        for label, (c0, c1), (j0, j1) in labels:
            out_elems, model_elems = (c1 - c0) * (j1 - j0), (j1 - j0) * s * s
            templates.append(InstrTemplate(
                opname=Opcode.CONV2D.opname,
                label=label,
                group_key=f"task{TASK_TOKEN}:{SRC_TOKEN}:rows{c0}",
                cache_key=f"{SRC_TOKEN}:rows{c0}",
                # Kernel batches are identical across row chunks, so they
                # stay resident per device; coalesced members share one
                # model source, so they also persist across clients.
                model_cache_key=f"{MODEL_SRC_TOKEN}:kernels{j0}",
                # The executor transfers the chunk only on a residency
                # miss (cache_key), so every piece carries its full size.
                data_bytes=(c1 - c0) * s * s,
                model_bytes=self._model_bytes(model_elems),
                out_bytes=out_elems,
                count=1,
                model_build_seconds=self._model_build_seconds(model_elems),
                exec_seconds=self.timing.instruction_seconds(
                    Opcode.CONV2D, out_elems=out_elems, macs=out_elems * s * s
                ),
            ))
        integrity_on = self.options.integrity != "off"
        return CompiledPlan(
            signature=signature,
            kind=KIND_GEMM,
            opname=Opcode.CONV2D.opname,
            cpu_seconds=self.cpu.elementwise_seconds(m * s * s + k * s * s, bytes_per_elem=2),
            templates=templates,
            integrity_mode=self.options.integrity,
            integrity=[IntegrityTemplate(*piece) for piece in labels] if integrity_on else [],
            geometry=GemmGeometry(m=m, n=n, k=k, s=s, rows_per_chunk=rows_per_chunk, batch=batch),
        )

    def _lower_gemm_conv2d_scalar(self, request: OperationRequest) -> LoweredOperation:
        a, b = self._require_2d_pair(request)
        if a.shape[1] != b.shape[0]:
            raise TensorizerError(f"GEMM inner dims differ: {a.shape} x {b.shape}")
        m, n = a.shape
        k = b.shape[1]
        s, rows_per_chunk, batch = self._gemm_conv2d_geometry(request, m, n)
        lo, hi = data_range(a, b)

        result = np.zeros((m, k), dtype=np.float64)
        saturated = 0
        p_a_global = None
        if request.quant is QuantMode.GLOBAL:
            p_a_global = self._input_params(request, a)

        for c0 in range(0, m, rows_per_chunk):
            c1 = min(c0 + rows_per_chunk, m)
            rows = a[c0:c1]
            p_rows = p_a_global or self._params_for_data(rows)
            q_rows = quantize(rows, p_rows).astype(np.float64)
            for j0 in range(0, k, batch):
                j1 = min(j0 + batch, k)
                cols = b[:, j0:j1]
                p_cols = p_a_global or self._params_for_data(cols)
                q_cols = quantize(cols, p_cols).astype(np.float64)
                # Strided conv2D over the reshaped rows with the padded
                # column-kernels is exactly this integer matmul (verified
                # against repro.edgetpu.functional.conv2d in the tests).
                acc = q_rows @ q_cols
                self.stats.tiles_lowered += 1
                self.stats.scalar_dispatches += 1
                measured = float(np.abs(acc).max()) / (p_rows.scale * p_cols.scale)
                out_params = self._output_params(Opcode.CONV2D.opname, measured, lo, hi, n=n)
                rescale = out_params.scale / (p_rows.scale * p_cols.scale)
                # ``+ 0.0``: the device returns int8, which has no signed
                # zero, so the host's requantized grid must not either —
                # the integrity write-back reconstructs these exact values
                # from the wire bytes.
                q_out = np.rint(acc * rescale) + 0.0
                saturated += int(np.count_nonzero(np.abs(q_out) > 127))
                q_out = np.clip(q_out, -128, 127)
                result[c0:c1, j0:j1] = q_out / out_params.scale
        # The §7.1.2 instruction stream (and the §7.1.3 host transform
        # cost) come from the same ephemeral plan the kernel binds.  The
        # source is unique per distinct input so unrelated GEMMs never
        # alias in on-chip memory (bare arrays use the operation number).
        plan = self._gemm_capture(request, "")
        source = request.input_name or f"op{self._op_seq}"
        instrs = [
            t.bind(Opcode.CONV2D, request.task_id, source, source, fresh=True)
            for t in plan.templates
        ]
        return LoweredOperation(
            request, instrs, result, cpu_seconds=plan.cpu_seconds, saturated=saturated
        )

    def _lower_gemm_conv2d_batched(self, request: OperationRequest) -> LoweredOperation:
        return self._gemm_group([request], request.inputs[0])[0]

    def lower_gemm_coalesced(
        self, requests: Sequence[OperationRequest]
    ) -> List[LoweredOperation]:
        """Lower several compatible conv2D-GEMMs as ONE batched dispatch.

        The serving layer (:mod:`repro.serve`) merges GEMMs from different
        clients sharing the model operand *B*, the data shape and SCALE
        quantization.  They run through the kernel that lowers a solo GEMM
        (:meth:`_gemm_group`), so each operation is bit-for-bit what
        :meth:`lower` makes of its request alone, except that members
        share the first one's *model* source (kernels stay resident across
        clients) and it alone pays the shared B reshape (§7.1.3).  Raises
        :class:`TensorizerError` for requests that cannot coalesce.
        """
        if not requests:
            raise TensorizerError("lower_gemm_coalesced needs at least one request")
        if len(requests) == 1:
            return [self.lower(requests[0])]
        self._share_model_operands(requests)
        stack = self._stack_data_operands(requests)
        for request in requests:
            self._normalize_inputs(request)
            if request.opcode is not Opcode.CONV2D or not request.attrs.get("gemm", False):
                raise TensorizerError(
                    f"only conv2D-GEMM operations coalesce, got {request.opcode.opname}"
                )
            if request.quant is not QuantMode.SCALE:
                raise TensorizerError("coalescing requires SCALE quantization")
        tracer = self._tracer
        sp = tracer.begin(
            "lower:conv2D-coalesced", cat="lower", track="tensorizer", requests=len(requests)
        )
        lowered = self._gemm_group(requests, stack)
        for op in lowered:
            self.stats.operations_lowered += 1
            self.stats.instructions_emitted += op.instruction_count
            self.stats.saturated_values += op.saturated
        self._op_seq += len(requests)
        if tracer.enabled:
            sp.add_device_seconds(sum(op.total_exec_seconds for op in lowered))
            sp.set(instructions=sum(op.instruction_count for op in lowered))
        tracer.end(sp)
        return lowered

    @staticmethod
    def _stack_data_operands(requests: Sequence[OperationRequest]) -> Optional[np.ndarray]:
        """Normalize a group's data operands into one float64 row stack;
        each member's A becomes its rows of it (a C-contiguous view).
        ``None`` when the shapes disagree (the kernel then rejects them)."""
        a_list = [r.inputs[0] for r in requests if len(r.inputs) == 2]
        shape = np.shape(a_list[0]) if len(a_list) == len(requests) else ()
        if len(shape) != 2 or any(np.shape(a) != shape for a in a_list):
            return None
        stack = np.concatenate(a_list, dtype=np.float64, casting="unsafe")
        for i, request in enumerate(requests):
            request.inputs = (stack[i * shape[0] : (i + 1) * shape[0]],) + request.inputs[1:]
        return stack

    def _gemm_plan(
        self, first: OperationRequest, n_req: int
    ) -> Tuple[Optional[CompiledPlan], bool]:
        """Look up (or capture) the group's plan: ``(plan, replay)``.

        The coalescing key (shape / quant / gemm_chunks / shared B) is a
        sub-key of the plan signature, so one plan serves the whole group.
        """
        cache = self.plan_cache
        if cache is None:
            return None, False
        signature = plan_signature(first, self.options, self.tpu_config)
        plan = cache.get(signature)
        extra = {"coalesced": n_req} if n_req > 1 else {}
        self._tracer.instant(
            "plan_miss" if plan is None else "plan_hit",
            cat="plan", track="tensorizer", op=Opcode.CONV2D.opname, **extra,
        )
        if plan is not None:
            return plan, True
        sp = self._tracer.begin("plan_capture", cat="plan", track="tensorizer")
        plan = self._gemm_capture(first, signature)
        self._tracer.end(sp)
        cache.put(signature, plan)
        self.stats.plan_captures += 1
        return plan, False

    def _gemm_group(
        self, requests: Sequence[OperationRequest], stack: Optional[np.ndarray]
    ) -> List[LoweredOperation]:
        """The conv2D-GEMM kernel: lower N >= 1 GEMMs sharing B and shape.

        *stack* holds the members' A operands row-wise.  Each data pass
        runs over the whole stack with a fixed number of NumPy calls per
        row block (one block unless the stack outgrows
        ``_GEMM_BLOCK_BYTES``), not one set per request, chunk or batch:
        quantize A, one exact-f32 slab product with the shared quantized
        B, requantize.  Between passes, the per-piece scale arithmetic is
        scalar Python over the reduced extremes — cheaper than NumPy calls
        on a handful of elements.  Results are bit-identical to the scalar
        oracle: max and min are exact in any order, slab partials are
        exact integers, and per-piece factors are only broadcast.  B is
        handled once per group (one :meth:`GemmModelBlock.matches` on a
        warm plan, else one quantization) and ABFT checks once per block.
        """
        first, n_req = requests[0], len(requests)
        a0, b = self._require_2d_pair(first)
        if a0.shape[1] != b.shape[0]:
            raise TensorizerError(f"GEMM inner dims differ: {a0.shape} x {b.shape}")
        chunk_attr = int(first.attrs.get("gemm_chunks", self.options.min_gemm_chunks))
        for request in requests[1:]:
            a_r, b_r = self._require_2d_pair(request)
            if a_r.shape != a0.shape:
                raise TensorizerError(
                    f"coalesced GEMM data shapes differ: {a_r.shape} vs {a0.shape}"
                )
            if b_r is not b and not np.array_equal(b_r, b):
                raise TensorizerError("coalesced GEMMs must share the model operand")
            if int(request.attrs.get("gemm_chunks", self.options.min_gemm_chunks)) != chunk_attr:
                raise TensorizerError("coalesced GEMMs must agree on gemm_chunks")
        (m, n), k = a0.shape, b.shape[1]
        if a0.size == 0 or b.size == 0:
            raise QuantizationError("cannot derive quantization parameters from empty data")

        plan, replay = self._gemm_plan(first, n_req)
        cached = plan is not None
        if not cached:  # plan-free: an ephemeral plan, bound once
            plan = self._gemm_capture(first, "")
        s, h, batch = plan.geometry.s, plan.geometry.rows_per_chunk, plan.geometry.batch
        lay = _gemm_layout(n_req, m, n, k, h, batch)
        n_rows, n_cols = lay.n_rows, lay.n_cols
        if len(plan.templates) != n_rows * n_cols:
            raise TensorizerError(
                f"cached GEMM plan records {len(plan.templates)} pieces but the "
                f"geometry yields {n_rows * n_cols}"
            )
        sc = self._gemm_buffers(n_req * m, n, k, lay.strip_elems)
        buf = sc["strip"]
        tracer = self._tracer
        # Warm-path host work the plan cannot amortize: quantizing A and
        # binding templates (slab product and requantize model the device).
        bind_sp = tracer.begin("plan_bind", cat="plan", track="tensorizer") if replay else None
        sp = tracer.begin("quantize", cat="lower.phase", track="tensorizer", requests=n_req)
        global_quant = first.quant is QuantMode.GLOBAL
        if global_quant:  # (never coalesced) one scale from the joint range
            lo = min(float(a0.min()), float(b.min()))
            hi = max(float(a0.max()), float(b.max()))
            p_glob = self._params_for_range(max(abs(lo), abs(hi)))
            if not np.all(np.isfinite(a0)) or not np.all(np.isfinite(b)):
                raise QuantizationError("data contains non-finite values")
            row_scales = [p_glob.scale] * (n_req * n_rows)
        else:
            row_scales, chunk_hi, chunk_lo = [], [], []
        # Quantize A in float64 (the clip is provably dead: each scale is
        # 127/max_abs of its data); ``+ 0.0`` turns rint's ``-0.0`` into
        # the ``+0.0`` of the scalar path's int8 round trip.
        for blk in lay.blocks:
            t = buf[: (blk.r1 - blk.r0) * n].reshape(blk.split + (n,))
            src = stack[blk.r0 : blk.r1].reshape(t.shape)
            if global_quant:
                np.multiply(src, p_glob.scale, out=t)
            else:
                his, los = (x.ravel().tolist() for x in _extrema(src[:, :, None, :], blk, None))
                chunk_hi += his
                chunk_lo += los
                scales = [_scale_for_extrema(x, y) for x, y in zip(his, los)]
                row_scales += scales
                factor = np.array(scales) if blk.repeat is None else np.repeat(scales, blk.repeat)
                np.multiply(src, factor[:, None, None], out=t)
            np.rint(t, out=t)
            np.add(t, 0.0, out=sc["q_a"][blk.r0 : blk.r1].reshape(t.shape))

        model = plan.model
        reuse_model = replay and not global_quant and model is not None and model.matches(b)
        if reuse_model:
            q_b, col_scales, b_lo, b_hi = model.q_b, model.col_scales, model.b_lo, model.b_hi
        else:
            if global_quant:
                col_scales = np.full(n_cols, p_glob.scale)
            else:
                his = np.maximum.reduceat(b.max(axis=0), lay.col_starts).tolist()
                los = np.minimum.reduceat(b.min(axis=0), lay.col_starts).tolist()
                col_scales = np.array([_scale_for_extrema(x, y) for x, y in zip(his, los)])
                b_lo, b_hi = min(los), max(his)
            q_b = sc["q_b"]
            step = max(1, buf.size // k)
            for r0 in range(0, n, step):
                t = buf[: min(step, n - r0) * k].reshape(-1, k)
                np.multiply(b[r0 : r0 + step], col_scales.repeat(lay.widths), out=t)
                np.rint(t, out=t)
                np.add(t, 0.0, out=q_b[r0 : r0 + step])
            if cached and not global_quant:
                # Copy: the scratch q_b is reused by the next GEMM.
                plan.model = model_block_for(b, q_b.copy(), col_scales, b_lo, b_hi)
        tracer.end(sp)

        # Bind every member's instruction stream: own data source, the
        # first member's model source.  A capture charges the group's
        # model builds (costed at capture) to its first member and a warm
        # replay binds them at zero; a plan-free group builds per member.
        sources = [r.input_name or f"op{self._op_seq + i}" for i, r in enumerate(requests)]
        instrs = [
            [
                t.bind(
                    Opcode.CONV2D, r.task_id, src, sources[0],
                    fresh=not replay and (i == 0 or not cached),
                )
                for t in plan.templates
            ]
            for i, (r, src) in enumerate(zip(requests, sources))
        ]
        for _ in requests[1:] if not cached else ():
            for t in plan.templates:
                self.stats.models_built += 1
                self.stats.model_build_seconds += t.model_build_seconds
        if bind_sp is not None:
            tracer.end(bind_sp)

        sp = tracer.begin("slab_gemm", cat="lower.phase", track="tensorizer", m=n_req * m, n=n, k=k)
        partials = functional.f32_slab_products(sc["q_a"], q_b, out=sc["parts"])
        tracer.end(sp)

        def fallback_range(g: int) -> Tuple[float, float]:
            """Chunk g's request value range (Eqs. 5-8): its chunk extremes
            folded with B's — exact, as min and max are."""
            if global_quant:
                return lo, hi
            r = g // n_rows * n_rows
            return min(min(chunk_lo[r : r + n_rows]), b_lo), max(max(chunk_hi[r : r + n_rows]), b_hi)

        # Requantize: the exact float64 accumulator, bounded per piece,
        # rescaled, rounded, clipped and dequantized with broadcast factors.
        sp = tracer.begin("requantize", cat="lower.phase", track="tensorizer", requests=n_req)
        integrity_on = self.options.integrity != "off"
        plans = [IntegrityPlan(mode=self.options.integrity) for _ in requests] if integrity_on else None
        measured_rule = self.options.scaling_rule == "measured"
        result = np.empty((n_req * m, k), dtype=np.float64)
        saturated = [0] * n_req
        for blk in lay.blocks:
            acc = buf[: (blk.r1 - blk.r0) * k].reshape(blk.r1 - blk.r0, k)
            np.copyto(acc, partials[0][blk.r0 : blk.r1])
            for part in partials[1:]:
                acc += part[blk.r0 : blk.r1]
            view = acc.reshape(blk.split + lay.split)
            his, los = _extrema(view, blk, lay.col_cuts)
            out_scales, rescales, flags = [], [], []
            for g, row_his, row_los in zip(range(blk.g0, blk.g1), his.tolist(), los.tolist()):
                flag = False
                # NumPy scalars, as in the scalar oracle: a product of
                # scales that underflows divides to inf, not an exception.
                for x, y, col_scale in zip(row_his, row_los, col_scales):
                    bound = max(x, -y)  # max|acc| == max(max, -min)
                    scale_prod = row_scales[g] * col_scale
                    measured = bound / scale_prod
                    if measured_rule and measured > 0:
                        out = scale_for_range(measured * 1.05)
                    else:
                        lo_g, hi_g = fallback_range(g)
                        out = output_quant_params(Opcode.CONV2D.opname, lo_g, hi_g, n).scale
                    out_scales.append(out)
                    rescales.append(out / scale_prod)
                    # fl(·) is monotone, so bound * rescale bounds every
                    # rescaled element: below 127.5 nothing rounds past
                    # ±127, and count and clip are provably no-ops.
                    flag = flag or not bound * rescales[-1] < 127.5
                flags.append(flag)
            rescale, out_scale = np.array([rescales, out_scales]).reshape(2, -1, n_cols)
            if integrity_on:  # ABFT sums: before the in-place requantize
                acc_sums = (acc @ lay.onehot, blk.onehot @ acc)
            np.multiply(view, _spread(rescale, blk, lay), out=view)
            np.rint(acc, out=acc)
            # rint's ``-0.0`` is not on the int8 wire grid either; the
            # integrity write-back must reproduce these bytes.
            np.add(acc, 0.0, out=acc)
            clips = any(flags)
            if clips:
                over = np.add.reduceat((acc > 127).sum(axis=1) + (acc < -127).sum(axis=1), blk.local)
                for g, count in zip(range(blk.g0, blk.g1), over.tolist()):
                    saturated[g // n_rows] += count
                np.clip(acc, -128, 127, out=acc)
            if integrity_on:
                checks = make_gemm_checks(
                    blk.pieces, acc, acc_sums,
                    (acc @ lay.onehot, blk.onehot @ acc) if clips else None,
                    rescale, out_scale, flags,
                    blk.local, blk.heights, lay.col_starts, lay.widths,
                )
                for owner, check in zip(blk.owners, checks):
                    plans[owner].add(check)
            dst = result[blk.r0 : blk.r1].reshape(view.shape)
            np.divide(view, _spread(out_scale, blk, lay), out=dst)
        tracer.end(sp)

        stats = self.stats
        stats.tiles_lowered += n_req * n_rows * n_cols
        stats.batched_dispatches += 1
        stats.coalesced_operations += n_req if n_req > 1 else 0
        if integrity_on:
            stats.integrity_plans += n_req
            stats.integrity_tiles_planned += n_req * n_rows * n_cols
        if replay:
            plan.replays += 1
            self.plan_cache.note_bind(n_req)
            stats.plan_replays += n_req
        # Host data transformation (§7.1.3): each request reshapes its own
        # rows; the shared kernels are built once, charged to the first
        # member (at capture — a warm bind reusing the model pays none).
        rows_cpu = self.cpu.elementwise_seconds(m * s * s, bytes_per_elem=2)
        first_cpu = rows_cpu if reuse_model else plan.cpu_seconds
        return [
            LoweredOperation(
                r, instrs[i], result if n_req == 1 else result[i * m : (i + 1) * m],
                cpu_seconds=first_cpu if i == 0 else rows_cpu,
                saturated=saturated[i],
                integrity=plans[i] if integrity_on else None,
            )
            for i, r in enumerate(requests)
        ]

    # ------------------------------------------------------------------
    # conv2D as a stencil (HotSpot3D-style small kernels)
    # ------------------------------------------------------------------

    def _lower_conv2d_stencil(self, request: OperationRequest) -> LoweredOperation:
        a, kern = self._require_2d_pair(request)
        kh, kw = kern.shape
        if kh > a.shape[0] or kw > a.shape[1]:
            raise TensorizerError(f"kernel {kern.shape} larger than input {a.shape}")
        tile = self.options.arithmetic_tile
        lo, hi = data_range(a, kern)
        # Eq. 4 directly: for a convolution the output magnitude is bounded
        # exactly by max|data| * Σ|kernel|, which is far tighter than the
        # generic Eq. 5 worst case when kernels are normalized (HotSpot3D's
        # weighted average sums to ~1).
        bound = float(np.abs(a).max() * np.abs(kern).sum())
        out_params = self._output_params(Opcode.CONV2D.opname, bound, lo, hi, n=kh * kw)
        p_kern = self._params_for_data(kern)
        q_kern = quantize(kern, p_kern)
        oh, ow = a.shape[0] - kh + 1, a.shape[1] - kw + 1
        result = np.empty((oh, ow), dtype=np.float64)
        instrs: List[LoweredInstr] = []
        saturated = 0
        step = tile - (max(kh, kw) - 1)
        if step < 1:
            raise TensorizerError(
                f"kernel {kern.shape} too large for the {tile}x{tile} instruction tile"
            )
        kern_elems = kern.size
        for r0 in range(0, oh, step):
            r1 = min(r0 + step, oh)
            for c0 in range(0, ow, step):
                c1 = min(c0 + step, ow)
                # Halo: input region needed for this output tile.
                patch = a[r0 : r1 + kh - 1, c0 : c1 + kw - 1]
                p_patch = self._input_params(request, patch)
                instr = Instruction(
                    Opcode.CONV2D,
                    quantize(patch, p_patch),
                    p_patch,
                    model=q_kern,
                    model_params=p_kern,
                    out_params=out_params,
                    task_id=request.task_id,
                )
                execd = self._scratch.execute(instr)
                self.stats.tiles_lowered += 1
                self.stats.scalar_dispatches += 1
                saturated += execd.saturated
                result[r0:r1, c0:c1] = execd.dequantized()
                instrs.append(
                    LoweredInstr(
                        opcode=Opcode.CONV2D,
                        task_id=request.task_id,
                        group_key="",
                        cache_key="",
                        data_bytes=patch.size,
                        model_bytes=self._model_bytes(kern_elems),
                        model_build_seconds=self._model_build_seconds(kern_elems),
                        exec_seconds=execd.seconds,
                        out_bytes=(r1 - r0) * (c1 - c0),
                        label=f"conv@{r0},{c0}",
                        model_cache_key=(
                            f"{request.attrs['model_name']}"
                            if "model_name" in request.attrs
                            else ""
                        ),
                    )
                )
        return LoweredOperation(request, instrs, result, saturated=saturated)

    # ------------------------------------------------------------------
    # data movement: crop / ext
    # ------------------------------------------------------------------

    def _lower_crop(self, request: OperationRequest) -> LoweredOperation:
        a = request.inputs[0]
        box = request.attrs.get("crop_box")
        if box is None:
            raise TensorizerError("crop requires a 'crop_box' attribute")
        p_a = self._input_params(request, a)
        instr = Instruction(
            Opcode.CROP, quantize(a, p_a), p_a, attrs={"crop_box": box}, task_id=request.task_id
        )
        execd = self._scratch.execute(instr)
        self.stats.tiles_lowered += 1
        self.stats.scalar_dispatches += 1
        instrs = [
            LoweredInstr(
                opcode=Opcode.CROP,
                task_id=request.task_id,
                group_key="",
                cache_key="",
                data_bytes=a.size,
                model_bytes=0,
                model_build_seconds=0.0,
                exec_seconds=execd.seconds,
                out_bytes=execd.out_elems,
                label="crop",
            )
        ]
        return LoweredOperation(request, instrs, execd.dequantized())

    def _lower_ext(self, request: OperationRequest) -> LoweredOperation:
        a = request.inputs[0]
        shape = request.attrs.get("ext_shape")
        if shape is None:
            raise TensorizerError("ext requires an 'ext_shape' attribute")
        offset = request.attrs.get("ext_offset", (0, 0))
        p_a = self._input_params(request, a)
        instr = Instruction(
            Opcode.EXT,
            quantize(a, p_a),
            p_a,
            attrs={"ext_shape": shape, "ext_offset": offset},
            task_id=request.task_id,
        )
        execd = self._scratch.execute(instr)
        self.stats.tiles_lowered += 1
        self.stats.scalar_dispatches += 1
        instrs = [
            LoweredInstr(
                opcode=Opcode.EXT,
                task_id=request.task_id,
                group_key="",
                cache_key="",
                data_bytes=a.size,
                model_bytes=0,
                model_build_seconds=0.0,
                exec_seconds=execd.seconds,
                out_bytes=execd.out_elems,
                label="ext",
            )
        ]
        return LoweredOperation(request, instrs, execd.dequantized())

    # ------------------------------------------------------------------
    # NN extension: pool / softmax / multichannel conv2d (docs/nn.md)
    # ------------------------------------------------------------------

    def _pool_operand(
        self, request: OperationRequest
    ) -> Tuple[np.ndarray, Tuple[int, int], Tuple[int, int], str]:
        if len(request.inputs) != 1:
            raise TensorizerError("pool takes one input")
        a = request.inputs[0]
        if a.ndim != 2:
            raise TensorizerError(f"pool operates on a 2-D matrix, got {a.shape}")
        window = tuple(int(v) for v in request.attrs.get("window", (2, 2)))
        stride = tuple(int(v) for v in request.attrs.get("stride", window))
        kind = str(request.attrs.get("kind", "max"))
        if len(window) != 2 or min(window) < 1:
            raise TensorizerError(f"pool window must be two positive ints, got {window}")
        if len(stride) != 2 or min(stride) < 1:
            raise TensorizerError(f"pool stride must be two positive ints, got {stride}")
        if kind not in ("max", "avg"):
            raise TensorizerError(f"unknown pool kind {kind!r}")
        if window[0] > a.shape[0] or window[1] > a.shape[1]:
            raise TensorizerError(
                f"pool window {window} larger than data {a.shape}"
            )
        return a, window, stride, kind

    def _row_bands(self, n_out_rows: int, out_cols: int) -> List[Tuple[int, int]]:
        """Split *n_out_rows* output rows into bands of ~one optimal tile.

        Each band becomes one instruction whose result count approaches
        the 128² sweet spot (§3.2), mirroring how the GEMM path sizes
        its kernel batches.
        """
        tile = self.options.arithmetic_tile
        band = max(1, (tile * tile) // max(1, out_cols))
        return [
            (b0, min(b0 + band, n_out_rows)) for b0 in range(0, n_out_rows, band)
        ]

    @staticmethod
    def _stack_bands(bands: List[np.ndarray]) -> np.ndarray:
        """Stack ragged full-width row bands, zero-padding short ones.

        Zero rows cannot change a band's ``max |x|`` (so per-band scales
        match the scalar path exactly) and every *valid* output row reads
        only real input rows — callers slice padded garbage away.
        """
        hmax = max(b.shape[0] for b in bands)
        stacked = np.zeros((len(bands), hmax, bands[0].shape[1]), dtype=np.float64)
        for i, b in enumerate(bands):
            stacked[i, : b.shape[0]] = b
        return stacked

    def _lower_pool_scalar(self, request: OperationRequest) -> LoweredOperation:
        a, window, stride, kind = self._pool_operand(request)
        wh, ww = window
        sy, sx = stride
        oh = (a.shape[0] - wh) // sy + 1
        ow = (a.shape[1] - ww) // sx + 1
        attrs = {"window": window, "stride": stride, "kind": kind}
        result = np.empty((oh, ow), dtype=np.float64)
        instrs: List[LoweredInstr] = []
        saturated = 0
        for bi, (b0, b1) in enumerate(self._row_bands(oh, ow)):
            band = a[b0 * sy : (b1 - 1) * sy + wh]
            pa = self._input_params(request, band)
            instr = Instruction(
                Opcode.POOL, quantize(band, pa), pa, attrs=attrs, task_id=request.task_id
            )
            execd = self._scratch.execute(instr)
            self.stats.tiles_lowered += 1
            self.stats.scalar_dispatches += 1
            saturated += execd.saturated
            result[b0:b1] = execd.dequantized()
            instrs.append(
                LoweredInstr(
                    opcode=Opcode.POOL,
                    task_id=request.task_id,
                    group_key="",
                    cache_key="",
                    data_bytes=band.size,
                    model_bytes=0,
                    model_build_seconds=0.0,
                    exec_seconds=execd.seconds,
                    out_bytes=(b1 - b0) * ow,
                    label=f"pool@{bi}",
                )
            )
        return LoweredOperation(request, instrs, result, saturated=saturated)

    def _lower_pool_batched(self, request: OperationRequest) -> LoweredOperation:
        a, window, stride, kind = self._pool_operand(request)
        wh, ww = window
        sy, sx = stride
        oh = (a.shape[0] - wh) // sy + 1
        ow = (a.shape[1] - ww) // sx + 1
        bands = self._row_bands(oh, ow)
        slices = [a[b0 * sy : (b1 - 1) * sy + wh] for b0, b1 in bands]
        stacked = self._stack_bands(slices)
        scales = self._input_scales(request, stacked)
        qa = quantize_batched(stacked, scales, assume_finite=True)
        out_sizes = np.array([(b1 - b0) * ow for b0, b1 in bands], dtype=np.int64)
        batched = functional.pool2d_batched(qa, window, stride, kind, scales, out_sizes)
        # Device POOL default output scale: the input scale (max pooling
        # requantizes with rescale exactly 1; averages cannot saturate).
        out_scales = scales
        q_out, saturated = requantize_batched(batched.acc, batched.acc_scales, out_scales)
        deq = dequantize_batched(q_out, out_scales)
        result = np.empty((oh, ow), dtype=np.float64)
        for i, (b0, b1) in enumerate(bands):
            result[b0:b1] = deq[i, : b1 - b0, :ow]
        self.stats.tiles_lowered += len(bands)
        self.stats.batched_dispatches += 1

        instrs: List[LoweredInstr] = []
        for i, (b0, b1) in enumerate(bands):
            instrs.append(
                LoweredInstr(
                    opcode=Opcode.POOL,
                    task_id=request.task_id,
                    group_key="",
                    cache_key="",
                    data_bytes=slices[i].size,
                    model_bytes=0,
                    model_build_seconds=0.0,
                    exec_seconds=self.timing.instruction_seconds(
                        Opcode.POOL, int(out_sizes[i]), int(batched.macs[i])
                    ),
                    out_bytes=int(out_sizes[i]),
                    label=f"pool@{i}",
                )
            )
        return LoweredOperation(request, instrs, result, saturated=saturated)

    def _softmax_operand(self, request: OperationRequest) -> np.ndarray:
        if len(request.inputs) != 1:
            raise TensorizerError("softmax takes one input")
        a = request.inputs[0]
        if a.ndim != 2:
            raise TensorizerError(f"softmax operates on a 2-D matrix, got {a.shape}")
        return a

    def _lower_softmax_scalar(self, request: OperationRequest) -> LoweredOperation:
        a = self._softmax_operand(request)
        tile = self.options.arithmetic_tile
        result = np.empty_like(a)
        instrs: List[LoweredInstr] = []
        saturated = 0
        for bi, b0 in enumerate(range(0, a.shape[0], tile)):
            band = a[b0 : b0 + tile]
            pa = self._input_params(request, band)
            instr = Instruction(
                Opcode.SOFTMAX, quantize(band, pa), pa, task_id=request.task_id
            )
            execd = self._scratch.execute(instr)
            self.stats.tiles_lowered += 1
            self.stats.scalar_dispatches += 1
            saturated += execd.saturated
            result[b0 : b0 + band.shape[0]] = execd.dequantized()
            instrs.append(
                LoweredInstr(
                    opcode=Opcode.SOFTMAX,
                    task_id=request.task_id,
                    group_key="",
                    cache_key="",
                    data_bytes=band.size,
                    model_bytes=0,
                    model_build_seconds=0.0,
                    exec_seconds=execd.seconds,
                    out_bytes=band.size,
                    label=f"softmax@{bi}",
                )
            )
        return LoweredOperation(request, instrs, result, saturated=saturated)

    def _lower_softmax_batched(self, request: OperationRequest) -> LoweredOperation:
        a = self._softmax_operand(request)
        tile = self.options.arithmetic_tile
        starts = list(range(0, a.shape[0], tile))
        slices = [a[b0 : b0 + tile] for b0 in starts]
        # Full-width row bands only: padded *columns* would enter row
        # sums and break bit-identity; padded rows are sliced away.
        stacked = self._stack_bands(slices)
        scales = self._input_scales(request, stacked)
        qa = quantize_batched(stacked, scales, assume_finite=True)
        sizes = np.array([s.size for s in slices], dtype=np.int64)
        batched = functional.softmax_batched(qa, scales, sizes)
        # Lossless requantization at the LUT scale (127), like tanh.
        q_out, saturated = requantize_batched(
            batched.acc, batched.acc_scales, batched.acc_scales
        )
        deq = dequantize_batched(q_out, batched.acc_scales)
        result = np.empty_like(a)
        for i, b0 in enumerate(starts):
            nb = slices[i].shape[0]
            result[b0 : b0 + nb] = deq[i, :nb]
        self.stats.tiles_lowered += len(slices)
        self.stats.batched_dispatches += 1

        instrs: List[LoweredInstr] = []
        for i, b0 in enumerate(starts):
            instrs.append(
                LoweredInstr(
                    opcode=Opcode.SOFTMAX,
                    task_id=request.task_id,
                    group_key="",
                    cache_key="",
                    data_bytes=int(sizes[i]),
                    model_bytes=0,
                    model_build_seconds=0.0,
                    exec_seconds=self.timing.instruction_seconds(
                        Opcode.SOFTMAX, int(sizes[i]), int(batched.macs[i])
                    ),
                    out_bytes=int(sizes[i]),
                    label=f"softmax@{i}",
                )
            )
        return LoweredOperation(request, instrs, result, saturated=saturated)

    # -- multichannel conv2d (im2col over the conv2D-GEMM path) ---------

    @staticmethod
    def _conv2d_nn_padding(attrs) -> Tuple[int, int, int, int]:
        pad = attrs.get("padding", 0)
        if isinstance(pad, int):
            return (pad, pad, pad, pad)
        pad = tuple(int(v) for v in pad)
        if len(pad) == 2:
            return (pad[0], pad[0], pad[1], pad[1])
        if len(pad) == 4:
            return pad
        raise TensorizerError(
            f"conv2D_nn padding must be an int, (py, px), or (pt, pb, pl, pr); got {pad!r}"
        )

    def _lower_conv2d_nn(self, request: OperationRequest) -> LoweredOperation:
        """Multichannel NCHW conv2d: im2col → conv2D-GEMM → NN epilogue.

        The data-parallel heart — an ``(N·OH·OW, C·kh·kw) × (C·kh·kw, F)``
        matrix product — runs through the §7.1.2 conv2D-GEMM rule and so
        inherits its whole stack: plan capture/replay, ABFT integrity
        checksums, model-block reuse, and scalar/vectorized bit-identity.
        The host contributes the im2col transform and an NN-style
        epilogue: bias fold, optional fused ReLU, and per-output-channel
        int8 requantization (the "per-channel quant params" real NN
        runtimes use; see docs/nn.md).
        """
        if len(request.inputs) not in (2, 3):
            raise TensorizerError("conv2D_nn needs inputs (x, w[, bias])")
        x, w = request.inputs[0], request.inputs[1]
        bias = request.inputs[2] if len(request.inputs) == 3 else None
        if x.ndim != 4 or w.ndim != 4:
            raise TensorizerError(
                f"conv2D_nn wants NCHW x and FCHW w, got {x.shape} and {w.shape}"
            )
        n, c, h, wid = x.shape
        f, cw, kh, kw = w.shape
        if cw != c:
            raise TensorizerError(
                f"conv2D_nn channel mismatch: x has {c}, w has {cw}"
            )
        if bias is not None and bias.shape != (f,):
            raise TensorizerError(
                f"conv2D_nn bias must have shape ({f},), got {bias.shape}"
            )
        sy, sx = (int(v) for v in request.attrs.get("stride", (1, 1)))
        if sy < 1 or sx < 1:
            raise TensorizerError(f"conv2D_nn stride must be positive, got ({sy}, {sx})")
        pt, pb, pl, pr = self._conv2d_nn_padding(request.attrs)
        if min(pt, pb, pl, pr) < 0:
            raise TensorizerError("conv2D_nn padding must be non-negative")
        ph, pw = h + pt + pb, wid + pl + pr
        if kh > ph or kw > pw:
            raise TensorizerError(
                f"conv2D_nn kernel {kh}x{kw} larger than padded input {ph}x{pw}"
            )
        oh = (ph - kh) // sy + 1
        ow = (pw - kw) // sx + 1

        # Host im2col: zero-pad, then unfold every (kh, kw) patch into a
        # row of A.  Rows are ordered (image, out_row, out_col); columns
        # are ordered (channel, ky, kx) to match w.reshape(f, -1).
        if (pt, pb, pl, pr) != (0, 0, 0, 0):
            xp = np.zeros((n, c, ph, pw), dtype=np.float64)
            xp[:, :, pt : pt + h, pl : pl + wid] = x
        else:
            xp = x
        patches = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::sy, ::sx]
        a_mat = np.ascontiguousarray(
            patches.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)
        )
        w_mat = np.ascontiguousarray(w.reshape(f, c * kh * kw).T)

        sub_attrs = {"gemm": True}
        if "gemm_chunks" in request.attrs:
            sub_attrs["gemm_chunks"] = int(request.attrs["gemm_chunks"])
        sub = OperationRequest(
            task_id=request.task_id,
            opcode=Opcode.CONV2D,
            inputs=(a_mat, w_mat),
            quant=request.quant,
            attrs=sub_attrs,
            input_name=request.input_name,
            output_name=request.output_name,
        )
        inner = (
            self._lower_gemm_conv2d_batched(sub)
            if self.options.vectorized
            else self._lower_gemm_conv2d_scalar(sub)
        )

        # NN epilogue (host float64, deterministic → bit-identical across
        # the scalar and vectorized inner paths): bias, fused ReLU, then
        # per-output-channel int8 requantization.
        out2d = inner.result
        if bias is not None:
            out2d = out2d + bias[None, :]
        if request.attrs.get("relu", False):
            out2d = np.maximum(out2d, 0.0)
        ch_override = request.attrs.get("channel_scales")
        if ch_override is not None:
            ch_scales = np.asarray(ch_override, dtype=np.float64)
            if ch_scales.shape != (f,) or not np.all(ch_scales > 0):
                raise TensorizerError(
                    f"channel_scales must be {f} positive floats"
                )
        else:
            cmax = np.abs(out2d).max(axis=0)
            ch_scales = np.array(
                [self._params_for_range(float(m) * 1.05).scale for m in cmax]
            )
        q = np.rint(out2d * ch_scales[None, :])
        saturated = int(np.count_nonzero((q < QMIN) | (q > QMAX)))
        deq = np.clip(q, QMIN, QMAX) / ch_scales[None, :]
        result = np.ascontiguousarray(
            deq.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)
        )
        # §7.1.3-style host transform cost: im2col writes A once, the
        # epilogue touches every output value once.
        host_seconds = self.cpu.elementwise_seconds(
            a_mat.size + deq.size, bytes_per_elem=8
        )
        return LoweredOperation(
            request,
            inner.instrs,
            result,
            cpu_seconds=inner.cpu_seconds + host_seconds,
            saturated=inner.saturated + saturated,
            integrity=inner.integrity,
        )
