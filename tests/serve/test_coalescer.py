"""Request coalescing: eligibility, grouping, and bit-identity.

The acceptance bar for coalescing is exact: a GEMM lowered inside a
multi-client coalesced group must produce results **bit-identical** to
the same request lowered alone (``tobytes`` equality).  The hypothesis
property test drives random shapes, data styles, and group sizes
through both paths.
"""

import asyncio
import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edgetpu.isa import Opcode
from repro.errors import TensorizerError
from repro.plan import PlanCache
from repro.runtime.opqueue import OperationRequest, QuantMode
from repro.runtime.tensorizer import Tensorizer, TensorizerOptions
from repro.serve.coalescer import coalesce, coalesce_key
from repro.serve.request import ServeRequest


def gemm_request(a, b, quant=QuantMode.SCALE, tenant="", **attrs):
    attrs = {"gemm": True, **attrs}
    return OperationRequest(
        task_id=1,
        opcode=Opcode.CONV2D,
        inputs=(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)),
        quant=quant,
        attrs=attrs,
        tenant=tenant,
    )


def _sreq(serve_id, request):
    loop = asyncio.new_event_loop()
    try:
        future = loop.create_future()
    finally:
        loop.close()
    return ServeRequest(
        serve_id=serve_id,
        tenant=request.tenant,
        request=request,
        future=future,
        submitted=0.0,
    )


class TestEligibility:
    def test_matching_gemms_share_a_key(self):
        rng = np.random.default_rng(0)
        b = rng.normal(size=(8, 8))
        k1 = coalesce_key(gemm_request(rng.normal(size=(8, 8)), b))
        k2 = coalesce_key(gemm_request(rng.normal(size=(8, 8)), b))
        assert k1 is not None and k1 == k2

    def test_different_model_operand_splits_keys(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(8, 8))
        k1 = coalesce_key(gemm_request(a, rng.normal(size=(8, 8))))
        k2 = coalesce_key(gemm_request(a, rng.normal(size=(8, 8))))
        assert k1 is not None and k2 is not None and k1 != k2

    def test_ineligible_requests(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(8, 8)), rng.normal(size=(8, 8))
        # Non-GEMM opcode.
        plain = OperationRequest(
            task_id=1, opcode=Opcode.ADD, inputs=(a, b), quant=QuantMode.SCALE
        )
        assert coalesce_key(plain) is None
        # GLOBAL quantization derives scales from the whole dataset.
        assert coalesce_key(gemm_request(a, b, quant=QuantMode.GLOBAL)) is None
        # Unknown attribute: stay conservative.
        assert coalesce_key(gemm_request(a, b, mystery=1)) is None
        # Shape mismatch between operands.
        assert coalesce_key(gemm_request(rng.normal(size=(8, 4)), b)) is None

    def test_chunk_attr_is_part_of_the_key(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(16, 8)), rng.normal(size=(8, 8))
        k1 = coalesce_key(gemm_request(a, b, gemm_chunks=2))
        k2 = coalesce_key(gemm_request(a, b, gemm_chunks=4))
        assert k1 != k2

    def test_nn_opcodes_are_never_coalesced(self):
        # conv2D_nn / pool / softmax carry per-request quantization
        # context (per-channel scales, window geometry, row maxima);
        # merging two of them would bind one request's quant params to
        # another's data.  They must always ride as singletons.
        rng = np.random.default_rng(0)
        conv = OperationRequest(
            task_id=1, opcode=Opcode.CONV2D_NN,
            inputs=(rng.normal(size=(1, 2, 8, 8)), rng.normal(size=(3, 2, 3, 3))),
            quant=QuantMode.SCALE,
            attrs={"stride": (1, 1), "padding": (0, 0, 0, 0)},
        )
        pool = OperationRequest(
            task_id=1, opcode=Opcode.POOL, inputs=(rng.normal(size=(8, 8)),),
            quant=QuantMode.SCALE,
            attrs={"window": (2, 2), "stride": (2, 2), "kind": "max"},
        )
        softmax = OperationRequest(
            task_id=1, opcode=Opcode.SOFTMAX, inputs=(rng.normal(size=(8, 8)),),
            quant=QuantMode.SCALE, attrs={},
        )
        for request in (conv, pool, softmax):
            assert coalesce_key(request) is None
        groups = coalesce([_sreq(i, r) for i, r in
                           enumerate((conv, pool, softmax, conv))])
        assert [len(g) for g in groups] == [1, 1, 1, 1]

    def test_different_quant_params_never_merge(self):
        # Regression for the NN serving mix: two GEMMs over the same
        # shared B but with different quantization parameters (a
        # per-channel calibration attr, or a different QuantMode) must
        # land in separate groups — a merged lowering would quantize
        # both tenants' activations with one request's params.
        rng = np.random.default_rng(1)
        b = rng.normal(size=(8, 8))
        plain = gemm_request(rng.normal(size=(8, 8)), b)
        calibrated = gemm_request(
            rng.normal(size=(8, 8)), b, channel_scales=(2.0,) * 8
        )
        global_quant = gemm_request(
            rng.normal(size=(8, 8)), b, quant=QuantMode.GLOBAL
        )
        assert coalesce_key(calibrated) is None
        assert coalesce_key(global_quant) is None
        groups = coalesce([
            _sreq(0, plain), _sreq(1, calibrated),
            _sreq(2, global_quant), _sreq(3, plain),
        ])
        # The two plain requests pair up; the differing-quant requests
        # stay alone, in arrival order.
        assert [sorted(s.serve_id for s in g) for g in groups] == [[0, 3], [1], [2]]


class TestGrouping:
    def test_groups_preserve_fcfs_and_max_size(self):
        rng = np.random.default_rng(1)
        b = rng.normal(size=(8, 8))
        sreqs = [
            _sreq(i, gemm_request(rng.normal(size=(8, 8)), b)) for i in range(5)
        ]
        groups = coalesce(sreqs, max_group=2)
        assert [[s.serve_id for s in g] for g in groups] == [[0, 1], [2, 3], [4]]

    def test_ineligible_become_singletons_in_place(self):
        rng = np.random.default_rng(1)
        b = rng.normal(size=(8, 8))
        eligible = [_sreq(i, gemm_request(rng.normal(size=(8, 8)), b)) for i in (0, 2)]
        plain = _sreq(
            1,
            OperationRequest(
                task_id=1,
                opcode=Opcode.ADD,
                inputs=(np.ones((4, 4)), np.ones((4, 4))),
                quant=QuantMode.SCALE,
            ),
        )
        groups = coalesce([eligible[0], plain, eligible[1]])
        assert [[s.serve_id for s in g] for g in groups] == [[0, 2], [1]]


class TestCoalescedLowering:
    def test_rejects_mixed_groups(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(8, 8)), rng.normal(size=(8, 8))
        bad = [gemm_request(a, b), gemm_request(a, b, quant=QuantMode.GLOBAL)]
        with pytest.raises(TensorizerError):
            Tensorizer().lower_gemm_coalesced(bad)

    def test_rejects_different_model_operands(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(8, 8))
        bad = [
            gemm_request(a, rng.normal(size=(8, 8))),
            gemm_request(a, rng.normal(size=(8, 8))),
        ]
        with pytest.raises(TensorizerError):
            Tensorizer().lower_gemm_coalesced(bad)

    def test_singleton_group_matches_plain_lowering(self):
        rng = np.random.default_rng(2)
        request = gemm_request(rng.normal(size=(24, 16)), rng.normal(size=(16, 12)))
        solo = Tensorizer().lower(request).result
        via_coalesce = Tensorizer().lower_gemm_coalesced([request])[0].result
        assert np.asarray(solo).tobytes() == np.asarray(via_coalesce).tobytes()

    @given(
        m=st.integers(2, 256),
        n=st.integers(2, 80),
        k=st.integers(2, 300),
        chunks=st.integers(1, 4),
        n_requests=st.integers(2, 4),
        style=st.sampled_from(["normal", "integers", "constant", "offset", "zero_chunk"]),
        scaling_rule=st.sampled_from(["measured", "formula"]),
        integrity=st.sampled_from(["off", "abft", "vote"]),
        cache_state=st.sampled_from(["none", "cold", "warm"]),
        b32=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_coalesced_results_bit_identical_to_solo(
        self, m, n, k, chunks, n_requests, style, scaling_rule, integrity,
        cache_state, b32, seed,
    ):
        # A coalesced member is its solo lowering, field for field.
        rng = np.random.default_rng(seed)

        def matrix(shape):
            if style == "integers":
                return rng.integers(-50, 50, size=shape).astype(np.float64)
            if style == "constant":
                return np.full(shape, 2.5)
            if style == "offset":  # saturates under the formula rule
                return rng.normal(size=shape) * 0.5 + 10.0
            x = rng.normal(size=shape) * 4
            if style == "zero_chunk":
                x[: max(1, shape[0] // 3)] = 0.0
            return x

        b = matrix((n, k))
        if b32:
            b = b.astype(np.float32)

        def requests():
            return [
                OperationRequest(
                    task_id=i, opcode=Opcode.CONV2D,
                    inputs=(a, b), quant=QuantMode.SCALE,
                    attrs={"gemm": True, "gemm_chunks": chunks},
                    input_name=f"in{i}",
                )
                for i, a in enumerate(data)
            ]

        data = [matrix((m, n)) for _ in range(n_requests)]
        group = requests()
        tz = _cached_tz(cache_state, scaling_rule, integrity)
        _warm(tz, cache_state, group[0])
        coalesced = tz.lower_gemm_coalesced(group)
        assert len(coalesced) == len(group)

        solos = []
        for request in requests():
            ref = _cached_tz(cache_state, scaling_rule, integrity)
            _warm(ref, cache_state, request)
            solos.append(ref.lower(request))
        ref = _cached_tz("warm", scaling_rule, integrity)
        _warm(ref, "warm", requests()[0])
        warm_cpu = ref.lower(requests()[0]).cpu_seconds

        for index, (op, solo) in enumerate(zip(coalesced, solos)):
            assert op.request is group[index]
            want = _expected_member(solo, "in0", index, cache_state, warm_cpu)
            assert lowering_fingerprint(op) == lowering_fingerprint(want)


def _typed_gemm(a, b):
    """A GEMM request whose operands keep their own dtypes."""
    return OperationRequest(
        task_id=1,
        opcode=Opcode.CONV2D,
        inputs=(a, b),
        quant=QuantMode.SCALE,
        attrs={"gemm": True},
    )


class TestKeyMemo:
    """coalesce() memoizes each request's key while its B is unchanged."""

    def test_rehashes_only_when_lowering_swaps_operands(self, monkeypatch):
        import repro.serve.coalescer as coalescer

        calls = []

        def counting(request):
            calls.append(request)
            return coalesce_key(request)

        monkeypatch.setattr(coalescer, "coalesce_key", counting)
        rng = np.random.default_rng(5)
        b = rng.normal(size=(8, 8)).astype(np.float32)
        sreqs = [
            _sreq(i, _typed_gemm(rng.normal(size=(8, 8)).astype(np.float32), b))
            for i in range(3)
        ]
        coalesce(sreqs)
        assert len(calls) == 3
        coalesce(sreqs)
        assert len(calls) == 3
        # A first lowering replaces the operands with float64 copies.
        Tensorizer._normalize_inputs(sreqs[1].request)
        groups = coalesce(sreqs)
        assert len(calls) == 4
        # float32 and float64 B bytes differ, so the lowered one splits off.
        assert [[s.serve_id for s in g] for g in groups] == [[0, 2], [1]]

    @given(
        members=st.lists(
            st.tuples(
                st.integers(0, 2),  # which model operand
                st.sampled_from([np.float32, np.float64]),
                st.sampled_from([4, 8]),  # data rows
                st.booleans(),  # normalized by an earlier lowering
            ),
            min_size=1,
            max_size=12,
        ),
        max_group=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_memo_partition_matches_recomputed_keys(self, members, max_group):
        rng = np.random.default_rng(0)
        bases = [rng.integers(-8, 8, size=(8, 8)) for _ in range(3)]
        shared = {}
        sreqs = []
        for i, (which, dtype, rows, _) in enumerate(members):
            b = shared.setdefault((which, dtype), bases[which].astype(dtype))
            a = rng.integers(-8, 8, size=(rows, 8)).astype(dtype)
            sreqs.append(_sreq(i, _typed_gemm(a, b)))
        coalesce(sreqs, max_group)  # first pass fills every memo
        for sreq, (*_, normalized) in zip(sreqs, members):
            if normalized:
                Tensorizer._normalize_inputs(sreq.request)
        memo = coalesce(sreqs, max_group)
        fresh = coalesce([_sreq(s.serve_id, s.request) for s in sreqs], max_group)
        assert [[s.serve_id for s in g] for g in memo] == [
            [s.serve_id for s in g] for g in fresh
        ]
        for sreq in sreqs:
            assert sreq.coalesce_key == coalesce_key(sreq.request)


# ---------------------------------------------------------------------------
# Full-lowering pins: everything a GEMM lowering hands the serving layer
# ---------------------------------------------------------------------------


def lowering_fingerprint(op):
    """Every observable part of a lowered GEMM, as comparable values.

    Floats are compared through ``float.hex`` and arrays through their
    dtype, shape and bytes, so signed zeros and last-bit differences
    count.
    """
    result = np.asarray(op.result)
    instrs = tuple(
        tuple(
            (f.name, v.hex() if isinstance(v, float) else v)
            for f in dataclasses.fields(i)
            for v in [getattr(i, f.name)]
        )
        for i in op.instrs
    )
    checks = None
    if op.integrity is not None:
        checks = (op.integrity.mode,) + tuple(
            (
                c.label, c.rows, c.cols,
                c.expected.dtype.str, c.expected.shape, c.expected.tobytes(),
                float(c.out_scale).hex(),
                c.row_sums.dtype.str, c.row_sums.tobytes(),
                c.col_sums.dtype.str, c.col_sums.tobytes(),
                float(c.row_tol).hex(), float(c.col_tol).hex(), bool(c.exact),
            )
            for c in op.integrity.checks.values()
        )
    return (
        result.dtype.str, result.shape, result.tobytes(),
        instrs, checks, int(op.saturated), float(op.cpu_seconds).hex(),
        tuple(x.dtype.str for x in op.request.inputs),
    )


def _cached_tz(cache_state, scaling_rule="measured", integrity="off"):
    options = TensorizerOptions(scaling_rule=scaling_rule, integrity=integrity)
    return Tensorizer(
        options=options, plan_cache=None if cache_state == "none" else PlanCache()
    )


def _warm(tz, cache_state, template):
    """Bring *tz*'s plan cache to *cache_state* for requests like *template*."""
    if cache_state == "warm":
        a, b = template.inputs
        tz.lower(dataclasses.replace(
            template, inputs=(np.zeros_like(a), b), input_name="warmup"
        ))


def _expected_member(solo, first_name, index, cache_state, warm_cpu):
    """What coalesced member *index* must be, given its solo lowering.

    A group keeps each member's own data source but shares the first
    member's model source; the group's model builds are charged to the
    first member only when a plan is captured (a plan-free group builds
    per member); the shared-B reshape cost is charged to the first
    member, so later members pay what a model-reusing bind pays.
    """
    name = solo.request.input_name
    instrs = []
    for instr in solo.instrs:
        instr = dataclasses.replace(
            instr, model_cache_key=instr.model_cache_key.replace(name, first_name, 1)
        )
        if index > 0 and cache_state == "cold":
            instr = dataclasses.replace(instr, model_build_seconds=0.0)
        instrs.append(instr)
    return dataclasses.replace(
        solo,
        instrs=instrs,
        cpu_seconds=solo.cpu_seconds if index == 0 else warm_cpu,
    )


#: Expected digest of :func:`_pinned_sequence` (and its stats line):
#: recorded from the per-request lowering loops this kernel replaced.
PINNED_DIGEST = "cd61d0d8b8ae915157436cb669849581c7e19b0dd8c68b8008a166c40e73d52d"
PINNED_STATS = (58, 4, 5, 58)


def _pinned_sequence():
    """A fixed mix of GEMM lowerings covering every kernel branch."""
    rng = np.random.default_rng(20261018)
    shapes = [  # (m, n, k, gemm_chunks): ragged chunks and batches
        (24, 16, 12, None),
        (70, 48, 40, 3),
        (250, 33, 200, 3),
        (256, 60, 300, 4),
    ]
    runs = []
    for scaling_rule in ("measured", "formula"):
        for integrity in ("off", "abft", "vote"):
            for cache_state in ("none", "cold", "warm"):
                runs.append((scaling_rule, integrity, cache_state))
    for scaling_rule, integrity, cache_state in runs:
        tz = _cached_tz(cache_state, scaling_rule, integrity)
        for m, n, k, chunks in shapes:
            attrs = {"gemm": True}
            if chunks is not None:
                attrs["gemm_chunks"] = chunks
            # Narrow, offset data saturates under the loose formula rule.
            spread, offset = (0.5, 10.0) if scaling_rule == "formula" else (3.0, 0.0)
            b = (rng.normal(size=(n, k)) * spread + offset).astype(np.float32)

            def gemm(i, quant=QuantMode.SCALE, name=None):
                a = rng.normal(size=(m, n)) * spread + offset
                if i == 1:
                    a[: m // 2] = 0.0  # an all-zero chunk: fallback scale
                return OperationRequest(
                    task_id=i, opcode=Opcode.CONV2D, inputs=(a, b), quant=quant,
                    attrs=dict(attrs), input_name=name,
                )

            if cache_state == "warm":
                tz.lower(gemm(9))
            yield tz, [tz.lower(gemm(0))]
            yield tz, tz.lower_gemm_coalesced([gemm(i) for i in range(3)])
            yield tz, tz.lower_gemm_coalesced(
                [gemm(i, name=f"buf{i}") for i in range(2)]
            )
            yield tz, [tz.lower(gemm(1, quant=QuantMode.GLOBAL))]
        yield tz, None


_PINNED_STAT_FIELDS = (
    "operations_lowered", "instructions_emitted", "models_built",
    "model_build_seconds", "saturated_values", "tiles_lowered",
    "batched_dispatches", "coalesced_operations", "integrity_plans",
    "integrity_tiles_planned", "plan_captures", "plan_replays",
)


def _pinned_digest():
    h = hashlib.sha256()
    stats = []
    for tz, ops in _pinned_sequence():
        if ops is None:  # end of one Tensorizer's run
            stats.append(tuple(getattr(tz.stats, f) for f in _PINNED_STAT_FIELDS))
            continue
        for op in ops:
            h.update(repr(lowering_fingerprint(op)).encode())
    h.update(repr(stats).encode())
    return h.hexdigest(), stats


class TestPinnedLowerings:
    def test_fixed_mix_matches_the_recorded_digest(self):
        digest, _ = _pinned_digest()
        assert digest == PINNED_DIGEST

    def test_fresh_path_stats_are_pinned(self):
        # Plan-free Tensorizer, fixed request sequence: the work counters
        # the benchmark and the profiler report must not move.
        tz = Tensorizer(options=TensorizerOptions(integrity="abft"))
        rng = np.random.default_rng(7)
        b = rng.normal(size=(60, 300))
        for m, chunks, group in ((256, 4, 1), (256, 4, 3), (70, 3, 2), (40, None, 1)):
            attrs = {"gemm": True}
            if chunks is not None:
                attrs["gemm_chunks"] = chunks
            reqs = [
                OperationRequest(
                    task_id=i, opcode=Opcode.CONV2D,
                    inputs=(rng.normal(size=(m, 60)), b),
                    quant=QuantMode.SCALE, attrs=dict(attrs),
                )
                for i in range(group)
            ]
            tz.lower_gemm_coalesced(reqs)
        s = tz.stats
        got = (s.tiles_lowered, s.batched_dispatches, s.coalesced_operations,
               s.integrity_tiles_planned)
        assert got == PINNED_STATS
