"""Integrity plans: Tensorizer construction, off-mode purity, write-back."""

import numpy as np
import pytest

import repro.runtime.tensorizer as tensorizer_mod
from repro.edgetpu.device import EdgeTPUDevice
from repro.edgetpu.isa import Opcode
from repro.errors import TensorizerError
from repro.integrity.plan import IntegrityPlan, make_exact_check, make_gemm_checks
from repro.integrity.verifier import IntegrityVerifier
from repro.runtime.opqueue import OperationRequest, QuantMode
from repro.runtime.tensorizer import Tensorizer, TensorizerOptions


def gemm_request(m=70, k=48, n=40, seed=0, task_id=0):
    rng = np.random.default_rng(seed)
    return OperationRequest(
        task_id=task_id,
        opcode=Opcode.CONV2D,
        inputs=(rng.standard_normal((m, k)), rng.standard_normal((k, n))),
        quant=QuantMode.SCALE,
        attrs={"gemm": True},
    )


class TestOptions:
    def test_unknown_mode_rejected(self):
        with pytest.raises(TensorizerError):
            Tensorizer(options=TensorizerOptions(integrity="checksum"))

    def test_integrity_requires_vectorized_path(self):
        with pytest.raises(TensorizerError):
            Tensorizer(
                options=TensorizerOptions(integrity="abft", vectorized=False)
            )


class TestPlanConstruction:
    def test_off_builds_no_plan(self):
        op = Tensorizer().lower(gemm_request())
        assert op.integrity is None

    def test_abft_plan_covers_every_result_instr(self):
        tz = Tensorizer(options=TensorizerOptions(integrity="abft"))
        op = tz.lower(gemm_request())
        plan = op.integrity
        assert isinstance(plan, IntegrityPlan) and plan.mode == "abft"
        labels = {i.label for i in op.instrs}
        assert set(plan.checks) == labels  # one check per GEMM instruction
        assert tz.stats.integrity_plans == 1
        assert tz.stats.integrity_tiles_planned == plan.tiles

    def test_pairwise_ops_get_exact_checks(self):
        tz = Tensorizer(options=TensorizerOptions(integrity="abft"))
        rng = np.random.default_rng(1)
        op = tz.lower(
            OperationRequest(
                task_id=0,
                opcode=Opcode.ADD,
                inputs=(rng.standard_normal((200, 150)),) * 2,
                quant=QuantMode.SCALE,
            )
        )
        assert op.integrity is not None and op.integrity.tiles > 0
        assert all(c.exact for c in op.integrity.checks.values())

    def test_coalesced_lowering_plans_per_request(self):
        tz = Tensorizer(options=TensorizerOptions(integrity="abft"))
        rng = np.random.default_rng(2)
        b = rng.standard_normal((48, 40))  # coalescing shares the model
        reqs = [
            OperationRequest(
                task_id=s,
                opcode=Opcode.CONV2D,
                inputs=(rng.standard_normal((70, 48)), b),
                quant=QuantMode.SCALE,
                attrs={"gemm": True},
            )
            for s in (1, 2, 3)
        ]
        ops = tz.lower_gemm_coalesced(reqs)
        assert len(ops) == 3
        for op in ops:
            assert op.integrity is not None
            assert set(op.integrity.checks) == {i.label for i in op.instrs}

    def test_tile_geometry_covers_the_result(self):
        tz = Tensorizer(options=TensorizerOptions(integrity="abft"))
        op = tz.lower(gemm_request(m=70, n=40))
        covered = np.zeros(op.result.shape, dtype=int)
        for check in op.integrity.checks.values():
            r0, r1 = check.rows
            c0, c1 = check.cols
            assert check.expected.shape == check.shape
            covered[r0:r1, c0:c1] += 1
        np.testing.assert_array_equal(covered, 1)  # exact partition


class TestOffModePurity:
    def test_off_is_bit_identical_to_abft_lowering(self):
        req = gemm_request(seed=9)
        off = Tensorizer().lower(req).result
        abft = Tensorizer(options=TensorizerOptions(integrity="abft")).lower(req).result
        np.testing.assert_array_equal(off, abft)

    def test_off_never_touches_check_constructors(self, monkeypatch):
        # Overhead guard: with integrity off, lowering must not build a
        # single TileCheck (no per-tile checksum allocation on the hot
        # path).  Poisoning the constructors proves it.
        def boom(*args, **kwargs):
            raise AssertionError("check constructor called with integrity off")

        monkeypatch.setattr(tensorizer_mod, "make_gemm_checks", boom)
        monkeypatch.setattr(tensorizer_mod, "make_exact_check", boom)
        tz = Tensorizer()  # integrity off by default
        op = tz.lower(gemm_request())
        assert op.integrity is None
        assert tz.stats.integrity_plans == 0


class TestWriteBack:
    def test_clean_round_trip_is_bit_identical(self):
        # Transmit every expected tile through a clean device, verify,
        # write back — the result must not change by a single bit.
        tz = Tensorizer(options=TensorizerOptions(integrity="abft"))
        op = tz.lower(gemm_request(seed=4))
        reference = op.result.copy()
        verifier = IntegrityVerifier("abft")
        verdict = verifier.verify_op(
            op.integrity, [i.label for i in op.instrs], EdgeTPUDevice("tpu0")
        )
        assert verdict.ok and verdict.checked == op.integrity.tiles
        verdict.apply(op.result)
        np.testing.assert_array_equal(op.result, reference)

    def test_corrupted_tile_is_detected_not_applied(self):
        tz = Tensorizer(options=TensorizerOptions(integrity="abft"))
        op = tz.lower(gemm_request(seed=5))
        reference = op.result.copy()
        device = EdgeTPUDevice("tpu0")
        device.inject_fault(after_instructions=0, failures=1, mode="bitflip", seed=8)
        device.check_fault(1)  # trip the corruption threshold
        verdict = IntegrityVerifier("abft").verify_op(
            op.integrity, [i.label for i in op.instrs], device
        )
        assert not verdict.ok and len(verdict.detections) == 1
        with pytest.raises(AssertionError):
            verdict.apply(op.result)  # refuses partial write-back
        np.testing.assert_array_equal(op.result, reference)  # untouched

    def test_gemm_check_exact_fallback_for_saturating_strips(self):
        # Two chunks of one row, one batch: the saturating chunk gets
        # exact post-clip sums, the other keeps the ABFT sums and slack.
        q = np.array([[100.0, -120.0], [50.0, 127.0]])
        acc = np.array([[10.0, -12.0], [5.0, 12.7]])
        saturating, clean = make_gemm_checks(
            [("t0", (0, 1), (0, 2)), ("t1", (0, 1), (0, 2))],
            q=q,
            acc_sums=(acc.sum(axis=1, keepdims=True), acc),
            q_sums=(q.sum(axis=1, keepdims=True), q),
            rescale=np.full((2, 1), 10.0),
            out_scales=np.full((2, 1), 2.0),
            exact=[True, False],
            row_starts=np.array([0, 1]),
            heights=np.array([1, 1]),
            col_starts=np.array([0]),
            widths=np.array([2]),
        )
        assert saturating.exact and not clean.exact
        assert saturating.row_tol < 0.5  # exact: no quantization slack
        np.testing.assert_array_equal(saturating.row_sums, [-20.0])
        np.testing.assert_array_equal(saturating.col_sums, [100.0, -120.0])
        assert clean.row_tol >= 0.5 * 2  # half a quantum per summed element
        np.testing.assert_array_equal(clean.row_sums, [177.0])
        np.testing.assert_array_equal(clean.expected, [[50, 127]])

    def test_exact_check_write_back_matches_dequantize(self):
        q = np.array([[3, -7], [1, 0]], dtype=np.int8)
        check = make_exact_check("t", (0, 2), (0, 2), q, out_scale=0.7)
        result = np.zeros((2, 2))
        check.write_back(result, q)
        np.testing.assert_array_equal(
            result, np.asarray(q, dtype=np.float64) / 0.7
        )
