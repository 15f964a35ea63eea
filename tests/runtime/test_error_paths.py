"""Failure-injection tests: invalid inputs fail loudly and leave the
context usable."""

import numpy as np
import pytest

from repro.errors import QuantizationError, RuntimeAPIError, TensorizerError
from repro.host.platform import Platform
from repro.runtime import OpenCtpu


@pytest.fixture()
def ctx():
    return OpenCtpu(Platform.with_tpus(1))


def rand(shape, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 4.0, shape)


class TestBadNumerics:
    def test_nan_input_raises_quantization_error(self, ctx):
        bad = np.array([[1.0, np.nan], [0.0, 2.0]])
        with pytest.raises(QuantizationError, match="finite"):
            ctx.invoke_operator("add", bad, np.ones((2, 2)))

    def test_inf_input_raises(self, ctx):
        bad = np.array([[np.inf]])
        with pytest.raises(QuantizationError):
            ctx.invoke_operator("ReLu", bad)

    def test_failed_invoke_leaves_no_pending_work(self, ctx):
        with pytest.raises(QuantizationError):
            ctx.invoke_operator("ReLu", np.array([[np.nan]]))
        assert ctx.pending_operations == 0

    def test_context_usable_after_failure(self, ctx):
        with pytest.raises(QuantizationError):
            ctx.invoke_operator("ReLu", np.array([[np.nan]]))
        a = rand((16, 16))
        out = ctx.invoke_operator("ReLu", a)
        assert out.shape == a.shape
        assert ctx.sync().wall_seconds > 0


class TestBadShapes:
    def test_pairwise_shape_mismatch(self, ctx):
        with pytest.raises(TensorizerError, match="shapes differ"):
            ctx.invoke_operator("mul", rand((4, 4)), rand((4, 5)))

    def test_unary_needs_2d(self, ctx):
        with pytest.raises(TensorizerError, match="2-D"):
            ctx.invoke_operator("tanh", rand((8,)))

    def test_gemm_inner_dim_mismatch(self, ctx):
        with pytest.raises(TensorizerError, match="inner dims"):
            ctx.invoke_operator("conv2D", rand((4, 5)), rand((4, 5)), gemm=True)

    @pytest.mark.parametrize("a_shape, b_shape", [((0, 4), (4, 3)), ((5, 0), (0, 3)), ((5, 4), (4, 0))])
    def test_empty_gemm_operand_rejected(self, ctx, a_shape, b_shape):
        with pytest.raises(QuantizationError, match="empty"):
            ctx.invoke_operator("conv2D", np.ones(a_shape), np.ones(b_shape), gemm=True)

    def test_empty_inputs_rejected(self, ctx):
        with pytest.raises(RuntimeAPIError, match="at least one input"):
            ctx.invoke_operator("add")

    def test_crop_box_out_of_bounds_surfaces(self, ctx):
        from repro.errors import UnsupportedInstructionError

        with pytest.raises(UnsupportedInstructionError):
            ctx.invoke_operator("crop", rand((4, 4)), crop_box=(3, 3, 4, 4))


class TestBadOptions:
    def test_unknown_scaling_rule_rejected(self):
        from repro.runtime.tensorizer import Tensorizer, TensorizerOptions

        with pytest.raises(TensorizerError, match="scaling_rule"):
            Tensorizer(options=TensorizerOptions(scaling_rule="vibes"))

    def test_kernel_exception_propagates_and_clears_task(self, ctx):
        def bad_kernel():
            raise ValueError("kernel bug")

        with pytest.raises(ValueError, match="kernel bug"):
            ctx.enqueue(bad_kernel)
        # The context is not wedged in a "current task" state.
        ctx.invoke_operator("add", rand((8, 8)), rand((8, 8)))
        assert ctx.pending_operations == 1

    def test_buffer_without_data_rejected_as_input(self, ctx):
        empty = ctx.create_buffer(ctx.alloc_dimension(2, 4, 4))
        with pytest.raises(RuntimeAPIError, match="no data"):
            ctx.invoke_operator("ReLu", empty)
