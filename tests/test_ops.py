"""Forward-op contract examples and randomized naive-oracle comparisons."""

import numpy as np
import pytest

from csanet import ops
from csanet.autodiff import Tensor
from csanet.errors import ConfigurationError, DataError, DimensionError

from oracles import (
    _col2im_add,
    _pad_hw,
    _windows,
    naive_avg_pool,
    naive_conv1d,
    naive_conv2d,
    naive_linear,
    oracle_batch_norm,
    oracle_conv2d,
)
from test_numerics_contract import assert_within_dtype_rule


class TestConv2d:
    """ops.conv2d is the (1, K) time conv; oracle_conv2d the general 2-d conv
    it narrowed from, pinned here against the naive loops."""

    def test_moving_sum(self):
        x = Tensor(np.array([[[[1.0, 2.0, 3.0, 4.0]]]]))
        w = Tensor(np.array([[[[1.0, 1.0]]]]))
        out = ops.conv2d(x, w)
        np.testing.assert_allclose(out.data.ravel(), [3.0, 5.0, 7.0])

    def test_pointwise_channel_merge(self):
        x = Tensor(np.array([[[[1.0, 2.0, 3.0]], [[10.0, 20.0, 30.0]]]]))  # (1, 2, 1, 3)
        w = Tensor(np.ones((1, 2, 1, 1)))
        out = ops.conv2d(x, w)
        np.testing.assert_allclose(out.data.ravel(), [11.0, 22.0, 33.0])

    @pytest.mark.parametrize("height", [1, 3])
    def test_time_conv_matches_naive_oracle_and_oracle_conv2d_gradients(self, f64, rng, height):
        x = Tensor(rng.standard_normal((2, 3, height, 9)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 1, 4)), requires_grad=True)
        out = ops.conv2d(x, w)
        np.testing.assert_allclose(out.data, naive_conv2d(x.data, w.data), atol=1e-12)
        gout = Tensor(rng.standard_normal(out.shape))
        (out * gout).sum().backward()
        got = (x.grad, w.grad)
        x.zero_grad()
        w.zero_grad()
        (oracle_conv2d(x, w) * gout).sum().backward()
        for g, e in zip(got, (x.grad, w.grad)):
            np.testing.assert_allclose(g, e, rtol=0, atol=1e-12)

    def test_kernel_height_above_one_is_dimension_error(self):
        x = Tensor(np.zeros((1, 1, 4, 4)))
        w = Tensor(np.zeros((1, 1, 2, 2)))
        with pytest.raises(DimensionError):
            ops.conv2d(x, w)

    def test_matches_naive_oracle(self, f64, rng):
        x = rng.standard_normal((2, 3, 4, 5))
        w = rng.standard_normal((6, 3, 3, 3))
        out = oracle_conv2d(Tensor(x), Tensor(w), padding=(1, 1))
        np.testing.assert_allclose(out.data, naive_conv2d(x, w, padding=(1, 1)), atol=1e-6)

    def test_grouped_matches_naive_oracle(self, f64, rng):
        x = rng.standard_normal((2, 4, 5, 5))
        w = rng.standard_normal((8, 2, 2, 2))
        out = oracle_conv2d(Tensor(x), Tensor(w), groups=2, stride=(2, 1))
        np.testing.assert_allclose(
            out.data, naive_conv2d(x, w, stride=(2, 1), groups=2), atol=1e-6
        )

    def test_group_mismatch_is_config_error(self):
        x = Tensor(np.zeros((1, 3, 4, 4)))
        w = Tensor(np.zeros((4, 1, 2, 2)))
        with pytest.raises(ConfigurationError):
            oracle_conv2d(x, w, groups=2)

    def test_kernel_too_large_is_dimension_error(self):
        x = Tensor(np.zeros((1, 1, 1, 2)))
        w = Tensor(np.zeros((1, 1, 1, 3)))
        with pytest.raises(DimensionError):
            ops.conv2d(x, w)


def closure_cell(out, name):
    fn = out._backward
    return fn.__closure__[fn.__code__.co_freevars.index(name)].cell_contents


class TestZeroPadding:
    """With no padding, oracle_conv2d and avg_pool2d read and keep x.data itself."""

    def test_conv2d_keeps_the_input_not_a_copy(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 1, 2)), requires_grad=True)
        out = oracle_conv2d(x, w)
        assert closure_cell(out, "xp") is x.data
        out.sum().backward()
        assert x.grad.shape == x.shape and w.grad.shape == w.shape

    def test_avg_pool2d_keeps_the_input_not_a_copy(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 1, 6)), requires_grad=True)
        out = ops.avg_pool2d(x, 2)
        assert closure_cell(out, "xp") is x.data
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, np.full(x.shape, 0.5))


def window_sum_pool(x, kernel, stride, padding):
    """The (1, kernel) pool as a 2-d window sum, forward and backward, with
    the 2-d helpers oracle_conv2d kept (the pool's earlier formula)."""
    xp = _pad_hw(x.data, 0, padding)
    div = np.array(kernel, dtype=x.dtype)
    out = _windows(xp, 1, kernel, 1, stride).sum(axis=(-2, -1)) / div
    gout = np.random.Generator(np.random.PCG64(3)).standard_normal(out.shape).astype(x.dtype)
    gxp = np.zeros_like(xp)
    gpatch = np.broadcast_to((gout / div)[..., None, None], out.shape + (1, kernel))
    _col2im_add(gxp, gpatch, 1, stride)
    return out, gout, gxp[..., padding : padding + x.shape[-1]]


class TestAvgPool:
    def test_simple_halving(self):
        x = Tensor(np.array([[[[1.0, 2.0, 3.0, 4.0]]]]))
        out = ops.avg_pool2d(x, 2)
        np.testing.assert_allclose(out.data.ravel(), [1.5, 3.5])

    def test_zero_padded_mean_counts_pad(self):
        x = Tensor(np.ones((1, 1, 1, 3)))
        out = ops.avg_pool2d(x, 3, stride=1, padding=1)
        np.testing.assert_allclose(out.data.ravel(), [2.0 / 3.0, 1.0, 2.0 / 3.0])

    @pytest.mark.parametrize("kernel,padding", [(3, 1), (5, 2), (7, 3)])
    def test_length_preserving_shapes(self, rng, kernel, padding):
        x = Tensor(rng.standard_normal((1, 1, 1, 17)))
        out = ops.avg_pool2d(x, kernel, stride=1, padding=padding)
        assert out.shape == (1, 1, 1, 17)

    def test_matches_naive_oracle(self, f64, rng):
        x = rng.standard_normal((2, 3, 1, 10))  # 10 % 3 and 10 % 4 leave a remainder
        for kernel, stride, padding in [(3, 3, 0), (3, 1, 1), (4, 4, 2), (2, 1, 0)]:
            out = ops.avg_pool2d(Tensor(x), kernel, stride=stride, padding=padding)
            np.testing.assert_allclose(
                out.data, naive_avg_pool(x, (1, kernel), (1, stride), (0, padding)), atol=1e-6
            )

    @pytest.mark.parametrize("layout", ["contiguous", "transposed"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel", range(3, 9))
    @pytest.mark.parametrize("stride", ["one", "kernel"])
    def test_is_bitwise_the_window_sum(self, rng, kernel, stride, dtype, layout):
        stride, padding = (1, (kernel - 1) // 2) if stride == "one" else (kernel, 0)
        if layout == "contiguous":
            data = rng.standard_normal((2, 5, 1, 41)).astype(dtype)
        else:  # the (B, T, C) memory that conv1d_dilated returns, read as (B, C, 1, T)
            data = rng.standard_normal((2, 41, 5)).astype(dtype).transpose(0, 2, 1)[:, :, None]
        x = Tensor(data, requires_grad=True)
        out = ops.avg_pool2d(x, kernel, stride=stride, padding=padding)
        want, gout, gx = window_sum_pool(x, kernel, stride, padding)
        out.backward(gout)
        for got, expected in ((out.data, want), (x.grad, gx)):
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)
            assert got.strides == expected.strides

    def test_two_d_pool_is_dimension_error(self):
        x = Tensor(np.zeros((1, 1, 2, 4)))
        with pytest.raises(DimensionError):
            ops.avg_pool2d(x, 2)

    def test_stride_other_than_one_or_kernel_is_config_error(self):
        x = Tensor(np.zeros((1, 1, 1, 8)))
        with pytest.raises(ConfigurationError):
            ops.avg_pool2d(x, 3, stride=2)

    def test_window_larger_than_input_is_dimension_error(self):
        x = Tensor(np.zeros((1, 1, 1, 3)))
        with pytest.raises(DimensionError):
            ops.avg_pool2d(x, 5, stride=1)

    def test_padding_not_below_kernel_is_config_error(self):
        x = Tensor(np.zeros((1, 1, 1, 3)))
        with pytest.raises(ConfigurationError):
            ops.avg_pool2d(x, 2, stride=1, padding=2)


class TestLinear:
    def test_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        out = ops.linear(x, Tensor(np.eye(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, x.data)

    def test_tiny_example(self):
        out = ops.linear(Tensor([[1.0, 2.0]]), Tensor([[1.0, 1.0]]), Tensor([0.0]))
        np.testing.assert_allclose(out.data, [[3.0]])

    def test_matches_naive_oracle(self, f64, rng):
        x = rng.standard_normal((4, 8))
        w = rng.standard_normal((5, 8))
        b = rng.standard_normal(5)
        out = ops.linear(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, naive_linear(x, w, b), atol=1e-6)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            ops.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


class TestBatchNorm:
    def test_constant_input_gives_zeros(self):
        x = Tensor(np.full((4, 2, 5), 3.0))
        gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
        out = ops.batch_norm(x, gamma, beta, np.zeros(2), np.ones(2), training=True)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_normalizes_per_channel(self, f64, rng):
        x = rng.standard_normal((16, 3, 20)) * np.array([1.0, 5.0, 0.3])[None, :, None] + 2.0
        out = ops.batch_norm(
            Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), np.zeros(3), np.ones(3), training=True
        )
        np.testing.assert_allclose(out.data.mean(axis=(0, 2)), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.data.std(axis=(0, 2)), 1.0, atol=1e-4)

    def test_eval_mode_is_affine_in_running_stats(self):
        x = Tensor(np.arange(12.0).reshape(3, 2, 2))
        out = ops.batch_norm(
            Tensor(x.data),
            Tensor(np.full(2, 2.0)),
            Tensor(np.full(2, 3.0)),
            np.zeros(2),
            np.ones(2),
            training=False,
        )
        np.testing.assert_allclose(out.data, 2.0 * x.data / np.sqrt(1.0 + ops.BN_EPS) + 3.0, rtol=1e-6)

    def test_batch_of_one_is_config_error(self):
        x = Tensor(np.zeros((1, 2, 4)))
        with pytest.raises(ConfigurationError):
            ops.batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), np.zeros(2), np.ones(2), True)

    def test_running_stats_update(self):
        rm, rv = np.zeros(1), np.ones(1)
        x = Tensor(np.array([[[0.0, 2.0]], [[4.0, 6.0]]]))  # mean 3, biased var 5
        ops.batch_norm(x, Tensor(np.ones(1)), Tensor(np.zeros(1)), rm, rv, training=True)
        assert ops.BN_MOMENTUM == 0.1
        assert rm[0] == pytest.approx(0.1 * 3.0)
        assert rv[0] == pytest.approx(0.9 + 0.1 * 5.0 * 4 / 3)


def _bn_array(rng, shape, layout, dtype):
    """A (B, C, ...) array, C-contiguous, channels-last in memory (as
    conv1d_dilated returns its output) or with every axis reversed."""
    if layout == "contiguous":
        a = rng.standard_normal(shape) + 0.3
    elif layout == "channels_last":
        a = np.moveaxis(rng.standard_normal((shape[0],) + shape[2:] + (shape[1],)) + 0.3, -1, 1)
    else:
        a = (rng.standard_normal(shape[::-1]) + 0.3).T
    return a.astype(dtype, copy=False)


def _bn_run(bn, shape, dtype, training, x_layout, grad_layout):
    """Output, grads of x, gamma and beta and both running buffers after
    one forward and a backward from an upstream gradient of a given layout;
    in eval mode, which records no tape, the output and the buffers."""
    rng = np.random.Generator(np.random.PCG64(77))
    C = shape[1]
    x = Tensor(_bn_array(rng, shape, x_layout, dtype), requires_grad=True)
    gamma = Tensor((1.0 + 0.1 * rng.standard_normal(C)).astype(dtype), requires_grad=True)
    beta = Tensor((0.2 * rng.standard_normal(C)).astype(dtype), requires_grad=True)
    rm = (0.1 * rng.standard_normal(C)).astype(dtype)
    rv = (1.0 + rng.random(C)).astype(dtype)
    out = bn(x, gamma, beta, rm, rv, training)
    if not training:
        return {"output": out.data, "running mean": rm, "running var": rv}
    out.backward(_bn_array(rng, shape, grad_layout, dtype))
    grads = {"x grad": x.grad, "gamma grad": gamma.grad, "beta grad": beta.grad}
    return {"output": out.data, **grads, "running mean": rm, "running var": rv}


# (B, C, T) maps of the TCN at the default and mini configs, a small odd
# one, and a 4-d map.
BN_SHAPES = [(2, 32, 17), (2, 4, 4), (5, 3, 7), (3, 4, 1, 11)]


@pytest.mark.parametrize("grad_layout", ["contiguous", "reversed"])
@pytest.mark.parametrize("x_layout", ["contiguous", "channels_last"])
@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", BN_SHAPES, ids=["x".join(map(str, s)) for s in BN_SHAPES])
def test_batch_norm_is_bitwise_the_oracle(shape, dtype, training, x_layout, grad_layout):
    """Held to the numerics contract's tolerance for its dtype since batch
    norm runs the fused ops' kernel pair (float64 batch sums over the
    (C, B, rest) layout); it was bitwise with the oracle before."""
    bns = (ops.batch_norm, oracle_batch_norm)
    got, want = (_bn_run(bn, shape, dtype, training, x_layout, grad_layout) for bn in bns)
    assert got.keys() == want.keys()
    for name, w in want.items():
        assert_within_dtype_rule(got[name], w, name)


def test_eval_batch_norm_records_no_tape():
    x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
    gamma, beta = Tensor(np.ones(3), requires_grad=True), Tensor(np.zeros(3), requires_grad=True)
    out = ops.batch_norm(x, gamma, beta, np.zeros(3), np.ones(3), training=False)
    assert not out.requires_grad and out._backward is None and out._prev == ()


class TestPointwise:
    def test_elu_definition(self):
        x = Tensor(np.array([-2.0, -0.5, 0.0, 1.5]))
        out = ops.elu(x)
        expected = np.where(x.data > 0, x.data, np.expm1(x.data))
        np.testing.assert_allclose(out.data, expected, rtol=1e-6)

    def test_softmax_uniform(self):
        out = ops.softmax(Tensor(np.array([1.0, 1.0, 1.0, 1.0])), axis=-1)
        np.testing.assert_allclose(out.data, 0.25)

    def test_softmax_rows_sum_to_one(self, rng):
        x = Tensor(rng.standard_normal((8, 11)).astype(np.float32) * 4)
        out = ops.softmax(x, axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)
        assert (out.data >= 0).all() and (out.data <= 1).all()

    def test_cross_entropy_ln2(self):
        out = ops.cross_entropy(Tensor(np.array([[0.0, 0.0]])), np.array([0]))
        assert float(out.data) == pytest.approx(np.log(2.0), abs=1e-6)

    def test_cross_entropy_target_out_of_range(self):
        with pytest.raises(DataError):
            ops.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))

    def test_dropout_statistics(self):
        rng = np.random.Generator(np.random.PCG64(99))
        x = Tensor(np.ones(10_000))
        out = ops.dropout(x, p=0.5, training=True, rng=rng)
        survivors = (out.data != 0).mean()
        assert abs(survivors - 0.5) < 0.02
        assert abs(out.data.mean() - 1.0) < 0.05  # survivor scaling preserves the mean

    def test_dropout_eval_is_identity(self):
        x = Tensor(np.ones(8))
        assert ops.dropout(x, 0.5, training=False) is x

    def test_dropout_bad_probability(self):
        with pytest.raises(ConfigurationError):
            ops.dropout(Tensor(np.ones(3)), 1.0, training=True, rng=np.random.default_rng(0))


class TestConv1dDilated:
    def test_causality_of_left_padding(self, f64, rng):
        x = rng.standard_normal((1, 2, 10))
        w = rng.standard_normal((2, 2, 3))
        base = ops.conv1d_dilated(Tensor(x), Tensor(w), dilation=2, pad=(4, 0)).data
        bumped = x.copy()
        bumped[:, :, 6] += 10.0
        out = ops.conv1d_dilated(Tensor(bumped), Tensor(w), dilation=2, pad=(4, 0)).data
        np.testing.assert_allclose(out[:, :, :6], base[:, :, :6], atol=1e-12)
        assert not np.allclose(out[:, :, 6:], base[:, :, 6:])

    def test_matches_explicit_sum(self, f64, rng):
        x = rng.standard_normal((2, 3, 8))
        w = rng.standard_normal((4, 3, 2))
        out = ops.conv1d_dilated(Tensor(x), Tensor(w), dilation=3, pad=(3, 0)).data
        xp = np.pad(x, ((0, 0), (0, 0), (3, 0)))
        expected = np.einsum("oi,bit->bot", w[:, :, 0], xp[:, :, :8]) + np.einsum(
            "oi,bit->bot", w[:, :, 1], xp[:, :, 3:11]
        )
        np.testing.assert_allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize("case", range(120))
    def test_forward_and_gradients_match_naive_oracle(self, f64, case):
        # Dilation 1-3, left padding 0 .. span - 1, inputs from exactly one
        # kernel span (a single output) to ten samples past it.
        rng = np.random.Generator(np.random.PCG64(500 + case))
        B, cin, cout, K, dilation = (int(v) for v in rng.integers((1, 1, 1, 1, 1), (3, 4, 4, 6, 4)))
        span = (K - 1) * dilation + 1
        left_pad = int(rng.integers(0, span))
        T = int(rng.integers(max(1, span - left_pad), span - left_pad + 11))
        x = Tensor(rng.standard_normal((B, cin, T)), requires_grad=True)
        w = Tensor(rng.standard_normal((cout, cin, K)), requires_grad=True)
        out = ops.conv1d_dilated(x, w, dilation=dilation, pad=(left_pad, 0))
        gout = rng.standard_normal(out.shape)
        (out * Tensor(gout)).sum().backward()
        want = naive_conv1d(x.data, w.data, dilation, left_pad, gout)
        for name, g, e in zip(("output", "input grad", "weight grad"), (out.data, x.grad, w.grad), want):
            assert g.shape == e.shape, name
            np.testing.assert_allclose(g, e, rtol=0, atol=1e-12, err_msg=name)

    def test_no_padding_keeps_no_copy_of_the_input(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 9)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 3)), requires_grad=True)
        out = ops.conv1d_dilated(x, w, dilation=2)
        assert ops._pad_time(x.data, (0, 0)) is x.data
        # The tape keeps the parents, not a padded copy or a window matrix.
        kept = [cell.cell_contents for cell in out._backward.__closure__]
        assert not any(isinstance(v, np.ndarray) for v in kept)
        out.sum().backward()
        assert x.grad.shape == x.shape and w.grad.shape == w.shape
