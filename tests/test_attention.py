"""Top-k sparsified attention: contract examples and invariants."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from csanet import ops
from csanet.attention import (
    AttentionParams,
    keep_count,
    msca_forward,
    multiscale_pool,
    residual_fuse,
    topk_mask,
    topk_mix,
    topk_softmax,
)
from csanet.autodiff import Tensor, precision
from csanet.config import AttentionConfig
from csanet.errors import ConfigurationError, DimensionError

from oracles import naive_multihead_attention, oracle_topk_mask, oracle_topk_softmax


def make_params(width, seed=0):
    with precision("float64"):
        return AttentionParams(width, np.random.Generator(np.random.PCG64(seed)))


class TestTopkSoftmax:
    def test_closed_form_keep_two(self):
        out = topk_softmax(Tensor(np.array([1.0, 2.0, 3.0, 4.0])), keep=2)
        lo = 1.0 / (1.0 + math.e)
        hi = math.e / (1.0 + math.e)
        np.testing.assert_allclose(out.data, [0.0, 0.0, lo, hi], atol=1e-12)

    def test_keep_all_is_ordinary_softmax(self, rng):
        x = rng.standard_normal((3, 5))
        full = topk_softmax(Tensor(x), keep=5).data
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        np.testing.assert_allclose(full, e / e.sum(axis=-1, keepdims=True), atol=1e-12)

    def test_keep_one_is_one_hot_argmax(self, rng):
        x = rng.standard_normal((4, 6))
        out = topk_softmax(Tensor(x), keep=1).data
        expected = np.zeros_like(x)
        expected[np.arange(4), x.argmax(axis=-1)] = 1.0
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_keep_out_of_range(self):
        with pytest.raises(ConfigurationError):
            topk_softmax(Tensor(np.zeros(4)), keep=5)
        with pytest.raises(ConfigurationError):
            topk_softmax(Tensor(np.zeros(4)), keep=0)

    def test_tie_break_keeps_lowest_index(self):
        mask = topk_mask(np.array([1.0, 2.0, 2.0, 2.0]), keep=2)
        np.testing.assert_array_equal(mask, [False, True, True, False])

    @given(
        scores=arrays(
            np.float64,
            st.tuples(st.integers(1, 4), st.integers(1, 9)),
            elements=st.floats(-50, 50),
        ),
        keep_frac=st.floats(0.01, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_are_stochastic_with_exact_support(self, scores, keep_frac):
        t0 = scores.shape[-1]
        keep = max(1, min(t0, int(round(keep_frac * t0))))
        out = topk_softmax(Tensor(scores), keep=keep).data
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)
        assert ((out >= 0) & (out <= 1)).all()
        np.testing.assert_array_equal(np.count_nonzero(out, axis=-1), keep)


def score_cases(shape, dtype, seed):
    """(name, scores) rows for the top-k kernels: random, small integers
    (ties straddling every threshold), whole rows equal, and rows of
    +0.0 and -0.0 ties among a few other values."""
    rng = np.random.Generator(np.random.PCG64(seed))
    flat = rng.standard_normal(shape).astype(dtype)
    ties = rng.integers(-2, 3, shape).astype(dtype)
    equal = np.repeat(rng.standard_normal(shape[:-1] + (1,)), shape[-1], axis=-1).astype(dtype)
    equal[..., ::2, :] = 0.25
    zeros = np.where(rng.random(shape) < 0.5, -0.0, 0.0).astype(dtype)
    zeros[rng.random(shape) < 0.2] = 1.0
    zeros[rng.random(shape) < 0.2] = -1.0
    return [("random", flat), ("ties", ties), ("equal rows", equal), ("signed zeros", zeros)]


def run_with_grads(fn, arrays, g):
    """fn's output on Tensors of arrays and each input's gradient from the
    upstream gradient g."""
    with precision(arrays[0].dtype.name):
        inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = fn(*inputs)
        out.backward(g)
    return [out.data] + [t.grad for t in inputs]


def assert_bytes_equal(got, want, case):
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), (case, i)


KERNEL_SHAPES = [(64, 8, 17, 17), (1, 8, 17, 17), (3, 4, 7)]


class TestTopkKernels:
    """The one-sort mask and the fused two-path op against the rules they
    replaced: the stable-argsort mask and the masked_fill -> softmax ->
    matmul -> alpha/beta composition."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_mask_is_the_stable_argsort_mask(self, shape, dtype):
        t0 = shape[-1]
        for name, scores in score_cases(shape, dtype, seed=t0):
            for keep in (1, t0, keep_count(2, t0), keep_count(3, t0)):
                got = topk_mask(scores, keep)
                assert got.dtype == bool and np.array_equal(got, oracle_topk_mask(scores, keep)), (name, keep)

    def test_mask_refuses_a_keep_out_of_range(self):
        for keep in (0, 5):
            with pytest.raises(ConfigurationError):
                topk_mask(np.zeros((2, 4)), keep)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_topk_softmax_is_bytewise_the_masked_fill_path(self, dtype):
        for name, scores in score_cases((4, 8, 17, 17), dtype, seed=1):
            g = np.random.Generator(np.random.PCG64(2)).standard_normal(scores.shape).astype(dtype)
            for keep in (1, 6, 9, 17):
                got, want = (
                    run_with_grads(lambda s: fn(s, keep), [scores], g) for fn in (topk_softmax, oracle_topk_softmax)
                )
                assert_bytes_equal(got, want, (name, keep))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("shape", [(4, 8, 17, 17), (3, 2, 7, 7)], ids=lambda s: "x".join(map(str, s)))
    def test_topk_mix_is_bytewise_the_two_path_composition(self, shape, dtype):
        t0 = shape[-1]
        keeps = (keep_count(2, t0), keep_count(3, t0))
        rng = np.random.Generator(np.random.PCG64(3))
        v = rng.standard_normal(shape[:-1] + (2,)).astype(dtype)
        g = rng.standard_normal(v.shape).astype(dtype)
        alpha, beta = np.asarray(0.8, dtype=dtype), np.asarray(1.3, dtype=dtype)

        def composition(s, v_, a, b):
            return a * (oracle_topk_softmax(s, keeps[0]) @ v_) + b * (oracle_topk_softmax(s, keeps[1]) @ v_)

        for name, scores in score_cases(shape, dtype, seed=4):
            args = [scores, v, alpha, beta]
            got = run_with_grads(lambda s, v_, a, b: topk_mix(s, v_, a, b, keeps), args, g)
            want = run_with_grads(composition, args, g)
            assert_bytes_equal(got, want, name)

    def test_a_nan_score_makes_its_row_nan(self):
        scores = np.random.Generator(np.random.PCG64(5)).standard_normal((2, 3, 7))
        scores[1, 2, 4] = np.nan
        v = Tensor(np.ones((2, 7, 2)))
        one = Tensor(np.ones(()))
        for out in (topk_softmax(Tensor(scores), 3).data, topk_mix(Tensor(scores), v, one, one, (4, 3)).data):
            assert np.isnan(out[1, 2]).all()
            out[1, 2] = 0.0
            assert np.isfinite(out).all()


class TestKeepCount:
    def test_ratio_mode_is_ceil(self):
        assert keep_count(2, 17) == 9
        assert keep_count(3, 17) == 6
        assert keep_count(1, 17) == 17


def sum_of_avg_pools(y, kernels, pads):
    """The stride-1 ops.avg_pool2d pools of a (B, U, T0) map, summed."""
    b, u, t0 = y.shape
    y4 = y.reshape((b, u, 1, t0))
    total = None
    for k, p in zip(kernels, pads):
        pooled = ops.avg_pool2d(y4, k, stride=1, padding=p)
        total = pooled if total is None else total + pooled
    return total.reshape((b, u, t0))


class TestMultiscalePool:
    def test_constant_interior_is_triple(self):
        cfg = AttentionConfig(heads=1)
        y = Tensor(np.full((1, 2, 21), 5.0))
        out = multiscale_pool(y, cfg).data
        interior = out[:, :, 3:-3]
        np.testing.assert_allclose(interior, 15.0, atol=1e-6)
        # Zero padding attenuates the boundary.
        assert (out[:, :, 0] < 15.0).all()

    def test_kernel_one_is_identity(self, rng):
        cfg = AttentionConfig(heads=1, pool_kernels=(1,))
        y = rng.standard_normal((2, 2, 9))
        np.testing.assert_allclose(multiscale_pool(Tensor(y), cfg).data, y, atol=1e-7)

    def test_equals_sum_of_individual_pools(self):
        """The band-matrix pool against the sum of stride-1 ops.avg_pool2d
        pools, in output and input gradient, at T0 below, at and above the
        kernels: float64 within 1e-12 x max |value|, float32 within a few
        eps32 x max |value|."""
        for dtype, tol in (("float64", 1e-12), ("float32", 4 * float(np.finfo(np.float32).eps))):
            for kernels in ((1,), (3, 5, 7), (7,)):
                pads = tuple((k - 1) // 2 for k in kernels)
                cfg = AttentionConfig(heads=2, pool_kernels=kernels)
                assert cfg.pool_pads == pads
                for t0 in (1, 2, 3, 4, 7, 17):
                    rng = np.random.Generator(np.random.PCG64(t0))
                    y, g = (rng.standard_normal((2, 4, t0)).astype(dtype) for _ in range(2))
                    got = run_with_grads(lambda t: multiscale_pool(t, cfg), [y], g)
                    want = run_with_grads(lambda t: sum_of_avg_pools(t, kernels, pads), [y], g)
                    for what, a, b in zip(("output", "input grad"), got, want):
                        case = f"{dtype} kernels={kernels} T0={t0} {what}"
                        assert a.dtype == b.dtype == np.dtype(dtype), case
                        assert float(np.abs(a - b).max()) <= tol * float(np.abs(b).max()), case

    def test_bad_padding_is_config_error(self):
        # No pad keeps the token count at an even kernel, so the config refuses one.
        for kernels in ((4,), (3, 6)):
            with pytest.raises(ConfigurationError, match="odd"):
                AttentionConfig(heads=1, pool_kernels=kernels).validate()


class TestMscaForward:
    def test_single_token_with_topk_is_alpha_plus_beta_times_v(self, f64, rng):
        cfg = AttentionConfig(heads=2, multiscale_pool_enabled=False)
        params = make_params(4, seed=1)
        params.alpha.data = np.asarray(0.7)
        params.beta.data = np.asarray(-0.2)
        x = Tensor(rng.standard_normal((2, 4, 1)))
        y = Tensor(rng.standard_normal((2, 4, 1)))
        out = msca_forward(x, y, params, cfg).data
        v = np.einsum("but,uv->bvt", y.data, params.w_v.data)
        np.testing.assert_allclose(out, (0.7 - 0.2) * v, atol=1e-10)

    def test_single_token_dense_is_v(self, f64, rng):
        cfg = AttentionConfig(heads=2, topk_enabled=False, multiscale_pool_enabled=False)
        params = make_params(4, seed=2)
        y = Tensor(rng.standard_normal((3, 4, 1)))
        out = msca_forward(Tensor(rng.standard_normal((3, 4, 1))), y, params, cfg).data
        v = np.einsum("but,uv->bvt", y.data, params.w_v.data)
        np.testing.assert_allclose(out, v, atol=1e-10)

    def test_dense_self_attention_matches_naive_oracle(self, f64, rng):
        cfg = AttentionConfig(heads=2, topk_enabled=False, multiscale_pool_enabled=False)
        params = make_params(8, seed=3)
        x = rng.standard_normal((2, 8, 6))
        out = msca_forward(Tensor(x), Tensor(x.copy()), params, cfg).data
        expected = naive_multihead_attention(
            x, x, params.w_q.data, params.w_k.data, params.w_v.data, heads=2
        )
        np.testing.assert_allclose(out, expected, atol=1e-6)

    def test_alpha_one_beta_zero_keep_all_reduces_to_dense(self, f64, rng):
        sparse_cfg = AttentionConfig(heads=2, keep_denominators=(1, 1), multiscale_pool_enabled=False)
        dense_cfg = dataclasses.replace(sparse_cfg, topk_enabled=False)
        params = make_params(4, seed=4)
        params.alpha.data = np.asarray(1.0)
        params.beta.data = np.asarray(0.0)
        x = Tensor(rng.standard_normal((2, 4, 7)))
        y = Tensor(rng.standard_normal((2, 4, 7)))
        sparse = msca_forward(x, y, params, sparse_cfg).data
        dense = msca_forward(x, y, params, dense_cfg).data
        np.testing.assert_allclose(sparse, dense, atol=1e-6)

    def test_output_shape_matches_query_source(self, f64, rng):
        for t0 in (1, 4, 17):
            cfg = AttentionConfig(heads=4)
            params = make_params(8, seed=5)
            x = Tensor(rng.standard_normal((3, 8, t0)))
            y = Tensor(rng.standard_normal((3, 8, t0)))
            assert msca_forward(x, y, params, cfg).shape == (3, 8, t0)

    def test_permuting_key_value_tokens_is_invariant_without_pooling(self, f64, rng):
        cfg = AttentionConfig(heads=2, multiscale_pool_enabled=False)
        params = make_params(4, seed=6)
        x = Tensor(rng.standard_normal((2, 4, 9)))
        y = rng.standard_normal((2, 4, 9))
        perm = rng.permutation(9)
        out = msca_forward(x, Tensor(y), params, cfg).data
        out_perm = msca_forward(x, Tensor(y[:, :, perm]), params, cfg).data
        np.testing.assert_allclose(out, out_perm, atol=1e-8)

    def test_indivisible_heads_is_config_error(self, rng):
        cfg = AttentionConfig(heads=4)  # the width, 6, comes from x
        params = make_params(6, seed=7)
        x = Tensor(np.zeros((1, 6, 4)))
        with pytest.raises(ConfigurationError):
            msca_forward(x, x, params, cfg)


class TestResidualFuse:
    def test_zero_attention_keeps_features(self, rng):
        z = Tensor(rng.standard_normal((2, 3, 4)))
        out = residual_fuse(z, Tensor(np.zeros((2, 3, 4))))
        np.testing.assert_array_equal(out.data, z.data)

    def test_zero_features_keep_attention(self, rng):
        mha = Tensor(rng.standard_normal((2, 3, 4)))
        out = residual_fuse(Tensor(np.zeros((2, 3, 4))), mha)
        np.testing.assert_array_equal(out.data, mha.data)

    def test_random_pair_is_elementwise_sum(self, rng):
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((2, 3, 4))
        out = residual_fuse(Tensor(a), Tensor(b))
        np.testing.assert_array_equal(out.data, a + b)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            residual_fuse(Tensor(np.zeros((1, 2))), Tensor(np.zeros((2, 2))))
