"""ops.branch_stem against the temporal conv -> batch norm -> depthwise conv
composition it replaced (oracles.oracle_branch_stem), in float64."""

import numpy as np
import pytest

from csanet import ops
from csanet.autodiff import Tensor, no_grad, precision
from csanet.checkpoint import load_checkpoint, save_checkpoint
from csanet.config import ModelConfig
from csanet.errors import ConfigurationError, DimensionError
from csanet.model import Branch, CsanetModel
from csanet.verification import mini_model_config

from oracles import oracle_branch_stem

TOL = 1e-9
EPS32 = float(np.finfo(np.float32).eps)
STEMS = (ops.branch_stem, oracle_branch_stem)


def stem_arrays(seed, B, C, T, F, D, K):
    rng = np.random.Generator(np.random.PCG64(seed))
    return dict(
        x=rng.standard_normal((B, 1, C, T)) + 0.5,
        weight=rng.standard_normal((F, 1, 1, K)) / np.sqrt(K),
        gamma=1.0 + 0.1 * rng.standard_normal(F),
        beta=rng.standard_normal(F),
        depthwise=rng.standard_normal((F * D, 1, C, 1)) / np.sqrt(C),
        running_mean=0.1 * rng.standard_normal(F),
        running_var=1.0 + rng.random(F),
        proj=rng.standard_normal((B, F * D, 1, T)),
    )


def run_stem(stem, arrays, training):
    """Forward, backward of a fixed projection: output, grads, buffers."""
    with precision("float64"):
        params = [Tensor(arrays[k].copy(), requires_grad=True) for k in ("weight", "gamma", "beta", "depthwise")]
        rm, rv = arrays["running_mean"].copy(), arrays["running_var"].copy()
        w, g, b, dw = params
        out = stem(Tensor(arrays["x"]), w, g, b, rm, rv, dw, training)
        (out * Tensor(arrays["proj"])).sum().backward()
    return [out.data] + [p.grad for p in params] + [rm, rv]


def assert_close(got, want, what):
    scale = max(1.0, float(np.abs(want).max()))
    err = float(np.abs(got - want).max()) / scale
    assert err <= TOL, f"{what}: relative error {err:.2e}"


def assert_stems_agree(arrays, training):
    names = ("output", "weight grad", "gamma grad", "beta grad", "depthwise grad", "running mean", "running var")
    for name, got, want in zip(names, *(run_stem(s, arrays, training) for s in STEMS)):
        assert got.shape == want.shape, name
        assert_close(got, want, name)


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("index", range(4))
def test_mini_config_stem_matches_oracle(index, training):
    cfg = mini_model_config()
    arrays = stem_arrays(
        10 + index, 2, cfg.channels, cfg.time_steps, cfg.temporal_filters[index],
        cfg.depth_multiplier, cfg.temporal_kernels[index],
    )
    assert_stems_agree(arrays, training)


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("kernel", [64, 32, 16, 8])
def test_paper_shape_stem_matches_oracle(kernel, training):
    assert_stems_agree(stem_arrays(kernel, 2, 22, 1000, 16, 2, kernel), training)


@pytest.mark.parametrize("kernel", [7, 5, 1])
def test_odd_and_unit_kernels_match_oracle(kernel):
    assert_stems_agree(stem_arrays(kernel, 3, 4, 37, 3, 2, kernel), training=True)


@pytest.mark.parametrize("case", range(12))
def test_random_shapes_match_oracle(case):
    # Lengths below, at and across the 32-sample tiles, kernels longer
    # than the input, one channel, depth multipliers 1 to 3.
    rng = np.random.Generator(np.random.PCG64(80 + case))
    B, C, F, D = (int(v) for v in rng.integers((2, 1, 1, 1), (4, 5, 4, 4)))
    T, K = int(rng.integers(1, 80)), int(rng.integers(1, 40))
    assert_stems_agree(stem_arrays(90 + case, B, C, T, F, D, K), training=bool(case % 2))


def model_step(cfg, seed, training, monkeypatch, stem):
    """Logits, named grads and named buffers of one forward/backward."""
    monkeypatch.setattr(ops, "branch_stem", stem)
    with precision("float64"):
        model = CsanetModel(cfg, rng=np.random.Generator(np.random.PCG64(seed)))
        rng = np.random.Generator(np.random.PCG64(seed + 1))
        x = Tensor(rng.standard_normal((2, 1, cfg.channels, cfg.time_steps)))
        logits = model(x, training=training, rng=np.random.Generator(np.random.PCG64(seed + 2)))
        ops.cross_entropy(logits, np.array([0, 1])).backward()
    grads = {name: p.grad for name, p in model.named_parameters()}
    return logits.data, grads, dict(model.named_buffers())


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("config", ["mini", "paper"])
def test_model_matches_oracle_stem(config, training, monkeypatch):
    cfg = mini_model_config() if config == "mini" else ModelConfig()
    got, want = (model_step(cfg, 40, training, monkeypatch, stem) for stem in STEMS)
    assert_close(got[0], want[0], "logits")
    assert got[1].keys() == want[1].keys()
    for name, grad in want[1].items():
        if grad is None:
            assert got[1][name] is None, name
        else:
            assert_close(got[1][name], grad, name)
    for name, buf in want[2].items():
        assert_close(got[2][name], buf, name)


def test_reloaded_checkpoint_predicts_as_oracle_stem(tmp_path, monkeypatch):
    cfg = mini_model_config()
    model = CsanetModel(cfg, rng=np.random.Generator(np.random.PCG64(50)))
    rng = np.random.Generator(np.random.PCG64(51))
    x = rng.standard_normal((16, 1, cfg.channels, cfg.time_steps)).astype(np.float32)
    for start in (0, 8):  # move the running statistics off their initial values
        model(Tensor(x[start : start + 8]), training=True)
    path = tmp_path / "model.csan"
    save_checkpoint(model, path)
    with precision("float64"):
        _, reloaded = load_checkpoint(path)
        x64 = Tensor(x.astype(np.float64))
        with no_grad():
            got = reloaded(x64, training=False).data
            monkeypatch.setattr(ops, "branch_stem", oracle_branch_stem)
            want = reloaded(x64, training=False).data
    assert_close(got, want, "logits")
    np.testing.assert_array_equal(np.argmax(got, axis=1), np.argmax(want, axis=1))


@pytest.mark.parametrize("training", [True, False])
def test_float32_paper_forward_within_256_eps_of_float64_oracle(training):
    arrays = stem_arrays(60, 2, 22, 1000, 16, 2, 64)
    want = run_stem(oracle_branch_stem, arrays, training)[0]
    args = [Tensor(arrays[k].astype(np.float32)) for k in ("x", "weight", "gamma", "beta")]
    rm, rv = arrays["running_mean"].astype(np.float32), arrays["running_var"].astype(np.float32)
    got = ops.branch_stem(*args, rm, rv, Tensor(arrays["depthwise"].astype(np.float32)), training)
    assert got.dtype == np.float32
    err = float(np.abs(got.data - want).max()) / max(1.0, float(np.abs(want).max()))
    assert err <= 256 * EPS32


def stem_tensors(arrays):
    return [Tensor(arrays[k]) for k in ("x", "weight", "gamma", "beta")], Tensor(arrays["depthwise"])


def test_training_batch_of_one_is_rejected_like_batch_norm():
    arrays = stem_arrays(70, 1, 3, 16, 2, 2, 4)
    (x, w, g, b), dw = stem_tensors(arrays)
    rm, rv = arrays["running_mean"], arrays["running_var"]
    with pytest.raises(ConfigurationError) as stem_error:
        ops.branch_stem(x, w, g, b, rm, rv, dw, training=True)
    with pytest.raises(ConfigurationError) as bn_error:
        oracle_branch_stem(x, w, g, b, rm, rv, dw, training=True)
    assert str(stem_error.value) == str(bn_error.value)
    assert ops.branch_stem(x, w, g, b, rm, rv, dw, training=False).shape == (1, 4, 1, 16)


def test_input_gradient_is_refused():
    arrays = stem_arrays(71, 2, 3, 16, 2, 2, 4)
    (x, w, g, b), dw = stem_tensors(arrays)
    x.requires_grad = True
    with pytest.raises(ConfigurationError, match="input"):
        ops.branch_stem(x, w, g, b, arrays["running_mean"], arrays["running_var"], dw, training=True)


def test_zero_temporal_weights_give_zero_variance_and_finite_outputs():
    arrays = stem_arrays(72, 3, 3, 16, 2, 2, 5)
    arrays["weight"][:] = 0.0
    arrays["running_mean"][:] = 0.0
    arrays["running_var"][:] = 1.0
    out, gw, gg, gb, gd, rm, rv = run_stem(ops.branch_stem, arrays, training=True)
    for value in (out, gw, gg, gb, gd):
        assert np.all(np.isfinite(value))
    np.testing.assert_array_equal(rm, 0.0)
    np.testing.assert_allclose(rv, 0.9, rtol=0, atol=1e-15)  # (1 - momentum) * 1 + momentum * 0
    assert_close(out, run_stem(oracle_branch_stem, arrays, training=True)[0], "output")


def stem_with_lags(arrays, K, lags, dtype):
    """Training-mode stem output, grads and running buffers, with a given
    lag table (None: the op builds its own at K)."""
    with precision(dtype):
        params = [Tensor(arrays[k].astype(dtype), requires_grad=True) for k in ("weight", "gamma", "beta", "depthwise")]
        rm, rv = arrays["running_mean"].astype(dtype), arrays["running_var"].astype(dtype)
        w, g, b, dw = params
        out = ops.branch_stem(Tensor(arrays["x"].astype(dtype)), w, g, b, rm, rv, dw, True, lags=lags)
        (out * Tensor(arrays["proj"].astype(dtype))).sum().backward()
    return [out.data] + [p.grad for p in params] + [rm, rv]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("config", ["mini", "paper"])
def test_shared_lag_table_is_bitwise_the_per_branch_one(config, dtype):
    cfg = mini_model_config() if config == "mini" else ModelConfig()
    x = stem_arrays(73, 2, cfg.channels, cfg.time_steps, 1, 1, 1)["x"]
    lags = ops.lag_prefixes(x.astype(dtype), max(cfg.temporal_kernels))
    for index, K in enumerate(cfg.temporal_kernels):
        arrays = stem_arrays(74 + index, 2, cfg.channels, cfg.time_steps, cfg.temporal_filters[index], cfg.depth_multiplier, K)
        arrays["x"] = x
        shared, own = (stem_with_lags(arrays, K, table, dtype) for table in (lags, None))
        for got, want in zip(shared, own):
            assert np.array_equal(got, want), f"K={K}"


@pytest.mark.parametrize("config", ["mini", "paper"])
def test_model_forward_shares_one_lag_table_exactly(config, monkeypatch):
    """A training forward builds one table at the longest kernel; each
    branch building its own gives the same logits, grads and buffers."""
    cfg = mini_model_config() if config == "mini" else ModelConfig()
    built = []
    lag_prefixes = ops.lag_prefixes

    def spy(x, max_kernel):
        built.append(max_kernel)
        return lag_prefixes(x, max_kernel)

    monkeypatch.setattr(ops, "lag_prefixes", spy)
    shared = model_step(cfg, 41, True, monkeypatch, ops.branch_stem)
    assert built == [max(cfg.temporal_kernels)]
    call = Branch.__call__
    monkeypatch.setattr(Branch, "__call__", lambda self, x, training, rng=None, lags=None: call(self, x, training, rng))
    own = model_step(cfg, 41, True, monkeypatch, ops.branch_stem)
    assert sorted(built[2:]) == sorted(cfg.temporal_kernels)  # after the model's own, unread
    assert np.array_equal(shared[0], own[0])
    for name, grad in own[1].items():
        assert (grad is None and shared[1][name] is None) or np.array_equal(shared[1][name], grad), name
    for name, buf in own[2].items():
        assert np.array_equal(shared[2][name], buf), name


def test_lag_table_shorter_than_the_kernel_is_rejected():
    arrays = stem_arrays(75, 2, 3, 16, 2, 2, 5)
    (x, w, g, b), dw = stem_tensors(arrays)
    with pytest.raises(DimensionError, match="lag table"):
        ops.branch_stem(
            x, w, g, b, arrays["running_mean"], arrays["running_var"], dw, True, lags=ops.lag_prefixes(x.data, 4)
        )
