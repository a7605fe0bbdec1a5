"""ops.stem_bn_elu_pool, a branch's training-mode stem and first tail,
against the temporal conv -> batch norm -> depthwise conv -> batch norm ->
ELU -> pool -> dropout composition it replaced (oracles.oracle_branch_stem,
then oracles.oracle_tail), in float64, and against a long-double run of
that composition for the temporal batch norm's gradients; in eval mode,
ops.stem_elu_pool, the stem and first tail on the batch norms' fixed
maps, against the same composition at the numerics contract's tolerances; and ops.lag_prefixes,
the stems' shared moment table, against its einsum oracle."""

import tracemalloc
import weakref

import numpy as np
import pytest

from csanet import ops
from csanet.autodiff import Tensor, no_grad, precision
from csanet.checkpoint import load_checkpoint, save_checkpoint
from csanet.config import ModelConfig
from csanet.errors import ConfigurationError, DimensionError
from csanet.model import Branch, CsanetModel
from csanet.rng import substream
from csanet.train import train_run
from csanet.verification import mini_model_config

from oracles import oracle_branch_call, oracle_branch_stem, oracle_lag_prefixes, oracle_tail
from test_train import tiny_run

TOL = 1e-9
EPS32 = float(np.finfo(np.float32).eps)


def training_oracle_stem(x, weight, depthwise, temporal_bn, depthwise_bn, pool, keep=None, lags=None):
    """oracle_branch_stem then oracle_tail in training mode, with
    ops.stem_bn_elu_pool's signature; lags goes unread."""
    h = oracle_branch_stem(x, weight, *temporal_bn, depthwise, True)
    return oracle_tail(h, *depthwise_bn, True, pool, keep)


STEMS = (ops.stem_bn_elu_pool, training_oracle_stem)
PARAMS = ("weight", "depthwise", "gamma", "beta", "gamma2", "beta2")
BUFFERS = ("running_mean", "running_var", "running_mean2", "running_var2")


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
        proj=rng.standard_normal((B, F * D, T)),
        # bn_depthwise, the batch norm after the stem
        gamma2=1.0 + 0.1 * rng.standard_normal(F * D),
        beta2=0.2 * rng.standard_normal(F * D),
        running_mean2=0.1 * rng.standard_normal(F * D),
        running_var2=1.0 + rng.random(F * D),
    )


def pool_for(T):
    return 4 if T >= 4 else 1


def run_stem(stem, arrays, pool, p_drop=0.5, dtype="float64", lags=None):
    """Training-mode forward with the dropout mask drawn from a fixed seed,
    backward of a fixed projection: output, the six parameter gradients
    (PARAMS order) and the four running buffers (BUFFERS order)."""
    work = np.longdouble if dtype == "longdouble" else dtype
    with precision("float64" if dtype == "longdouble" else dtype):
        params = {k: Tensor(arrays[k].astype(work), requires_grad=True) for k in PARAMS}
        bufs = [arrays[k].astype(work) for k in BUFFERS]
        p = params
        temporal = (p["gamma"], p["beta"], bufs[0], bufs[1])
        depthwise = (p["gamma2"], p["beta2"], bufs[2], bufs[3])
        B, _, _, T = arrays["x"].shape
        shape = (B, arrays["depthwise"].shape[0], T // pool)
        keep = ops.dropout_mask(shape, p_drop, np.random.Generator(np.random.PCG64(7)), work)
        x = Tensor(arrays["x"].astype(work))
        out = stem(x, p["weight"], p["depthwise"], temporal, depthwise, pool, keep, lags)
        proj = arrays["proj"][..., : out.shape[-1]].astype(work)
        (out * Tensor(proj)).sum().backward()
    return [out.data] + [params[k].grad for k in PARAMS] + bufs


def inference_stem(arrays, dtype, pool):
    """ops.stem_elu_pool on the arrays cast to dtype, (B, F*D, T // pool)."""
    a = {k: v.astype(dtype) for k, v in arrays.items()}
    temporal = ops.bn_affine(a["gamma"], a["beta"], a["running_mean"], a["running_var"])
    depthwise = ops.bn_affine(a["gamma2"], a["beta2"], a["running_mean2"], a["running_var2"])
    return ops.stem_elu_pool(a["x"], a["weight"], a["depthwise"], temporal, depthwise, pool)


def oracle_eval_stem(arrays, pool):
    """The float64 eval-mode composition stem_elu_pool runs: oracle stem,
    then batch norm -> ELU -> pool through oracle_tail."""
    with precision("float64"):
        h = oracle_branch_stem(
            *(Tensor(arrays[k]) for k in ("x", "weight", "gamma", "beta")),
            arrays["running_mean"].copy(),
            arrays["running_var"].copy(),
            Tensor(arrays["depthwise"]),
            False,
        )
        return oracle_tail(
            h,
            Tensor(arrays["gamma2"]),
            Tensor(arrays["beta2"]),
            arrays["running_mean2"].copy(),
            arrays["running_var2"].copy(),
            False,
            pool,
        ).data


def assert_close(got, want, what):
    scale = max(1.0, float(np.abs(want).max()))
    err = float(np.abs(got - want).max()) / scale
    assert err <= TOL, f"{what}: relative error {err:.2e}"


def unit_kernel_weight_grad(arrays, pool):
    """The K = 1 temporal weight gradient from the long-double oracle's
    bn_temporal.gamma gradient. Batch norm makes the loss invariant to the
    scale of w_f but for BN_EPS, so w_f . dL/dw_f = gamma_f dL/dgamma_f
    BN_EPS / (var_f + BN_EPS); at K = 1, with var_f = w_f^2 var x, that is
    all of dL/dw_f. The oracle's own weight gradient takes this O(BN_EPS)
    value as a difference of O(1) terms, off by up to 7e-9 relative even in
    long double."""
    ggamma = run_stem(training_oracle_stem, arrays, pool, dtype="longdouble")[1 + PARAMS.index("gamma")]
    w = arrays["weight"].astype(np.longdouble).reshape(-1)
    var = w * w * arrays["x"].astype(np.longdouble).var()
    return (arrays["gamma"] * ggamma * ops.BN_EPS / (var + ops.BN_EPS) / w).reshape(arrays["weight"].shape)


def assert_stems_agree(arrays, training, pool=None):
    """Training mode: ops.stem_bn_elu_pool against the oracle composition,
    output, every gradient and the four buffers, each within TOL x its max
    |value|; bn_temporal's beta gradient, rounding noise in the oracle, is
    exactly 0. At K = 1 the weight gradient is held to
    unit_kernel_weight_grad instead, since the oracle's is off by up to
    3e-6 relative in float64. Eval mode: ops.stem_elu_pool
    against the oracle composition, float64 within TOL."""
    pool = pool or pool_for(arrays["x"].shape[-1])
    if not training:
        got, want = inference_stem(arrays, np.float64, pool), oracle_eval_stem(arrays, pool)
        assert got.shape == want.shape
        assert_close(got, want, "eval output")
        return
    names = ("output",) + tuple(f"{k} grad" for k in PARAMS) + BUFFERS
    for name, got, want in zip(names, *(run_stem(s, arrays, pool) for s in STEMS)):
        assert got.shape == want.shape, name
        if name == "weight grad" and arrays["weight"].shape[-1] == 1:
            want = unit_kernel_weight_grad(arrays, pool)
        if name == "beta grad":
            assert not got.any(), name
        else:
            err = float(np.abs(got - want).max())
            assert err <= TOL * float(np.abs(want).max()), f"{name}: max error {err:.2e}"


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("index", range(4))
def test_mini_config_stem_matches_oracle(index, training):
    cfg = mini_model_config()
    arrays = stem_arrays(
        10 + index, 2, cfg.channels, cfg.time_steps, cfg.spa_filters // cfg.depth_multiplier,
        cfg.depth_multiplier, cfg.temporal_kernels[index],
    )
    assert_stems_agree(arrays, training, cfg.pools[0])


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("kernel", [64, 32, 16, 8])
def test_paper_shape_stem_matches_oracle(kernel, training):
    assert_stems_agree(stem_arrays(kernel, 2, 22, 1000, 16, 2, kernel), training, 8)


@pytest.mark.parametrize("kernel", [7, 5, 1])
def test_odd_and_unit_kernels_match_oracle(kernel):
    assert_stems_agree(stem_arrays(kernel, 3, 4, 37, 3, 2, kernel), training=True, pool=3)


@pytest.mark.parametrize("case", range(12))
def test_random_shapes_match_oracle(case):
    # Lengths below, at and across the 32-sample tiles, kernels longer
    # than the input, one channel, depth multipliers 1 to 3.
    rng = np.random.Generator(np.random.PCG64(80 + case))
    B, C, F, D = (int(v) for v in rng.integers((2, 1, 1, 1), (4, 5, 4, 4)))
    T, K = int(rng.integers(1, 80)), int(rng.integers(1, 40))
    assert_stems_agree(stem_arrays(90 + case, B, C, T, F, D, K), training=bool(case % 2))


def model_step(cfg, seed, training, monkeypatch, stem):
    """Logits, named grads and named buffers of one forward (and, in
    training mode, backward) with ops.stem_bn_elu_pool replaced by stem;
    in eval mode, stem is STEMS[1] for oracle_branch_call's composition."""
    if training:
        monkeypatch.setattr(ops, "stem_bn_elu_pool", stem)
    elif stem is STEMS[1]:
        monkeypatch.setattr(Branch, "__call__", oracle_branch_call)
    with precision("float64"):
        model = CsanetModel(cfg, rng=np.random.Generator(np.random.PCG64(seed)))
        rng = np.random.Generator(np.random.PCG64(seed + 1))
        x = Tensor(rng.standard_normal((2, 1, cfg.channels, cfg.time_steps)))
        logits = model(x, training=training, rng=np.random.Generator(np.random.PCG64(seed + 2)))
        if training:
            ops.cross_entropy(logits, np.array([0, 1])).backward()
    grads = {name: p.grad for name, p in model.named_parameters()}
    return logits.data, grads, dict(model.named_buffers())


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("config", ["mini", "paper"])
def test_model_matches_oracle_stem(config, training, monkeypatch):
    """Training: the oracle composition in the model. Eval (no tape, so no
    gradients): the model's inference pass against oracle_branch_call."""
    cfg = mini_model_config() if config == "mini" else ModelConfig()
    if config == "mini":
        cfg.conv_dropout = 0.5  # mini turns dropout off; exercise the mask
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
    # Eval mode: the eval pass against the oracle compositions.
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
            monkeypatch.setattr(Branch, "__call__", oracle_branch_call)
            want = reloaded(x64, training=False).data
    assert_close(got, want, "logits")
    np.testing.assert_array_equal(np.argmax(got, axis=1), np.argmax(want, axis=1))


@pytest.mark.parametrize("training", [True, False])
def test_float32_paper_forward_within_256_eps_of_float64_oracle(training):
    arrays = stem_arrays(60, 2, 22, 1000, 16, 2, 64)
    arrays = {k: v.astype(np.float32).astype(np.float64) for k, v in arrays.items()}
    if training:
        want = run_stem(training_oracle_stem, arrays, 8)[0]
        got = run_stem(ops.stem_bn_elu_pool, arrays, 8, dtype="float32")[0]
    else:  # the eval stem and first tail
        want = oracle_eval_stem(arrays, 8)
        got = inference_stem(arrays, np.float32, 8)
    assert got.dtype == np.float32
    err = float(np.abs(got - want).max()) / max(1.0, float(np.abs(want).max()))
    assert err <= 256 * EPS32


@pytest.fixture(scope="module")
def long_double_stem():
    """Paper-shape arrays holding float32 values, and the oracle
    composition's output, gradients and buffers on them in long double."""
    arrays = stem_arrays(61, 8, 22, 1000, 16, 2, 64)
    arrays = {k: v.astype(np.float32).astype(np.float64) for k, v in arrays.items()}
    return arrays, run_stem(training_oracle_stem, arrays, 8, dtype="longdouble")


@pytest.mark.parametrize("dtype, tol", [("float64", 1e-11), ("float32", 1e-6)])
def test_temporal_batch_norm_gradients_match_long_double(long_double_stem, dtype, tol):
    """bn_temporal's gamma reaches the loss only through BN_EPS (the depthwise
    batch norm cancels its scale), so its gradient is small against the
    sums it comes from; beta's per-filter shift is cancelled outright, so
    its gradient is 0 (a few 1e-17 in long double) and the op returns an
    exact 0, which Adam turns into no step at all."""
    arrays, want = long_double_stem
    got = run_stem(ops.stem_bn_elu_pool, arrays, 8, dtype=dtype)
    gamma, beta = got[1 + PARAMS.index("gamma")], got[1 + PARAMS.index("beta")]
    ref = want[1 + PARAMS.index("gamma")]
    err = float(np.abs(gamma.astype(np.longdouble) - ref).max() / np.abs(ref).max())
    assert err <= tol, f"gamma grad: relative error {err:.2e}"
    assert float(np.abs(want[1 + PARAMS.index("beta")]).max()) <= 1e-15
    assert beta.dtype == np.dtype(dtype) and not beta.any()
    names = ("output",) + tuple(f"{k} grad" for k in PARAMS) + BUFFERS
    for name, g, w in zip(names, got, want):
        if name not in ("gamma grad", "beta grad"):
            err = float(np.abs(g.astype(np.longdouble) - w).max() / np.abs(w).max())
            assert err <= (1e-12 if dtype == "float64" else 1e-5), f"{name}: relative error {err:.2e}"


@pytest.mark.parametrize("dtype, tol", [("float64", 1e-12), ("float32", 1e-6)])
def test_unit_kernel_weight_gradient_matches_long_double(dtype, tol):
    """At K = 1 the temporal weight's gradient lies wholly along w_f, where
    it is O(BN_EPS): the op sets that component from dL/da_f (w_f . dL/dw_f
    = a_f dL/da_f BN_EPS / (var_f + BN_EPS)) instead of as a difference of
    O(1) terms, which read it up to 2.2e-6 (float64) and 511x (float32) off
    on these shapes. The weight gradient is held to
    unit_kernel_weight_grad, everything else to the long-double oracle."""
    arrays = stem_arrays(62, 4, 3, 100, 2, 2, 1)
    arrays = {k: v.astype(np.float32).astype(np.float64) for k, v in arrays.items()}
    want = run_stem(training_oracle_stem, arrays, 4, dtype="longdouble")
    want[1 + PARAMS.index("weight")] = unit_kernel_weight_grad(arrays, 4)
    got = run_stem(ops.stem_bn_elu_pool, arrays, 4, dtype=dtype)
    names = ("output",) + tuple(f"{k} grad" for k in PARAMS) + BUFFERS
    for name, g, w in zip(names, got, want):
        if name == "beta grad":
            assert g.dtype == np.dtype(dtype) and not g.any(), name
            continue
        err = float(np.abs(g.astype(np.longdouble) - w).max() / np.abs(w).max())
        limit = tol if name == "weight grad" else (1e-12 if dtype == "float64" else 1e-5)
        assert err <= limit, f"{name}: relative error {err:.2e}"


def test_dead_temporal_beta_stays_at_its_initial_bits(tmp_path):
    # A seeded float32 run: each bn_temporal.beta gets an exact 0 gradient.
    run = tiny_run(tmp_path / "run", epochs=2)
    result = train_run(run)
    _, trained = load_checkpoint(result.checkpoint_path)
    fresh = dict(CsanetModel(run.model, rng=substream(run.seed, "init")).named_parameters())
    moved = {n: p for n, p in trained.named_parameters() if p.data.tobytes() != fresh[n].data.tobytes()}
    for i in range(1, 5):
        assert f"branch{i}.bn_temporal.beta" not in moved
        assert f"branch{i}.bn_temporal.gamma" in moved
    assert trained.branch1.bn_temporal.beta.data.dtype == np.float32


def stem_tensors(arrays):
    """x, the weights and both batch norms as stem_bn_elu_pool takes them."""
    t = {k: Tensor(arrays[k]) for k in ("x", "weight", "depthwise") + PARAMS[2:]}
    temporal = (t["gamma"], t["beta"], arrays["running_mean"], arrays["running_var"])
    depthwise = (t["gamma2"], t["beta2"], arrays["running_mean2"], arrays["running_var2"])
    return t["x"], t["weight"], t["depthwise"], temporal, depthwise


def test_training_batch_of_one_is_rejected_like_batch_norm():
    arrays = stem_arrays(70, 1, 3, 16, 2, 2, 4)
    args = stem_tensors(arrays)
    errors = []
    for stem in STEMS:
        with pytest.raises(ConfigurationError) as error:
            stem(*args, 4)
        errors.append(str(error.value))
    assert errors[0] == errors[1]
    # Eval mode decodes one trial, through ops.stem_elu_pool.
    assert inference_stem(arrays, np.float64, 1).shape == (1, 4, 16)


def test_input_gradient_is_refused():
    arrays = stem_arrays(71, 2, 3, 16, 2, 2, 4)
    x, *rest = stem_tensors(arrays)
    x.requires_grad = True
    with pytest.raises(ConfigurationError, match="input"):
        ops.stem_bn_elu_pool(x, *rest, 4)


def test_zero_temporal_weights_give_zero_variance_and_finite_outputs():
    arrays = stem_arrays(72, 3, 3, 16, 2, 2, 5)
    arrays["weight"][:] = 0.0
    arrays["running_mean"][:] = 0.0
    arrays["running_var"][:] = 1.0
    got = run_stem(ops.stem_bn_elu_pool, arrays, 4)
    for value in got[:7]:
        assert np.all(np.isfinite(value))
    np.testing.assert_array_equal(got[7], 0.0)
    np.testing.assert_allclose(got[8], 0.9, rtol=0, atol=1e-15)  # (1 - momentum) * 1 + momentum * 0
    assert_close(got[0], run_stem(training_oracle_stem, arrays, 4)[0], "output")


def test_tape_keeps_one_full_size_map_and_the_mask(monkeypatch):
    """The backward closure holds the centred Q and the dropout mask and
    nothing of P's size; P and the ELU's slope die with the forward (the
    backward rebuilds both)."""
    B, C, T, F, D, K, pool = 4, 3, 64, 2, 2, 8, 4
    made = []
    for name in ("_stem_projection", "_elu_parts"):

        def spy(*args, _fn=getattr(ops, name), **kwargs):
            out = _fn(*args, **kwargs)
            made.extend(map(weakref.ref, out if isinstance(out, tuple) else (out,)))
            return out

        monkeypatch.setattr(ops, name, spy)
    x, *rest = stem_tensors(stem_arrays(73, B, C, T, F, D, K))
    rest[0].requires_grad = True
    keep = ops.dropout_mask((B, F * D, T // pool), 0.5, np.random.default_rng(0), np.float64)
    out = ops.stem_bn_elu_pool(x, *rest, pool, keep)
    assert len(made) == 3  # P, then the ELU's (negative part, output)
    assert [ref() is None for ref in made] == [True] * 3
    held = [c.cell_contents for c in out._backward.__closure__]
    held = [a for h in held for a in (h if isinstance(h, tuple) else (h,))]  # affine is a pair
    arrays = [a for a in held if isinstance(a, np.ndarray)]
    p_size = F * D * B * (-(-T // 32) * 32 + K - 1)
    assert sorted(a.size for a in arrays if a.size >= keep.mask.size) == [keep.mask.size, F * D * B * T]
    assert not [a.shape for a in arrays if a.size >= p_size]
    assert keep.mask.dtype == bool and any(a is keep.mask for a in arrays)


def test_backward_peak_is_p_and_one_filter_at_the_default_shape():
    """One stem backward at the default config's largest kernel and 32
    trials (F = 16, D = 2, C = 22, T = 1000, K = 64, pool 8, float32) adds
    at its peak no more than P's rebuilt rows, x's padded transpose and one
    filter's working set: its padded dL/dQ rows, their tile windows' copy,
    three (D, B, T) temporaries of the tail and batch-norm passes, and the
    (F, K + 31, 32) flipped-tap band and tile products. Traced from before
    the forward, so that the tape's centred map, freed before dL/ddw, counts
    as freed."""
    B, C, T, F, D, K, pool = 32, 22, 1000, 16, 2, 64, 8
    arrays = {k: v.astype(np.float32) for k, v in stem_arrays(77, B, C, T, F, D, K).items()}
    params = {k: Tensor(arrays[k], requires_grad=True) for k in PARAMS}
    bufs = [arrays[k] for k in BUFFERS]
    temporal = (params["gamma"], params["beta"], bufs[0], bufs[1])
    depthwise = (params["gamma2"], params["beta2"], bufs[2], bufs[3])
    keep = ops.dropout_mask((B, F * D, T // pool), 0.5, np.random.default_rng(0), np.float32)
    seed = np.ascontiguousarray(arrays["proj"][..., : T // pool])
    tracemalloc.start()
    try:
        out = ops.stem_bn_elu_pool(Tensor(arrays["x"]), params["weight"], params["depthwise"], temporal, depthwise, pool, keep)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out.backward(seed)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    tiles, span = -(-T // 32), K + 31
    p_rows, xt = F * D * B * tiles * 32, B * tiles * 32 * C
    one_filter = D * B * (tiles * 32 + K - 1) + D * B * tiles * span + 3 * D * B * T
    bound = 4 * (p_rows + xt + one_filter + 2 * F * span * 32)
    assert peak <= bound, f"backward peak {peak / 1e6:.2f} MB above {bound / 1e6:.2f} MB"


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("config", ["mini", "paper"])
def test_shared_lag_table_is_bitwise_the_per_branch_one(config, dtype):
    cfg = mini_model_config() if config == "mini" else ModelConfig()
    x = stem_arrays(73, 2, cfg.channels, cfg.time_steps, 1, 1, 1)["x"]
    lags = ops.lag_prefixes(x.astype(dtype), max(cfg.temporal_kernels))
    for index, K in enumerate(cfg.temporal_kernels):
        arrays = stem_arrays(74 + index, 2, cfg.channels, cfg.time_steps, cfg.spa_filters // cfg.depth_multiplier, cfg.depth_multiplier, K)
        arrays["x"] = x
        shared, own = (run_stem(ops.stem_bn_elu_pool, arrays, cfg.pools[0], dtype=dtype, lags=t) for t in (lags, None))
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
    shared = model_step(cfg, 41, True, monkeypatch, ops.stem_bn_elu_pool)
    assert built == [max(cfg.temporal_kernels)]
    call = Branch.__call__

    def own_table(self, x, training, lags=None, keep=(None, None)):
        return call(self, x, training, None, keep)

    monkeypatch.setattr(Branch, "__call__", own_table)
    own = model_step(cfg, 41, True, monkeypatch, ops.stem_bn_elu_pool)
    assert sorted(built[2:]) == sorted(cfg.temporal_kernels)  # after the model's own, unread
    assert np.array_equal(shared[0], own[0])
    for name, grad in own[1].items():
        assert (grad is None and shared[1][name] is None) or np.array_equal(shared[1][name], grad), name
    for name, buf in own[2].items():
        assert np.array_equal(shared[2][name], buf), name


def test_lag_table_shorter_than_the_kernel_is_rejected():
    arrays = stem_arrays(75, 2, 3, 16, 2, 2, 5)
    args = stem_tensors(arrays)
    with pytest.raises(DimensionError, match="lag table"):
        ops.stem_bn_elu_pool(*args, 4, lags=ops.lag_prefixes(args[0].data, 4))
    # So is a dropout mask that would broadcast against the (2, 4, 4)
    # output, before either batch norm's running buffers move.
    buffers = [a.copy() for a in (*args[3][2:], *args[4][2:])]
    for shape in ((1, 4, 4), (2, 4, 1), (2, 4, 16)):
        with pytest.raises(DimensionError, match="dropout mask"):
            ops.stem_bn_elu_pool(*args, 4, ops.DropoutMask(np.ones(shape, bool), np.float64(1.0)))
    for got, want in zip((*args[3][2:], *args[4][2:]), buffers):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("T, max_kernel", [(1000, 64), (37, 8), (31, 5), (20, 40), (1, 3)])
def test_lag_table_matches_the_einsum_oracle(T, max_kernel, dtype):
    # Lengths that are not whole tiles, and kernels longer than the input.
    x = (np.random.Generator(np.random.PCG64(T)).standard_normal((3, 1, 4, T)) + 0.5).astype(dtype)
    n, sums, prods = ops.lag_prefixes(x, max_kernel)
    want = oracle_lag_prefixes(x, max_kernel)
    assert n == want[0]
    for got, w in ((sums, want[1]), (prods, want[2])):
        assert got.shape == w.shape and got.dtype == np.float64
        assert float(np.abs(got - w).max()) <= 1e-15 * float(np.abs(w).max())


@pytest.mark.parametrize("K", [64, 32, 16, 8])
def test_window_moments_match_the_oracle_table(K):
    x = np.random.Generator(np.random.PCG64(K)).standard_normal((2, 1, 22, 1000)) + 0.5
    got = ops._window_moments(ops.lag_prefixes(x, 64), K, (K - 1) // 2)
    want = ops._window_moments(oracle_lag_prefixes(x, 64), K, (K - 1) // 2)
    for g, w in zip(got, want):
        assert float(np.abs(g - w).max()) <= 1e-15 * float(np.abs(w).max())
