"""ops.bn_elu_pool against the batch norm -> ELU -> pool -> dropout
composition it replaced (oracles.oracle_tail): bitwise, in float32 and
float64, in training mode. Eval mode folds batch norm's scale into the
preceding conv and runs ops.elu_pool on the scaled map; it is held to the
oracle composition at the numerics contract's tolerances."""

import numpy as np
import pytest

from csanet import ops
from csanet.autodiff import Tensor, precision
from csanet.config import ModelConfig
from csanet.errors import ConfigurationError, DimensionError
from csanet.model import Branch, CsanetModel
from csanet.train import train_run
from csanet.verification import mini_model_config

from oracles import oracle_branch_call, oracle_tail
from test_train import tiny_run

EPS32 = float(np.finfo(np.float32).eps)


def training_oracle_tail(x, gamma, beta, running_mean, running_var, pool, p_drop, rng=None):
    """oracle_tail in training mode, with ops.bn_elu_pool's signature."""
    return oracle_tail(x, gamma, beta, running_mean, running_var, True, pool, p_drop, rng)


TAILS = (ops.bn_elu_pool, training_oracle_tail)

# (B, C, T, pool): the default config's two pools (1000/8, then 125/7),
# the mini config's (64/4, then 16/4), and a small odd one.
SHAPES = [(2, 32, 1000, 8), (2, 32, 125, 7), (2, 4, 64, 4), (2, 4, 16, 4), (3, 3, 11, 3)]


def tail_input(seed, B, C, T, layout, dtype):
    """A (B, C, T) map, C-contiguous or in the transposed layout that
    conv1d_dilated returns ((B, T, C) memory read as (B, C, T))."""
    rng = np.random.Generator(np.random.PCG64(seed))
    if layout == "contiguous":
        x = rng.standard_normal((B, C, T)) + 0.3
    else:
        x = (rng.standard_normal((B, T, C)) + 0.3).transpose(0, 2, 1)
    return x.astype(dtype)


def tail_params(C, dtype, seed=5):
    """gamma, beta, running mean, running var, and the rng that draws on."""
    rng = np.random.Generator(np.random.PCG64(seed))
    gamma = (1.0 + 0.1 * rng.standard_normal(C)).astype(dtype)
    beta = (0.2 * rng.standard_normal(C)).astype(dtype)
    rm = (0.1 * rng.standard_normal(C)).astype(dtype)
    rv = (1.0 + rng.random(C)).astype(dtype)
    return gamma, beta, rm, rv, rng


def run_tail(tail, x, dtype, pool, p_drop, seed=5):
    """Training-mode forward, backward of a fixed projection: output, grads
    of x, gamma and beta, both running buffers and the dropout stream's
    next draw."""
    g, b, rm, rv, rng = tail_params(x.shape[1], dtype, seed)
    with precision(dtype):
        xt = Tensor(x, requires_grad=True)
        gamma, beta = Tensor(g, requires_grad=True), Tensor(b, requires_grad=True)
        drop_rng = np.random.Generator(np.random.PCG64(seed + 1))
        out = tail(xt, gamma, beta, rm, rv, pool, p_drop, drop_rng)
        proj = rng.standard_normal(out.shape).astype(dtype)
        (out * Tensor(proj)).sum().backward()
    return [out.data, xt.grad, gamma.grad, beta.grad, rm, rv, np.asarray(drop_rng.random())]


def assert_eval_tail_within_contract(x, dtype, pool, p_drop):
    """Eval mode: batch norm's scale applied to x (as a folded conv weight
    applies it), then ops.elu_pool with its shift, against oracle_tail in
    float64 on the same values; float64 within 1e-9 x max |value|, float32
    within 256 eps32 of max(1, max |value|)."""
    g, b, rm, rv, _ = tail_params(x.shape[1], dtype)
    scale, shift = ops.bn_affine(g, b, rm, rv)
    shape = (1, -1, 1)
    got = ops.elu_pool(x * scale.astype(dtype).reshape(shape), shift.astype(dtype).reshape(shape), pool)
    with precision("float64"):
        params = [a.astype(np.float64) for a in (x, g, b, rm, rv)]
        want = oracle_tail(*map(Tensor, params[:3]), *params[3:], False, pool, p_drop).data
    assert got.dtype == dtype and got.shape == want.shape
    err, top = float(np.abs(got - want).max()), float(np.abs(want).max())
    assert err <= (1e-9 * top if dtype == np.float64 else 256 * EPS32 * max(1.0, top)), f"error {err:.3e}"


@pytest.mark.parametrize("p_drop", [0.0, 0.5])
@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("shape", SHAPES, ids=[f"T{s[2]}p{s[3]}" for s in SHAPES])
def test_tail_is_bitwise_the_composition(shape, dtype, layout, training, p_drop):
    """Bitwise in training mode; eval mode runs the folded tail at the
    contract's tolerances."""
    B, C, T, pool = shape
    x = tail_input(T, B, C, T, layout, dtype)
    if not training:
        assert_eval_tail_within_contract(x, np.dtype(dtype), pool, p_drop)
        return
    got, want = (run_tail(tail, x, dtype, pool, p_drop) for tail in TAILS)
    names = ("output", "x grad", "gamma grad", "beta grad", "running mean", "running var", "next rng draw")
    for name, g, w in zip(names, got, want):
        assert g.dtype == w.dtype, name
        assert np.array_equal(g, w), f"{name} differs"
        # Downstream sums run in memory order, so the layout must match too.
        assert g.strides == w.strides, f"{name} layout differs"
    assert got[0].shape == (B, C, T // pool)


def model_step(cfg, dtype, training, monkeypatch, tail):
    """Logits, named grads and named buffers of one forward (and, in
    training mode, backward) at B=2 with ops.bn_elu_pool replaced by tail;
    in eval mode, tail is TAILS[1] for oracle_branch_call's composition."""
    if training:
        monkeypatch.setattr(ops, "bn_elu_pool", tail)
    elif tail is TAILS[1]:
        monkeypatch.setattr(Branch, "__call__", oracle_branch_call)
    with precision(dtype):
        model = CsanetModel(cfg, rng=np.random.Generator(np.random.PCG64(60)))
        rng = np.random.Generator(np.random.PCG64(61))
        x = Tensor(rng.standard_normal((2, 1, cfg.channels, cfg.time_steps)).astype(dtype))
        logits = model(x, training=training, rng=np.random.Generator(np.random.PCG64(62)))
        if training:
            ops.cross_entropy(logits, np.array([0, 1])).backward()
    grads = {name: p.grad for name, p in model.named_parameters()}
    return logits.data, grads, dict(model.named_buffers())


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("config", ["mini", "default"])
def test_model_is_bitwise_the_oracle_tail_model(config, dtype, training, monkeypatch):
    """Training: bitwise with the oracle tail in the model. Eval (no tape):
    the inference pass against oracle_branch_call in the same dtype, logits
    within the contract's tolerance for that dtype, buffers untouched."""
    cfg = mini_model_config() if config == "mini" else ModelConfig()
    if config == "mini":
        cfg.conv_dropout = 0.5  # mini turns dropout off; exercise the mask
    got, want = (model_step(cfg, dtype, training, monkeypatch, tail) for tail in TAILS)
    if not training:
        err, top = float(np.abs(got[0] - want[0]).max()), float(np.abs(want[0]).max())
        assert err <= (1e-9 * top if dtype == "float64" else 256 * EPS32 * max(1.0, top)), "logits"
        for name, buf in want[2].items():
            assert np.array_equal(got[2][name], buf), name
        return
    assert np.array_equal(got[0], want[0]), "logits"
    assert got[1].keys() == want[1].keys()
    for name, grad in want[1].items():
        if grad is None:
            assert got[1][name] is None, name
        else:
            assert np.array_equal(got[1][name], grad), name
    for name, buf in want[2].items():
        assert np.array_equal(got[2][name], buf), name


def test_training_step_runs_the_four_ops_only_outside_the_branches(tmp_path, monkeypatch):
    """The TCN still calls elu, batch_norm and dropout; no branch map of
    length T or T/p1 reaches them. A training forward runs each branch's
    stem and first tail as one stem_bn_elu_pool call and only the tail
    after spa_conv through bn_elu_pool; eval mode runs neither."""
    run = tiny_run(tmp_path / "run", epochs=1)
    run.train.batch_size = 12  # all 12 trials: one step, plus the epoch's train-set eval
    cfg = run.model
    names = ("elu", "batch_norm", "dropout", "bn_elu_pool", "stem_bn_elu_pool")
    calls = {name: [] for name in names}
    for name in names:
        def spy(x, *args, _op=getattr(ops, name), _name=name, **kwargs):
            calls[_name].append(x.shape)
            return _op(x, *args, **kwargs)

        monkeypatch.setattr(ops, name, spy)
    forwards = []
    model_call = CsanetModel.__call__

    def count_forward(self, x, training=False, rng=None):
        forwards.append((x.shape[0], training))
        return model_call(self, x, training, rng)

    monkeypatch.setattr(CsanetModel, "__call__", count_forward)
    result = train_run(run)
    assert result.epochs_run == 1
    assert [t for _, t in forwards] == [True, False]  # the step and the train-set eval
    n_tcn = 4 * 2 * len(cfg.tcn.dilations)  # per forward: 4 branches, 2 convs per block
    for name in names[:3]:
        assert len(calls[name]) == n_tcn * len(forwards), name
        for (b, _), shape in zip(np.repeat(forwards, n_tcn, axis=0), calls[name]):
            assert shape == (b, cfg.tcn.filters, cfg.t0), name
    b = forwards[0][0]
    assert calls["stem_bn_elu_pool"] == [(b, 1, cfg.channels, cfg.time_steps)] * 4
    assert calls["bn_elu_pool"] == [(b, cfg.spa_filters, cfg.time_steps // cfg.pools[0])] * 4


def test_tape_keeps_two_full_size_arrays():
    B, C, T, pool = 4, 8, 64, 4
    x = Tensor(tail_input(1, B, C, T, "contiguous", "float64"), requires_grad=True)
    gamma, beta = Tensor(np.ones(C)), Tensor(np.zeros(C))
    out = ops.bn_elu_pool(x, gamma, beta, np.zeros(C), np.ones(C), pool, 0.5, np.random.default_rng(0))
    held = [c.cell_contents for c in out._backward.__closure__]
    arrays = [a for a in held if isinstance(a, np.ndarray)]
    assert sorted(a.size for a in arrays if a.size >= B * C * T // pool) == [B * C * T // pool, B * C * T, B * C * T]


def test_errors_match_the_composition():
    x = Tensor(tail_input(2, 1, 3, 8, "contiguous", "float64"))
    gamma, beta = Tensor(np.ones(3)), Tensor(np.zeros(3))
    for tail in TAILS:
        with pytest.raises(ConfigurationError, match="batch of at least 2"):
            tail(x, gamma, beta, np.zeros(3), np.ones(3), 2, 0.0)
    x2 = Tensor(tail_input(2, 2, 3, 8, "contiguous", "float64"))
    for tail in TAILS:
        with pytest.raises(ConfigurationError, match="explicit rng"):
            tail(x2, gamma, beta, np.zeros(3), np.ones(3), 2, 0.5)
        with pytest.raises(ConfigurationError, match="dropout probability"):
            tail(x2, gamma, beta, np.zeros(3), np.ones(3), 2, 1.0)
    with pytest.raises(DimensionError):
        ops.bn_elu_pool(x2, gamma, beta, np.zeros(3), np.ones(3), 9, 0.0)
    with pytest.raises(DimensionError):
        ops.bn_elu_pool(Tensor(np.zeros((2, 3, 2, 8))), gamma, beta, np.zeros(3), np.ones(3), 2, 0.0)
