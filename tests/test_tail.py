"""ops.bn_elu_pool against the batch norm -> ELU -> pool -> dropout
composition it replaced (oracles.oracle_tail), in float32 and float64, at
the numerics contract's tolerance for each dtype: the op runs the shared
batch-norm kernel with float64 batch sums, the composition numpy's own
sums. Eval mode folds batch norm's scale into the preceding conv and runs
ops.elu_pool on the scaled map. The TCN block, whose tails are the op at
pool 1 (its eval mode folded likewise), is held to the causal conv ->
batch norm -> ELU -> dropout composition (oracles.oracle_tcn_block)."""

import numpy as np
import pytest

from csanet import ops
from csanet.autodiff import Tensor, precision
from csanet.config import ModelConfig
from csanet.errors import ConfigurationError, DimensionError
from csanet.model import Branch, CsanetModel, TcnBlock
from csanet.train import train_run
from csanet.verification import mini_model_config

from oracles import oracle_branch_call, oracle_tail, oracle_tcn_block
from test_numerics_contract import assert_within_dtype_rule
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
    """Within the contract's tolerance for the dtype, in training mode, and
    the dropout stream left where the composition leaves it; eval mode runs
    the folded tail at the contract's tolerances. (Bitwise until the tail
    moved onto the shared batch-norm kernel.)"""
    B, C, T, pool = shape
    x = tail_input(T, B, C, T, layout, dtype)
    if not training:
        assert_eval_tail_within_contract(x, np.dtype(dtype), pool, p_drop)
        return
    got, want = (run_tail(tail, x, dtype, pool, p_drop) for tail in TAILS)
    names = ("output", "x grad", "gamma grad", "beta grad", "running mean", "running var")
    for name, g, w in zip(names, got, want):
        assert_within_dtype_rule(g, w, name)
    assert got[-1] == want[-1], "next rng draw"
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
    """Training: the oracle tail in every branch and TCN tail, logits,
    gradients and buffers within the contract's tolerance for the dtype.
    Eval (no tape): the inference pass against oracle_branch_call in the
    same dtype, logits within the contract's tolerance for that dtype,
    buffers untouched."""
    cfg = mini_model_config() if config == "mini" else ModelConfig()
    if config == "mini":
        cfg.conv_dropout = 0.5  # mini turns dropout off; exercise the mask
        cfg.tcn.dropout = 0.5
    got, want = (model_step(cfg, dtype, training, monkeypatch, tail) for tail in TAILS)
    if not training:
        err, top = float(np.abs(got[0] - want[0]).max()), float(np.abs(want[0]).max())
        assert err <= (1e-9 * top if dtype == "float64" else 256 * EPS32 * max(1.0, top)), "logits"
        for name, buf in want[2].items():
            assert np.array_equal(got[2][name], buf), name
        return
    assert_within_dtype_rule(got[0], want[0], "logits")
    assert got[1].keys() == want[1].keys()
    for name, grad in want[1].items():
        if grad is None:
            assert got[1][name] is None, name
        else:
            assert_within_dtype_rule(got[1][name], grad, name)
    for name, buf in want[2].items():
        assert_within_dtype_rule(got[2][name], buf, name)


def test_training_step_runs_the_four_ops_only_outside_the_branches(tmp_path, monkeypatch):
    """The model calls none of elu, batch_norm and dropout, in either mode.
    A training forward runs each branch's stem and first tail as one
    stem_bn_elu_pool call, and bn_elu_pool once after each spa_conv and, at
    pool 1, once after each of the two convs of every TCN block: 4 + 8 x
    len(dilations) calls. Eval mode runs neither fused op."""
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
    for name in names[:3]:
        assert calls[name] == [], name
    b = forwards[0][0]
    assert calls["stem_bn_elu_pool"] == [(b, 1, cfg.channels, cfg.time_steps)] * 4
    spa = (b, cfg.spa_filters, cfg.time_steps // cfg.pools[0])
    tcn = [(b, cfg.tcn.filters, cfg.t0)] * (2 * len(cfg.tcn.dilations))
    assert calls["bn_elu_pool"] == [spa] * 4 + tcn * 4  # the branches run before fusion and the TCNs


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


def tcn_block_step(block_fn, dtype, training, seed=90):
    """One TCN block (filters 4, kernel 3, dilation 2, dropout 0.5) on a
    (4, 4, 13) map: its output and, in training mode, after the backward of
    a fixed projection, the gradients of x and of every parameter; then the
    running buffers."""
    rng = np.random.Generator(np.random.PCG64(seed))
    with precision(dtype):
        block = TcnBlock(4, 3, 2, 0.5, rng)
        for _, buf in block.named_buffers():
            buf[...] = rng.uniform(0.2, 0.6, buf.shape)
        x = Tensor(rng.standard_normal((4, 4, 13)).astype(dtype), requires_grad=training)
        out = block_fn(block, x, training, np.random.Generator(np.random.PCG64(seed + 1)))
        arrays = {"output": out.data}
        if training:
            (out * Tensor(rng.standard_normal(out.shape).astype(dtype))).sum().backward()
            arrays["x grad"] = x.grad
            arrays.update((f"{name} grad", p.grad) for name, p in block.named_parameters())
    arrays.update(block.named_buffers())
    return arrays


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_tcn_block_matches_the_oracle_composition(dtype, training):
    """Training: ops.bn_elu_pool at pool 1 after each causal conv. Eval: each
    batch norm folded into its conv's weight, then ops.elu_pool; the
    running buffers stay untouched."""
    got, want = (tcn_block_step(fn, dtype, training) for fn in (TcnBlock.__call__, oracle_tcn_block))
    assert got.keys() == want.keys()
    for name, w in want.items():
        if training or not name.startswith("bn"):
            assert_within_dtype_rule(got[name], w, name)
        else:  # as seeded: the oracle's eval-mode batch norm reads them only
            assert np.array_equal(got[name], w), name
