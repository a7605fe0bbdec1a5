"""ops.bn_elu_pool against the batch norm -> ELU -> pool -> dropout
composition it replaced (oracles.oracle_tail), in float32 and float64, at
the numerics contract's tolerance for each dtype: the op runs the shared
batch-norm kernel with float64 batch sums, the composition numpy's own
sums. Eval mode runs the same tail kernel, ops.elu_pool, with batch norm's
fixed map (ops.bn_affine) on the map as it stands. The TCN, whose tails
are these at pool 1, runs the four branches' blocks of one depth as one
grouped pass (model.tcn_block); that pass is held to the causal conv ->
batch norm -> ELU -> dropout composition of each block
(oracles.oracle_tcn_block), and to the bit to the per-branch pass it
replaced (oracles.oracle_tcn_block_call, oracles.oracle_tcn_forward)."""

import numpy as np
import pytest

from csanet import ops
from csanet.autodiff import Tensor, precision
from csanet.config import ModelConfig
from csanet.errors import ConfigurationError, DimensionError
from csanet.model import Branch, CsanetModel, TcnBlock, tcn_block
from csanet.train import train_run
from csanet.verification import mini_model_config

from oracles import oracle_branch_call, oracle_tail, oracle_tcn_block, oracle_tcn_block_call, oracle_tcn_forward, per_group
from test_numerics_contract import assert_within_dtype_rule
from test_train import tiny_run

EPS32 = float(np.finfo(np.float32).eps)


def training_oracle_tail(x, gamma, beta, running_mean, running_var, pool, keep=None):
    """oracle_tail in training mode, with ops.bn_elu_pool's signature; a
    grouped call (lists of the groups' parameters and buffers, as the TCN's
    tails make) runs it on each group's channels."""
    if not isinstance(gamma, (list, tuple)):
        return oracle_tail(x, gamma, beta, running_mean, running_var, True, pool, keep)

    def tail(params, x, share):
        return oracle_tail(x, *params, True, pool, share[0])

    return per_group(tail, list(zip(gamma, beta, running_mean, running_var)), x, [keep])


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
    """Training-mode forward with a dropout mask drawn from a fixed seed,
    backward of a fixed projection: output, grads of x, gamma and beta and
    both running buffers."""
    g, b, rm, rv, rng = tail_params(x.shape[1], dtype, seed)
    B, C, T = x.shape
    keep = ops.dropout_mask((B, C, T // pool), p_drop, np.random.Generator(np.random.PCG64(seed + 1)), dtype)
    with precision(dtype):
        xt = Tensor(x, requires_grad=True)
        gamma, beta = Tensor(g, requires_grad=True), Tensor(b, requires_grad=True)
        out = tail(xt, gamma, beta, rm, rv, pool, keep)
        proj = rng.standard_normal(out.shape).astype(dtype)
        (out * Tensor(proj)).sum().backward()
    return [out.data, xt.grad, gamma.grad, beta.grad, rm, rv]


@pytest.mark.parametrize("p_drop", [0.0, 0.5])
@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("shape", SHAPES, ids=[f"T{s[2]}p{s[3]}" for s in SHAPES])
def test_tail_is_within_the_contract(shape, dtype, layout, p_drop):
    """Training mode, with the same dropout mask: output, gradients and
    running buffers within the contract's tolerance for the dtype."""
    B, C, T, pool = shape
    x = tail_input(T, B, C, T, layout, dtype)
    got, want = (run_tail(tail, x, dtype, pool, p_drop) for tail in TAILS)
    names = ("output", "x grad", "gamma grad", "beta grad", "running mean", "running var")
    for name, g, w in zip(names, got, want):
        assert_within_dtype_rule(g, w, name)
    assert got[0].shape == (B, C, T // pool)


@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("shape", SHAPES, ids=[f"T{s[2]}p{s[3]}" for s in SHAPES])
def test_eval_tail_is_within_the_contract(shape, dtype, layout):
    """Eval mode: ops.elu_pool on x's (C, B, T) view with bn_affine's map in
    the dtype, against oracle_tail in float64 on the same values; float64
    within 1e-9 x max |value|, float32 within 256 eps32 of max(1, max
    |value|)."""
    B, C, T, pool = shape
    x = tail_input(T, B, C, T, layout, dtype)
    g, b, rm, rv, _ = tail_params(C, dtype)
    affine = [m.astype(dtype)[:, None, None] for m in ops.bn_affine(g, b, rm, rv)]
    got = ops.elu_pool(x.transpose(1, 0, 2), affine, pool)
    with precision("float64"):
        params = [a.astype(np.float64) for a in (x, g, b, rm, rv)]
        want = oracle_tail(*map(Tensor, params[:3]), *params[3:], False, pool).data
    assert got.dtype == dtype and got.shape == want.shape == (B, C, T // pool)
    err, top = float(np.abs(got - want).max()), float(np.abs(want).max())
    assert err <= (1e-9 * top if dtype == "float64" else 256 * EPS32 * max(1.0, top)), f"error {err:.3e}"


@pytest.mark.parametrize("pool", [8, 7, 1])
@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_blocked_tail_is_bitwise_the_whole_map_arithmetic(dtype, layout, pool):
    """The tails run in channel blocks of about 256 KB: here one channel
    each for the contiguous layout, one block for the layout strided in
    time. The output and dL/dy equal, to the bit, the same arithmetic on
    the whole map with the ELU's slope kept, as the tails ran it before the
    backward rebuilt the slope."""
    B, C, T = 40, 6, 1000
    rng = np.random.Generator(np.random.PCG64(9))
    gamma, beta, *_ = tail_params(C, dtype)
    u, (scale, shift) = ops._bn_train(tail_input(3, B, C, T, layout, dtype).transpose(1, 0, 2), gamma, beta)[3:]
    assert u[0].nbytes >= 1 << 17  # more than half a block: one channel per block
    keep = ops.dropout_mask((B, C, T // pool), 0.5, rng, dtype)
    gout = rng.standard_normal((B, C, T // pool)).astype(dtype)
    y = u * scale
    y += shift
    neg = np.expm1(np.minimum(y, 0.0))
    elu = np.maximum(y, 0.0)
    elu += neg
    want_out = ops._mean_pool(elu, pool).transpose(1, 0, 2) * keep.mask * keep.scale
    n = (T // pool) * pool
    want_gy = np.zeros_like(u)
    g = (gout * keep.mask * keep.scale).transpose(1, 0, 2) / np.array(pool, dtype=dtype)
    want_gy[..., :n] = (neg + 1.0)[..., :n] * np.repeat(g, pool, axis=-1)
    got_out, got_gy = ops.elu_pool(u, (scale, shift), pool, keep), np.zeros_like(u)
    ops._tail_backward(gout, keep, u, (scale, shift), pool, got_gy)
    for got, want in ((got_out, want_out), (got_gy, want_gy)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


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
def test_model_is_within_the_contract_of_the_oracle_tail_model(config, dtype, training, monkeypatch):
    """Training: the oracle tail in every branch and TCN tail, logits,
    gradients and buffers within the contract's tolerance for the dtype.
    Eval (no tape): the eval pass against oracle_branch_call in the
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
    pool 1 over the four branches' channels, once after each of the two
    grouped convs of every TCN depth: 4 + 2 x len(dilations) calls. Eval
    mode runs neither fused op."""
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
    tcn = [(b, 4 * cfg.spa_filters, cfg.t0)] * (2 * len(cfg.tcn.dilations))
    assert calls["bn_elu_pool"] == [spa] * 4 + tcn  # the branches run before fusion and the TCN pass


def test_tape_keeps_one_full_size_array():
    """The centred map and the bool mask; the backward rebuilds the ELU's slope."""
    B, C, T, pool = 4, 8, 64, 4
    x = Tensor(tail_input(1, B, C, T, "contiguous", "float64"), requires_grad=True)
    gamma, beta = Tensor(np.ones(C)), Tensor(np.zeros(C))
    keep = ops.dropout_mask((B, C, T // pool), 0.5, np.random.default_rng(0), np.float64)
    out = ops.bn_elu_pool(x, gamma, beta, np.zeros(C), np.ones(C), pool, keep)
    held = [c.cell_contents for c in out._backward.__closure__]
    held = [a for h in held for a in (h if isinstance(h, tuple) else (h,))]  # the mask, affine: pairs
    arrays = [a for a in held if isinstance(a, np.ndarray)]
    assert sorted(a.size for a in arrays if a.size >= B * C * T // pool) == [B * C * T // pool, B * C * T]
    assert keep.mask.dtype == bool and any(a is keep.mask for a in arrays)


def test_errors_match_the_composition():
    x = Tensor(tail_input(2, 1, 3, 8, "contiguous", "float64"))
    gamma, beta = Tensor(np.ones(3)), Tensor(np.zeros(3))
    for tail in TAILS:
        with pytest.raises(ConfigurationError, match="batch of at least 2"):
            tail(x, gamma, beta, np.zeros(3), np.ones(3), 2)
    # The mask's draw checks: the one mask function, and the retired op on it.
    x2 = Tensor(tail_input(2, 2, 3, 8, "contiguous", "float64"))
    draws = (
        lambda p, rng: ops.dropout_mask((2, 3, 4), p, rng, np.float64),
        lambda p, rng: ops.dropout(x2, p, True, rng),
    )
    for drop in draws:
        with pytest.raises(ConfigurationError, match="explicit rng"):
            drop(0.5, None)
        with pytest.raises(ConfigurationError, match="dropout probability"):
            drop(1.0, np.random.default_rng(0))
    with pytest.raises(DimensionError):
        ops.bn_elu_pool(x2, gamma, beta, np.zeros(3), np.ones(3), 9)
    with pytest.raises(DimensionError):
        ops.bn_elu_pool(Tensor(np.zeros((2, 3, 2, 8))), gamma, beta, np.zeros(3), np.ones(3), 2)
    # A mask that would broadcast against the (2, 3, 4) output, refused before
    # the running buffers move.
    rm, rv = np.zeros(3), np.ones(3)
    for shape in ((1, 3, 4), (2, 3, 1), (2, 3, 8)):
        with pytest.raises(DimensionError, match="dropout mask"):
            ops.bn_elu_pool(x2, gamma, beta, rm, rv, 2, ops.DropoutMask(np.ones(shape, bool), np.float64(1.0)))
    assert not rm.any() and (rv == 1.0).all()


def tcn_block_step(block_fn, dtype, training, seed=90, groups=3):
    """One TCN depth of `groups` branches (filters 4, kernel 3, dilation 2,
    dropout 0.5 in training) on their (4, groups x 4, 13) maps side by side,
    run as block_fn(blocks, x, training, keep), keep the two masks of the
    whole map: its output and, in training mode, after the backward of a
    fixed projection, the gradients of x and of every parameter; then the
    running buffers. Block i's arrays are named with the suffix [i]."""
    rng = np.random.Generator(np.random.PCG64(seed))
    drop = np.random.Generator(np.random.PCG64(seed + 1))
    shape = (4, 4 * groups, 13)
    keep = [ops.dropout_mask(shape, 0.5, drop, dtype) for _ in range(2)] if training else (None, None)
    with precision(dtype):
        blocks = [TcnBlock(4, 3, 2, rng) for _ in range(groups)]
        for block in blocks:
            for _, buf in block.named_buffers():
                buf[...] = rng.uniform(0.2, 0.6, buf.shape)
        x = Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=training)
        out = block_fn(blocks, x, training, keep)
        arrays = {"output": out.data}
        if training:
            (out * Tensor(rng.standard_normal(out.shape).astype(dtype))).sum().backward()
            arrays["x grad"] = x.grad
            for i, block in enumerate(blocks):
                arrays.update((f"{name} grad[{i}]", p.grad) for name, p in block.named_parameters())
    for i, block in enumerate(blocks):
        arrays.update((f"{name}[{i}]", buf) for name, buf in block.named_buffers())
    return arrays


def per_block(block_fn):
    """block_fn(block, x, training, keep) of one block, run on each block's
    channels of the stacked map: the per-branch pass, as tcn_block's
    signature."""

    def run(blocks, x, training, keep):
        return per_group(lambda block, part, share: block_fn(block, part, training, share), blocks, x, keep)

    return run


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_tcn_block_matches_the_oracle_composition(dtype, training):
    """The stacked pass, model.tcn_block over three blocks. Training:
    ops.bn_elu_pool at pool 1 after each grouped causal conv. Eval:
    ops.elu_pool with the batch norms' fixed maps; the running buffers stay
    untouched."""
    got, want = (tcn_block_step(fn, dtype, training) for fn in (tcn_block, per_block(oracle_tcn_block)))
    assert got.keys() == want.keys()
    for name, w in want.items():
        if training or not name.startswith("bn"):
            assert_within_dtype_rule(got[name], w, name)
        else:  # as seeded: the oracle's eval-mode batch norm reads them only
            assert np.array_equal(got[name], w), name


@pytest.mark.parametrize("groups", [1, 4])
@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_tcn_block_is_bitwise_the_per_branch_pass(dtype, training, groups):
    """model.tcn_block over `groups` blocks against each block run alone
    on its channels (oracles.oracle_tcn_block_call): output, every
    gradient and every running buffer byte-equal."""
    got, want = (tcn_block_step(fn, dtype, training, groups=groups) for fn in (tcn_block, per_block(oracle_tcn_block_call)))
    assert got.keys() == want.keys()
    for name, w in want.items():
        assert got[name].dtype == w.dtype and got[name].shape == w.shape, name
        assert got[name].tobytes() == w.tobytes(), name


def tcn_model_step(cfg, dtype, training, B, tcn_forward=None, monkeypatch=None):
    """Logits, then every gradient (in training, of a fixed projection of
    the logits) and every running buffer, by name, of one forward of B
    trials, with CsanetModel.tcn_forward replaced by tcn_forward if given."""
    if tcn_forward is not None:
        monkeypatch.setattr(CsanetModel, "tcn_forward", tcn_forward)
    with precision(dtype):
        model = CsanetModel(cfg, rng=np.random.Generator(np.random.PCG64(70)))
        rng = np.random.Generator(np.random.PCG64(71))
        for _, buf in model.named_buffers():
            buf[...] = rng.uniform(0.2, 0.6, buf.shape)
        x = Tensor(rng.standard_normal((B, 1, cfg.channels, cfg.time_steps)).astype(dtype))
        logits = model(x, training=training, rng=np.random.Generator(np.random.PCG64(72)))
        arrays = {"logits": logits.data}
        if training:
            (logits * Tensor(rng.standard_normal(logits.shape).astype(dtype))).sum().backward()
            arrays.update((f"{name} grad", p.grad) for name, p in model.named_parameters() if p.grad is not None)
    arrays.update(model.named_buffers())
    return arrays


TCN_CASES = [
    (config, dtype, training, fusion, readout, tcn)
    for config in ("mini", "default")
    for dtype in ("float32", "float64")
    for training in (True, False)
    for fusion in ("main_auxiliary", "hierarchical")
    for readout in ("last_step", "flatten")
    for tcn in (True, False)
    if config == "mini" or (fusion, readout, tcn) == ("main_auxiliary", "last_step", True)
]


@pytest.mark.parametrize("config, dtype, training, fusion, readout, tcn", TCN_CASES)
def test_model_tcn_pass_is_bitwise_the_per_branch_oracle(config, dtype, training, fusion, readout, tcn, monkeypatch):
    """The whole model with its one TCN pass against the same model with
    the per-branch TCNs and readouts (oracles.oracle_tcn_forward), dropout
    on: logits, every gradient and every running buffer byte-equal, in
    training at 3 trials and in eval at 1 and 5."""
    cfg = mini_model_config() if config == "mini" else ModelConfig()
    cfg.conv_dropout, cfg.tcn.dropout = 0.5, 0.3
    cfg.fusion_mode, cfg.readout, cfg.tcn_enabled = fusion, readout, tcn
    for B in (3,) if training else (1, 5):
        got = tcn_model_step(cfg, dtype, training, B)
        want = tcn_model_step(cfg, dtype, training, B, oracle_tcn_forward, monkeypatch)
        monkeypatch.undo()
        assert got.keys() == want.keys()
        for name, w in want.items():
            assert got[name].dtype == w.dtype and got[name].shape == w.shape, (B, name)
            assert got[name].tobytes() == w.tobytes(), (B, name)
