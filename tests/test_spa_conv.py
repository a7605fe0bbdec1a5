"""The branch's spatial-refinement conv (spa_conv), a (1, K) time conv run
as one conv1d_dilated call on the (B, width, T) map: against the im2col
conv2d path it replaced (oracles.oracle_branch_call) in float64, and
bitwise against that call inside the oracle branch. Eval mode runs spa_conv
on its stored weight and bn_spa as its fixed map in ops.elu_pool, held to
the oracle compositions at the numerics contract's tolerances."""

from pathlib import Path

import numpy as np
import pytest

from csanet import ops, psd
from csanet.autodiff import Tensor, _reverse_topo, no_grad, precision
from csanet.checkpoint import load_checkpoint, save_checkpoint
from csanet.config import ModelConfig
from csanet.model import Branch, CsanetModel
from csanet.train import train_run
from csanet.verification import mini_model_config

from oracles import oracle_branch_call, oracle_conv2d, same_pad_time
from test_stem import assert_close
from test_train import tiny_run

FIXTURE = Path(__file__).parent / "data"
EPS32 = float(np.finfo(np.float32).eps)


def model_step(cfg, seed, training, monkeypatch, branch_call):
    """Logits, named grads and named buffers of one forward (and, in
    training mode, backward) at B=2."""
    monkeypatch.setattr(Branch, "__call__", branch_call)
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
def test_model_matches_oracle_spa_conv(config, training, monkeypatch):
    cfg = mini_model_config() if config == "mini" else ModelConfig()
    calls = (Branch.__call__, oracle_branch_call)
    got, want = (model_step(cfg, 30, training, monkeypatch, call) for call in calls)
    assert_close(got[0], want[0], "logits")
    assert got[1].keys() == want[1].keys()
    for name, grad in want[1].items():
        if grad is None:
            assert got[1][name] is None, name
        else:
            assert_close(got[1][name], grad, name)
    assert got[2].keys() == want[2].keys()
    for name, buf in want[2].items():
        assert_close(got[2][name], buf, name)


def fixture_inputs(cfg):
    rng = np.random.Generator(np.random.PCG64(21))
    return rng.standard_normal((8, 1, cfg.channels, cfg.time_steps))


def write_v1_fixture(directory):
    """The committed checkpoint and its float64 logits on fixture_inputs.

    The files under tests/data were written by this function on the tree
    before spa_conv moved from conv2d to conv1d_dilated (commit 786146e),
    from the repository root with tests/ on sys.path.
    """
    cfg = mini_model_config()
    model = CsanetModel(cfg, rng=np.random.Generator(np.random.PCG64(20)))
    x = fixture_inputs(cfg).astype(np.float32)
    for start in (0, 4):  # move the running statistics off their initial values
        model(Tensor(x[start : start + 4]), training=True)
    save_checkpoint(model, f"{directory}/v1_mini.csan")
    with precision("float64"):
        _, reloaded = load_checkpoint(f"{directory}/v1_mini.csan")
        with no_grad():
            logits = reloaded(Tensor(fixture_inputs(cfg)), training=False).data
    np.save(f"{directory}/v1_mini_logits.npy", logits)


def test_checkpoint_from_before_the_change_predicts_identically():
    want = np.load(FIXTURE / "v1_mini_logits.npy")
    with precision("float64"):
        cfg, model = load_checkpoint(FIXTURE / "v1_mini.csan")
        with no_grad():
            got = model(Tensor(fixture_inputs(cfg)), training=False).data
    assert_close(got, want, "logits")
    np.testing.assert_array_equal(np.argmax(got, axis=1), np.argmax(want, axis=1))
    fresh = CsanetModel(mini_model_config(), rng=np.random.Generator(np.random.PCG64(0)))
    shapes = [[(n, p.shape) for n, p in m.named_parameters()] for m in (model, fresh)]
    assert shapes[0] == shapes[1]


def inline_spa_conv(h, weight):
    """spa_conv as an explicit pad node, then one unpadded conv1d_dilated
    call on the (B, width, T) map, the (Cout, width, 1, K) weight read as
    (Cout, width, K)."""
    cout, width, _, K = weight.shape
    return ops.conv1d_dilated(same_pad_time(h, K), weight.reshape((cout, width, K)))


def inline_branch_call(branch, x, training, lags=None, keep=(None, None)):
    return oracle_branch_call(branch, x, training, lags, keep, spa_conv=inline_spa_conv)


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("config", ["mini", "paper"])
def test_spa_conv_layer_is_bitwise_the_inline_conv1d_dilated(config, dtype, training, monkeypatch):
    """Training: bitwise, tape and all, the layer's tape one node per branch
    shorter (conv1d_dilated pads inside the op, where the inline composition
    runs a pad node). Eval (no tape): the eval pass against the
    inline composition, logits within the contract's tolerance for the
    dtype."""
    cfg = mini_model_config() if config == "mini" else ModelConfig()
    if config == "mini":
        cfg.conv_dropout = 0.5  # mini turns dropout off; exercise the mask
    results = []
    for branch_call in (Branch.__call__, inline_branch_call):
        monkeypatch.setattr(Branch, "__call__", branch_call)
        with precision(dtype):
            model = CsanetModel(cfg, rng=np.random.Generator(np.random.PCG64(31)))
            rng = np.random.Generator(np.random.PCG64(32))
            x = Tensor(rng.standard_normal((2, 1, cfg.channels, cfg.time_steps)).astype(dtype))
            logits = model(x, training=training, rng=np.random.Generator(np.random.PCG64(33)))
            if not training:
                results.append(logits.data)
                continue
            loss = ops.cross_entropy(logits, np.array([0, 1]))
            nodes = len(_reverse_topo(loss))  # before the walk releases the tape
            loss.backward()
        arrays = [("logits", logits.data)]
        arrays += [(f"{n} grad", p.grad) for n, p in model.named_parameters() if p.grad is not None]
        arrays += list(model.named_buffers())
        results.append((nodes, arrays))
    if not training:
        got, want = results
        err, top = float(np.abs(got - want).max()), float(np.abs(want).max())
        assert got.dtype == want.dtype
        assert err <= (1e-9 * top if dtype == "float64" else 256 * EPS32 * max(1.0, top)), "logits"
        return
    (got_nodes, got), (want_nodes, want) = results
    assert got_nodes == want_nodes - 4
    assert [n for n, _ in got] == [n for n, _ in want]
    for (name, g), (_, w) in zip(got, want):
        assert g.dtype == w.dtype, name
        assert np.array_equal(g, w), f"{name} differs"
        assert g.strides == w.strides, f"{name} layout differs"


def test_training_and_eval_never_reach_the_2d_ops(tmp_path, monkeypatch):
    """Over a one-step train_run and its train-set eval pass, the model runs
    neither ops.conv2d nor ops.avg_pool2d: spa_conv is one conv1d_dilated
    call per branch and the attention's multiscale pool one matmul inside
    msca_forward's kernel."""
    calls = []
    for name in ("conv2d", "avg_pool2d"):
        def spy(*args, _op=getattr(ops, name), _name=name, **kwargs):
            calls.append(_name)
            return _op(*args, **kwargs)

        monkeypatch.setattr(ops, name, spy)
    run = tiny_run(tmp_path / "run", epochs=1)
    run.train.batch_size = 12  # all 12 trials: one step, plus the epoch's train-set eval
    assert train_run(run).epochs_run == 1
    assert calls == []


@pytest.mark.parametrize("index", range(4))
def test_temporal_out_matches_oracle_conv2d(index):
    # The PSD report's temporal conv (psd.temporal_maps): a height-1 kernel
    # over the C rows of a trial, run with the rows as the batch of one
    # conv1d_dilated call; im2col sums in another order. ops.conv2d's
    # gradients at H > 1 are checked in test_ops.py.
    cfg = mini_model_config()
    with precision("float64"):
        model = CsanetModel(cfg, rng=np.random.Generator(np.random.PCG64(40 + index)))
    branch = model.branches[index]
    rng = np.random.Generator(np.random.PCG64(50 + index))
    x = rng.standard_normal((2, 1, cfg.channels, cfg.time_steps))
    want = oracle_conv2d(same_pad_time(x, branch.temporal_kernel), branch.temporal_conv.weight).data
    for trial, w in zip(x, want):
        got = psd.temporal_maps(branch, trial[0]).transpose(1, 0, 2)  # (F, C, T)
        assert got.shape == w.shape and got.dtype == np.float64
        assert float(np.abs(got - w).max()) <= 1e-12 * float(np.abs(w).max())
