"""Eval-mode inference: the tape-free branch pass and the model around it.
No tape, running buffers untouched, rows independent of the batch they
ride in (partial and multiple STEM_BLOCK blocks), the convs run on their
stored weights and the stem on the training stem's correlation, every
output following the current parameters, and no silent dtype mixing."""

import inspect

import numpy as np
import pytest

from csanet import ops
from csanet.autodiff import Tensor, precision
from csanet.errors import DataError
from csanet.model import Branch, CsanetModel
from csanet.verification import mini_model_config

from oracles import oracle_branch_call
from test_numerics_contract import EPS32, FIXTURE, candidate_inputs, contract_model


def test_stem_and_tail_ops_take_no_mode():
    # Eval mode runs stem_elu_pool and elu_pool; the fused ops are training-only.
    for op in (ops.stem_bn_elu_pool, ops.bn_elu_pool):
        assert "training" not in inspect.signature(op).parameters, op.__name__


def test_eval_with_grad_enabled_builds_no_tape():
    cfg, model = contract_model("mini", "float32")
    x = Tensor(candidate_inputs("mini")[:4])
    z = model.branch1(x, training=False)
    assert not z.requires_grad and z._backward is None
    logits = model(x, training=False)
    assert not logits.requires_grad and logits._backward is None and logits._prev == ()
    assert all(p.grad is None for p in model.parameters())


@pytest.mark.parametrize("name", ["mini", "default"])
def test_eval_leaves_running_buffers_unchanged(name):
    _, model = contract_model(name, "float32")
    before = {n: b.copy() for n, b in model.named_buffers()}
    x = candidate_inputs(name)
    model.predict(x)
    model.predict(x[:1])
    for n, b in model.named_buffers():
        assert np.array_equal(b, before[n]), n


def test_rows_agree_across_batch_sizes():
    """Batches of 1 to 64 trials: partial blocks, one block, several; B = 1
    and the FFT crossover put spa_conv on both of conv1d_dilated's paths.
    The batches lead with the contract's eval rows, whose top-k selections
    clear the margin; only those rows are compared, since a near tie may
    keep other entries in another batch."""
    sizes = (1, 15, 16, 17, 33)
    assert ops.STEM_BLOCK in sizes
    with np.load(FIXTURE) as data:
        clear = data["default/eval/rows"]
    x = candidate_inputs("default")
    x = np.concatenate([x[clear], np.delete(x, clear, axis=0)])
    _, model = contract_model("default", "float32")
    full = model(Tensor(x), training=False).data
    assert full.shape[0] == 64
    for B in sizes:
        part = model(Tensor(x[:B]), training=False).data
        for i in range(min(B, len(clear))):
            err = float(np.abs(part[i] - full[i]).max())
            assert err <= 256 * EPS32 * max(1.0, float(np.abs(full[i]).max())), (B, i)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_eval_runs_the_stored_weights_and_the_training_stem(dtype, monkeypatch):
    """An eval forward of the mini model at B = 20, more than one STEM_BLOCK:
    every conv1d_dilated weight is a view of its parameter, and each stem's
    correlation Q, its eval blocks concatenated, is byte-equal to the
    training stem's Q on the same trials."""
    B = 20
    assert B > ops.STEM_BLOCK
    cfg, model = contract_model("mini", dtype)
    D = cfg.depth_multiplier
    x = Tensor(candidate_inputs("mini")[:B].astype(dtype))
    weights, qs = [], []
    conv, correlate = ops.conv1d_dilated, ops._tile_correlate

    def conv_spy(h, weight, *args, **kwargs):
        weights.append(weight.data if isinstance(weight, Tensor) else weight)
        return conv(h, weight, *args, **kwargs)

    def correlate_spy(a, w):
        out = correlate(a, w)
        qs.append(out.reshape(len(w), D, a.shape[1] // D, -1))  # (F, D, trials, samples)
        return out

    monkeypatch.setattr(ops, "conv1d_dilated", conv_spy)
    monkeypatch.setattr(ops, "_tile_correlate", correlate_spy)
    model(x, training=False)
    params = [p.data for p in model.parameters()]
    assert len(weights) == 4 * (1 + 2 * len(cfg.tcn.dilations))
    for weight in weights:
        assert any(np.shares_memory(weight, p) for p in params)
    blocks = -(-B // ops.STEM_BLOCK)
    assert len(qs) == 4 * blocks
    evals = [np.concatenate(qs[i : i + blocks], axis=2) for i in range(0, len(qs), blocks)]
    qs.clear()
    with precision(dtype):
        model(x, training=True, rng=np.random.Generator(np.random.PCG64(8)))
    assert len(qs) == 4
    for got, want in zip(evals, qs):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_eval_follows_the_parameters(monkeypatch):
    # Training moves parameters and buffers between per-epoch evaluations;
    # eval must read them as they stand at each call.
    _, model = contract_model("mini", "float64")
    x = Tensor(candidate_inputs("mini")[:6].astype(np.float64))
    model(x, training=False)
    rng = np.random.Generator(np.random.PCG64(7))
    for _, p in model.named_parameters():
        p.data = p.data * (1.0 + 0.1 * rng.standard_normal(p.shape))
    for _, buf in model.named_buffers():
        buf *= 1.5
    with precision("float64"):
        got = model(x, training=False).data
        monkeypatch.setattr(Branch, "__call__", oracle_branch_call)
        want = model(x, training=False).data
    assert float(np.abs(got - want).max()) <= 1e-9 * float(np.abs(want).max())


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("model_dtype, input_dtype", [("float32", "float64"), ("float64", "float32")])
def test_input_of_another_float_dtype_is_rejected(model_dtype, input_dtype, training):
    cfg = mini_model_config()
    with precision(model_dtype):
        model = CsanetModel(cfg, rng=np.random.Generator(np.random.PCG64(3)))
    x = np.zeros((2, 1, cfg.channels, cfg.time_steps), dtype=input_dtype)
    with pytest.raises(DataError) as err:
        model(Tensor(x), training=training, rng=np.random.Generator(np.random.PCG64(4)))
    assert input_dtype in str(err.value) and model_dtype in str(err.value)
    if not training:
        with pytest.raises(DataError):
            model.predict(x)
