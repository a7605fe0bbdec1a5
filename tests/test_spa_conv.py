"""The branch's spatial-refinement conv (spa_conv), run by conv1d_dilated,
against the conv2d path it replaced (oracles.oracle_branch_call), in float64."""

from pathlib import Path

import numpy as np
import pytest

from csanet import ops
from csanet.autodiff import Tensor, no_grad, precision
from csanet.checkpoint import load_checkpoint, save_checkpoint
from csanet.config import ModelConfig
from csanet.model import Branch, CsanetModel
from csanet.train import train_run
from csanet.verification import mini_model_config

from oracles import oracle_branch_call
from test_stem import assert_close
from test_train import tiny_run

FIXTURE = Path(__file__).parent / "data"


def model_step(cfg, seed, training, monkeypatch, branch_call):
    """Logits, named grads and named buffers of one forward/backward at B=2."""
    monkeypatch.setattr(Branch, "__call__", branch_call)
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


def test_training_step_calls_no_conv2d(tmp_path, monkeypatch):
    calls = []
    conv2d = ops.conv2d

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return conv2d(*args, **kwargs)

    monkeypatch.setattr(ops, "conv2d", spy)
    run = tiny_run(tmp_path / "run", epochs=1)
    run.train.batch_size = 12  # all 12 trials: one step, plus the epoch's train-set eval
    result = train_run(run)
    assert result.epochs_run == 1
    assert calls == []
    result.model.branch1.temporal_out(Tensor(np.zeros((1, 1, 6, 64), dtype=np.float32)))
    assert len(calls) == 1  # the spy does see a conv2d call
