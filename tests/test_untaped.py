"""Forwards that record no tape: eval, and training under no_grad, run the
ops' raw-array kernels from the input to the logits. A training forward
under no_grad against the taped one, on one worker and on two; eval
against the Tensor composition it replaced (oracles.oracle_eval_forward);
the one Tensor such a forward builds, its logits; and the empty batch."""

import dataclasses
import warnings

import numpy as np
import pytest

from csanet import model as model_module
from csanet.autodiff import Tensor, no_grad, precision
from csanet.config import ModelConfig
from csanet.errors import DimensionError
from csanet.model import CsanetModel
from csanet.verification import mini_model_config

from oracles import oracle_eval_forward


def make_config(name, fusion="main_auxiliary", readout="last_step", tcn=True):
    """The mini or default config with conv and TCN dropout on."""
    cfg = mini_model_config() if name == "mini" else ModelConfig()
    cfg = dataclasses.replace(cfg, conv_dropout=0.5, tcn=dataclasses.replace(cfg.tcn, dropout=0.3))
    return dataclasses.replace(cfg, fusion_mode=fusion, readout=readout, tcn_enabled=tcn)


def trials(cfg, B, dtype, seed=81):
    return np.random.Generator(np.random.PCG64(seed)).standard_normal((B, 1, cfg.channels, cfg.time_steps)).astype(dtype)


def training_forward(cfg, dtype, B, taped):
    """Logits, every running buffer after the call and the dropout
    stream's next draw of one training forward of B trials, recording the
    tape or under no_grad."""
    with precision(dtype):
        model = CsanetModel(cfg, rng=np.random.Generator(np.random.PCG64(80)))
        drop = np.random.Generator(np.random.PCG64(82))
        x = Tensor(trials(cfg, B, dtype))
        if taped:
            logits = model(x, training=True, rng=drop)
        else:
            with no_grad():
                logits = model(x, training=True, rng=drop)
    assert logits.requires_grad == taped
    arrays = {"logits": logits.data, "next draw": drop.random(8)}
    arrays.update(model.named_buffers())
    return arrays


def assert_bytewise(got, want):
    assert got.keys() == want.keys()
    for name, w in want.items():
        assert got[name].dtype == w.dtype and got[name].shape == w.shape, name
        assert got[name].tobytes() == w.tobytes(), name


TRAINING_CASES = [
    ("mini", dtype, fusion, readout, tcn)
    for dtype in ("float32", "float64")
    for fusion in ("main_auxiliary", "hierarchical")
    for readout in ("last_step", "flatten")
    for tcn in (True, False)
] + [
    ("default", dtype, *variant)
    for dtype in ("float32", "float64")
    for variant in (("main_auxiliary", "last_step", True), ("hierarchical", "flatten", False))
]


@pytest.mark.parametrize("name, dtype, fusion, readout, tcn", TRAINING_CASES)
def test_untaped_training_forward_is_bytewise_the_taped_one(name, dtype, fusion, readout, tcn):
    cfg = make_config(name, fusion, readout, tcn)
    for B in (2, 5, 16):
        assert_bytewise(training_forward(cfg, dtype, B, False), training_forward(cfg, dtype, B, True))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_untaped_threaded_branch_stage_is_bytewise_one_worker(dtype, monkeypatch):
    # The default config at B = 6 is 132,000 input samples, past
    # TRAIN_MIN_WORK: on two workers the branch forwards run by fork_join.
    cfg, B = make_config("default"), 6
    assert B * cfg.channels * cfg.time_steps >= model_module.TRAIN_MIN_WORK
    stages = []
    fork_join = model_module.fork_join

    def spy(fn, calls):
        stages.append(len(calls))
        return fork_join(fn, calls)

    monkeypatch.setattr(model_module, "fork_join", spy)
    monkeypatch.setattr(model_module, "WORKERS", 1)
    serial = training_forward(cfg, dtype, B, False)
    assert stages == []
    monkeypatch.setattr(model_module, "WORKERS", 2)
    assert_bytewise(training_forward(cfg, dtype, B, False), serial)
    assert stages == [4]


@pytest.mark.parametrize("name, dtype", [("default", "float32"), ("mini", "float64")])
def test_eval_is_bytewise_the_tensor_composition(name, dtype, monkeypatch):
    monkeypatch.setattr(model_module, "WORKERS", 1)  # one block, as the oracle runs
    cfg = make_config(name)
    with precision(dtype):
        model = CsanetModel(cfg, rng=np.random.Generator(np.random.PCG64(83)))
    rng = np.random.Generator(np.random.PCG64(84))
    for _, buf in model.named_buffers():
        buf[...] = rng.uniform(0.2, 0.6, buf.shape)
    x = trials(cfg, 64, dtype)
    for B in (1, 5, 16, 64):
        got = model(x[:B], training=False).data
        want = oracle_eval_forward(model, x[:B])
        assert got.dtype == want.dtype and got.shape == want.shape == (B, cfg.n_classes), B
        assert got.tobytes() == want.tobytes(), B


def count_tensors(monkeypatch):
    """Every Tensor constructed from here on, as a list of its shapes."""
    built = []
    init = Tensor.__init__

    def spy(self, data, requires_grad=False):
        init(self, data, requires_grad)
        built.append(self.shape)

    monkeypatch.setattr(Tensor, "__init__", spy)
    return built


@pytest.mark.parametrize("B", [1, 64])
def test_eval_builds_only_the_logits_tensor(B, monkeypatch):
    # B = 64 on two workers runs as two trial blocks of 32.
    monkeypatch.setattr(model_module, "WORKERS", 2)
    cfg = ModelConfig()
    model = CsanetModel(cfg, rng=np.random.Generator(np.random.PCG64(85)))
    x = trials(cfg, B, "float32")
    built = count_tensors(monkeypatch)
    logits = model(x, training=False)
    assert built == [(B, cfg.n_classes)] and logits.shape == (B, cfg.n_classes)


def test_untaped_training_forward_builds_only_the_logits_tensor(monkeypatch):
    cfg = make_config("mini")
    with precision("float64"):
        model = CsanetModel(cfg, rng=np.random.Generator(np.random.PCG64(86)))
    x = trials(cfg, 2, "float64")
    built = count_tensors(monkeypatch)
    with no_grad():
        logits = model(x, training=True, rng=np.random.Generator(np.random.PCG64(87)))
    assert built == [(2, cfg.n_classes)] and not logits.requires_grad


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_empty_batch(dtype):
    # Eval gives (0, L) logits and predict an empty int64 array; training
    # raises before any arithmetic: no warning, no buffer moved, no draw.
    cfg = make_config("mini")
    with precision(dtype):
        model = CsanetModel(cfg, rng=np.random.Generator(np.random.PCG64(88)))
    x = np.zeros((0, 1, cfg.channels, cfg.time_steps), dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        logits = model(x, training=False)
        assert logits.shape == (0, cfg.n_classes) and logits.dtype == dtype
        preds = model.predict(x)
        assert preds.shape == (0,) and preds.dtype == np.int64
        before = {n: b.copy() for n, b in model.named_buffers()}
        drop = np.random.Generator(np.random.PCG64(89))
        for grad in (True, False):
            with pytest.raises(DimensionError, match="B >= 1 in training"):
                if grad:
                    model(Tensor(x), training=True, rng=drop)
                else:
                    with no_grad():
                        model(Tensor(x), training=True, rng=drop)
    for n, b in model.named_buffers():
        assert b.tobytes() == before[n].tobytes(), n
    assert drop.random() == np.random.Generator(np.random.PCG64(89)).random()
