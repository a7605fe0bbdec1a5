"""The numerics contract, against float64 outputs committed from an earlier tree.

A change that is exact in real arithmetic but not in floating point (a
folded batch norm, another summation order) lands under these tolerances,
for the mini config and the default config:
- float64 eval logits, one training step's logits, every parameter
  gradient and every running buffer after the step agree with the fixture
  to <= 1e-9 x the array's max |value|;
- the six structurally zero gradients stay <= 1e-14;
- float32 eval logits stay within 256 eps32 (relative to max(1, max
  |logit|)) of the fixture's float64 eval logits, on a model holding the
  same float32-representable values.
Eval inputs are rows whose top-k selections clear perfbench.reference's
margin, so float32 and float64 keep the same entries. The golden run
(tests/test_golden_run.py) stays bitwise; this contract does not replace it.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from csanet import ops
from csanet.autodiff import Tensor, no_grad, precision
from csanet.config import ModelConfig
from csanet.model import CsanetModel
from csanet.verification import mini_model_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import reference  # noqa: E402
from perfbench.workloads import TOPK_MARGIN  # noqa: E402

from test_gradients import MODEL_MINI_STRUCTURALLY_ZERO

FIXTURE = Path(__file__).parent / "data" / "numerics_contract.npz"
CONFIGS = {"mini": mini_model_config, "default": ModelConfig}
SEEDS = {"mini": 300, "default": 400}  # init, buffers, inputs and dropout draw from seed + 0..4
EVAL_ROWS = 20  # more than one inference block of trials, and a partial one
CANDIDATE_ROWS = 64
TRAIN_BATCH = 8  # the default config's spa_conv takes the FFT path from B = 5
REL_TOL = 1e-9
ZERO_TOL = 1e-14
EPS32 = float(np.finfo(np.float32).eps)


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def contract_model(name, dtype):
    """The config's model in dtype, holding float32-representable parameters
    and seeded running buffers away from 0 and 1."""
    cfg = CONFIGS[name]()
    seed = SEEDS[name]
    with precision(dtype):
        model = CsanetModel(cfg, rng=_rng(seed))
    for _, p in model.named_parameters():
        p.data = p.data.astype(np.float32).astype(dtype)
    rng = _rng(seed + 1)
    for buf_name, buf in model.named_buffers():
        low, high = (-0.3, 0.3) if buf_name.endswith("running_mean") else (0.2, 0.6)
        buf[...] = rng.uniform(low, high, buf.shape).astype(np.float32)
    return cfg, model


def candidate_inputs(name):
    cfg = CONFIGS[name]()
    x = _rng(SEEDS[name] + 2).standard_normal((CANDIDATE_ROWS, 1, cfg.channels, cfg.time_steps))
    return x.astype(np.float32)


def topk_gaps(name, x):
    """perfbench.reference's smallest relative top-k gap of each row of x."""
    cfg, model = contract_model(name, "float64")
    params = {n: p.data for n, p in model.named_parameters()}
    params.update(model.named_buffers())
    return np.array([reference.forward(x[i : i + 1], params, cfg)[1] for i in range(len(x))])


def train_inputs(name):
    cfg = CONFIGS[name]()
    x = _rng(SEEDS[name] + 3).standard_normal((TRAIN_BATCH, 1, cfg.channels, cfg.time_steps))
    return x, np.arange(TRAIN_BATCH) % cfg.n_classes


def eval_logits(model, x, dtype):
    with precision(dtype), no_grad():
        return model(Tensor(x.astype(dtype)), training=False).data


def training_step(name):
    """Float64 logits, parameter gradients and buffers after one training
    forward/backward of the contract model, keyed as in the fixture."""
    _, model = contract_model(name, "float64")
    x, y = train_inputs(name)
    with precision("float64"):
        logits = model(Tensor(x), training=True, rng=_rng(SEEDS[name] + 4))
        ops.cross_entropy(logits, y).backward()
    out = {f"{name}/train/logits": logits.data}
    for n, p in model.named_parameters():
        out[f"{name}/grad/{n}"] = np.zeros_like(p.data) if p.grad is None else p.grad
    for n, buf in model.named_buffers():
        out[f"{name}/buffer/{n}"] = buf.copy()
    return out


def write_contract_fixture(path=FIXTURE):
    """The committed tests/data/numerics_contract.npz.

    Written by this function on the tree before eval-mode batch norm was
    folded into each branch's convs (commit c640f4d), from the repository
    root with src/ and tests/ on sys.path. Per config it holds the indices
    of the EVAL_ROWS candidate rows whose top-k gaps clear TOPK_MARGIN, their
    float64 eval logits, and training_step's arrays.
    """
    arrays = {}
    for name in CONFIGS:
        x = candidate_inputs(name)
        rows = np.flatnonzero(topk_gaps(name, x) >= TOPK_MARGIN)[:EVAL_ROWS]
        assert rows.size == EVAL_ROWS, name
        _, model = contract_model(name, "float64")
        arrays[f"{name}/eval/rows"] = rows
        arrays[f"{name}/eval/logits"] = eval_logits(model, x[rows], "float64")
        arrays.update(training_step(name))
    np.savez_compressed(path, **arrays)


@pytest.fixture(scope="module")
def fixture():
    with np.load(FIXTURE) as data:
        return dict(data)


def assert_within(got, want, what):
    assert got.shape == want.shape, what
    err = float(np.abs(got - want).max(initial=0.0))
    assert err <= REL_TOL * float(np.abs(want).max(initial=0.0)), f"{what}: max abs error {err:.3e}"


@pytest.mark.parametrize("name", CONFIGS)
def test_eval_rows_clear_the_topk_margin(name, fixture):
    rows = fixture[f"{name}/eval/rows"]
    assert rows.size == EVAL_ROWS
    assert topk_gaps(name, candidate_inputs(name)[rows]).min() >= TOPK_MARGIN


@pytest.mark.parametrize("name", CONFIGS)
def test_float64_eval_logits(name, fixture):
    _, model = contract_model(name, "float64")
    x = candidate_inputs(name)[fixture[f"{name}/eval/rows"]]
    assert_within(eval_logits(model, x, "float64"), fixture[f"{name}/eval/logits"], "eval logits")


@pytest.mark.parametrize("name", CONFIGS)
def test_float32_eval_logits_within_256_eps_of_float64(name, fixture):
    _, model = contract_model(name, "float32")
    x = candidate_inputs(name)[fixture[f"{name}/eval/rows"]]
    got = eval_logits(model, x, "float32")
    want = fixture[f"{name}/eval/logits"]
    assert got.dtype == np.float32
    err = float(np.abs(got - want).max()) / max(1.0, float(np.abs(want).max()))
    assert err <= 256 * EPS32, f"relative error {err:.3e}"
    np.testing.assert_array_equal(np.argmax(got, axis=1), np.argmax(want, axis=1))


@pytest.mark.parametrize("name", CONFIGS)
def test_float64_training_step(name, fixture):
    got = training_step(name)
    want = {k: v for k, v in fixture.items() if k.split("/")[1] in ("train", "grad", "buffer") and k.startswith(name)}
    assert got.keys() == want.keys()
    zero = {f"{name}/grad/{n}" for n in MODEL_MINI_STRUCTURALLY_ZERO}
    for key, w in want.items():
        if key in zero:
            assert float(np.abs(got[key]).max()) <= ZERO_TOL and float(np.abs(w).max()) <= ZERO_TOL, key
        else:
            assert_within(got[key], w, key)
