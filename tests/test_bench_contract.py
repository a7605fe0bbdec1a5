"""Every name the benchmark's tracer binds by name still resolves in csanet,
and the program still calls what the benchmark hooks the way it hooks it.

perfbench/trace.py wraps ops, calls and methods it looks up with getattr;
a rename or deletion in csanet would crash the traced benchmark run. This
test reads perfbench/ and changes nothing there.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
trace = importlib.import_module("perfbench.trace")


def csanet_module(name):
    return importlib.import_module(f"csanet.{name}")


@pytest.mark.parametrize("name", trace.OP_NAMES)
def test_op_names_resolve(name):
    assert callable(getattr(csanet_module("ops"), name))


@pytest.mark.parametrize("module, function, span", trace.OPS + trace.CALLS)
def test_ops_and_calls_resolve(module, function, span):
    assert callable(getattr(csanet_module(module), function)), span


@pytest.mark.parametrize("module, cls, method, span", trace.METHODS)
def test_methods_resolve(module, cls, method, span):
    # The tracer rebinds the method found in the class's own __dict__.
    assert callable(getattr(csanet_module(module), cls).__dict__[method]), span


def counting(fn, calls):
    def wrapper(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)

    return wrapper


def test_step_clock_hooks_are_called_once_per_step(tmp_path, monkeypatch):
    # PaperTrain.load times a step from train.sr_augment to train.adam_step
    # by rebinding both names in csanet.train; train_run must call them
    # through those globals, once per step.
    from csanet import augment, optim, train
    from test_train import tiny_run

    calls = []
    monkeypatch.setattr(train, "sr_augment", counting(augment.sr_augment, calls))
    monkeypatch.setattr(train, "adam_step", counting(optim.adam_step, calls))
    run = tiny_run(tmp_path / "run", epochs=1)
    run.train.batch_size = 12  # all 12 trials in one step
    assert train.train_run(run).epochs_run == 1
    assert calls == ["sr_augment", "adam_step"]


def test_topk_mask_hook_is_called_twice_per_auxiliary_branch(monkeypatch):
    # paper_train's check (directional_gradient_check) guards its central
    # differences by rebinding attention.topk_mask to record every top-k
    # selection; the model must reach the mask through that global, once
    # per sparsity level of each of branches 2-4's cross-attention.
    from csanet import attention
    from csanet.autodiff import Tensor
    from csanet.model import CsanetModel
    from csanet.verification import mini_model_config

    cfg = mini_model_config()
    model = CsanetModel(cfg, rng=np.random.Generator(np.random.PCG64(0)))
    x = Tensor(np.random.default_rng(1).standard_normal((2, 1, cfg.channels, cfg.time_steps)).astype(np.float32))
    calls = []
    monkeypatch.setattr(attention, "topk_mask", counting(attention.topk_mask, calls))
    model(x, training=True, rng=np.random.Generator(np.random.PCG64(2)))
    assert calls == ["topk_mask"] * 2 * 3


def test_evaluate_accepts_read_eegd_result(tmp_path):
    # PaperEval passes read_eegd's result of a file written by the
    # benchmark's own EEGD writer straight to metrics.evaluate.
    from csanet import data, metrics
    from csanet.model import CsanetModel
    from csanet.verification import mini_model_config

    inputs = importlib.import_module("perfbench.inputs")
    cfg = mini_model_config()
    cfg.n_classes = len(inputs.CLASS_BANDS)
    x, y = inputs.make_trials(7, "heldout", 3, cfg.channels, cfg.time_steps)
    path = tmp_path / "heldout.eegd"
    inputs.write_eegd(path, x, y)
    test = data.read_eegd(path)
    assert len(test) == len(y)
    model = CsanetModel(cfg, rng=np.random.Generator(np.random.PCG64(0)))
    report = metrics.evaluate(model, test, cfg, batch_size=5)
    assert report.confusion.total == len(y)
    np.testing.assert_array_equal(report.confusion.counts.sum(axis=1), np.bincount(y, minlength=cfg.n_classes))


def test_reference_forward_agrees_with_the_model():
    # paper_eval's check compares the model's eval logits with
    # perfbench.reference.forward under the bench's own rule; the same rule
    # on a float32 mini model whose batch-norm buffers are moved off 0/1 as
    # inputs.make_eval_checkpoint moves them, so eval-mode batch norm is no
    # identity. The reference reads the config's attention.pool_pads.
    from csanet.autodiff import Tensor, no_grad
    from csanet.model import CsanetModel
    from csanet.verification import mini_model_config

    inputs = importlib.import_module("perfbench.inputs")
    reference = importlib.import_module("perfbench.reference")
    workloads = importlib.import_module("perfbench.workloads")

    cfg = mini_model_config()
    model = CsanetModel(cfg, rng=inputs.rng_for(19, "init"))
    rng = inputs.rng_for(19, "bn-stats")
    for name, buf in model.named_buffers():
        if name.endswith("running_mean"):
            buf[...] = rng.uniform(-0.3, 0.3, buf.shape)
        elif name.endswith("running_var"):
            buf[...] = rng.uniform(0.2, 0.6, buf.shape)
    x = inputs.make_trials(19, "heldout", 6, cfg.channels, cfg.time_steps)[0][:, None]
    with no_grad():
        logits = model(Tensor(x), training=False).data
    params = {name: p.data for name, p in model.named_parameters()}
    params.update(model.named_buffers())
    checked = 0
    for i in range(len(x)):
        want, gap = reference.forward(x[i : i + 1], params, cfg)
        if gap < workloads.TOPK_MARGIN:
            continue
        tol = workloads.LOGIT_TOL * max(1.0, float(np.abs(want).max()))
        assert np.abs(want[0] - logits[i]).max() <= tol, i
        checked += 1
    assert checked >= len(x) // 2
