"""Eval-mode inference: the tape-free branch pass and the model around it.
No tape, running buffers untouched, rows independent of the batch they
ride in (partial and multiple STEM_BLOCK blocks), trial blocks on threads
byte-equal to the serial forward, the convs run on their stored weights
and the stem on the training stem's correlation, every output following
the current parameters, and no silent dtype mixing."""

import inspect
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from csanet import autodiff, ops
from csanet import model as model_module
from csanet.autodiff import Tensor, _reverse_topo, precision
from csanet.errors import DataError
from csanet.model import Branch, CsanetModel, fork_join
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
    sizes = (1, 7, 8, 9, 17, 33)
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
        for w in weight if isinstance(weight, list) else [weight]:  # the TCN's groups, one per branch
            weights.append(w.data if isinstance(w, Tensor) else w)
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


def spy_forward(monkeypatch):
    """Record (thread, trials) of each CsanetModel._forward call."""
    calls = []
    forward = CsanetModel._forward

    def spy(self, x, *args, **kwargs):
        calls.append((threading.get_ident(), x.shape[0]))
        return forward(self, x, *args, **kwargs)

    monkeypatch.setattr(CsanetModel, "_forward", spy)
    return calls


@pytest.mark.parametrize("name, dtype", [("default", "float32"), ("mini", "float64")])
def test_eval_blocks_on_two_workers_are_bytewise_the_serial_forward(name, dtype, monkeypatch):
    """Two workers, forced so that a 1-core host runs the pool too: a batch
    of 32, 33, 64 or 65 trials runs as two contiguous blocks, one on the
    calling thread and one on a worker, and its logits are byte-equal to
    the one-worker forward's. The tape is back on after each."""
    _, model = contract_model(name, dtype)
    x = candidate_inputs(name)
    x = np.concatenate([x, np.random.default_rng(9).standard_normal(x[:1].shape)]).astype(dtype)
    calls = spy_forward(monkeypatch)
    with precision(dtype):
        for B in (32, 33, 64, 65):
            monkeypatch.setattr(model_module, "WORKERS", 1)
            serial = model(Tensor(x[:B]), training=False).data
            monkeypatch.setattr(model_module, "WORKERS", 2)
            calls.clear()
            pooled = model(Tensor(x[:B]), training=False).data
            assert sorted(n for _, n in calls) == [B // 2, B - B // 2], B
            assert len({thread for thread, _ in calls}) == 2, B
            assert pooled.dtype == serial.dtype and pooled.shape == serial.shape
            assert pooled.tobytes() == serial.tobytes(), B
            assert autodiff._GRAD_ENABLED


def test_eval_on_more_workers_than_cores_under_fast_thread_switching(monkeypatch):
    # Four blocks of 16 trials on four workers, with the interpreter
    # switching threads every microsecond: every run is byte-equal to the
    # serial forward, off the tape, and leaves the tape switched on.
    _, model = contract_model("mini", "float32")
    x = Tensor(candidate_inputs("mini"))
    monkeypatch.setattr(model_module, "WORKERS", 1)
    serial = model(x, training=False).data
    monkeypatch.setattr(model_module, "WORKERS", 4)
    calls = spy_forward(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(8):
            pooled = model(x, training=False)
            assert pooled.data.tobytes() == serial.tobytes()
            assert pooled._backward is None and autodiff._GRAD_ENABLED
    finally:
        sys.setswitchinterval(interval)
    assert sorted(n for _, n in calls) == [16] * 32


@pytest.mark.parametrize("B", [1, 16])
def test_small_eval_batches_run_on_the_calling_thread(B, monkeypatch):
    # Below two blocks of EVAL_MIN_BLOCK trials a batch is one serial forward.
    monkeypatch.setattr(model_module, "WORKERS", 2)
    _, model = contract_model("mini", "float32")
    calls = spy_forward(monkeypatch)
    model(Tensor(candidate_inputs("mini")[:B]), training=False)
    assert calls == [(threading.get_ident(), B)]


def test_pooled_eval_leaves_the_training_tape_as_it_was(monkeypatch):
    # The mini training loss's tape, pinned in test_model.py, after an eval
    # batch ran on two workers.
    monkeypatch.setattr(model_module, "WORKERS", 2)
    cfg = mini_model_config()
    with precision("float64"):
        model = CsanetModel(cfg, rng=np.random.Generator(np.random.PCG64(14)))
        x = np.random.default_rng(15).standard_normal((32, 1, cfg.channels, cfg.time_steps))
        model.predict(x)
        assert autodiff._GRAD_ENABLED
        loss = ops.cross_entropy(model(Tensor(x[:2]), training=True), np.array([0, 1]))
    assert len(_reverse_topo(loss)) == 227


def test_fork_join_keeps_order_and_waits_for_every_call():
    assert fork_join(lambda a, b: a * b, [(1, 2), (3, 4), (5, 6)]) == [2, 12, 30]
    ended = []

    def call(i):
        if i == 0:
            raise ValueError("first")
        time.sleep(0.05)
        ended.append(i)

    with pytest.raises(ValueError, match="first"):
        fork_join(call, [(0,), (1,)])
    assert ended == [1]  # the worker's call ended before the error left
    with pytest.raises(ZeroDivisionError):
        fork_join(lambda i: 1 // i, [(1,), (0,)])


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(code, preset=None):
    """Run code in a fresh interpreter, the BLAS thread variables unset or
    all set to preset; return its stdout."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env["PYTHONPATH"] = SRC
    if preset is not None:
        env.update(dict.fromkeys(BLAS_THREADS, preset))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize(
    "numpy_first, preset, pooled",
    [(True, None, False), (True, "1", True), (False, None, True), (False, "2", False)],
)
def test_eval_uses_workers_only_while_blas_runs_one_thread(numpy_first, preset, pooled):
    """numpy loaded before csanet with no BLAS variable set keeps OpenBLAS's
    default thread count, and a user's count of 2 is kept: eval then stays
    on the calling thread. With one BLAS thread, a 64-trial batch runs on a
    worker per core, up to its four blocks of 16."""
    code = (
        ("import numpy; " if numpy_first else "")
        + "import os, threading; from csanet import model; import numpy as np; "
        "from csanet.verification import mini_model_config; cfg = mini_model_config(); "
        "m = model.CsanetModel(cfg, np.random.default_rng(0)); "
        "m.predict(np.zeros((64, 1, cfg.channels, cfg.time_steps), np.float32)); "
        "print(model.WORKERS, len(os.sched_getaffinity(0)), threading.active_count())"
    )
    workers, cores, threads = map(int, run_python(code, preset).split())
    if pooled:
        assert workers == cores and threads == min(cores, 4)
    else:
        assert workers == 1 and threads == 1


def test_import_leaves_the_pool_module_unloaded():
    # The pool's module loads at the first pooled batch, not at import (nor
    # at the eval path's; the CLI's scipy import loads it on its own).
    code = "import sys; import csanet, csanet.checkpoint, csanet.metrics, csanet.train; "
    code += "print('concurrent.futures' in sys.modules)"
    assert run_python(code).strip() == "False"


def test_forked_child_builds_its_own_pool():
    """A child forked after a pooled batch inherits model._pool but none of
    its threads: fork_join sees the pid change and builds the child's own
    pool, and the child's pooled eval returns the parent's logits byte for
    byte. The parent waits with a timeout, so a child stuck on the
    inherited executor fails the test instead of hanging it."""
    code = """
import os, time
from csanet import model
import numpy as np
from csanet.verification import mini_model_config

model.WORKERS = 2
cfg = mini_model_config()
m = model.CsanetModel(cfg, np.random.default_rng(0))
x = np.random.default_rng(1).standard_normal((32, 1, cfg.channels, cfg.time_steps)).astype(np.float32)
want = m(x, training=False).data
print(model._pool[0] == os.getpid())
pid = os.fork()
if pid == 0:
    try:
        same = m(x, training=False).data.tobytes() == want.tobytes()
        os._exit(0 if same and model._pool[0] == os.getpid() else 3)
    except BaseException:
        os._exit(4)
deadline = time.monotonic() + 20
done, status = os.waitpid(pid, os.WNOHANG)
while not done and time.monotonic() < deadline:
    time.sleep(0.01)
    done, status = os.waitpid(pid, os.WNOHANG)
if not done:
    os.kill(pid, 9)
    os.waitpid(pid, 0)
print(os.waitstatus_to_exitcode(status) if done else "timed out")
"""
    assert run_python(code).split() == ["True", "0"]  # a pooled parent; the child's exit code
