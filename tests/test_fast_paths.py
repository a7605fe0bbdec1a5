"""The per-op fast paths are exact.

The shared zero-pad and window-view helpers reproduce np.pad and
sliding_window_view to the bit and the memory layout; Tensor keeps float
ndarrays as they are; grad_check's tape-free perturbed evaluations give
the report the taped loop gave; and no forward or backward of the model
calls np.pad.
"""

import ast
import os
import sys

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import csanet
from csanet import autodiff, ops, verification
from csanet.autodiff import Tensor, _zero_pad, no_grad, precision
from csanet.config import ModelConfig
from csanet.errors import DimensionError
from csanet.gradcheck import grad_check
from csanet.model import CsanetModel
from csanet.verification import mini_model_config, run_scope

from oracles import oracle_grad_check

SRC = os.path.dirname(os.path.abspath(csanet.__file__))


def _layouts(dtype):
    """(name, array) pairs: C- and F-contiguous, transposed and sliced."""
    a = np.random.default_rng(3).standard_normal((3, 4, 7)).astype(dtype)
    return [
        ("c", a),
        ("f", np.asfortranarray(a)),
        ("transposed", a.transpose(1, 0, 2)),
        ("reversed", a.T),
        ("sliced", a[:, ::2, 1:-1]),
        ("unit_axis", a[:, :1, :]),
    ]


# -- the zero-pad helper -------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [((0, 0), (0, 0), (3, 0)), ((1, 2), (0, 3), (2, 2)), ((0, 0), (0, 0), (0, 0))])
def test_zero_pad_matches_np_pad(dtype, width):
    for name, a in _layouts(dtype):
        want, got = np.pad(a, width), _zero_pad(a, width)
        assert got is not a, name
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
        assert got.flags.c_contiguous == want.flags.c_contiguous, name
        assert got.flags.f_contiguous == want.flags.f_contiguous, name
        assert got.strides == want.strides, name


def test_autodiff_pad_rejects_negative_widths():
    with pytest.raises(DimensionError):
        autodiff.pad(Tensor(np.ones((2, 3))), ((0, 0), (-1, 0)))


# -- the window-view helper ----------------------------------------------


def _assert_same_view(got, want):
    assert got.shape == want.shape and got.strides == want.strides
    assert np.array_equal(got, want)
    assert not got.flags.writeable
    with pytest.raises(ValueError):
        got[(0,) * got.ndim] = 1.0


@pytest.mark.parametrize("dilation", [1, 2, 3])
@pytest.mark.parametrize("start", [0, 1, 4])
def test_window_view_matches_dilated_sliding_windows(dilation, start):
    taps = 3
    span = (taps - 1) * dilation + 1
    for name, a in _layouts(np.float64):
        count = a.shape[-1] - span + 1 - start
        if count < 1:
            continue
        want = sliding_window_view(a, span, axis=-1)[..., start : start + count, ::dilation]
        _assert_same_view(ops._window_view(a, count, taps, dilation=dilation, start=start), want)


@pytest.mark.parametrize("step", [1, 3, ops._TILE])
def test_window_view_matches_strided_windows(step):
    # The stems' tile windows (step _TILE) and avg_pool2d's pools.
    rng = np.random.default_rng(4)
    for a in (rng.standard_normal((2, 5, 3 * ops._TILE + 7)), rng.standard_normal((2, 3, 1, 80)).transpose(1, 0, 2, 3)):
        span = 8
        want = sliding_window_view(a, span, axis=-1)[..., ::step, :]
        _assert_same_view(ops._window_view(a, want.shape[-2], span, step=step), want)


def test_window_view_refuses_to_overrun_the_axis():
    a = np.zeros((2, 10))
    ops._window_view(a, 4, 3, dilation=2, start=2)  # reads a[..., 9] last
    with pytest.raises(DimensionError):
        ops._window_view(a, 5, 3, dilation=2, start=2)
    with pytest.raises(DimensionError):
        ops._window_view(a, 1, 3, start=-1)


# -- Tensor's ndarray fast path ------------------------------------------


@pytest.mark.parametrize("default", ["float32", "float64"])
def test_tensor_keeps_float_arrays_by_identity(default):
    with precision(default):
        for dtype in (np.float16, np.float32, np.float64):
            a = np.ones((2, 3), dtype=dtype)
            assert Tensor(a).data is a


@pytest.mark.parametrize("default", ["float32", "float64"])
def test_tensor_casts_ints_bools_and_python_scalars_to_the_default(default):
    want = np.dtype(default)
    with precision(default):
        for data in (np.arange(3), np.array([True, False]), 2, 2.5, True):
            assert Tensor(data).dtype == want, repr(data)


def test_tensor_keeps_a_float64_scalar_under_a_float32_default():
    with precision("float32"):
        assert Tensor(np.float64(1.5)).dtype == np.float64
        assert Tensor(np.float32(1.5)).dtype == np.float32


def test_tensor_fast_path_skips_issubdtype(monkeypatch):
    calls = []
    real = np.issubdtype

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(np, "issubdtype", spy)
    Tensor(np.ones(3))
    assert calls == []
    Tensor(np.ones(3).view(np.recarray))  # not a plain ndarray: the general path
    assert len(calls) == 1


# -- grad_check without a tape -------------------------------------------


def _mini_model():
    with precision("float64"):
        model = CsanetModel(mini_model_config(), rng=verification._rng(14))
    x = Tensor(verification._rng(15).standard_normal((2, 1, 3, 64)))
    return model, x, np.array([0, 1])


def _first_chunk(params, least=48):
    """Leading parameters up to the first that brings the count to `least`
    scalars: the first round of the benchmark's gradcheck workload."""
    chunk = []
    while sum(p.data.size for p in chunk) < least:
        chunk.append(params[len(chunk)])
    return chunk


def _mini_chunk_report(check):
    model, x, y = _mini_model()
    chunk = _first_chunk(list(model.parameters()))
    return check(lambda *_: ops.cross_entropy(model(x, training=True), y), chunk)


def _assert_same_report(got, want):
    assert got.per_input == want.per_input
    assert got.max_rel_error == want.max_rel_error
    assert got.structurally_zero == want.structurally_zero


def test_grad_check_report_is_the_taped_report_on_the_first_mini_chunk():
    _assert_same_report(_mini_chunk_report(grad_check), _mini_chunk_report(oracle_grad_check))


@pytest.mark.parametrize("scope", ["stem", "tail"])
def test_grad_check_report_is_the_taped_report_on_a_scope(scope, monkeypatch):
    # Both scopes draw their dropout masks once and pass them to each call.
    got = run_scope(scope)
    monkeypatch.setattr(verification, "grad_check", oracle_grad_check)
    _assert_same_report(got, run_scope(scope))


def test_only_the_analytic_pass_records_a_tape(monkeypatch):
    real = autodiff._make
    attached = {}  # closure call index -> tape nodes attached during it
    calls = [-1]

    def spy(data, parents, backward):
        out = real(data, parents, backward)
        if out._backward is not None:
            attached[calls[0]] = attached.get(calls[0], 0) + 1
        return out

    bound = [m for name, m in sys.modules.items() if name.startswith("csanet") and getattr(m, "_make", None) is real]
    assert autodiff in bound and ops in bound
    for mod in bound:
        monkeypatch.setattr(mod, "_make", spy)

    model, x, y = _mini_model()
    bias = min(model.parameters(), key=lambda p: p.data.size)

    def loss(*_):
        calls[0] += 1
        return ops.cross_entropy(model(x, training=True), y)

    report = grad_check(loss, [bias])
    assert report.passed(1e-3)
    assert calls[0] == 2 * bias.data.size
    assert list(attached) == [0] and attached[0] == 41  # the op nodes of one training loss


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("config", ["mini", "default"])
def test_untaped_training_loss_is_bitwise_the_taped_one(dtype, config):
    cfg = mini_model_config() if config == "mini" else ModelConfig()
    with precision(dtype):
        model = CsanetModel(cfg, rng=np.random.default_rng(21))
        x = Tensor(np.random.default_rng(22).standard_normal((2, 1, cfg.channels, cfg.time_steps)).astype(dtype))
        y = np.array([0, 1])

        def loss():
            return ops.cross_entropy(model(x, training=True, rng=np.random.default_rng(23)), y)

        taped = loss()
        with no_grad():
            untaped = loss()
    assert taped._backward is not None and untaped._backward is None
    assert taped.dtype == untaped.dtype == np.dtype(dtype)
    assert taped.data.tobytes() == untaped.data.tobytes()


# -- regression guard: no np.pad, no sliding_window_view -------------------


def test_model_makes_no_np_pad_calls(monkeypatch):
    callers = []
    real = np.pad

    def spy(*args, **kwargs):
        callers.append(os.path.abspath(sys._getframe(1).f_code.co_filename))
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "pad", spy)
    np.pad(np.ones(2), 1)  # the spy is live
    assert callers == [os.path.abspath(__file__)]

    model, x, y = _mini_model()
    ops.cross_entropy(model(x, training=True), y).backward()
    cfg = ModelConfig()
    model = CsanetModel(cfg, rng=np.random.default_rng(5))
    model.predict(np.random.default_rng(6).standard_normal((1, 1, cfg.channels, cfg.time_steps)).astype(np.float32))
    assert [c for c in callers if c.startswith(SRC + os.sep)] == []


def test_sources_call_neither_np_pad_nor_sliding_window_view():
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            # A Name's id, an Attribute's attr or an import alias's name.
            ident = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            assert ident != "sliding_window_view", name
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert (node.value.id, node.attr) != ("np", "pad"), f"{name}:{node.lineno}"


# ops.conv2d, batch_norm, elu, dropout, avg_pool2d and masked_fill and
# autodiff.pad run in no model path; they stay for the tests and for
# perfbench/trace.py, which binds them by name.
RETIRED_OPS = {"conv2d", "batch_norm", "elu", "dropout", "avg_pool2d", "masked_fill", "pad"}


def test_sources_call_none_of_the_retired_ops():
    def calls(node):  # every call under node, outside a retired op's own body
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef) and child.name in RETIRED_OPS:
                continue
            if isinstance(child, ast.Call):
                yield child
            yield from calls(child)

    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for call in calls(tree):
            ident = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            assert ident not in RETIRED_OPS, f"{name}:{call.lineno} calls {ident}"


# Tensor operators that no model path, CLI command or train_run reaches.
UNREACHED_OPERATORS = ("__sub__", "__rsub__", "__truediv__", "__neg__")


def test_no_model_path_reaches_tensor_subtraction_division_or_negation(monkeypatch, tmp_path, capsys):
    """A spy on each of UNREACHED_OPERATORS through training in both fusion
    modes (dropout on), eval, train_run and csanet gradcheck --scope
    model-mini records no call."""
    import dataclasses

    from csanet.cli import main
    from csanet.train import train_run
    from test_train import tiny_run

    calls = []

    def spy(name):
        original = getattr(Tensor, name)

        def operator(*args):
            calls.append(name)
            return original(*args)

        return operator

    for name in UNREACHED_OPERATORS:
        monkeypatch.setattr(Tensor, name, spy(name))
    cfg = mini_model_config()
    cfg = dataclasses.replace(cfg, conv_dropout=0.5, tcn=dataclasses.replace(cfg.tcn, dropout=0.3))
    x = np.random.default_rng(3).standard_normal((4, 1, cfg.channels, cfg.time_steps)).astype(np.float32)
    for mode in ("main_auxiliary", "hierarchical"):
        model = CsanetModel(dataclasses.replace(cfg, fusion_mode=mode), rng=np.random.default_rng(4))
        ops.cross_entropy(model(Tensor(x), training=True, rng=np.random.default_rng(5)), np.array([0, 1, 0, 1])).backward()
        model(Tensor(x))
    train_run(tiny_run(tmp_path / "run", epochs=1))
    assert main(["gradcheck", "--scope", "model-mini"]) == 0
    capsys.readouterr()
    assert calls == []


def test_ops_signatures_take_no_batch_norm_policy_and_no_conv_bias():
    # Batch norm's momentum and eps are ops.BN_MOMENTUM and ops.BN_EPS, and
    # no conv in the network carries a bias.
    with open(os.path.join(SRC, "ops.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    signatures = {node.name: node.args for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert {"batch_norm", "bn_elu_pool", "stem_bn_elu_pool", "conv1d_dilated"} <= signatures.keys()
    for name, args in signatures.items():
        params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        assert not params & {"momentum", "eps"}, name
    conv = signatures["conv1d_dilated"]
    assert "bias" not in {a.arg for a in conv.args + conv.kwonlyargs}
    assert (ops.BN_MOMENTUM, ops.BN_EPS) == (0.1, 1e-5)


# The feature width is one key, spa_filters; these names are retired
# (config.RETIRED_KEYS only checks old files' values against it).
RETIRED_WIDTH_NAMES = {"embed_dim", "temporal_filters", "branch_width", "filters"}


def test_sources_read_none_of_the_retired_width_names():
    import dataclasses

    from csanet.config import AttentionConfig, ModelConfig, TcnConfig

    for cls in (ModelConfig, AttentionConfig, TcnConfig):
        fields = {f.name for f in dataclasses.fields(cls)}
        assert not fields & RETIRED_WIDTH_NAMES, cls.__name__
        assert not any(hasattr(cls, name) for name in RETIRED_WIDTH_NAMES), cls.__name__
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                assert node.attr not in RETIRED_WIDTH_NAMES, f"{name}:{node.lineno} reads .{node.attr}"
