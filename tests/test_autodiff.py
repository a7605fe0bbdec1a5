"""Core tensor/tape behavior: broadcasting, shape ops, determinism, the
walk that releases the tape."""

import dataclasses
import weakref

import numpy as np
import pytest

from csanet import ops
from csanet.autodiff import Tensor, _reverse_topo, _walked, concat, narrow, no_grad, pad, precision
from csanet.errors import DimensionError, StateError
from csanet.model import CsanetModel
from csanet.verification import mini_model_config

from oracles import oracle_backward


def test_add_broadcast_backward():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    out = (a + b).sum()
    out.backward()
    assert a.grad.shape == (2, 3)
    assert b.grad.shape == (3,)
    np.testing.assert_array_equal(b.grad, [2.0, 2.0, 2.0])


def test_mul_scalar_parameter_backward():
    alpha = Tensor(np.float64(2.0), requires_grad=True)
    x = Tensor(np.arange(6.0).reshape(2, 3))
    out = (alpha * x).sum()
    out.backward()
    assert alpha.grad.shape == ()
    assert float(alpha.grad) == pytest.approx(15.0)


def test_matmul_backward_with_2d_rhs():
    a = Tensor(np.random.default_rng(0).standard_normal((2, 4, 3)), requires_grad=True)
    w = Tensor(np.random.default_rng(1).standard_normal((3, 5)), requires_grad=True)
    out = (a @ w).sum()
    out.backward()
    assert a.grad.shape == (2, 4, 3)
    assert w.grad.shape == (3, 5)


def test_transpose_reshape_roundtrip_gradient():
    x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
    out = x.transpose(2, 0, 1).reshape((4, 6)).sum()
    out.backward()
    np.testing.assert_array_equal(x.grad, np.ones((2, 3, 4)))


def test_concat_and_narrow_gradients():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    merged = concat([a, b], axis=1)
    out = narrow(merged, 1, 1, 3).sum()
    out.backward()
    np.testing.assert_array_equal(a.grad, [[0, 1], [0, 1]])
    np.testing.assert_array_equal(b.grad, [[1, 1, 0], [1, 1, 0]])


def test_pad_backward_crops():
    x = Tensor(np.ones((1, 2)), requires_grad=True)
    out = pad(x, ((0, 0), (1, 2))).sum()
    out.backward()
    np.testing.assert_array_equal(x.grad, np.ones((1, 2)))


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(DimensionError):
        (x * 2).backward()


def test_no_grad_builds_no_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        out = x * 2
    assert out._backward is None
    assert not out.requires_grad


def test_grad_accumulates_across_uses():
    x = Tensor(np.array([3.0]), requires_grad=True)
    out = (x * x).sum()  # both operands are the same node
    out.backward()
    assert float(x.grad[0]) == pytest.approx(6.0)


def test_precision_context_switches_dtype():
    with precision("float64"):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float64
    t = Tensor([1, 2, 3])
    assert t.dtype == np.float32


def test_float_inputs_keep_their_dtype():
    t = Tensor(np.zeros(2, dtype=np.float64))
    assert t.dtype == np.float64


def test_numpy_scalars_keep_their_dtype_python_scalars_take_default():
    # np.float64 subclasses Python float; it must not be cast like one.
    assert Tensor(np.float64(2.0)).dtype == np.float64
    assert Tensor(np.float32(2.0)).dtype == np.float32
    assert Tensor(2.0).dtype == np.float32
    assert Tensor(2).dtype == np.float32


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_reductions_and_loss_keep_graph_dtype_under_float32_default(dtype):
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((4, 3)).astype(dtype), requires_grad=True)
    targets = np.array([0, 2, 1, 2])
    for out in (x.sum(), (x * 0.5).sum(), ops.cross_entropy(x, targets)):
        assert out.dtype == dtype
        x.zero_grad()
        out.backward()
        assert x.grad.dtype == dtype


def test_determinism_same_graph_bitwise():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((4, 4)).astype(np.float32)
    w = rng.standard_normal((4, 4)).astype(np.float32)

    def run():
        x = Tensor(data, requires_grad=True)
        out = ((x @ Tensor(w)) * 0.5).sum()
        out.backward()
        return out.data.copy(), x.grad.copy()

    o1, g1 = run()
    o2, g2 = run()
    assert o1.tobytes() == o2.tobytes()
    assert g1.tobytes() == g2.tobytes()


@pytest.mark.parametrize("dtype, ambient", [("float32", "float64"), ("float64", "float32")])
def test_bare_operands_take_the_tensors_dtype(dtype, ambient):
    t = Tensor(np.array([1.0, 3.0], dtype=dtype))
    with precision(ambient):
        results = [t + 0.1, 0.1 + t, t - 0.1, 0.1 - t, t * 0.1, 0.1 * t, t / 3.0, -t, t * np.array(0.1, dtype=ambient)]
    for out in results:
        assert out.dtype == np.dtype(dtype)
    np.testing.assert_array_equal((t * (1.0 / 3.0)).data, t.data * np.asarray(1.0 / 3.0, dtype=dtype))


@pytest.mark.parametrize("dtype, ambient", [("float32", "float64"), ("float64", "float32")])
def test_model_logits_are_the_same_bits_under_either_default(dtype, ambient):
    # Attention's 1/sqrt(dk) is a bare scalar; it follows the scores'
    # dtype, so a model gives the same logits inside and outside a
    # precision() context of the other dtype, in training and in eval.
    cfg = dataclasses.replace(mini_model_config(), conv_dropout=0.5)
    x = np.random.default_rng(1).standard_normal((3, 1, cfg.channels, cfg.time_steps)).astype(dtype)

    def logits():
        with precision(dtype):
            model = CsanetModel(cfg, rng=np.random.Generator(np.random.PCG64(0)))
        train = model(Tensor(x), training=True, rng=np.random.default_rng(2)).data
        return train, model(Tensor(x), training=False).data

    with precision(dtype):
        want = logits()
    with precision(ambient):
        got = logits()
    for mode, g, w in zip(("training", "eval"), got, want):
        assert g.dtype == w.dtype == np.dtype(dtype), mode
        assert np.array_equal(g, w), mode


def mini_training_loss(dtype):
    """The mini model's training graph (conv dropout on) at B = 3, seeded:
    (model, loss), before any backward."""
    cfg = dataclasses.replace(mini_model_config(), conv_dropout=0.5)
    with precision(dtype):
        model = CsanetModel(cfg, rng=np.random.Generator(np.random.PCG64(41)))
    x = np.random.default_rng(42).standard_normal((3, 1, cfg.channels, cfg.time_steps)).astype(dtype)
    logits = model(Tensor(x), training=True, rng=np.random.default_rng(43))
    return model, ops.cross_entropy(logits, np.array([0, 1, 1]))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_backward_releases_the_walked_graph(dtype):
    model, loss = mini_training_loss(dtype)
    nodes = _reverse_topo(loss)
    ops_nodes = [n for n in nodes if n._backward is not None]
    leaves = [n for n in nodes if n._backward is None]
    assert len(ops_nodes) > 100 and loss in ops_nodes
    loss.backward()
    assert _reverse_topo(loss) == [loss]
    for node in ops_nodes:
        assert node.grad is None
        assert node._prev == ()
        assert node._backward is _walked
    params = {id(p) for p in model.parameters()}
    assert all(p.grad is not None for p in leaves if id(p) in params)


def test_backward_frees_the_arrays_only_closures_held():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    w = Tensor(np.array([0.5, 0.25, 2.0]))
    mid = x * x
    held = [weakref.ref(w.data), weakref.ref(mid.data)]
    out = (mid * w).sum()
    del w, mid
    assert all(ref() is not None for ref in held)
    out.backward()
    assert all(ref() is None for ref in held)
    np.testing.assert_array_equal(x.grad, [1.0, -1.0, 12.0])


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_released_walk_gives_the_gradients_of_the_keeping_walk(dtype):
    got_model, got_loss = mini_training_loss(dtype)
    want_model, want_loss = mini_training_loss(dtype)
    got_loss.backward()
    oracle_backward(want_loss)
    assert len(_reverse_topo(want_loss)) > 1  # the oracle kept its tape
    got, want = list(got_model.named_parameters()), list(want_model.named_parameters())
    assert [n for n, _ in got] == [n for n, _ in want]
    compared = 0
    for (name, g), (_, w) in zip(got, want):
        assert (g.grad is None) == (w.grad is None), name
        if w.grad is not None:
            assert g.grad.dtype == w.grad.dtype == np.dtype(dtype), name
            assert np.array_equal(g.grad, w.grad), f"{name} differs"
            compared += 1
    assert compared > 50


def test_a_second_walk_of_the_same_root_raises():
    model, loss = mini_training_loss("float64")
    loss.backward()
    before = [p.grad.copy() for p in model.parameters() if p.grad is not None]
    with pytest.raises(StateError, match="already walked"):
        loss.backward()
    after = [p.grad for p in model.parameters() if p.grad is not None]
    assert len(after) == len(before) and all(np.array_equal(a, b) for a, b in zip(after, before))


def test_a_new_graph_on_a_released_node_raises():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    mid = x * 3.0
    mid.sum().backward()
    with pytest.raises(StateError, match="run the forward again"):
        (mid * 2.0).sum().backward()
