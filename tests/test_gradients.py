"""Finite-difference checks for every differentiable op (64-bit)."""

import numpy as np
import pytest

from csanet import ops
from csanet.autodiff import Tensor
from csanet.errors import NumericalError
from csanet.gradcheck import grad_check
from csanet.verification import GRADCHECK_SCOPES, _proj_loss, _rng, run_scope

from oracles import oracle_conv2d

TOL = 1e-3

OP_SCOPES = [name for name in GRADCHECK_SCOPES if name != "model-mini"]


# The retired ops' checks: no model path runs conv2d, batch_norm, elu or
# avg_pool2d, so they are no CLI scope, but their gradients stay checked
# here, with the inputs and seeds they had as scopes.


def _check_conv2d():
    """The (1, K) time conv over a map of height 2 and 3 input channels."""
    rng = _rng(1)
    x = Tensor(rng.standard_normal((2, 3, 2, 7)))
    w = Tensor(rng.standard_normal((4, 3, 1, 3)) * 0.5)
    return grad_check(lambda x_, w_: _proj_loss(ops.conv2d(x_, w_), _rng(100)), [x, w])


def _check_batch_norm():
    rng = _rng(4)
    x = Tensor(rng.standard_normal((4, 3, 5)))
    gamma = Tensor(1.0 + 0.1 * rng.standard_normal(3))
    beta = Tensor(rng.standard_normal(3))
    rm = np.zeros(3)
    rv = np.ones(3)
    return grad_check(
        lambda x_, g_, b_: _proj_loss(ops.batch_norm(x_, g_, b_, rm, rv, training=True), _rng(103)),
        [x, gamma, beta],
    )


def _check_elu():
    rng = _rng(5)
    x = Tensor(rng.standard_normal((4, 5)) * 2.0)
    return grad_check(lambda x_: _proj_loss(ops.elu(x_), _rng(104)), [x])


def _check_avg_pool():
    """A stride-k time pool with T % k != 0, and a stride-1 padded one."""
    rng = _rng(8)
    x = Tensor(rng.standard_normal((2, 3, 1, 8)))

    def closure(x_):
        strided = _proj_loss(ops.avg_pool2d(x_, 3), _rng(106))
        return strided + _proj_loss(ops.avg_pool2d(x_, 5, stride=1, padding=2), _rng(114))

    return grad_check(closure, [x])


RETIRED_OP_CHECKS = {"conv2d": _check_conv2d, "batch_norm": _check_batch_norm, "elu": _check_elu, "avg_pool": _check_avg_pool}


def run_check(name):
    """The report of a gradcheck scope or of a retired op's check."""
    return RETIRED_OP_CHECKS[name]() if name in RETIRED_OP_CHECKS else run_scope(name)


# Parameters of the mini model whose gradient is exactly zero by
# construction: a per-filter shift before the depthwise conv is cancelled by
# bn_depthwise's training-mode mean subtraction, and branch 1's dense
# self-attention never reads its sparsity-mixing scalars.
MODEL_MINI_STRUCTURALLY_ZERO = {
    "branch1.bn_temporal.beta",
    "branch2.bn_temporal.beta",
    "branch3.bn_temporal.beta",
    "branch4.bn_temporal.beta",
    "branch1.attention.alpha",
    "branch1.attention.beta",
}


@pytest.mark.parametrize("scope", OP_SCOPES + list(RETIRED_OP_CHECKS))
def test_op_scope_passes(scope):
    report = run_check(scope)
    assert report.passed(TOL), f"{scope}: max relative error {report.max_rel_error:.3e}"


def test_model_mini_structurally_zero_set_is_what_the_architecture_implies(model_mini_check):
    report, _ = model_mini_check
    assert sorted(report.structurally_zero_names()) == sorted(MODEL_MINI_STRUCTURALLY_ZERO)
    assert report.passed(TOL), f"model-mini: max relative error {report.max_rel_error:.3e}"


def test_oracle_conv2d_padded_with_bias():
    # A padded 3x3 conv with a bias: the general conv the oracles run.
    rng = _rng(1)
    x = Tensor(rng.standard_normal((2, 3, 5, 6)))
    w = Tensor(rng.standard_normal((4, 3, 3, 3)) * 0.5)
    b = Tensor(rng.standard_normal(4))
    report = grad_check(lambda x_, w_, b_: _proj_loss(oracle_conv2d(x_, w_, b_, padding=(1, 1)), _rng(100)), [x, w, b])
    assert report.passed(TOL), f"max relative error {report.max_rel_error:.3e}"


def test_oracle_conv2d_depthwise():
    # A padded depthwise (groups = Cin) 3x3 conv, as oracle_branch_stem runs one.
    rng = _rng(2)
    x = Tensor(rng.standard_normal((2, 4, 5, 6)))
    w = Tensor(rng.standard_normal((8, 1, 3, 3)) * 0.5)
    report = grad_check(lambda x_, w_: _proj_loss(oracle_conv2d(x_, w_, groups=4, padding=(1, 1)), _rng(101)), [x, w])
    assert report.passed(TOL), f"max relative error {report.max_rel_error:.3e}"


def test_shift_cancelled_by_batch_norm_is_structurally_zero():
    rng = np.random.default_rng(22)
    x = Tensor(rng.standard_normal((4, 3, 5)))
    shift = Tensor(rng.standard_normal((1, 3, 1)))
    gamma = Tensor(1.0 + 0.1 * rng.standard_normal(3))
    c = rng.standard_normal((4, 3, 5))

    def closure(x_, s_, g_):
        out = ops.batch_norm(x_ + s_, g_, np.zeros(3), np.zeros(3), np.ones(3), training=True)
        return (out * c).sum()

    report = grad_check(closure, [x, shift, gamma])
    report.labels = ["x", "shift", "gamma"]
    assert report.structurally_zero_names() == ["shift"]
    assert report.per_input[1] == 0.0
    assert report.passed(TOL)


def test_linear_plus_cross_entropy_closure():
    rng = np.random.default_rng(21)
    x = Tensor(rng.standard_normal((3, 6)))
    w = Tensor(rng.standard_normal((4, 6)) * 0.5)
    b = Tensor(rng.standard_normal(4))
    targets = np.array([1, 3, 0])
    report = grad_check(lambda x_, w_, b_: ops.cross_entropy(ops.linear(x_, w_, b_), targets), [x, w, b])
    assert report.passed(TOL)


def test_grad_check_rejects_float32():
    x = Tensor(np.zeros(3, dtype=np.float32))
    with pytest.raises(NumericalError):
        grad_check(lambda t: t.sum(), [x])


def test_grad_check_rejects_nonscalar_closure():
    x = Tensor(np.zeros(3, dtype=np.float64))
    with pytest.raises(NumericalError):
        grad_check(lambda t: t * 2, [x])


def test_grad_check_rejects_non_finite_closure():
    x = Tensor(np.ones(2, dtype=np.float64))
    with pytest.raises(NumericalError):
        grad_check(lambda t: (t * np.inf).sum(), [x])


def test_grad_check_reports_bad_gradients():
    # An intentionally wrong backward: treat y = 2x as if dy/dx were 1.
    def broken(t):
        out = Tensor(t.data * 2.0)
        out.requires_grad = True
        out._prev = (t,)

        def backward(g):
            from csanet.autodiff import _accumulate

            _accumulate(t, g)  # wrong: should be 2*g

        out._backward = backward
        return out.sum()

    x = Tensor(np.ones(4, dtype=np.float64))
    report = grad_check(broken, [x])
    assert not report.passed(TOL)


def test_grad_check_fails_a_missing_backward():
    # An intentionally missing backward: y = 2x whose tape never reaches x.
    # The analytic gradient is zero but the numeric one is 2, which the
    # structural-zero rule must not absorb.
    def dropped(t):
        out = Tensor(t.data * 2.0)
        out.requires_grad = True
        out._prev = (t,)
        out._backward = lambda g: None
        return out.sum()

    x = Tensor(np.ones(4, dtype=np.float64))
    report = grad_check(dropped, [x])
    assert report.structurally_zero == []
    assert report.per_input == [1.0]
    assert not report.passed(TOL)
