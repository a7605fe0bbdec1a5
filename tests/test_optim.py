"""Adam update semantics."""

import numpy as np
import pytest

from csanet.errors import StateError
from csanet.layers import Parameter
from csanet.optim import AdamState, adam_step


def test_first_step_closed_form():
    # theta=0, g=1, defaults: update = lr * 1 / (1 + eps)
    p = Parameter(np.zeros((), dtype=np.float64), name="theta")
    p.grad = np.ones(())
    state = AdamState()
    adam_step(state, [p])
    assert state.step == 1
    assert float(p.data) == pytest.approx(-0.0009, abs=1e-9)


def test_zero_gradient_is_bitwise_noop():
    values = np.array([1.5, -2.25, 0.0, -0.0], dtype=np.float32)
    p = Parameter(values.copy(), name="w")
    state = AdamState()
    for _ in range(3):
        p.grad = np.zeros_like(p.data)
        adam_step(state, [p])
    assert p.data.tobytes() == values.tobytes()


def test_quadratic_convergence():
    # 200 steps on f(theta) = theta^2 from theta=1 with lr 0.05.
    p = Parameter(np.ones((), dtype=np.float64), name="theta")
    state = AdamState(lr=0.05)
    for _ in range(200):
        p.grad = 2.0 * p.data
        adam_step(state, [p])
        p.grad = None
    assert abs(float(p.data)) < 0.1


def test_matches_textbook_recurrence():
    rng = np.random.default_rng(3)
    p = Parameter(rng.standard_normal(5), name="w")
    ref = p.data.copy()
    m = np.zeros(5)
    v = np.zeros(5)
    state = AdamState(lr=0.01)
    for t in range(1, 6):
        g = rng.standard_normal(5)
        p.grad = g.copy()
        adam_step(state, [p])
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref = ref - 0.01 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
    np.testing.assert_allclose(p.data, ref, rtol=1e-12)


def test_parameter_without_gradient_is_skipped_bitwise():
    values = np.array([1.5, -2.25, 0.0, -0.0], dtype=np.float32)
    idle = Parameter(values.copy(), name="idle")
    live = Parameter(np.zeros(2), name="live")
    state = AdamState()
    for expected in (1, 2, 3):
        live.grad = np.ones(2)
        adam_step(state, [idle, live])
        assert state.step == expected
    assert idle.grad is None
    assert idle.data.tobytes() == values.tobytes()
    assert "idle" not in state.m and "idle" not in state.v
    assert (live.data < 0).all()


def test_gradient_shape_mismatch_is_state_error():
    p = Parameter(np.zeros(3), name="w")
    p.grad = np.zeros(4)
    with pytest.raises(StateError):
        adam_step(AdamState(), [p])


def test_step_counter_strictly_increments():
    p = Parameter(np.zeros(2), name="w")
    state = AdamState()
    for expected in (1, 2, 3):
        p.grad = np.ones(2)
        adam_step(state, [p])
        assert state.step == expected
