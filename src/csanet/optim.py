"""Adam optimizer with bias correction."""

from dataclasses import dataclass, field

import numpy as np

from .errors import StateError


@dataclass
class AdamState:
    """Optimizer state: hyperparameters plus per-parameter moment buffers.

    Moment buffers are keyed by parameter name and always match the
    parameter's shape. `step` increases by exactly 1 per adam_step call.
    """

    lr: float = 0.0009
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(state: AdamState, params) -> None:
    """One Adam update over `params` (iterable of named Parameters).

    A parameter without a gradient (outside this step's graph) is skipped:
    it gets no moment buffers and stays bitwise unchanged. Every other
    gradient must match its parameter's shape; gradients are left
    untouched (the caller zeroes them). A zero gradient leaves the
    parameter bitwise unchanged.
    """
    params = [p for p in params if p.grad is not None]
    for p in params:
        if p.grad.shape != p.data.shape:
            raise StateError(f"parameter {p.name!r} gradient shape {p.grad.shape} != {p.data.shape}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for p in params:
        g = p.grad
        m = state.m.get(p.name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        else:
            v = state.v[p.name]
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * (g * g)
        state.m[p.name] = m
        state.v[p.name] = v
        update = (state.lr / bc1) * m / (np.sqrt(v / bc2) + state.eps)
        p.data = p.data - update.astype(p.data.dtype)
