"""Finite-difference verification of reverse-mode gradients.

Runs in 64-bit mode: reverse-mode gradients of a scalar-valued closure are
compared against central differences with step h = 1e-4. The reported
error for each input is max |analytic - numeric| normalized by the largest
gradient magnitude seen for that input.

Only the analytic pass records a tape. The perturbed evaluations run under
no_grad: the forward arithmetic does not depend on the tape, so each loss,
and with it the report, is the same bit for bit as with one, at the cost
of the forward alone.

Structurally zero inputs. Some inputs have an exactly zero gradient by
construction: a per-filter shift that a later training-mode batch norm
subtracts again, or a parameter the closure never reads. Their analytic
gradient is zero up to float64 rounding (<= ~1e-16), but the central
difference is not: (f(x+h) - f(x-h)) / 2h is a whole number of rounding
steps of the loss, ulp(loss) / 2h ~ 1e-12 for an O(1) loss at h = 1e-4.
Normalizing that noise by its own magnitude scores ~1.0. An input is
therefore scored 0 and listed in GradCheckReport.structurally_zero when
both

- its analytic max |grad| is <= ZERO_ANALYTIC (1e-14), i.e. zero up to
  rounding, and
- its numeric max |grad| is <= ZERO_NUMERIC (1e-9), about 1000x above the
  central-difference noise floor, which leaves room for a few rounding
  steps of a larger loss but none for a real gradient of an O(1) closure.

A backward that drops a real gradient still fails: its analytic gradient
is zero but its numeric one is far above 1e-9, so the relative rule scores
it 1.0. Every other input is scored by the relative rule.
"""

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, no_grad
from .errors import NumericalError

ZERO_ANALYTIC = 1e-14
ZERO_NUMERIC = 1e-9


@dataclass
class GradCheckReport:
    """Per-input worst relative errors plus the overall maximum.

    structurally_zero holds the indices of the inputs scored 0 by the
    structural-zero rule (see the module docstring).
    """

    per_input: list
    max_rel_error: float
    labels: list = None  # optional display names aligned with per_input
    structurally_zero: list = field(default_factory=list)

    def passed(self, tol=1e-3):
        return self.max_rel_error <= tol

    def names(self):
        """Display names aligned with per_input: labels, else indices."""
        return self.labels or [str(i) for i in range(len(self.per_input))]

    def structurally_zero_names(self):
        names = self.names()
        return [names[i] for i in self.structurally_zero]


def grad_check(fn, inputs, h=1e-4):
    """Compare reverse-mode and finite-difference gradients of fn(*inputs).

    fn must map the given Tensors to a scalar Tensor and be deterministic
    (re-running it with perturbed inputs must only reflect the
    perturbation). Inputs should be float64 and small (<= ~1e3 elements).
    fn is called once with a tape, for the analytic gradients, and then,
    for every perturbed input, without one (under no_grad), so it must not
    call backward itself.
    """
    inputs = list(inputs)
    for t in inputs:
        if not isinstance(t, Tensor):
            raise TypeError("grad_check inputs must be Tensors")
        t.requires_grad = True
        t.zero_grad()
        if t.data.dtype != np.float64:
            raise NumericalError("grad_check requires float64 inputs")
        t.data = np.ascontiguousarray(t.data)  # reshape(-1) below must be a view

    out = fn(*inputs)
    if out.data.size != 1:
        raise NumericalError("grad_check closure must return a scalar")
    if not np.isfinite(out.data):
        raise NumericalError("closure produced a non-finite value")
    out.backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else np.array(t.grad, dtype=np.float64) for t in inputs]

    per_input = []
    structurally_zero = []
    worst = 0.0
    for index, (t, ana) in enumerate(zip(inputs, analytic)):
        if not np.all(np.isfinite(ana)):
            raise NumericalError("non-finite analytic gradient")
        num = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        nflat = num.reshape(-1)
        with no_grad():
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = float(fn(*inputs).data)
                flat[i] = orig - h
                dn = float(fn(*inputs).data)
                flat[i] = orig
                nflat[i] = (up - dn) / (2.0 * h)
        if not np.all(np.isfinite(num)):
            raise NumericalError("non-finite numeric gradient")
        ana_max = float(np.abs(ana).max(initial=0.0))
        num_max = float(np.abs(num).max(initial=0.0))
        scale = max(ana_max, num_max)
        if ana_max <= ZERO_ANALYTIC and num_max <= ZERO_NUMERIC:
            err = 0.0
            structurally_zero.append(index)
        elif scale < 1e-12:
            err = float(np.abs(ana - num).max(initial=0.0))
        else:
            err = float(np.abs(ana - num).max(initial=0.0) / scale)
        per_input.append(err)
        worst = max(worst, err)
        t.zero_grad()
    return GradCheckReport(per_input=per_input, max_rel_error=worst, structurally_zero=structurally_zero)
