"""Multiscale sparse cross-attention fusion.

Feature maps (B, U, T0) are attended over their T0 time steps with
U-dimensional token embeddings. Keys/values come from a multiscale
average-pooled view of the source features: the sum of the stride-1 pools
at every kernel size is one linear map along time, run as one matmul with
a (T0, T0) band matrix. Attention rows can be sparsified by keeping only
the top-scoring entries at two sparsity levels whose outputs are mixed by
two learnable scalars, in one tape node (topk_mix). Each top-k mask comes
from one sort; it is treated as constant by the backward pass.
"""

import math

import numpy as np

from . import ops
from .autodiff import Tensor, _accumulate, _make, default_dtype, unbroadcast
from .config import AttentionConfig
from .errors import ConfigurationError, DimensionError
from .layers import Layer, Parameter, _uniform_init


def keep_count(denominator: int, t0: int) -> int:
    """Entries kept per attention row for one sparsity parameter k: the
    top 1/k proportion, ceil(T0/k)."""
    if denominator < 1:
        raise ConfigurationError("top-k parameter must be >= 1")
    return -(-t0 // denominator)


def topk_mask(scores: np.ndarray, keep: int) -> np.ndarray:
    """Boolean mask of the `keep` largest entries per trailing-axis row.

    One np.sort reads each row's threshold, its keep-th largest value.
    Entries above it are kept, and of those equal to it the lowest-index
    ones (a stable sort's rule); the running count of ties is taken only
    when a tie straddles some row's threshold.
    """
    t0 = scores.shape[-1]
    if not 1 <= keep <= t0:
        raise ConfigurationError(f"keep_count {keep} out of range [1, {t0}]")
    ranked = np.sort(scores, axis=-1)
    kth = ranked[..., t0 - keep, None]
    if keep == t0 or not (ranked[..., t0 - keep - 1, None] == kth).any():
        return scores >= kth
    above, tied = scores > kth, scores == kth
    room = keep - above.sum(axis=-1, keepdims=True)
    return above | (tied & (np.cumsum(tied, axis=-1) <= room))


def _topk_softmaxes(s, keeps):
    """(masks, rows): each keep count's topk_mask of s and the softmax of
    s's trailing-axis rows restricted to it, from one shared row max and
    exp. A NaN score makes its whole row NaN."""
    masks = [topk_mask(s, keep) for keep in keeps]
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    kept = [e * mask for mask in masks]
    return masks, [k / k.sum(axis=-1, keepdims=True) for k in kept]


def _masked_softmax_grad(g, p, mask):
    """Score gradient of one masked softmax p from dL/dp; 0 off the mask."""
    dot = (g * p).sum(axis=-1, keepdims=True)
    return np.where(mask, p * (g - dot), np.zeros((), dtype=p.dtype))


def topk_softmax(scores: Tensor, keep: int) -> Tensor:
    """Softmax over each trailing-axis row restricted to its top `keep` scores.

    Discarded positions become exactly 0; kept positions renormalize to
    sum 1. Gradients flow only through the kept entries.
    """
    (mask,), (out,) = _topk_softmaxes(scores.data, (keep,))
    return _make(out, (scores,), lambda g: _accumulate(scores, _masked_softmax_grad(g, out, mask)))


def topk_mix(scores: Tensor, v: Tensor, alpha: Tensor, beta: Tensor, keeps) -> Tensor:
    """alpha * (topk_softmax(scores, keeps[0]) @ v) + beta * (topk_softmax(scores,
    keeps[1]) @ v) as one tape node whose two paths share one exp. The backward
    makes the composition's products, so values and gradients keep its bits."""
    masks, probs = _topk_softmaxes(scores.data, keeps)
    paths = [p @ v.data for p in probs]
    out = alpha.data * paths[0] + beta.data * paths[1]

    def backward(g):
        for coef, mask, p, path in zip((alpha, beta), masks, probs, paths):
            if coef.requires_grad:
                _accumulate(coef, unbroadcast(g * path, coef.data.shape))
            gpath = g * coef.data
            if v.requires_grad:
                _accumulate(v, np.swapaxes(p, -1, -2) @ gpath)
            if scores.requires_grad:
                _accumulate(scores, _masked_softmax_grad(gpath @ np.swapaxes(v.data, -1, -2), p, mask))

    return _make(out, (scores, v, alpha, beta), backward)


def multiscale_pool(y: Tensor, cfg: AttentionConfig) -> Tensor:
    """Sum of stride-1 average poolings at each configured kernel size, as
    one matmul of y (B, U, T0) with a fixed (T0, T0) band matrix.

    Pad p = (k-1)/2 at each odd kernel k (cfg.pool_pads) keeps every pooled
    variant at the input length. Padding zeros count toward the divisor,
    which attenuates boundary positions. Output t of the pool at kernel k
    is the sum of inputs s with |s - t| <= p over k, so the sum of the
    pools is y @ M with M[s, t] = sum_i [|s - t| <= p_i] / k_i.
    """
    t0 = y.shape[-1]
    lag = np.abs(np.subtract.outer(np.arange(t0), np.arange(t0)))
    band = np.zeros((t0, t0))
    for k, p in zip(cfg.pool_kernels, cfg.pool_pads):
        band += (lag <= p) / k
    return y @ band.astype(y.dtype)


class AttentionParams(Layer):
    """Projections plus the two sparsity-mixing scalars for one branch."""

    def __init__(self, width, rng):
        super().__init__()
        self.w_q = Parameter(_uniform_init(rng, (width, width)))
        self.w_k = Parameter(_uniform_init(rng, (width, width)))
        self.w_v = Parameter(_uniform_init(rng, (width, width)))
        self.alpha = Parameter(np.ones((), dtype=default_dtype()))
        self.beta = Parameter(np.ones((), dtype=default_dtype()))


def msca_forward(x: Tensor, y: Tensor, params: AttentionParams, cfg: AttentionConfig) -> Tensor:
    """Multi-head attention of x's queries over (pooled) y's keys/values.

    x, y: (B, U, T0), U divisible by cfg.heads. Steps: optionally pool y at
    multiple scales; project to Q/K/V (bias-free); split into heads of
    width U/heads; scale scores by 1/sqrt(head width); either mix two
    top-k-sparsified softmax paths by the learnable scalars (topk_mix, in
    both modes), or use the dense softmax; concatenate heads; x's shape.
    """
    if x.shape != y.shape:
        raise DimensionError(f"query source {x.shape} and key/value source {y.shape} differ")
    b, u, t0 = x.shape
    if u % cfg.heads:
        raise ConfigurationError(f"feature width {u} not divisible by heads {cfg.heads}")
    dk = u // cfg.heads

    if cfg.multiscale_pool_enabled:
        y = multiscale_pool(y, cfg)

    def to_heads(tokens, w):
        proj = tokens @ w  # (B, T0, U) x (U, U)
        return proj.reshape((b, t0, cfg.heads, dk)).transpose(0, 2, 1, 3)

    xt = x.transpose(0, 2, 1)
    yt = y.transpose(0, 2, 1)
    q = to_heads(xt, params.w_q)
    k = to_heads(yt, params.w_k)
    v = to_heads(yt, params.w_v)

    scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / math.sqrt(dk))
    if cfg.topk_enabled:
        keeps = [keep_count(k, t0) for k in cfg.keep_denominators]
        heads_out = topk_mix(scores, v, params.alpha, params.beta, keeps)
    else:
        heads_out = ops.softmax(scores, axis=-1) @ v

    merged = heads_out.transpose(0, 2, 1, 3).reshape((b, t0, u))
    return merged.transpose(0, 2, 1)


def residual_fuse(z: Tensor, mha_out: Tensor) -> Tensor:
    """Keep the original features alongside the attention output."""
    if z.shape != mha_out.shape:
        raise DimensionError(f"residual shapes differ: {z.shape} vs {mha_out.shape}")
    return z + mha_out
