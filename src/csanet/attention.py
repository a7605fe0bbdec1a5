"""Multiscale sparse cross-attention fusion.

Feature maps (B, U, T0) are attended over their T0 time steps with
U-dimensional token embeddings. Each attention is one tape node,
msca_forward: a raw-array kernel, _msca, whose hand-written backward makes
the products of the Tensor composition it replaced (tests/oracles.py) in
that composition's order, so values and gradients keep its bits. Keys and
values come from a multiscale average-pooled view of the source features,
one matmul with a cached (T0, T0) band matrix. Attention rows can be
sparsified by keeping only the top-scoring entries at two sparsity levels
whose outputs are mixed by two learnable scalars. Each top-k mask comes
from one sort, through the module global topk_mask looked up at each call
(a gradient check may rebind it to record the masks); the backward treats
it as constant.
"""

import functools
import math

import numpy as np

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


def _masked_softmaxes(s, masks):
    """The softmax of s's trailing-axis rows restricted to each mask (None:
    the whole row), from one shared row max and exp. A NaN score makes its
    whole row NaN."""
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    kept = [e if mask is None else e * mask for mask in masks]
    return [k / k.sum(axis=-1, keepdims=True) for k in kept]


def _masked_softmax_grad(g, p, mask):
    """Score gradient of one masked softmax p from dL/dp; 0 off the mask."""
    dot = (g * p).sum(axis=-1, keepdims=True)
    grad = p * (g - dot)
    return grad if mask is None else np.where(mask, grad, np.zeros((), dtype=p.dtype))


def topk_softmax(scores: Tensor, keep: int) -> Tensor:
    """Softmax over each trailing-axis row restricted to its top `keep` scores.

    Discarded positions become exactly 0; kept positions renormalize to
    sum 1. Gradients flow only through the kept entries.
    """
    mask = topk_mask(scores.data, keep)
    (out,) = _masked_softmaxes(scores.data, [mask])
    return _make(out, (scores,), lambda g: _accumulate(scores, _masked_softmax_grad(g, out, mask)))


@functools.lru_cache(maxsize=None)
def band_matrix(t0: int, kernels: tuple, dtype) -> np.ndarray:
    """multiscale_pool's (T0, T0) matrix, summed in float64 and cast to
    dtype; built once per argument tuple and read-only."""
    lag = np.abs(np.subtract.outer(np.arange(t0), np.arange(t0)))
    band = np.zeros((t0, t0))
    for k in kernels:
        band += (lag <= (k - 1) // 2) / k
    band = band.astype(dtype)
    band.flags.writeable = False
    return band


def multiscale_pool(y: Tensor, cfg: AttentionConfig) -> Tensor:
    """Sum of stride-1 average poolings at each configured kernel size, as
    one matmul of y (B, U, T0) with a fixed (T0, T0) band matrix.

    Pad p = (k-1)/2 at each odd kernel k (cfg.pool_pads) keeps every pooled
    variant at the input length. Padding zeros count toward the divisor,
    which attenuates boundary positions. Output t of the pool at kernel k
    is the sum of inputs s with |s - t| <= p over k, so the sum of the
    pools is y @ M with M[s, t] = sum_i [|s - t| <= p_i] / k_i.
    """
    return y @ band_matrix(y.shape[-1], tuple(cfg.pool_kernels), y.dtype)


class AttentionParams(Layer):
    """Projections plus the two sparsity-mixing scalars for one branch."""

    def __init__(self, width, rng):
        super().__init__()
        self.w_q = Parameter(_uniform_init(rng, (width, width)))
        self.w_k = Parameter(_uniform_init(rng, (width, width)))
        self.w_v = Parameter(_uniform_init(rng, (width, width)))
        self.alpha = Parameter(np.ones((), dtype=default_dtype()))
        self.beta = Parameter(np.ones((), dtype=default_dtype()))


def _heads(tokens, w, split):
    """tokens (B, T0, U) @ w, split into heads: (B, heads, T0, U / heads)."""
    return (tokens @ w).reshape(split).transpose(0, 2, 1, 3)


def _heads_grad(g, tokens, w):
    """_heads' backward from its output's gradient g: adds w's gradient to
    w and returns the tokens'."""
    g = g.transpose(0, 2, 1, 3).reshape(tokens.shape)
    if w.requires_grad:
        _accumulate(w, unbroadcast(np.swapaxes(tokens, -1, -2) @ g, w.data.shape))
    return g @ np.swapaxes(w.data, -1, -2)


def _msca(x, y, w_q, w_k, w_v, coefs, band, keeps, split):
    """msca_forward on raw arrays: (output, the arrays its backward reads).
    coefs holds (alpha, beta) and keeps the two keep counts, or both are
    empty for the dense softmax, one path with every entry kept; band is
    None without the pool; split is (B, T0, heads, head width)."""
    xt, yt = x.transpose(0, 2, 1), (y if band is None else y @ band).transpose(0, 2, 1)
    q, k, v = _heads(xt, w_q, split), _heads(yt, w_k, split), _heads(yt, w_v, split)
    kt = k.transpose(0, 1, 3, 2)
    qk = q @ kt
    scale = np.asarray(1.0 / math.sqrt(split[-1]), dtype=qk.dtype)
    scores = qk * scale
    masks = [topk_mask(scores, keep) for keep in keeps] or [None]
    probs = _masked_softmaxes(scores, masks)
    paths = [p @ v for p in probs]
    mixed = coefs[0] * paths[0] + coefs[1] * paths[1] if coefs else paths[0]
    out = mixed.transpose(0, 2, 1, 3).reshape(xt.shape).transpose(0, 2, 1)
    return out, (xt, yt, q, kt, v, scale, masks, probs, paths)


def msca_forward(x: Tensor, y: Tensor, params: AttentionParams, cfg: AttentionConfig) -> Tensor:
    """Multi-head attention of x's queries over (pooled) y's keys/values,
    as one tape node.

    x, y: (B, U, T0), U divisible by cfg.heads; x may be y (self-attention).
    Steps: optionally pool y at multiple scales; project to Q/K/V
    (bias-free); split into heads of width U/heads; scale scores by
    1/sqrt(head width); either mix two top-k-sparsified softmax paths by
    the learnable scalars alpha and beta, or use the dense softmax, which
    leaves alpha and beta off the tape; concatenate heads; x's shape.
    """
    if x.shape != y.shape:
        raise DimensionError(f"query source {x.shape} and key/value source {y.shape} differ")
    b, u, t0 = x.shape
    if u % cfg.heads:
        raise ConfigurationError(f"feature width {u} not divisible by heads {cfg.heads}")
    band = band_matrix(t0, tuple(cfg.pool_kernels), y.dtype) if cfg.multiscale_pool_enabled else None
    keeps = [keep_count(k, t0) for k in cfg.keep_denominators] if cfg.topk_enabled else []
    w_q, w_k, w_v = params.w_q, params.w_k, params.w_v
    coefs = (params.alpha, params.beta) if keeps else ()
    split = (b, t0, cfg.heads, u // cfg.heads)
    out, (xt, yt, q, kt, v, scale, masks, probs, paths) = _msca(
        x.data, y.data, w_q.data, w_k.data, w_v.data, [c.data for c in coefs], band, keeps, split
    )

    def backward(g):
        # The composition's backward, step by step: head merge, the mix a
        # path at a time, scale, scores, the three projections, the pool;
        # x's gradient is added before y's, as the composition's walk did.
        g = g.transpose(0, 2, 1).reshape(split).transpose(0, 2, 1, 3)
        gs, gv = [], []
        for coef, mask, p, path in zip(coefs or (None,), masks, probs, paths):
            if coef is not None and coef.requires_grad:
                _accumulate(coef, unbroadcast(g * path, coef.data.shape))
            gpath = g if coef is None else g * coef.data
            gv.append(np.swapaxes(p, -1, -2) @ gpath)
            gs.append(_masked_softmax_grad(gpath @ np.swapaxes(v, -1, -2), p, mask))
        gqk = functools.reduce(np.add, gs) * scale
        gx = _heads_grad(gqk @ np.swapaxes(kt, -1, -2), xt, w_q)
        gy = _heads_grad((np.swapaxes(q, -1, -2) @ gqk).transpose(0, 1, 3, 2), yt, w_k)
        gy = (gy + _heads_grad(functools.reduce(np.add, gv), yt, w_v)).transpose(0, 2, 1)
        if x.requires_grad:
            _accumulate(x, gx.transpose(0, 2, 1))
        if y.requires_grad:
            _accumulate(y, gy if band is None else gy @ np.swapaxes(band, -1, -2))

    return _make(out, (x, y, w_q, w_k, w_v) + coefs, backward)


def residual_fuse(z: Tensor, mha_out: Tensor) -> Tensor:
    """Keep the original features alongside the attention output."""
    if z.shape != mha_out.shape:
        raise DimensionError(f"residual shapes differ: {z.shape} vs {mha_out.shape}")
    return z + mha_out
