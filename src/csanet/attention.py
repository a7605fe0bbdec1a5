"""Multiscale sparse cross-attention fusion.

Feature maps (B, U, T0) are attended over their T0 time steps with
U-dimensional token embeddings. Keys/values come from a multiscale
average-pooled view of the source features: the sum of the stride-1 pools
at every kernel size is one linear map along time, run as one matmul with
a (T0, T0) band matrix. Attention rows can be sparsified by keeping only
the top-scoring entries at two sparsity levels whose outputs are mixed by
two learnable scalars. The top-k mask is a discrete selection and is
treated as constant by the backward pass.
"""

import math

import numpy as np

from . import ops
from .autodiff import Tensor, default_dtype
from .config import AttentionConfig
from .errors import ConfigurationError, DimensionError
from .layers import Layer, Parameter, _uniform_init


def keep_count(cfg: AttentionConfig, denominator: int, t0: int) -> int:
    """Entries kept per attention row for one sparsity parameter.

    ratio mode keeps the top 1/denominator proportion (ceil(T0/k));
    count mode keeps the literal count, clamped to [1, T0].
    """
    if denominator < 1:
        raise ConfigurationError("top-k parameter must be >= 1")
    if cfg.topk_mode == "count":
        return max(1, min(denominator, t0))
    return -(-t0 // denominator)


def topk_mask(scores: np.ndarray, keep: int) -> np.ndarray:
    """Boolean mask of the `keep` largest entries per trailing-axis row.

    Ties at the threshold keep the lowest-index entries (stable argsort of
    descending scores), so the selection is deterministic.
    """
    order = np.argsort(-scores, axis=-1, kind="stable")
    mask = np.zeros(scores.shape, dtype=bool)
    np.put_along_axis(mask, order[..., :keep], True, axis=-1)
    return mask


def topk_softmax(scores: Tensor, keep: int) -> Tensor:
    """Softmax over each trailing-axis row restricted to its top `keep` scores.

    Discarded positions become exactly 0; kept positions renormalize to
    sum 1. Gradients flow only through the kept entries.
    """
    t0 = scores.shape[-1]
    if not 1 <= keep <= t0:
        raise ConfigurationError(f"keep_count {keep} out of range [1, {t0}]")
    if keep == t0:
        return ops.softmax(scores, axis=-1)
    mask = topk_mask(scores.data, keep)
    masked = ops.masked_fill(scores, mask, -np.inf)
    return ops.softmax(masked, axis=-1)


def multiscale_pool(y: Tensor, cfg: AttentionConfig) -> Tensor:
    """Sum of stride-1 average poolings at each configured kernel size, as
    one matmul of y (B, U, T0) with a fixed (T0, T0) band matrix.

    Pad = (kernel-1)/2 keeps every pooled variant at the input length, so
    the output shape equals the input shape. Padding zeros count toward
    the divisor, which attenuates boundary positions. Output t of the pool
    at kernel k is the sum of inputs s with |s - t| <= p over k, so the
    sum of the pools is y @ M with M[s, t] = sum_i [|s - t| <= p_i] / k_i.
    """
    if len(cfg.pool_kernels) != len(cfg.pool_pads):
        raise ConfigurationError("pool_kernels and pool_pads must have equal length")
    t0 = y.shape[-1]
    lag = np.abs(np.subtract.outer(np.arange(t0), np.arange(t0)))
    band = np.zeros((t0, t0))
    for k, p in zip(cfg.pool_kernels, cfg.pool_pads):
        if 2 * p != k - 1:
            raise ConfigurationError(f"pool kernel {k} with pad {p} changes the pooled length")
        band += (lag <= p) / k
    return y @ band.astype(y.dtype)


class AttentionParams(Layer):
    """Projections plus the two sparsity-mixing scalars for one branch."""

    def __init__(self, embed_dim, rng):
        super().__init__()
        self.w_q = Parameter(_uniform_init(rng, (embed_dim, embed_dim), embed_dim))
        self.w_k = Parameter(_uniform_init(rng, (embed_dim, embed_dim), embed_dim))
        self.w_v = Parameter(_uniform_init(rng, (embed_dim, embed_dim), embed_dim))
        self.alpha = Parameter(np.ones((), dtype=default_dtype()))
        self.beta = Parameter(np.ones((), dtype=default_dtype()))


def msca_forward(x: Tensor, y: Tensor, params: AttentionParams, cfg: AttentionConfig) -> Tensor:
    """Multi-head attention of x's queries over (pooled) y's keys/values.

    x, y: (B, U, T0) with U = cfg.embed_dim. Steps: optionally pool y at
    multiple scales; project to Q/K/V (bias-free); split into heads of
    width U/heads; scale scores by 1/sqrt(head width); either mix two
    top-k-sparsified softmax paths by the learnable scalars, or use the
    dense softmax; concatenate heads. Output shape equals x's shape.
    """
    if x.shape != y.shape:
        raise DimensionError(f"query source {x.shape} and key/value source {y.shape} differ")
    b, u, t0 = x.shape
    if u != cfg.embed_dim:
        raise DimensionError(f"feature width {u} != attention.embed_dim {cfg.embed_dim}")
    if u % cfg.heads:
        raise ConfigurationError(f"embed_dim {u} not divisible by heads {cfg.heads}")
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
        k1, k2 = cfg.keep_denominators
        path1 = topk_softmax(scores, keep_count(cfg, k1, t0)) @ v
        path2 = topk_softmax(scores, keep_count(cfg, k2, t0)) @ v
        heads_out = params.alpha * path1 + params.beta * path2
    else:
        heads_out = ops.softmax(scores, axis=-1) @ v

    merged = heads_out.transpose(0, 2, 1, 3).reshape((b, t0, u))
    return merged.transpose(0, 2, 1)


def residual_fuse(z: Tensor, mha_out: Tensor) -> Tensor:
    """Keep the original features alongside the attention output."""
    if z.shape != mha_out.shape:
        raise DimensionError(f"residual shapes differ: {z.shape} vs {mha_out.shape}")
    return z + mha_out
