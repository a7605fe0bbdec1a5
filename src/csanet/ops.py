"""Neural-network primitives on Tensors, with hand-derived backward passes.

Everything here is deterministic given its inputs; only dropout_mask
draws, from a Generator. The network convolves only along time, at stride 1,
and every map from the stem to fusion is (B, C, T); pooling carries the
stride. A training forward meets, per branch:
- stem_bn_elu_pool: the stem (temporal conv -> batch norm -> depthwise
  channel conv) and its tail (batch norm -> ELU -> pool -> dropout) as one
  op: channels projected first (_stem_projection), time correlated after
  by banded tile matmuls (_tile_correlate), the temporal batch statistics
  read off the forward's one lag_prefixes table;
- conv1d_dilated: the one time-axis conv (spa_conv, the TCN's causal
  convs with a group per branch, the PSD report), padding its own input,
  by FFT correlation for long kernels over a batch (_conv1d_fft) and by
  window matmuls otherwise; FFT_MIN_TAPS, FFT_MIN_WORK and the padding's
  side draw the line;
- bn_elu_pool: the same tail after spa_conv and, at pool 1 over the four
  branches' channels, after each TCN conv.
Every batch norm of a training forward runs one kernel pair with float64
batch sums on a channel-leading (C, N, T) map, _bn_train and
_bn_train_grads; only the stem's temporal batch norm reads its statistics
off the lag table, since the fused stem never forms its map. Batch norm's
constants are BN_MOMENTUM and BN_EPS; every ELU runs one branch-free
kernel, _elu_parts.

Every tail in both modes runs one kernel, elu_pool. Eval mode has no tape
and no batch statistics: each batch norm is bn_affine's fixed map, which
elu_pool applies to the conv output, and stem_elu_pool builds the training
stem's correlation over blocks of STEM_BLOCK trials. The fused ops and the
eval maps are exact in real arithmetic, not in floating point, and held to
the numerics contract (tests/test_numerics_contract.py).

conv2d, batch_norm, elu, dropout, avg_pool2d and masked_fill (and
autodiff.pad) run in no src path. They stay because perfbench/trace.py
binds them by name; tests/test_gradients.py checks the gradients of
conv2d, batch_norm, elu and avg_pool2d, avg_pool2d is also the reference
attention.multiscale_pool's band matrix is tested against, and
masked_fill is a step of the top-k oracle (tests/oracles.py).

Two raw-array helpers carry all padding and windowing, since at the small
shapes of a gradient check each op's bookkeeping outweighs its
arithmetic: autodiff._zero_pad pads by one np.zeros and a slice
assignment in np.pad's memory order, and _window_view builds strided
window views with one as_strided call, which _windows copies into the
direct conv's window matrices.
"""

import functools
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .autodiff import Tensor, _accumulate, _make, _wrap, _zero_pad, matmul, transpose
from .errors import ConfigurationError, DataError, DimensionError


def linear(x, weight, bias=None):
    """Affine map over the trailing axis: x @ weight.T + bias."""
    x, weight = _wrap(x), _wrap(weight)
    if weight.ndim != 2:
        raise DimensionError("linear weight must be 2-d (Dout, Din)")
    if x.shape[-1] != weight.shape[1]:
        raise DimensionError(f"linear expects trailing dim {weight.shape[1]}, got {x.shape[-1]}")
    out = matmul(x, transpose(weight, (1, 0)))
    if bias is not None:
        bias = _wrap(bias)
        if bias.shape != (weight.shape[0],):
            raise DimensionError(f"bias must have shape ({weight.shape[0]},)")
        out = out + bias
    return out


BN_MOMENTUM = 0.1  # weight of the batch statistics in a running-buffer update
BN_EPS = 1e-5  # added to the variance under the square root


def _update_running(running_mean, running_var, mean, var, n):
    """Exponential-average update of batch-norm buffers, in place; the
    running variance takes the unbiased estimate of n samples."""
    running_mean *= 1.0 - BN_MOMENTUM
    running_mean += BN_MOMENTUM * mean
    running_var *= 1.0 - BN_MOMENTUM
    running_var += BN_MOMENTUM * var * (n / (n - 1.0))


def _bn_train(x, gamma, beta, a=1.0):
    """Training-mode batch norm of the raw channel-leading (C, N, T) array x
    over its N >= 2 batch entries and T samples, each channel scaled by a
    first (1, or the stem's a_f): (mean, var, inv, u, affine), with mean and
    var x's biased batch statistics per channel in float64, inv = 1 /
    sqrt(a^2 var + BN_EPS), the centred map u = x - mean and affine = (gamma
    a inv, beta), (C, 1, 1) vectors, both of x's dtype: the output is u *
    affine[0] + affine[1]. Row sums are matrix-vector products with a vector
    of ones, squares np.vecdot rows; the batch sums over them run in float64.
    """
    C, N, T = x.shape
    if N < 2:
        raise ConfigurationError("batch_norm in training mode needs a batch of at least 2")
    dtype = x.dtype
    mean = (x @ np.ones(T, dtype=dtype)).sum(axis=1, dtype=np.float64) / (N * T)
    u = x - mean.astype(dtype)[:, None, None]
    var = np.vecdot(u, u).sum(axis=1, dtype=np.float64) / (N * T)
    inv = 1.0 / np.sqrt(a * a * var + BN_EPS)
    return mean, var, inv, u, ((gamma * a * inv).astype(dtype)[:, None, None], beta.astype(dtype)[:, None, None])


def _bn_grad_sums(g, u):
    """(gsum, psum): the float64 per-channel sums of g and of g * u over
    their (C, N, T) layout, by matrix-vector products with a vector of ones
    and np.vecdot rows. Each channel's sums read only its own rows: the
    stem's backward takes them one filter's channels at a time."""
    gsum = (g @ np.ones(u.shape[-1], dtype=u.dtype)).sum(axis=1, dtype=np.float64)
    return gsum, np.vecdot(g, u).sum(axis=1, dtype=np.float64)


def _bn_grad_coefs(gsum, psum, r, gamma, n, dtype):
    """(c0, c1, c2) of dL/dx = c0 g - c1 u - c2 from _bn_grad_sums over n
    samples per channel and the raw gamma, of dtype and broadcasting over
    (C, N, T)."""
    scale = gamma * r
    return [(scale * c).astype(dtype)[:, None, None] for c in (1.0, r * r * psum / n, gsum / n)]


def _parts(p):
    """p as a list of groups' equal parts side by side: p if a list or tuple, else [p]."""
    return list(p) if isinstance(p, (list, tuple)) else [p]


def _bn_affine_grads(gammas, betas, r, gsum, psum):
    """Accumulate the gradients of gammas (r * psum) and betas (gsum), _parts lists."""
    for ts, grad in ((gammas, r * psum), (betas, gsum)):
        for t, part in zip(ts, grad.reshape(len(ts), -1)):
            if t.requires_grad:
                _accumulate(t, part.astype(t.dtype))


def _bn_train_grads(g, u, r, gammas, betas, gamma):
    """_bn_train's backward from g, the gradient at y in its (C, N, T)
    layout, with r = a inv: accumulates the gradients of gammas and betas
    (_parts lists; gamma their joined data) and returns the coefficients
    (c0, c1, c2) of dL/dx = c0 g - c1 u - c2, of u's dtype."""
    gsum, psum = _bn_grad_sums(g, u)
    _bn_affine_grads(gammas, betas, r, gsum, psum)
    return _bn_grad_coefs(gsum, psum, r, gamma, u[0].size, u.dtype)


def batch_norm(x, gamma, beta, running_mean, running_var, training):
    """Per-channel normalization over axis 1 of a (B, C, ...) input. Training
    mode runs _bn_train and _bn_train_grads on its (C, B, rest) layout; eval
    mode, which nothing differentiates, is bn_affine's map, with no tape
    node. The model runs no batch_norm: the fused ops hold its batch norms."""
    x, gamma, beta = _wrap(x), _wrap(gamma), _wrap(beta)
    if x.ndim < 2:
        raise DimensionError("batch_norm expects at least a 2-d input (B, C, ...)")
    B, C = x.shape[:2]
    if gamma.shape != (C,) or beta.shape != (C,):
        raise DimensionError("gamma/beta must have one entry per channel")
    if not training:
        scale, shift = bn_affine(gamma.data, beta.data, running_mean, running_var)
        shape = (C,) + (1,) * (x.ndim - 2)
        return Tensor(x.data * scale.astype(x.dtype).reshape(shape) + shift.astype(x.dtype).reshape(shape))
    mean, var, inv, u, affine = _bn_train(x.data.reshape(B, C, -1).transpose(1, 0, 2), gamma.data, beta.data)
    _update_running(running_mean, running_var, mean, var, u[0].size)

    def backward(gout):
        g = gout.reshape(B, C, -1).transpose(1, 0, 2)
        c0, c1, c2 = _bn_train_grads(g, u, inv, [gamma], [beta], gamma.data)
        if x.requires_grad:
            _accumulate(x, (c0 * g - c1 * u - c2).transpose(1, 0, 2).reshape(x.shape))

    return _make((u * affine[0] + affine[1]).transpose(1, 0, 2).reshape(x.shape), (x, gamma, beta), backward)


_TILE = 32  # outputs per banded matmul in the stems' K-tap correlations


def _banded(w, tile):
    """(F, tile + K - 1, tile) matrices with w[f] down column i from row i.

    A run of `tile` outputs of a K-tap correlation is then one matmul of
    the tile + K - 1 inputs it reads with this matrix.
    """
    F, K = w.shape
    band = np.zeros((F, tile + K - 1, tile), dtype=w.dtype)
    i = np.arange(tile)
    band[:, i + np.arange(K)[:, None], i] = w[:, :, None]
    return band


def lag_prefixes(x, max_kernel):
    """Prefix-sum table behind the window moments of every kernel up to
    max_kernel over the rows of x (..., T): (n, sums, prods), with n the
    number of entries of x, sums (T + 1,) the float64 prefix sums of the
    column sums and prods (max_kernel, T + 1) the prefix sums, per lag d,
    of the row products x[v] * x[v + d] (0 past T), per _TILE samples v
    the diagonals of one float64 (_TILE x n) @ (n x (_TILE + max_kernel -
    1)) matmul. Built once at the largest kernel, it serves every kernel.
    """
    T = x.shape[-1]
    tiles = -(-T // _TILE)
    rows = np.zeros((x.size // T, tiles * _TILE + max_kernel - 1))
    rows[:, :T] = x.reshape(-1, T)
    sums = np.zeros(T + 1)
    np.cumsum(rows[:, :T].sum(axis=0), out=sums[1:])
    heads = rows[:, : tiles * _TILE].reshape(-1, tiles, _TILE).transpose(1, 2, 0)
    reach = _window_view(rows, tiles, _TILE + max_kernel - 1, step=_TILE).transpose(1, 0, 2)
    i = np.arange(_TILE)
    lagged = (heads @ reach)[:, i, i + np.arange(max_kernel)[:, None]].transpose(1, 0, 2)
    prods = np.zeros((max_kernel, T + 1))
    prods[:, 1:] = lagged.reshape(max_kernel, -1)[:, :T]
    np.cumsum(prods, axis=1, out=prods)
    return x.size, sums, prods


@functools.lru_cache(maxsize=64)
def _moment_index(K, left, T):
    """_window_moments' read-only index tables for (K, left, T), built once: the
    entries' (2, K) prefix bounds, the pairs' (2, K, K) flat indices into prods."""
    start = np.arange(K) - left  # where window entry k sits relative to t
    first, lag = np.minimum.outer(start, start), np.abs(start[:, None] - start[None, :]) * (T + 1)
    bounds, pairs = np.clip([start + T, start], 0, T), lag + np.clip([first + T, first], 0, T)
    bounds.flags.writeable = pairs.flags.writeable = False
    return bounds, pairs


def _window_moments(lags, K, left):
    """float64 mean (K,) and second moment (K, K) of the K-sample windows
    of each row of x (..., T), zero-padded by `left` on the left and
    K - 1 - left on the right, read off x's lag_prefixes table without
    forming the windows.

    Entry k of the window at t is x[t + k - left]. Each lag d = |k - l| of
    S is one pass of row products x[v] * x[v + d]; a window entry pair
    sums those products over a shifted range of v, read off prefix sums.
    """
    n, sums, prods = lags
    (hi, lo), (pair_hi, pair_lo) = _moment_index(K, left, sums.size - 1)
    flat = prods.reshape(-1)
    return (sums[hi] - sums[lo]) / n, (flat[pair_hi] - flat[pair_lo]) / n


def _stem_projection(x, dw, K):
    """P[f, d, b] = dw[f, d] . x[b] for the raw (B, 1, C, T) array x and the
    (F, D, C) depthwise weight dw, as (F, D*B, tiles * _TILE + K - 1) rows
    holding P at [left, left + T) and zeros around it (same_pad(K)'s left
    pad, whole tiles on the right)."""
    B, _, C, T = x.shape
    F, D, _ = dw.shape
    left = same_pad(K)[0]
    p = np.empty((F, D * B, -(-T // _TILE) * _TILE + K - 1), dtype=x.dtype)
    p[:, :, :left] = 0.0
    p[:, :, left + T :] = 0.0
    at = p.reshape(F * D, B, -1)[:, :, left : left + T].transpose(1, 0, 2)  # (B, F*D, T) view
    np.matmul(dw.reshape(F * D, C), x[:, 0], out=at)
    return p


def _tile_correlate(a, w):
    """(F, N * tiles, _TILE) tiles of the K-tap correlation of each row of a
    (F, N, tiles * _TILE + K - 1) with w[f], by banded matmuls over the tile
    windows of as many filters at a time as copy into about 1 MB, a block
    the heap reuses instead of fresh pages (one filter at training size)."""
    F, N, L = a.shape
    span, tiles = _TILE + w.shape[1] - 1, (L - w.shape[1] + 1) // _TILE
    band, cols = _banded(w, _TILE), _window_view(a, tiles, span, step=_TILE)
    out = np.empty((F, N * tiles, _TILE), dtype=a.dtype)
    step = max(1, (1 << 20) // (N * tiles * span * a.itemsize))
    for f in range(0, F, step):
        np.matmul(cols[f : f + step].reshape(-1, N * tiles, span), band[f : f + step], out=out[f : f + step])
    return out


def stem_bn_elu_pool(x, weight, depthwise, temporal_bn, depthwise_bn, pool, keep=None, lags=None):
    """A branch's training-mode stem and first tail as one op, from the raw
    (B, 1, C, T) trial (B >= 2) to the (B, F*D, T // pool) map: temporal
    conv (weight (F, 1, 1, K), same_pad(K)'s padding) -> batch norm ->
    depthwise conv ((F*D, 1, C, 1), channel j reading filter j // D) ->
    batch norm -> ELU -> stride-pool mean pool -> dropout by the mask keep
    (or None). The batch norms are (gamma, beta, running_mean,
    running_var); x gets no gradient; lags is lag_prefixes(x.data, K' >=
    K), or built here. Eval mode runs stem_elu_pool.

    Channel j is a_f * Q_j + c_f * s_j: filter f's batch-norm map of Q_j,
    its taps correlated with P_j = dw_j . x, and s_j = sum(dw_j). The
    depthwise batch norm cancels c_f * s_j and gives gamma_j * r_j *
    (Q_j - mean Q_j) + beta_j, r_j = a_f / sqrt(a_f^2 var Q_j + BN_EPS), so
    the backward is batch norm's onto Q at scale gamma_j r_j plus dL/da_f =
    sum_j gamma_j BN_EPS (a_f^2 var Q_j + BN_EPS)^(-3/2) sum((Q_j - mean Q_j)
    dL/dy_j), into gamma_f and w_f through var_f (window moments off the
    lag table); beta_f's gradient is exactly 0. The depthwise batch norm is
    _bn_train at per-channel scale a_f on Q's (F*D, B, T) layout. The tape
    keeps the centred Q and the mask; the backward rebuilds P from x, and
    _tail_backward the ELU's slope from Q.
    """
    x, weight, depthwise = _wrap(x), _wrap(weight), _wrap(depthwise)
    (gamma1, beta1, mean1, var1), (gamma2, beta2, mean2, var2) = temporal_bn, depthwise_bn
    gamma1, beta1, gamma2, beta2 = (_wrap(t) for t in (gamma1, beta1, gamma2, beta2))
    if x.ndim != 4 or x.shape[1] != 1:
        raise DimensionError(f"stem_bn_elu_pool expects a (B, 1, C, T) input, got {x.shape}")
    B, _, C, T = x.shape
    F, K = weight.shape[0], weight.shape[-1]
    if weight.shape != (F, 1, 1, K):
        raise DimensionError(f"temporal weight must be (F, 1, 1, K), got {weight.shape}")
    if depthwise.shape[1:] != (1, C, 1) or depthwise.shape[0] % F:
        raise DimensionError(f"depthwise weight must be (F*D, 1, {C}, 1), got {depthwise.shape}")
    if {gamma1.shape, beta1.shape} != {(F,)} or {gamma2.shape, beta2.shape} != {depthwise.shape[:1]}:
        raise DimensionError("gamma/beta must have one entry per temporal filter, then per channel")
    if x.requires_grad:
        raise ConfigurationError("stem_bn_elu_pool does not propagate a gradient to its input")
    if not 1 <= pool <= T:
        raise ConfigurationError(f"pooling window {pool} must lie between 1 and the input length {T}")
    D = depthwise.shape[0] // F
    dtype = x.dtype
    if lags is None:
        lags = lag_prefixes(x.data, K)
    elif lags[2].shape[0] < K or lags[1].shape != (T + 1,):
        raise DimensionError(f"lag table of shape {lags[2].shape} does not cover K={K}, T={T}")
    left = same_pad(K)[0]
    w, dw = weight.data.reshape(F, K), depthwise.data.reshape(F, D, C)

    m, S = _window_moments(lags, K, left)
    w64 = w.astype(np.float64)
    mean, wS = w64 @ m, w64 @ S
    var = np.maximum((wS * w64).sum(axis=1) - mean * mean, 0.0)
    inv1 = 1.0 / np.sqrt(var + BN_EPS)
    a = gamma1.data * inv1  # (F,)
    aj = np.repeat(a, D)  # a_f for each channel j of filter f
    q = _tile_correlate(_stem_projection(x.data, dw, K), w).reshape(F * D, B, -1)[..., :T]
    q_mean, q_var, inv2, u, affine = _bn_train(q, gamma2.data, beta2.data, aj)
    out = elu_pool(u, affine, pool, keep)
    shift = ((beta1.data - a * mean)[:, None] * dw.sum(axis=2)).reshape(-1)  # c_f * s_j
    _update_running(mean1, var1, mean, var, B * C * T)
    _update_running(mean2, var2, aj * q_mean + shift, aj * aj * q_var, B * T)
    r = aj * inv2

    def backward(gout):
        # Per filter, in one reused buffer of rows zero-padded for the flipped
        # taps' correlation: dL/dy, batch norm's sums and dL/dQ in place; then
        # tile products with P's tiles, rebuilt here, whose diagonals are
        # dL/dw (tap k at j = s + K-1-k), and dL/dP by the flipped taps over
        # those tiles. Once u is freed, dL/dP's product with x's padded
        # transpose is dL/ddw.
        nonlocal u
        tiles, at, span = -(-T // _TILE), K - 1 - left, _TILE + K - 1
        band, corr = _banded(w[:, ::-1], _TILE), np.empty((F, span, _TILE), dtype=dtype)
        gsum, psum = np.empty(F * D), np.empty(F * D)
        gp = _stem_projection(x.data, dw, 1).reshape(F, -1, _TILE)  # P's (tiles * _TILE)-sample rows
        gq_pad = np.zeros((D * B, tiles * _TILE + K - 1), dtype=dtype)
        gq = gq_pad[:, at : at + T].reshape(D, B, T)  # a view
        gcols = _window_view(gq_pad, tiles, span, step=_TILE)
        for f in range(F):
            j = slice(f * D, f * D + D)
            gq[:, :, (T // pool) * pool :] = 0.0  # written by the last filter's passes
            _tail_backward(gout, keep, u, affine, pool, gq, j)
            gsum[j], psum[j] = _bn_grad_sums(gq, u[j])
            c0, c1, c2 = _bn_grad_coefs(gsum[j], psum[j], r[j], gamma2.data[j], B * T, dtype)
            gq *= c0
            gq -= u[j] * c1
            gq -= c2
            cols = gcols.reshape(-1, span)
            np.matmul(cols.T, gp[f], out=corr[f])
            np.matmul(cols, band[f], out=gp[f])
        del u, gq_pad, gq, gcols, cols  # the walk runs this closure once
        _bn_affine_grads([gamma2], [beta2], r, gsum, psum)
        g_a = (gamma2.data * BN_EPS * inv2**3 * psum).reshape(F, D).sum(axis=1)  # dL/da_f
        for t, g in ((gamma1, g_a * inv1), (beta1, np.zeros(F))):
            if t.requires_grad:
                _accumulate(t, g.astype(t.dtype))
        if depthwise.requires_grad:
            xt = _zero_pad(x.data[:, 0].transpose(0, 2, 1), ((0, 0), (0, tiles * _TILE - T), (0, 0)))
            gd = gp.reshape(F * D, -1) @ xt.reshape(-1, C)
            _accumulate(depthwise, gd.reshape(F * D, 1, C, 1).astype(depthwise.dtype))
        if weight.requires_grad:
            i = np.arange(_TILE)
            taps = corr[:, i + np.arange(K)[::-1, None], i].sum(axis=-1)
            g_var = -0.5 * g_a * a * inv1 * inv1  # dL/dvar_f
            gw = taps + 2.0 * g_var[:, None] * (wS - mean[:, None] * m)
            # gw's component along w_f is O(BN_EPS), a difference of O(1)
            # terms above; set it from the direct term instead:
            # w_f . dL/dw_f = a_f dL/da_f BN_EPS / (var_f + BN_EPS).
            ww = (w64 * w64).sum(axis=1)
            along = g_a * a * BN_EPS / (var + BN_EPS) - (gw * w64).sum(axis=1)
            gw += np.divide(along, ww, out=np.zeros(F), where=ww > 0)[:, None] * w64
            _accumulate(weight, gw.reshape(F, 1, 1, K).astype(weight.dtype))

    return _make(out, (x, weight, depthwise, gamma1, beta1, gamma2, beta2), backward)


def _elu_parts(y, out=None):
    """(neg, ELU(y)) with neg = expm1(min(y, 0)), without a branch on y's sign.

    neg is exactly 0 where y > 0, so neg + max(y, 0) is the ELU (equal to
    where(y > 0, y, neg) but for the sign of a zero at y = -0.0) and
    neg + 1 its derivative. np.where under a sign-random mask costs about
    as much as the rest of the op from branch misprediction. `out` may be
    y itself.
    """
    neg = np.expm1(np.minimum(y, 0.0))
    pos = np.maximum(y, 0.0, out=out)
    pos += neg
    return neg, pos


def elu(x):
    """x for x > 0, exp(x) - 1 otherwise."""
    x = _wrap(x)
    neg, out = _elu_parts(x.data)

    def backward(g):
        if x.requires_grad:
            _accumulate(x, g * (neg + 1.0))

    return _make(out, (x,), backward)


class DropoutMask(NamedTuple):
    """A dropout draw: the bool mask of kept entries and their scale 1/(1-p),
    a scalar of the masked map's dtype. An op multiplies by the mask, then
    by the scale: x * 1 * s and x * 0 * s are the bits of x times the
    float mask of 0 and s, signed zeros, infinities and NaNs included, and
    the mask takes a quarter of that float32 mask's bytes."""

    mask: np.ndarray
    scale: np.floating


def dropout_mask(shape, p, rng, dtype):
    """A DropoutMask drawn as rng.random(shape) >= p, its scale in dtype;
    None (and no draw) at p = 0."""
    if not 0.0 <= p < 1.0:
        raise ConfigurationError(f"dropout probability must lie in [0, 1), got {p}")
    if p == 0.0:
        return None
    if rng is None:
        raise ConfigurationError("dropout in training mode needs an explicit rng stream")
    return DropoutMask(rng.random(shape) >= p, np.asarray(1.0, dtype=dtype) / np.asarray(1.0 - p, dtype=dtype))


def dropout(x, p, training, rng=None):
    """Zero entries with probability p and rescale survivors by 1/(1-p)."""
    x = _wrap(x)
    keep = dropout_mask(x.shape, p, rng, x.dtype) if training else None
    return x if keep is None else x * keep.mask * keep.scale


def _mean_pool(y, pool):
    """Mean of the raw array y over windows of `pool` samples along its last
    axis at stride pool, the last T % pool samples dropped: one matmul with
    a vector of 1/pool, about a tenth of the time of summing a reshape at
    the paper's stem shape. At pool 1 (the TCN) it is y itself, where the
    matmul would run one length-1 product per row."""
    if pool == 1:
        return y
    wo = y.shape[-1] // pool
    return y[..., : wo * pool].reshape(y.shape[:-1] + (wo, pool)) @ np.full(pool, 1.0 / pool, dtype=y.dtype)


def _tail_blocks(u, affine, pool):
    """(k, y) per block k of about 256 KB of channels of the (C, B, T) map
    u, y a new array of its affine map at the samples pooled: the passes
    run in cache, 4.2 ms per stem backward at 32 trials against 5.0 ms
    unblocked (one BLAS thread, 2-core x86). A u strided in time is one
    block, whose pool sums keep the whole map's matmul path."""
    n, step = u.shape[-1] // pool * pool, max(1, (1 << 18) // (u[0].size * u.itemsize))
    step = step if u.strides[-1] == u.itemsize else len(u)
    for c in range(0, len(u), step):
        k = slice(c, c + step)
        yield k, u[k, :, :n] * affine[0][k] + affine[1][k]


def elu_pool(u, affine, pool, keep=None):
    """Every tail's forward, by _tail_blocks: y = u * affine[0] + affine[1]
    on the raw (C, B, T) array u -> ELU -> stride-pool mean pool (the last
    T % pool samples dropped) -> dropout by keep, a dropout_mask of the
    C-contiguous (B, C, T // pool) output or None. affine is two (C, 1, 1)
    vectors of u's dtype: _bn_train's in training, on its centred map;
    bn_affine's (scale, shift) in eval, on a conv's output."""
    out = np.empty((u.shape[1], u.shape[0], u.shape[2] // pool), dtype=u.dtype)
    if keep is not None and keep.mask.shape != out.shape:
        raise DimensionError(f"dropout mask of shape {keep.mask.shape} does not match the tail's output")
    for k, y in _tail_blocks(u, affine, pool):
        _elu_parts(y, out=y)
        out[:, k] = _mean_pool(y, pool).transpose(1, 0, 2)
    if keep is not None:
        np.multiply(out, keep.mask, out=out)
        out *= keep.scale
    return out


def _tail_backward(gout, keep, u, affine, pool, gy, chans=slice(None)):
    """elu_pool's backward from gout (B, C, T // pool) at the channels chans:
    dL/dy into the pooled samples gy[..., :(T // pool) * pool] of the
    (len(chans), B, T) array gy (the caller zeroes the rest), the ELU's
    slope rebuilt from u bit for bit."""
    g = gout[:, chans]
    if keep is not None:
        g = np.multiply(g, keep.mask[:, chans])
        g *= keep.scale
    g = g.transpose(1, 0, 2) / np.array(pool, dtype=gout.dtype)
    u, affine = u[chans], [a[chans] for a in affine]
    for k, slope in _tail_blocks(u, affine, pool):
        np.expm1(np.minimum(slope, 0.0, out=slope), out=slope)
        slope += 1.0
        np.multiply(slope, np.repeat(g[k], pool, axis=-1) if pool > 1 else g[k], out=gy[k, :, : slope.shape[-1]])


def bn_elu_pool(x, gamma, beta, running_mean, running_var, pool, keep=None):
    """A training-mode tail on a (B, C, T) map as one op: batch norm -> ELU
    -> mean pool over windows of `pool` samples at stride pool -> dropout by
    the mask keep (or None), returning (B, C, T // pool). It runs after each
    branch's spa_conv and, at pool 1 over the four branches' channels (gamma,
    beta and the buffers as _parts lists), after each TCN conv. Eval mode
    runs elu_pool with bn_affine's map.

    Batch norm is _bn_train on x's (C, B, T) view, then elu_pool; the last
    T % pool samples are dropped, as a stride-pool mean pool drops them.
    The tape keeps the centred map and the dropout mask; _tail_backward
    rebuilds the slope.
    """
    x, gammas, betas = _wrap(x), [_wrap(t) for t in _parts(gamma)], [_wrap(t) for t in _parts(beta)]
    g, b = (np.concatenate([t.data for t in ts]) for ts in (gammas, betas))
    if x.ndim != 3:
        raise DimensionError(f"bn_elu_pool expects a (B, C, T) input, got {x.shape}")
    B, C, T = x.shape
    if g.shape != (C,) or b.shape != (C,):
        raise DimensionError("gamma/beta must have one entry per channel")
    if pool < 1:
        raise ConfigurationError("pooling kernel extents must be positive")
    if T < pool:
        raise DimensionError("pooling window larger than padded input")
    mean, var, inv, u, affine = _bn_train(x.data.transpose(1, 0, 2), g, b)
    out = elu_pool(u, affine, pool, keep)
    stats = (mean.reshape(len(gammas), -1), var.reshape(len(gammas), -1))  # a row per group
    for rm, rv, m, v in zip(_parts(running_mean), _parts(running_var), *stats):
        _update_running(rm, rv, m, v, B * T)

    def backward(gout):
        gy = np.zeros_like(u)
        _tail_backward(gout, keep, u, affine, pool, gy)
        c0, c1, c2 = _bn_train_grads(gy, u, inv, gammas, betas, g)
        if x.requires_grad:
            _accumulate(x, (c0 * gy - c1 * u - c2).transpose(1, 0, 2))

    return _make(out, (x, *gammas, *betas), backward)


# -- eval-mode inference on raw arrays -------------------------------------

# Trials per block of stem_elu_pool. A block's temporaries (the padded
# projection, its tile windows, the correlation and the ELU's negative
# part) then stay a few MB and are reused from the heap instead of being
# faulted in fresh at every batch. Eval runs up to one trial block per core
# (model.fork_join), each with its own stem blocks, so 8 keeps two blocks at
# once within what one held at 16. Measured on a 2-core x86 host, one BLAS
# thread, float32, default config, B = 64 eval forward, a fresh process per
# size, 1-2 minor faults per batch at every size: serially, blocks of 4, 8,
# 16 and 32 tie within the host's drift (98-118 ms), and 32 peaks at 57.5
# MB RSS against 52 MB; on two workers, 4 and 8 ran 63-68 ms, 16 and 32
# 68-74 ms, and the peak RSS read 54.3-55.2 MB at 4 and 8, 60.8-60.9 MB at
# 16 and 64.5-67.1 MB at 32. The benchmark's paper_eval peaked at 63.8-65.6
# MB at 8 against 70.2-71.7 MB at 16 (63.1 MB serially at 16). The B = 64
# logits at 8 are byte-equal to those at 16.
STEM_BLOCK = 8


def bn_affine(gamma, beta, running_mean, running_var):
    """Eval-mode batch norm as the per-channel map h -> scale * h + shift:
    (scale, shift) in float64, from raw arrays."""
    scale = gamma / np.sqrt(running_var.astype(np.float64) + BN_EPS)
    return scale, beta - scale * running_mean


def stem_elu_pool(x, weight, depthwise, temporal_bn, depthwise_bn, pool):
    """A branch's eval-mode stem and first tail on the raw (B, 1, C, T) array
    x: temporal conv -> batch norm -> depthwise channel conv -> batch norm ->
    ELU -> (1, pool) mean pool, returned as a C-contiguous (B, F*D, T // pool)
    array.

    weight: (F, 1, 1, K); depthwise: (F*D, 1, C, 1); temporal_bn (per
    filter) and depthwise_bn (per output channel) are bn_affine's (scale,
    shift) pairs. Channel j of filter f is b_j * (a_f * Q_j + c_f * s_j) +
    e_j, with Q_j the training stem's correlation of w_f with P_j = dw_j . x,
    (a, c) and (b, e) the two affine maps and s_j the sum of depthwise row
    j: elu_pool takes Q with the map (b_j * a_f, b_j * c_f * s_j + e_j). The
    trials run in blocks of STEM_BLOCK.
    """
    B, _, C, T = x.shape
    F, K = weight.shape[0], weight.shape[-1]
    D = depthwise.shape[0] // F
    dw = depthwise.reshape(F, D, C)
    (a, c), (b, e) = temporal_bn, depthwise_bn
    b = b.reshape(F, D)
    maps = (b * a[:, None], b * (c[:, None] * dw.sum(axis=2, dtype=np.float64)) + e.reshape(F, D))
    affine = [m.astype(x.dtype).reshape(F * D, 1, 1) for m in maps]
    w = weight.reshape(F, K)
    out = np.empty((B, F * D, T // pool), dtype=x.dtype)
    for start in range(0, B, STEM_BLOCK):
        block = x[start : start + STEM_BLOCK]
        q = _tile_correlate(_stem_projection(block, dw, K), w).reshape(F * D, len(block), -1)
        out[start : start + STEM_BLOCK] = elu_pool(q[..., :T], affine, pool)
    return out


def softmax(x, axis=-1):
    """Numerically stable softmax along one axis; -inf scores map to 0."""
    x = _wrap(x)
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if x.requires_grad:
            dot = (g * out).sum(axis=axis, keepdims=True)
            _accumulate(x, out * (g - dot))

    return _make(out, (x,), backward)


def masked_fill(x, keep_mask, value):
    """Replace entries where keep_mask is False by a constant.

    The mask is data, not a differentiable input: gradients flow only
    through kept entries.
    """
    x = _wrap(x)
    keep_mask = np.asarray(keep_mask, dtype=bool)
    if keep_mask.shape != x.shape:
        raise DimensionError("mask shape must match input shape")
    out = np.where(keep_mask, x.data, np.asarray(value, dtype=x.dtype))

    def backward(g):
        if x.requires_grad:
            _accumulate(x, np.where(keep_mask, g, np.zeros((), dtype=x.dtype)))

    return _make(out, (x,), backward)


def cross_entropy(logits, targets):
    """Mean negative log-likelihood of integer class targets.

    logits: (B, L); targets: (B,) ints in [0, L).
    """
    logits = _wrap(logits)
    if logits.ndim != 2:
        raise DimensionError("cross_entropy expects (B, L) logits")
    t = np.asarray(targets)
    if t.ndim != 1 or t.shape[0] != logits.shape[0]:
        raise DimensionError("targets must be a vector matching the batch size")
    B, L = logits.shape
    if t.size and (t.min() < 0 or t.max() >= L):
        raise DataError(f"target out of range [0, {L})")
    t = t.astype(np.int64)

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    out = np.asarray(-logp[np.arange(B), t].mean(), dtype=logits.dtype)

    def backward(g):
        if logits.requires_grad:
            grad = np.exp(logp)
            grad[np.arange(B), t] -= 1.0
            _accumulate(logits, grad * (g / B))

    return _make(out, (logits,), backward)


def _window_view(a, count, taps, step=1, dilation=1, start=0):
    """Read-only view (..., count, taps) of windows along a's last axis.

    Entry [..., i, k] is a[..., start + i * step + k * dilation]. Shape,
    strides and values are those of sliding_window_view's windows of span
    (taps - 1) * dilation + 1 from start on, every step-th window and
    every dilation-th tap kept, but one as_strided call builds the view
    without sliding_window_view's argument normalisation.
    """
    if start < 0 or start + (count - 1) * step + (taps - 1) * dilation >= a.shape[-1]:
        raise DimensionError(f"{count} windows of {taps} taps from {start} overrun an axis of {a.shape[-1]}")
    s = a.strides[-1]
    return as_strided(
        a[..., start:], a.shape[:-1] + (count, taps), a.strides[:-1] + (s * step, s * dilation), writeable=False
    )


def same_pad(kernel):
    """(left, right) zero padding that keeps a stride-1 K-tap correlation's length."""
    return (kernel - 1) // 2, kernel // 2


def _pad_time(a, pad):
    """The raw (B, C, T) array a zero-padded along time by pad; a at (0, 0)."""
    return _zero_pad(a, ((0, 0), (0, 0), pad)) if pad[0] or pad[1] else a


# conv1d_dilated's FFT path takes undilated calls padded no more on the left
# than on the right, of at least FFT_MIN_TAPS taps with B * T_out * K >=
# FFT_MIN_WORK. Below that the
# transforms' fixed cost outweighs the window matmul. Measured on a 2-core
# x86 host, one BLAS thread, float32, 32 -> 32 channels, T_out = 125
# (spa_conv at the paper config is K = 32), direct -> FFT, forward +
# backward: the two tie near B * T_out * K = 20,000 at K = 16 (B = 10),
# K = 32 (B = 5, 1.8 -> 1.6 ms) and K = 64 (B = 3); at K = 32, B = 16 runs
# 5.9 -> 2.9 ms, while B = 1 runs its forward in 0.13 ms direct against
# 0.40 ms by FFT.
FFT_MIN_TAPS = 16
FFT_MIN_WORK = 20000


def _smooth_length(n):
    """The smallest 2^a 3^b 5^c >= n, a length numpy's FFT transforms fast."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _conv1d_fft(x, weight, to, pad):
    """conv1d_dilated at dilation 1 by FFT correlation of x padded by pad.

    At n >= the padded length L nothing wraps around: each output,
    input-gradient (of the padded x, sliced back onto x) and
    weight-gradient sample is an exact circular correlation or convolution
    of length n. Every pass is a transform -> one matmul per frequency ->
    irfft: the forward takes X @ conj(W) over Cin, the weight gradient
    conj(G) @ X over the batch (taps 0..K-1 of the result) and the input
    gradient G @ W over Cout. X and G are rffts; W, the spectrum of only K
    taps, is one matmul of the weight with the DFT's cos/sin table, a
    quarter of rfft(w, n)'s time in a spa_conv training step. Real inputs
    of a dtype give that dtype's complex spectra and the same real dtype
    back; numpy 2.4 runs a float32 rfft at norm=None on its float64 loop
    (bit-equal to the float64 cast's rfft, cast back; at (32, 32, 156) 1.4
    ms, 2.6 MB of temporaries and 600 page faults per transform on a 2-core
    x86, where norm="forward" runs float32 in 0.5 ms and moves bits), irfft
    in float32. The tape keeps no spectrum: the backward recomputes X and W.
    """
    B, cin, T = x.shape
    cout, _, K = weight.shape
    left, L = pad[0], pad[0] + T + pad[1]
    n = _smooth_length(L)

    def spectrum(a):  # (rows, cols, length) -> (F, rows, cols)
        return np.fft.rfft(a, n).transpose(2, 0, 1)

    def tap_spectrum(w):  # spectrum(w) for the (Cout, Cin, K) weight
        angle = (-2.0 * np.pi / n) * (np.outer(np.arange(K), np.arange(n // 2 + 1)) % n)
        table = np.stack([np.cos(angle), np.sin(angle)], axis=-1).reshape(K, -1).astype(w.dtype)
        s = (w.reshape(-1, K) @ table).view(np.result_type(w.dtype, np.complex64))
        return s.reshape(cout, cin, -1).transpose(2, 0, 1)

    # (F, rows, cols) -> a C-contiguous copy (rows, cols, length): the
    # output's gradient then comes back in the layout rfft reads fastest.
    def signal(s, length):
        return np.fft.irfft(s, n, axis=0)[:length].transpose(1, 2, 0).copy()

    out = signal(spectrum(_pad_time(x.data, pad)) @ tap_spectrum(weight.data).transpose(0, 2, 1).conj(), to)

    def backward(gout):
        g = spectrum(gout)  # (F, B, Cout)
        if weight.requires_grad:
            _accumulate(weight, signal(g.transpose(0, 2, 1).conj() @ spectrum(_pad_time(x.data, pad)), K))
        if x.requires_grad:
            _accumulate(x, signal(g @ tap_spectrum(weight.data), L)[..., left : left + T])

    return _make(out, (x, weight), backward)


# _windows copies kernels under TAP_GATHER taps one tap at a time: 733 -> 245
# us for the TCN's (32, 4 x 32, 17, K = 4), 68 -> 379 us for spa_conv's K = 32
# at B = 1, a tie at K = 8 (2-core x86, float32).
TAP_GATHER = 8


def _windows(a, groups, count, taps, dilation=1, start=0, tap_major=False):
    """C-contiguous (groups, B * count, C * taps) window matrices of the raw
    (B, groups * C, T) array a, [g, (b, i), (c, k)] = a[b, g * C + c, start +
    i + k * dilation]; tap_major, (groups, C * taps, B * count)."""
    win = _window_view(a, count, taps, dilation=dilation, start=start).reshape(len(a), groups, -1, count, taps)
    win = win.transpose((1, 2, 4, 0, 3) if tap_major else (1, 0, 3, 2, 4))
    cols, at = np.empty(win.shape, dtype=a.dtype), (slice(None),) * (2 if tap_major else 4)
    for cut in [at + (k,) for k in range(taps)] if taps < TAP_GATHER else [...]:  # tap by tap, or at once
        cols[cut] = win[cut]
    return cols.reshape(groups, win.shape[1] * win.shape[2], -1)


def conv1d_dilated(x, weight, dilation=1, pad=(0, 0)):
    """Bias-free 1-d dilated cross-correlation over (B, C, T), x zero-padded
    by the (left, right) pair pad: the network's one time conv.

    x: (B, G Cin, T); weight: (Cout, Cin, K), or a list of G such weights,
    the groups (else G = 1), group g mapping x's channels [g Cin, (g + 1)
    Cin) to the output's [g Cout, (g + 1) Cout). Output t reads input
    t - left + k * dilation for each tap k; its length is
    left + T + right - (K - 1) * dilation. spa_conv pads same_pad(K). With
    pad = ((K-1)*dilation, 0) (the TCN, a group per branch) the op is causal
    and length-preserving: output t sees inputs t, t-d, ..., t-(K-1)*d only.

    Each shape class has one path. Ungrouped, undilated calls with left <=
    right, at least FFT_MIN_TAPS taps and B * T_out * K >= FFT_MIN_WORK
    (spa_conv at training and eval batch sizes) run by FFT correlation,
    _conv1d_fft. Every other call runs direct: the TCN's causal convs, whose
    exact causality an FFT would blur with rounding noise; small configs'
    short kernels; and B = 1 decoding, where the transforms cost three times
    the window matmul. There each pass is one matmul per group of a window
    matrix (_windows) and the group's weight: the forward and the weight
    gradient over the windows of the padded input (padded again in the
    backward, not kept), the input gradient over those of the output
    gradient padded by the span less one on both sides, by the kernel
    flipped along its taps, at the T positions that map back onto x. Both
    are written time-major, (B, T, C) in memory, so each group's channels
    have an ungrouped call's strides.
    """
    x, weights = _wrap(x), [_wrap(w) for w in _parts(weight)]
    if x.ndim != 3 or {w.ndim for w in weights} != {3}:
        raise DimensionError("conv1d_dilated expects (B, C, T) input and (Cout, Cin, K) weight")
    G, (B, cin, T), (cout, cing, K) = len(weights), x.shape, weights[0].shape
    if G * cing != cin or any(w.shape != weights[0].shape for w in weights):
        raise DimensionError(f"weight expects {G * cing} input channels, input has {cin}, or groups differ in shape")
    span = (K - 1) * dilation + 1
    if T + sum(pad) < span:
        raise DimensionError("dilated kernel span exceeds padded input")
    to = T + sum(pad) - span + 1
    if G == 1 and dilation == 1 and pad[0] <= pad[1] and K >= FFT_MIN_TAPS and B * to * K >= FFT_MIN_WORK:
        return _conv1d_fft(x, weights[0], to, pad)

    def grouped(a, w, rows, cols):  # a @ w per group into a time-major (B, rows, G * cols) array
        out = np.empty((B, rows, G * cols), dtype=np.result_type(a, w))
        np.matmul(a, w, out=out.reshape(B * rows, G, cols).transpose(1, 0, 2))
        return out.transpose(0, 2, 1)

    taps = np.array([w.data.reshape(cout, cing * K) for w in weights]).transpose(0, 2, 1)
    out = grouped(_windows(_pad_time(x.data, pad), G, to, K, dilation), taps, to, cout)

    def backward(gout):
        if any(w.requires_grad for w in weights):
            g = gout.transpose(0, 2, 1).reshape(B * to, G, cout).transpose(1, 0, 2)
            gw = _windows(_pad_time(x.data, pad), G, to, K, dilation, tap_major=True) @ g
            for t, grad in zip(weights, gw):
                if t.requires_grad:
                    _accumulate(t, grad.T.reshape(cout, cing, K))
        if x.requires_grad:
            gp = _zero_pad(gout, ((0, 0), (0, 0), (span - 1, span - 1)))
            flipped = np.array([w.data[:, :, ::-1].transpose(0, 2, 1).reshape(cout * K, cing) for w in weights])
            _accumulate(x, grouped(_windows(gp, G, T, K, dilation, start=pad[0]), flipped, T, cing))

    return _make(out, (x, *weights), backward)


def conv2d(x, weight):
    """Stride-1 (1, K) time conv over (B, Cin, H, T), run by conv1d_dilated.

    weight: (Cout, Cin, 1, K); the caller pads. Output
    (B, Cout, H, T - K + 1). Built from autodiff reshapes around
    conv1d_dilated, so it has no backward of its own: each of the H rows
    runs as its own batch entry.
    """
    x, weight = _wrap(x), _wrap(weight)
    if x.ndim != 4 or weight.ndim != 4:
        raise DimensionError(f"conv2d expects 4-d input and weight, got {x.shape} and {weight.shape}")
    B, cin, H, T = x.shape
    cout, cinw, kh, K = weight.shape
    if kh != 1:
        raise DimensionError(f"conv2d runs (1, K) time kernels, got a kernel of height {kh}")
    w3 = weight.reshape((cout, cinw, K))
    out = conv1d_dilated(x.transpose((0, 2, 1, 3)).reshape((B * H, cin, T)), w3)
    return out.reshape((B, H, cout, out.shape[-1])).transpose((0, 2, 1, 3))


def avg_pool2d(x, kernel, stride=None, padding=0):
    """Mean pool of a (B, C, 1, T) map over (1, kernel) windows along time.

    stride is 1 or kernel (the default); padding zero-pads both ends of the
    time axis, and the padded zeros count toward the divisor. The forward
    sums a window view; the backward adds the output gradient back one tap
    at a time.
    """
    x = _wrap(x)
    if x.ndim != 4 or x.shape[2] != 1:
        raise DimensionError(f"avg_pool2d pools a (B, C, 1, T) map along time, got {x.shape}")
    stride = kernel if stride is None else stride
    if kernel < 1 or stride not in (1, kernel):
        raise ConfigurationError(f"pooling kernel {kernel} must be positive, stride 1 or the kernel, got {stride}")
    if not 0 <= padding < kernel:
        raise ConfigurationError("pooling padding must be smaller than the kernel")
    T = x.shape[-1]
    if T + 2 * padding < kernel:
        raise DimensionError("pooling window larger than padded input")
    wo = (T + 2 * padding - kernel) // stride + 1

    xp = x.data if padding == 0 else _zero_pad(x.data, ((0, 0), (0, 0), (0, 0), (padding, padding)))
    div = np.array(kernel, dtype=x.dtype)
    out = _window_view(xp, wo, kernel, step=stride).sum(axis=-1) / div

    def backward(gout):
        if not x.requires_grad:
            return
        gdiv = gout / div
        gxp = np.zeros_like(xp)
        for v in range(kernel):
            gxp[..., v : v + stride * wo : stride] += gdiv
        _accumulate(x, gxp[..., padding : padding + T])

    return _make(out, (x,), backward)
