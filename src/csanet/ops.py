"""Neural-network primitives on Tensors, with hand-derived backward passes.

Everything here is deterministic given its inputs (dropout takes an
explicit Generator). The network convolves only along time, at stride 1,
and every map from the stem to fusion is (B, C, T); pooling carries the
stride. A training forward meets, per branch:
- stem_bn_elu_pool: the stem (temporal conv -> batch norm -> depthwise
  channel conv) and its tail (batch norm -> ELU -> pool -> dropout) as one
  op: channels projected first (_stem_projection), time correlated after
  by banded tile matmuls (_tile_correlate), the temporal batch statistics
  read off the forward's one lag_prefixes table;
- conv1d_dilated: the one time-axis conv (spa_conv and the TCN's causal
  convs), by FFT correlation for long unpadded kernels over a batch
  (_conv1d_fft) and by window matmuls otherwise; FFT_MIN_TAPS and
  FFT_MIN_WORK draw the line;
- bn_elu_pool: the tail after spa_conv as one op, bitwise equal to batch
  norm -> ELU -> pool -> dropout composed.
batch_norm, elu and dropout remain for the TCN; elu, bn_elu_pool,
stem_bn_elu_pool and elu_pool share one branch-free ELU kernel (_elu_parts).

Eval mode has no tape and no batch statistics, so each batch norm is a
fixed affine map (bn_affine) folded into the linear map before it:
stem_elu_pool runs a branch's stem and first tail over blocks of
STEM_BLOCK trials, and elu_pool the ELU and pool after spa_conv. These
folds and stem_bn_elu_pool are exact in real arithmetic, not in floating
point, and held to the numerics contract (tests/test_numerics_contract.py).

Batch norm's constants are BN_MOMENTUM and BN_EPS; batch_norm and
bn_elu_pool share the kernels _bn_normalise (statistics, buffer update,
eval-mode buffers, the B >= 2 check) and _bn_backward.

conv2d, the (1, K) time conv over (B, Cin, H, T) built from reshapes
around conv1d_dilated, runs only the PSD report's temporal conv over the
C rows of a trial. avg_pool2d, the (1, k) time pool, runs in no model
path: it is the reference that attention.multiscale_pool's band matrix is
tested against. Both stay as gradient-check scopes and as ops the
benchmark names.

Two raw-array helpers carry all padding and windowing, since at the small
shapes of a gradient check each op's bookkeeping outweighs its
arithmetic: autodiff._zero_pad pads by one np.zeros and a slice
assignment in np.pad's memory order, and _window_view builds strided
window views with one as_strided call.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .autodiff import Tensor, _accumulate, _make, _wrap, _zero_pad, matmul, transpose, pad
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


def _bn_layout(a):
    """Reduction axes, per-channel broadcast shape and sample count of
    batch norm over axis 1 of the array a (B, C, ...)."""
    axes = (0,) + tuple(range(2, a.ndim))
    return axes, (1, a.shape[1]) + (1,) * (a.ndim - 2), math.prod(a.shape[i] for i in axes)


def _bn_normalise(x, running_mean, running_var, training):
    """(xhat, inv): batch norm's normalised map of the raw array x over axis
    1, and 1 / sqrt(var + BN_EPS) in the per-channel broadcast shape.

    Training mode (B >= 2) takes the biased batch statistics in np.var's
    own steps and updates the running buffers; eval mode reads them.
    """
    axes, shape, n = _bn_layout(x)
    if training:
        if x.shape[0] < 2:
            raise ConfigurationError("batch_norm in training mode needs a batch of at least 2")
        mean = x.mean(axis=axes)
        xc = x - mean.reshape(shape)
        var = np.square(xc).sum(axis=axes) / n
        _update_running(running_mean, running_var, mean, var, n)
    else:
        xc = x - running_mean.astype(x.dtype).reshape(shape)
        var = running_var.astype(x.dtype)
    inv = (1.0 / np.sqrt(var + BN_EPS)).astype(x.dtype).reshape(shape)
    return np.multiply(xc, inv, out=xc), inv


def _bn_backward(gy, xhat, inv, x, gamma, beta):
    """Training-mode batch norm's backward from gy, the gradient at its
    output gamma * xhat + beta, into the gradients of x, gamma and beta.

    x's gradient is gamma * inv * (gy - mean(gy) - xhat * mean(gy * xhat)),
    whose first step runs in place in gy. The other steps take the memory
    layout numpy gives them, so each sum here and downstream runs in that
    order.
    """
    axes, shape, n = _bn_layout(gy)
    prod = gy * xhat
    gsum, psum = gy.sum(axis=axes), prod.sum(axis=axes)
    if gamma.requires_grad:
        _accumulate(gamma, psum)
    if beta.requires_grad:
        _accumulate(beta, gsum)
    if not x.requires_grad:
        return
    gy -= (gsum / n).reshape(shape)
    gx = np.subtract(gy, np.multiply(xhat, (psum / n).reshape(shape), out=prod), out=prod)
    gx *= gamma.data.reshape(shape) * inv
    _accumulate(x, gx)


def batch_norm(x, gamma, beta, running_mean, running_var, training):
    """Per-channel normalization over axis 1 (the TCN's batch norm), by
    _bn_normalise and _bn_backward. Eval mode, which nothing
    differentiates, returns its output with no tape node."""
    x, gamma, beta = _wrap(x), _wrap(gamma), _wrap(beta)
    if x.ndim < 2:
        raise DimensionError("batch_norm expects at least a 2-d input (B, C, ...)")
    C = x.shape[1]
    if gamma.shape != (C,) or beta.shape != (C,):
        raise DimensionError("gamma/beta must have one entry per channel")
    xhat, inv = _bn_normalise(x.data, running_mean, running_var, training)
    shape = inv.shape
    out = gamma.data.reshape(shape) * xhat + beta.data.reshape(shape)
    if not training:
        return Tensor(out)

    def backward(gout):
        # Gradient buffers are never written in place: the kernel gets a
        # copy, in gout's memory order so its sums keep their order.
        _bn_backward(gout.copy(order="K"), xhat, inv, x, gamma, beta)

    return _make(out, (x, gamma, beta), backward)


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
    T = sums.size - 1
    start = np.arange(K) - left  # where window entry k sits relative to t
    mean = (sums[np.clip(start + T, 0, T)] - sums[np.clip(start, 0, T)]) / n
    first = np.minimum.outer(start, start)
    lag = np.abs(start[:, None] - start[None, :])
    second = (prods[lag, np.clip(first + T, 0, T)] - prods[lag, np.clip(first, 0, T)]) / n
    return mean, second


def _stem_projection(x, rows, K):
    """P[f, d, b] = rows[f, d] . x[b] for the raw (B, 1, C, T) array x, as
    (F, D*B, tiles * _TILE + K - 1) rows holding P at [left, left + T) and
    zeros around it (same_pad_time's left pad, whole tiles on the right)."""
    B, _, C, T = x.shape
    F, D, _ = rows.shape
    left = (K - 1) // 2
    p = np.empty((F, D * B, -(-T // _TILE) * _TILE + K - 1), dtype=x.dtype)
    p[:, :, :left] = 0.0
    p[:, :, left + T :] = 0.0
    at = p.reshape(F * D, B, -1)[:, :, left : left + T].transpose(1, 0, 2)  # (B, F*D, T) view
    np.matmul(rows.reshape(F * D, C), x[:, 0], out=at)
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


def stem_bn_elu_pool(x, weight, depthwise, temporal_bn, depthwise_bn, pool, p_drop, rng=None, lags=None):
    """A branch's training-mode stem and first tail as one op, from the raw
    (B, 1, C, T) trial (B >= 2) to the (B, F*D, T // pool) map: temporal
    conv (weight (F, 1, 1, K), same_pad_time's padding) -> batch norm ->
    depthwise conv ((F*D, 1, C, 1), channel j reading filter j // D) ->
    batch norm -> ELU -> stride-pool mean pool -> dropout(p_drop). The batch
    norms are (gamma, beta, running_mean, running_var); x gets no gradient;
    lags is lag_prefixes(x.data, K' >= K), or built here. Eval mode runs
    stem_elu_pool.

    Channel j is a_f * Q_j + c_f * s_j: filter f's batch-norm map of Q_j,
    its taps correlated with P_j = dw_j . x, and s_j = sum(dw_j). The
    depthwise batch norm cancels c_f * s_j and gives gamma_j * r_j *
    (Q_j - mean Q_j) + beta_j, r_j = a_f / sqrt(a_f^2 var Q_j + BN_EPS), so
    the backward is batch norm's onto Q at scale gamma_j r_j plus dL/da_f =
    sum_j gamma_j BN_EPS (a_f^2 var Q_j + BN_EPS)^(-3/2) sum((Q_j - mean Q_j)
    dL/dy_j), into gamma_f and w_f through var_f (window moments off the
    lag table); beta_f's gradient is exactly 0. Maps stay (F, D, B, T) with
    float64 batch sums; the dropout mask is drawn first, as dropout draws
    it. The tape keeps P, the centred Q and the ELU's slope.
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
    wo = T // pool
    dtype = x.dtype
    keep = _dropout_keep((B, F * D, wo), p_drop, True, rng, dtype)
    if B < 2:
        raise ConfigurationError("batch_norm in training mode needs a batch of at least 2")
    if lags is None:
        lags = lag_prefixes(x.data, K)
    elif lags[2].shape[0] < K or lags[1].shape != (T + 1,):
        raise DimensionError(f"lag table of shape {lags[2].shape} does not cover K={K}, T={T}")
    left, n = (K - 1) // 2, B * T
    w, dw = weight.data.reshape(F, K), depthwise.data.reshape(F, D, C)

    m, S = _window_moments(lags, K, left)
    w64 = w.astype(np.float64)
    mean, wS = w64 @ m, w64 @ S
    var = np.maximum((wS * w64).sum(axis=1) - mean * mean, 0.0)
    _update_running(mean1, var1, mean, var, B * C * T)
    inv1 = 1.0 / np.sqrt(var + BN_EPS)
    a = (gamma1.data * inv1)[:, None]  # (F, 1)
    p = _stem_projection(x.data, dw, K)
    q = _tile_correlate(p, w).reshape(F, D, B, -1)[..., :T]
    ones = np.ones(T, dtype=dtype)  # row sums by matrix-vector products, batch sums in float64
    q_mean = (q @ ones).sum(axis=2, dtype=np.float64) / n  # (F, D)
    u = q - q_mean.astype(dtype)[:, :, None, None]
    q_var = np.vecdot(u, u).sum(axis=2, dtype=np.float64) / n
    shift = (beta1.data - a[:, 0] * mean)[:, None] * dw.sum(axis=2)  # c_f * s_j
    _update_running(mean2, var2, (a * q_mean + shift).reshape(-1), (a * a * q_var).reshape(-1), n)
    inv2 = 1.0 / np.sqrt(a * a * q_var + BN_EPS)
    r = a * inv2  # (F, D)
    scale = gamma2.data.reshape(F, D) * r

    y = np.multiply(u, scale.astype(dtype)[:, :, None, None])
    y += beta2.data.reshape(F, D).astype(dtype)[:, :, None, None]
    slope, y = _elu_parts(y, out=y)
    slope += 1.0  # the ELU's derivative
    pooled = y[..., : wo * pool].reshape(F, D, B, wo, pool) @ np.full(pool, 1.0 / pool, dtype=dtype)
    out = pooled.transpose(2, 0, 1, 3).reshape(B, F * D, wo)
    if keep is not None:
        out *= keep

    def backward(gout):
        # dL/dy goes into rows zero-padded for the flipped taps' correlation.
        tiles, at = -(-T // _TILE), K - 1 - left
        gq_pad = np.empty((F, D * B, tiles * _TILE + K - 1), dtype=dtype)
        gq_pad[:, :, :at] = 0.0
        gq_pad[:, :, at + wo * pool :] = 0.0
        gq = gq_pad[:, :, at : at + T].reshape(F, D, B, T)
        gpool = (gout if keep is None else gout * keep).reshape(B, F, D, wo).transpose(1, 2, 0, 3)
        gpool = np.repeat(gpool / np.array(pool, dtype=dtype), pool, axis=-1)
        np.multiply(slope[..., : wo * pool], gpool, out=gq[..., : wo * pool])
        gsum = (gq @ ones).sum(axis=2, dtype=np.float64)  # dL/dbeta_j
        psum = np.vecdot(gq, u).sum(axis=2, dtype=np.float64)  # dL/dgamma_j is r_j * psum_j
        g_a = (gamma2.data.reshape(F, D) * BN_EPS * inv2**3 * psum).sum(axis=1)  # dL/da_f
        for t, g in ((gamma2, r * psum), (beta2, gsum), (gamma1, g_a * inv1), (beta1, np.zeros(F))):
            if t.requires_grad:
                _accumulate(t, g.reshape(t.shape).astype(t.dtype))
        # Per filter, dL/dQ in place, then dL/dP by the flipped taps and the
        # tile products whose diagonals are dL/dw (tap k at j = s + K-1-k).
        coefs = [(scale * c).astype(dtype)[:, :, None, None] for c in (1.0, r * r * psum / n, gsum / n)]
        span, band = _TILE + K - 1, _banded(w[:, ::-1], _TILE)
        xt = _zero_pad(x.data[:, 0].transpose(0, 2, 1), ((0, 0), (0, tiles * _TILE - T), (0, 0)))
        gp, corr = np.empty((F, D * B * tiles, _TILE), dtype=dtype), np.empty((F, span, _TILE), dtype=dtype)
        gcols = _window_view(gq_pad, tiles, span, step=_TILE)
        p_tiles = _window_view(p, tiles, _TILE, step=_TILE, start=left)
        for f in range(F):
            gq[f] *= coefs[0][f]
            gq[f] -= u[f] * coefs[1][f]
            gq[f] -= coefs[2][f]
            cols = gcols[f].reshape(-1, span)
            np.matmul(cols, band[f], out=gp[f])
            np.matmul(cols.T, p_tiles[f].reshape(-1, _TILE), out=corr[f])
        if depthwise.requires_grad:
            gd = gp.reshape(F * D, -1) @ xt.reshape(-1, C)
            _accumulate(depthwise, gd.reshape(F * D, 1, C, 1).astype(depthwise.dtype))
        if weight.requires_grad:
            i = np.arange(_TILE)
            taps = corr[:, i + np.arange(K)[::-1, None], i].sum(axis=-1)
            g_var = -0.5 * g_a * a[:, 0] * inv1 * inv1  # dL/dvar_f
            gw = taps + 2.0 * g_var[:, None] * (wS - mean[:, None] * m)
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


def _dropout_keep(shape, p, training, rng, dtype):
    """Per-entry dropout scale, 0 or 1/(1-p), drawn as rng.random(shape);
    None (and no draw) when nothing is dropped."""
    if not 0.0 <= p < 1.0:
        raise ConfigurationError(f"dropout probability must lie in [0, 1), got {p}")
    if not training or p == 0.0:
        return None
    if rng is None:
        raise ConfigurationError("dropout in training mode needs an explicit rng stream")
    return (rng.random(shape) >= p).astype(dtype) / np.asarray(1.0 - p, dtype=dtype)


def dropout(x, p, training, rng=None):
    """Zero entries with probability p and rescale survivors by 1/(1-p)."""
    x = _wrap(x)
    keep = _dropout_keep(x.shape, p, training, rng, x.dtype)
    if keep is None:
        return x
    out = x.data * keep

    def backward(g):
        if x.requires_grad:
            _accumulate(x, g * keep)

    return _make(out, (x,), backward)


def bn_elu_pool(x, gamma, beta, running_mean, running_var, pool, p_drop, rng=None):
    """The training-mode tail after a branch's spa_conv, on a (B, C, T) map,
    as one op: batch norm -> ELU -> mean pool over windows of `pool` samples
    at stride pool -> dropout(p_drop), returning (B, C, T // pool). Eval
    mode runs elu_pool instead.

    Bitwise equal to batch_norm, elu, a stride-pool mean pool along time
    and dropout composed, in the output, the gradients of x, gamma and beta
    and the running buffers:
    - batch norm runs the kernels batch_norm runs, _bn_normalise forward
      and _bn_backward backward;
    - the pool sums a reshape of the first (T // pool) * pool samples and
      drops the rest, as the pool does, and its backward is a repeat;
    - the dropout mask is drawn as dropout draws it, before anything else
      is computed, so the rng stream is unchanged;
    - every array takes the composition's memory layout (the full-size
      backward arrays x's own), so each sum here and downstream runs in the
      composition's order; spa_conv hands in a transposed view.
    The tape keeps the normalised map, the ELU's negative part and the
    dropout mask, not the batch-norm, ELU or pool outputs.
    """
    x, gamma, beta = _wrap(x), _wrap(gamma), _wrap(beta)
    if x.ndim != 3:
        raise DimensionError(f"bn_elu_pool expects a (B, C, T) input, got {x.shape}")
    B, C, T = x.shape
    if gamma.shape != (C,) or beta.shape != (C,):
        raise DimensionError("gamma/beta must have one entry per channel")
    if pool < 1:
        raise ConfigurationError("pooling kernel extents must be positive")
    if T < pool:
        raise DimensionError("pooling window larger than padded input")
    wo = T // pool
    keep = _dropout_keep((B, C, wo), p_drop, True, rng, x.dtype)
    xhat, inv = _bn_normalise(x.data, running_mean, running_var, True)
    y = gamma.data.reshape(inv.shape) * xhat
    y += beta.data.reshape(inv.shape)
    neg, y = _elu_parts(y, out=y)
    div = np.array(pool, dtype=y.dtype)
    out = y[..., : wo * pool].reshape(B, C, wo, pool).sum(axis=-1) / div
    if keep is not None:
        out = out * keep  # a new array, C-contiguous like dropout's, not in place

    def backward(gout):
        gpool = gout * keep if keep is not None else gout
        gy = np.zeros_like(x.data)
        gy[..., : wo * pool] += np.repeat(gpool / div, pool, axis=-1)
        gy *= neg + 1.0
        _bn_backward(gy, xhat, inv, x, gamma, beta)

    return _make(out, (x, gamma, beta), backward)


# -- eval-mode inference on raw arrays -------------------------------------

# Trials per block of stem_elu_pool. A block's temporaries (the padded
# projection, its tile windows, the correlation and the ELU's negative
# part) then stay a few MB and are reused from the heap instead of being
# faulted in fresh at every batch. Measured on a 2-core x86 host, one BLAS
# thread, float32, default config, B = 64 eval forward, a fresh process
# per size: blocks of 4, 8 and 16 tie within the host's drift (177-206 ms)
# at 1-2 minor faults per batch; 32 faults about 4,800 pages per batch and
# runs slowest (208-210 ms); 64 (one block) faults as little but peaks at
# 90 MB RSS against 58 MB at 16.
STEM_BLOCK = 16


def bn_affine(gamma, beta, running_mean, running_var):
    """Eval-mode batch norm as the per-channel map h -> scale * h + shift:
    (scale, shift) in float64, from raw arrays."""
    scale = gamma / np.sqrt(running_var.astype(np.float64) + BN_EPS)
    return scale, beta - scale * running_mean


def elu_pool(y, shift, pool):
    """ELU(y + shift) mean-pooled over windows of `pool` samples along the
    last axis at stride pool, the last T % pool samples dropped, for a raw
    array y, which is overwritten; shift broadcasts against y.

    The pool is one matmul with a vector of 1/pool, about a tenth of the
    time of summing a reshape at the paper's stem shape.
    """
    wo = y.shape[-1] // pool
    y = y[..., : wo * pool]
    y += shift
    _elu_parts(y, out=y)
    return y.reshape(y.shape[:-1] + (wo, pool)) @ np.full(pool, 1.0 / pool, dtype=y.dtype)


def stem_elu_pool(x, weight, depthwise, temporal_bn, depthwise_bn, pool):
    """A branch's eval-mode stem and first tail on the raw (B, 1, C, T) array
    x: temporal conv -> batch norm -> depthwise channel conv -> batch norm ->
    ELU -> (1, pool) mean pool, returned as a C-contiguous (B, F*D, T // pool)
    array.

    weight: (F, 1, 1, K); depthwise: (F*D, 1, C, 1); temporal_bn (per
    filter) and depthwise_bn (per output channel) are bn_affine's (scale,
    shift) pairs. Both batch norms fold into the projection: channel j of
    filter f is b_j * (a_f * (w_f correlated with dw_j . x) + c_f * s_j) + e_j
    with (a, c) and (b, e) the two affine maps and s_j the sum of depthwise
    row j, so the projection runs with rows b_j * a_f * dw_j and elu_pool
    adds the constant b_j * c_f * s_j + e_j. The trials run in
    blocks of STEM_BLOCK; only the pooled block is transposed.
    """
    B, _, C, T = x.shape
    F, K = weight.shape[0], weight.shape[-1]
    D = depthwise.shape[0] // F
    dw = depthwise.reshape(F, D, C).astype(np.float64)
    (a, c), (b, e) = temporal_bn, depthwise_bn
    b = b.reshape(F, D)
    rows = ((b * a[:, None])[:, :, None] * dw).astype(x.dtype)
    shift = (b * (c[:, None] * dw.sum(axis=2)) + e.reshape(F, D)).astype(x.dtype)[:, :, None, None]
    w = weight.reshape(F, K)
    out = np.empty((B, F, D, T // pool), dtype=x.dtype)
    for start in range(0, B, STEM_BLOCK):
        block = x[start : start + STEM_BLOCK]
        q = _tile_correlate(_stem_projection(block, rows, K), w).reshape(F, D, len(block), -1)
        out[start : start + STEM_BLOCK] = elu_pool(q[..., :T], shift, pool).transpose(2, 0, 1, 3)
    return out.reshape(B, F * D, T // pool)


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


def _pad_left(a, left):
    """Zero-pad the time axis of (B, C, T) on the left; no copy when left is 0."""
    if left == 0:
        return a
    return _zero_pad(a, ((0, 0), (0, 0), (left, 0)))


# conv1d_dilated's FFT path takes unpadded, undilated calls of at least
# FFT_MIN_TAPS taps with B * T_out * K >= FFT_MIN_WORK. Below that the
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


def _conv1d_fft(x, weight, to):
    """conv1d_dilated at dilation 1 without padding, by FFT correlation.

    At n >= T nothing wraps around: each output, input-gradient and
    weight-gradient sample is an exact circular correlation or
    convolution of length n. Every pass is a transform -> one matmul per
    frequency -> irfft: the forward takes X @ conj(W) over Cin, the weight
    gradient conj(G) @ X over the batch (taps 0..K-1 of the result) and
    the input gradient G @ W over Cout. X and G are rffts; W, the spectrum
    of only K taps, is one matmul of the weight with the DFT's cos/sin
    table, a quarter of rfft(w, n)'s time in a spa_conv training step. Real
    inputs of a dtype give that dtype's complex spectra and the same real
    dtype back. The tape keeps no spectrum: the backward recomputes X and W.
    """
    B, cin, T = x.shape
    cout, _, K = weight.shape
    n = _smooth_length(T)

    def spectrum(a):  # (rows, cols, T) -> (F, rows, cols)
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

    out = signal(spectrum(x.data) @ tap_spectrum(weight.data).transpose(0, 2, 1).conj(), to)

    def backward(gout):
        g = spectrum(gout)  # (F, B, Cout)
        if weight.requires_grad:
            _accumulate(weight, signal(g.transpose(0, 2, 1).conj() @ spectrum(x.data), K))
        if x.requires_grad:
            _accumulate(x, signal(g @ tap_spectrum(weight.data), T))

    return _make(out, (x, weight), backward)


def conv1d_dilated(x, weight, dilation=1, left_pad=0):
    """Bias-free 1-d dilated cross-correlation over (B, C, T) with left-only padding.

    x: (B, Cin, T); weight: (Cout, Cin, K). Output t reads input
    t - left_pad + k * dilation for each tap k; its length is
    T + left_pad - (K - 1) * dilation. With left_pad = (K-1)*dilation the
    op is causal and length-preserving: output t sees inputs t, t-d, ...,
    t-(K-1)*d only.

    Each shape class has one path. Unpadded, undilated calls with at least
    FFT_MIN_TAPS taps and B * T_out * K >= FFT_MIN_WORK (spa_conv at
    training and eval batch sizes) run by FFT correlation, _conv1d_fft.
    Every other call runs direct: the TCN's causal convs, whose exact
    causality an FFT would blur with rounding noise; the short kernels of
    small configs; and B = 1 decoding, where the transforms' fixed cost is
    three times the window matmul. On the direct path each pass is one
    matmul over a window matrix gathered from a strided view: the forward
    and the weight gradient over the windows of the padded input (rebuilt
    in the backward, not kept), the input gradient over the windows of the
    output gradient, zero-padded by the kernel span less one on both
    sides, with the kernel flipped along its taps (the transposed
    correlation), at the T positions that map back onto x.
    """
    x, weight = _wrap(x), _wrap(weight)
    if x.ndim != 3 or weight.ndim != 3:
        raise DimensionError("conv1d_dilated expects (B, C, T) input and (Cout, Cin, K) weight")
    B, cin, T = x.shape
    cout, cinw, K = weight.shape
    if cinw != cin:
        raise DimensionError(f"weight expects {cinw} input channels, input has {cin}")
    span = (K - 1) * dilation + 1
    if T + left_pad < span:
        raise DimensionError("dilated kernel span exceeds padded input")
    to = T + left_pad - span + 1
    if dilation == 1 and left_pad == 0 and K >= FFT_MIN_TAPS and B * to * K >= FFT_MIN_WORK:
        return _conv1d_fft(x, weight, to)

    cols = _window_view(_pad_left(x.data, left_pad), to, K, dilation=dilation).transpose(0, 2, 1, 3)
    out = cols.reshape(B * to, cin * K) @ weight.data.reshape(cout, cin * K).T
    out = out.reshape(B, to, cout).transpose(0, 2, 1)

    def backward(gout):
        if weight.requires_grad:
            # Windows gathered tap-major, (Cin*K, B*To): this matmul ran about
            # twice as fast as against the transpose of the forward's matrix.
            xwin = _window_view(_pad_left(x.data, left_pad), to, K, dilation=dilation)
            g2 = gout.transpose(0, 2, 1).reshape(B * to, cout)
            gw = xwin.transpose(1, 3, 0, 2).reshape(cin * K, B * to) @ g2
            _accumulate(weight, gw.T.reshape(cout, cin, K))
        if x.requires_grad:
            gp = _zero_pad(gout, ((0, 0), (0, 0), (span - 1, span - 1)))
            flipped = weight.data[:, :, ::-1].transpose(0, 2, 1).reshape(cout * K, cin)
            gwin = _window_view(gp, T, K, dilation=dilation, start=left_pad)
            gx = gwin.transpose(0, 2, 1, 3).reshape(B * T, cout * K) @ flipped
            _accumulate(x, gx.reshape(B, T, cin).transpose(0, 2, 1))

    return _make(out, (x, weight), backward)


def conv2d(x, weight):
    """Stride-1 (1, K) time conv over (B, Cin, H, T), run by conv1d_dilated.

    weight: (Cout, Cin, 1, K); the caller pads (same_pad_time). Output
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


def same_pad_time(x, kernel_w):
    """Asymmetric zero-pad along the last axis so stride-1 conv keeps length.

    Pads (k-1)//2 on the left and k//2 on the right; for odd kernels both
    sides get (k-1)/2.
    """
    left = (kernel_w - 1) // 2
    right = kernel_w // 2
    if left == 0 and right == 0:
        return _wrap(x)
    width = [(0, 0)] * (np.ndim(x.data if isinstance(x, Tensor) else x) - 1) + [(left, right)]
    return pad(x, width)
