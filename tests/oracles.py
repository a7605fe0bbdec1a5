"""Independent naive-loop reference implementations for oracle tests.

Deliberately written as plain nested loops over numpy scalars so they
share no code path with the package's im2col/BLAS implementations. The
exceptions are the paths the model ran before a faster op replaced them:
oracle_conv2d, the general grouped, strided, padded im2col/col2im conv
that csanet.ops carried until its conv2d narrowed to the (1, K) time conv
(pinned here against naive_conv2d); oracle_batch_norm, ops.batch_norm as
it was before batch norm moved into one pair of kernels in csanet.ops
(statistics from np.mean and np.var, in place of the float64 batch sums of
the one kernel pair every training-mode batch norm now runs);
oracle_branch_stem, the three-op composition that ops.branch_stem
replaced, through oracle_conv2d and oracle_batch_norm; oracle_tail, the
four-op composition that ops.bn_elu_pool replaced, through
oracle_batch_norm (the two in a row are what ops.stem_bn_elu_pool and
ops.stem_elu_pool compute); oracle_tcn_block, the TCN block's causal
conv -> batch norm -> ELU -> dropout composition before its tails became
ops.bn_elu_pool at pool 1; oracle_tcn_block_call and oracle_tcn_forward,
the per-branch TCN pass (model.TcnBlock.__call__, TcnStack.__call__ and
the per-branch readouts) before the four branches' TCNs ran as one grouped
pass, with oracle_conv1d_direct, the ungrouped direct conv it ran on;
oracle_lag_prefixes, ops.lag_prefixes as it
was before its lag products became banded tile matmuls; oracle_backward,
Tensor.backward as it was before its walk released the tape;
oracle_topk_mask and oracle_topk_softmax, the stable-argsort top-k mask
and the masked_fill -> softmax path that csanet.attention ran twice per
auxiliary branch before one sort set each mask and topk_mix fused both
paths; oracle_msca_forward, attention.msca_forward as the Tensor
composition it was before it became one op, with oracle_topk_mix, that
fused two-path node, and oracle_band, the band matrix built on each call;
oracle_branch_call, a branch whose spatial-refinement conv runs through
oracle_conv2d as it did before conv1d_dilated took it over, and whose
eval mode runs the stem and tail compositions as the model did before its
eval mode moved onto ops.stem_elu_pool and ops.elu_pool; and
oracle_grad_check, csanet.gradcheck.grad_check as it was when every
perturbed evaluation still recorded a tape; oracle_banded, ops._banded as
it was built by one fancy-index assignment before it became a strided view
of a padded copy; oracle_tap_spectrum, the FFT conv's weight spectrum with
its DFT table built on each call; and oracle_eval_forward, the eval
forward as it ran before every forward that records no tape ran the
kernels on raw arrays: a Tensor around every layer's output, under
no_grad.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from csanet import ops
from csanet.attention import _masked_softmax_grad, _masked_softmaxes, keep_count, topk_mask
from csanet.autodiff import Tensor, _accumulate, _make, _reverse_topo, _wrap, _zero_pad, concat, narrow, pad, unbroadcast
from csanet.errors import ConfigurationError, DimensionError, NumericalError
from csanet.autodiff import no_grad
from csanet.gradcheck import ZERO_ANALYTIC, ZERO_NUMERIC, GradCheckReport
from csanet.model import _affine


def same_pad_time(x, kernel):
    """x zero-padded along its last axis by ops.same_pad(kernel), as one
    autodiff.pad tape node: the padding the model ran before
    ops.conv1d_dilated padded its own input."""
    x = _wrap(x)
    return pad(x, [(0, 0)] * (x.ndim - 1) + [ops.same_pad(kernel)])


def naive_conv2d(x, w, b=None, stride=(1, 1), padding=(0, 0), groups=1):
    B, cin, H, W = x.shape
    cout, cing, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    xp = np.zeros((B, cin, H + 2 * ph, W + 2 * pw), dtype=np.float64)
    xp[:, :, ph : ph + H, pw : pw + W] = x
    ho = (H + 2 * ph - kh) // sh + 1
    wo = (W + 2 * pw - kw) // sw + 1
    coutg = cout // groups
    out = np.zeros((B, cout, ho, wo), dtype=np.float64)
    for bi in range(B):
        for oc in range(cout):
            g = oc // coutg
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ic in range(cing):
                        for u in range(kh):
                            for v in range(kw):
                                acc += (
                                    xp[bi, g * cing + ic, i * sh + u, j * sw + v]
                                    * w[oc, ic, u, v]
                                )
                    out[bi, oc, i, j] = acc + (b[oc] if b is not None else 0.0)
    return out


def naive_conv1d(x, w, dilation=1, left_pad=0, gout=None):
    """Dilated 1-d cross-correlation with left zero padding, one tap at a time.

    Returns the output; with gout (the output's gradient) also returns the
    gradients of x and w, accumulated in the same loop.
    """
    B, cin, T = x.shape
    cout, _, K = w.shape
    to = T + left_pad - (K - 1) * dilation
    out = np.zeros((B, cout, to), dtype=np.float64)
    gx, gw = np.zeros(x.shape), np.zeros(w.shape)
    for bi in range(B):
        for oc in range(cout):
            for t in range(to):
                acc = 0.0
                for ic in range(cin):
                    for k in range(K):
                        s = t + k * dilation - left_pad
                        if 0 <= s < T:
                            acc += x[bi, ic, s] * w[oc, ic, k]
                            if gout is not None:
                                gx[bi, ic, s] += gout[bi, oc, t] * w[oc, ic, k]
                                gw[oc, ic, k] += gout[bi, oc, t] * x[bi, ic, s]
                out[bi, oc, t] = acc
    if gout is None:
        return out
    return out, gx, gw


def naive_avg_pool(x, kernel, stride, padding=(0, 0)):
    """Mean over zero-padded windows; padded cells count toward the divisor."""
    B, C, H, W = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    ho = (H + 2 * ph - kh) // sh + 1
    wo = (W + 2 * pw - kw) // sw + 1
    out = np.zeros((B, C, ho, wo), dtype=np.float64)
    for bi in range(B):
        for c in range(C):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for u in range(kh):
                        for v in range(kw):
                            hi = i * sh + u - ph
                            wi = j * sw + v - pw
                            if 0 <= hi < H and 0 <= wi < W:
                                acc += x[bi, c, hi, wi]
                    out[bi, c, i, j] = acc / (kh * kw)
    return out


def naive_matmul(a, b):
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m), dtype=np.float64)
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def naive_linear(x, w, b=None):
    out = naive_matmul(x, w.T)
    if b is not None:
        out = out + b[None, :]
    return out


def naive_softmax_row(row):
    m = max(row)
    e = [math.exp(v - m) for v in row]
    s = sum(e)
    return [v / s for v in e]


def naive_multihead_attention(x, y, wq, wk, wv, heads):
    """Dense multi-head attention on (B, U, T)-oriented feature maps.

    Tokens are time steps; Q from x, K/V from y; per-head scaled dot
    product; heads concatenated. Returns (B, U, T).
    """
    B, U, T = x.shape
    dk = U // heads
    out = np.zeros((B, U, T), dtype=np.float64)
    for bi in range(B):
        xt = x[bi].T  # (T, U)
        yt = y[bi].T
        q = naive_matmul(xt, wq)
        k = naive_matmul(yt, wk)
        v = naive_matmul(yt, wv)
        for h in range(heads):
            qs = q[:, h * dk : (h + 1) * dk]
            ks = k[:, h * dk : (h + 1) * dk]
            vs = v[:, h * dk : (h + 1) * dk]
            for ti in range(T):
                scores = [
                    sum(qs[ti, d] * ks[tj, d] for d in range(dk)) / math.sqrt(dk)
                    for tj in range(T)
                ]
                weights = naive_softmax_row(scores)
                for d in range(dk):
                    out[bi, h * dk + d, ti] = sum(weights[tj] * vs[tj, d] for tj in range(T))
    return out


def oracle_topk_mask(scores, keep):
    """Boolean mask of the `keep` largest entries per trailing-axis row;
    ties at the threshold keep the lowest-index entries (stable argsort of
    the descending scores)."""
    order = np.argsort(-scores, axis=-1, kind="stable")
    mask = np.zeros(scores.shape, dtype=bool)
    np.put_along_axis(mask, order[..., :keep], True, axis=-1)
    return mask


def oracle_topk_softmax(scores, keep):
    """Softmax of each trailing-axis row restricted to oracle_topk_mask's
    entries, as the two tape nodes ops.masked_fill -> ops.softmax."""
    masked = ops.masked_fill(scores, oracle_topk_mask(scores.data, keep), -np.inf)
    return ops.softmax(masked, axis=-1)


def oracle_band(t0, kernels, pads, dtype):
    """multiscale_pool's (T0, T0) band matrix as it was built on each call
    before attention.band_matrix cached it."""
    lag = np.abs(np.subtract.outer(np.arange(t0), np.arange(t0)))
    band = np.zeros((t0, t0))
    for k, p in zip(kernels, pads):
        band += (lag <= p) / k
    return band.astype(dtype)


def oracle_topk_mix(scores, v, alpha, beta, keeps):
    """alpha * (topk_softmax(scores, keeps[0]) @ v) + beta * (topk_softmax(scores,
    keeps[1]) @ v) as the one tape node whose two paths share one exp, the
    step of oracle_msca_forward that attention.msca_forward folded in."""
    masks = [topk_mask(scores.data, keep) for keep in keeps]
    probs = _masked_softmaxes(scores.data, masks)
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


def oracle_msca_forward(x, y, params, cfg):
    """attention.msca_forward as the Tensor composition it was, about
    twenty tape nodes a call: the band-matrix pool (a fresh oracle_band
    each call), the projections, head split, scaled scores, oracle_topk_mix
    or ops.softmax -> matmul, and the head merge."""
    if x.shape != y.shape:
        raise DimensionError(f"query source {x.shape} and key/value source {y.shape} differ")
    b, u, t0 = x.shape
    if u % cfg.heads:
        raise ConfigurationError(f"feature width {u} not divisible by heads {cfg.heads}")
    dk = u // cfg.heads

    if cfg.multiscale_pool_enabled:
        y = y @ oracle_band(t0, cfg.pool_kernels, cfg.pool_pads, y.dtype)

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
        heads_out = oracle_topk_mix(scores, v, params.alpha, params.beta, keeps)
    else:
        heads_out = ops.softmax(scores, axis=-1) @ v

    merged = heads_out.transpose(0, 2, 1, 3).reshape((b, t0, u))
    return merged.transpose(0, 2, 1)


def _pair(v):
    if isinstance(v, (tuple, list)):
        if len(v) != 2:
            raise ConfigurationError(f"expected a pair, got {v!r}")
        return int(v[0]), int(v[1])
    return int(v), int(v)


def _pad_hw(a, ph, pw):
    """Zero-pad the last two axes symmetrically; no copy when there is no padding."""
    if ph == 0 and pw == 0:
        return a
    return np.pad(a, ((0, 0), (0, 0), (ph, ph), (pw, pw)))


def _windows(xp, kh, kw, sh, sw):
    """Strided view (B, C, Ho, Wo, kh, kw) over a padded array."""
    v = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    return v[:, :, ::sh, ::sw]


def _col2im_add(gxp, gpatch, sh, sw):
    """Scatter-add window gradients (B, C, Ho, Wo, kh, kw) back into gxp."""
    _, _, ho, wo, kh, kw = gpatch.shape
    for u in range(kh):
        for v in range(kw):
            gxp[:, :, u : u + sh * ho : sh, v : v + sw * wo : sw] += gpatch[:, :, :, :, u, v]


def oracle_conv2d(x, weight, bias=None, stride=(1, 1), padding=(0, 0), groups=1):
    """Grouped 2-d cross-correlation.

    x: (B, Cin, H, W); weight: (Cout, Cin/groups, kh, kw); symmetric zero
    padding. Output extent: floor((H + 2*pad - kh)/stride) + 1 per axis.
    """
    x, weight = _wrap(x), _wrap(weight)
    if x.ndim != 4 or weight.ndim != 4:
        raise DimensionError(f"conv2d expects 4-d input and weight, got {x.shape} and {weight.shape}")
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    B, cin, H, W = x.shape
    cout, cing, kh, kw = weight.shape
    if groups < 1 or cin % groups or cout % groups:
        raise ConfigurationError(f"groups={groups} must divide Cin={cin} and Cout={cout}")
    if cing != cin // groups:
        raise DimensionError(f"weight expects {cing * groups} input channels, input has {cin}")
    if H + 2 * ph < kh or W + 2 * pw < kw:
        raise DimensionError("kernel larger than padded input")
    if sh < 1 or sw < 1:
        raise ConfigurationError("stride must be positive")
    ho = (H + 2 * ph - kh) // sh + 1
    wo = (W + 2 * pw - kw) // sw + 1
    coutg = cout // groups

    xp = _pad_hw(x.data, ph, pw)
    w2 = weight.data.reshape(groups, coutg, cing * kh * kw)
    out = np.empty((B, cout, ho, wo), dtype=x.dtype)
    for g in range(groups):
        win = _windows(xp[:, g * cing : (g + 1) * cing], kh, kw, sh, sw)
        cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(B * ho * wo, cing * kh * kw)
        og = cols @ w2[g].T
        out[:, g * coutg : (g + 1) * coutg] = og.reshape(B, ho, wo, coutg).transpose(0, 3, 1, 2)
    if bias is not None:
        bias = _wrap(bias)
        if bias.shape != (cout,):
            raise DimensionError(f"bias must have shape ({cout},)")
        out += bias.data.reshape(1, cout, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(gout):
        gxp = np.zeros_like(xp) if x.requires_grad else None
        gw = np.zeros_like(weight.data) if weight.requires_grad else None
        for g in range(groups):
            gog = gout[:, g * coutg : (g + 1) * coutg].transpose(0, 2, 3, 1).reshape(B * ho * wo, coutg)
            if weight.requires_grad:
                win = _windows(xp[:, g * cing : (g + 1) * cing], kh, kw, sh, sw)
                cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(B * ho * wo, cing * kh * kw)
                gw[g * coutg : (g + 1) * coutg] = (gog.T @ cols).reshape(coutg, cing, kh, kw)
            if x.requires_grad:
                gcols = gog @ w2[g]
                gpatch = gcols.reshape(B, ho, wo, cing, kh, kw).transpose(0, 3, 1, 2, 4, 5)
                _col2im_add(gxp[:, g * cing : (g + 1) * cing], gpatch, sh, sw)
        if x.requires_grad:
            _accumulate(x, gxp[:, :, ph : ph + H, pw : pw + W])
        if weight.requires_grad:
            _accumulate(weight, gw)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, gout.sum(axis=(0, 2, 3)))

    return _make(out, parents, backward)


def oracle_batch_norm(x, gamma, beta, running_mean, running_var, training):
    """Per-channel normalization over axis 1, as ops.batch_norm computed it
    before batch norm moved into a kernel pair in csanet.ops: statistics
    from np.mean and np.var, and the backward's sums over the upstream
    gradient itself.

    Same signature and result as ops.batch_norm.
    """
    x, gamma, beta = _wrap(x), _wrap(gamma), _wrap(beta)
    if x.ndim < 2:
        raise DimensionError("batch_norm expects at least a 2-d input (B, C, ...)")
    C = x.shape[1]
    if gamma.shape != (C,) or beta.shape != (C,):
        raise DimensionError("gamma/beta must have one entry per channel")
    axes = (0,) + tuple(range(2, x.ndim))
    shape = (1, C) + (1,) * (x.ndim - 2)
    n = int(np.prod([x.shape[a] for a in axes]))

    if training:
        if x.shape[0] < 2:
            raise ConfigurationError("batch_norm in training mode needs a batch of at least 2")
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        running_mean *= 1.0 - ops.BN_MOMENTUM
        running_mean += ops.BN_MOMENTUM * mean
        running_var *= 1.0 - ops.BN_MOMENTUM
        running_var += ops.BN_MOMENTUM * var * (n / (n - 1.0))
    else:
        mean = running_mean.astype(x.dtype)
        var = running_var.astype(x.dtype)

    inv = (1.0 / np.sqrt(var + ops.BN_EPS)).astype(x.dtype).reshape(shape)
    xhat = (x.data - mean.astype(x.dtype).reshape(shape)) * inv
    out = gamma.data.reshape(shape) * xhat + beta.data.reshape(shape)

    def backward(gout):
        if gamma.requires_grad:
            _accumulate(gamma, (gout * xhat).sum(axis=axes))
        if beta.requires_grad:
            _accumulate(beta, gout.sum(axis=axes))
        if not x.requires_grad:
            return
        gs = gamma.data.reshape(shape) * inv
        if training:
            gm = gout.mean(axis=axes).reshape(shape)
            gxm = (gout * xhat).mean(axis=axes).reshape(shape)
            _accumulate(x, gs * (gout - gm - xhat * gxm))
        else:
            _accumulate(x, gs * gout)

    return _make(out, (x, gamma, beta), backward)


def oracle_branch_stem(x, weight, gamma, beta, running_mean, running_var, depthwise, training):
    """Temporal conv -> batch norm -> depthwise channel conv, in that order,
    on a (B, 1, C, T) input: what ops.branch_stem computed, through the
    (B, F, C, T) intermediate the factorised ops never build. The
    depthwise conv's (B, F*D, 1, T) output is returned as (B, F*D, T).
    """
    kernel = weight.shape[-1]
    h = oracle_conv2d(same_pad_time(x, kernel), weight)
    h = oracle_batch_norm(h, gamma, beta, running_mean, running_var, training)
    h = oracle_conv2d(h, depthwise, groups=weight.shape[0])
    b, u, _, t = h.shape
    return h.reshape((b, u, t))


def oracle_spa_conv(h, weight):
    """The spatial-refinement conv on a (B, U, T) map, through oracle_conv2d
    on its (B, U, 1, T) view."""
    b, u, t = h.shape
    out = oracle_conv2d(same_pad_time(h.reshape((b, u, 1, t)), weight.shape[-1]), weight)
    return out.reshape((b, out.shape[1], t))


def oracle_tail(x, gamma, beta, running_mean, running_var, training, pool, keep=None):
    """Batch norm -> ELU -> (1, pool) mean pool -> dropout, four ops, on a
    (B, C, T) map; the pool runs on its (B, C, 1, T) view, and dropout
    multiplies by the mask keep (an ops.dropout_mask, or None), as the
    fused ops do: by its 0/1 entries, then by its scale.

    Same signature and result as ops.bn_elu_pool.
    """
    h = oracle_batch_norm(x, gamma, beta, running_mean, running_var, training)
    b, c, t = h.shape
    h = ops.avg_pool2d(ops.elu(h).reshape((b, c, 1, t)), pool).reshape((b, c, t // pool))
    return h if keep is None else h * keep.mask * keep.scale


def oracle_conv1d_direct(x, weight, dilation, pad):
    """ops.conv1d_dilated's direct path as it ran before it took a group
    axis: one ungrouped (Cout, Cin, K) weight, window matrices reshaped out
    of strided views, and the output and input gradient returned in the
    (B, T, C) memory layout of the matmul."""
    x, weight = _wrap(x), _wrap(weight)
    B, cin, T = x.shape
    cout, _, K = weight.shape
    span = (K - 1) * dilation + 1
    to = T + sum(pad) - span + 1
    cols = ops._window_view(ops._pad_time(x.data, pad), to, K, dilation=dilation).transpose(0, 2, 1, 3)
    out = cols.reshape(B * to, cin * K) @ weight.data.reshape(cout, cin * K).T
    out = out.reshape(B, to, cout).transpose(0, 2, 1)

    def backward(gout):
        if weight.requires_grad:
            xwin = ops._window_view(ops._pad_time(x.data, pad), to, K, dilation=dilation)
            g2 = gout.transpose(0, 2, 1).reshape(B * to, cout)
            gw = xwin.transpose(1, 3, 0, 2).reshape(cin * K, B * to) @ g2
            _accumulate(weight, gw.T.reshape(cout, cin, K))
        if x.requires_grad:
            gp = _zero_pad(gout, ((0, 0), (0, 0), (span - 1, span - 1)))
            flipped = weight.data[:, :, ::-1].transpose(0, 2, 1).reshape(cout * K, cin)
            gwin = ops._window_view(gp, T, K, dilation=dilation, start=pad[0])
            gx = gwin.transpose(0, 2, 1, 3).reshape(B * T, cout * K) @ flipped
            _accumulate(x, gx.reshape(B, T, cin).transpose(0, 2, 1))

    return _make(out, (x, weight), backward)


def oracle_causal(h, weight, dilation):
    """model.TcnBlock.causal: the length-preserving causal conv (left pad
    (K-1)*dilation) of one branch by a (C, C, K) weight, on the direct path
    as it ran then (oracle_conv1d_direct)."""
    return oracle_conv1d_direct(h, weight, dilation, ((weight.shape[-1] - 1) * dilation, 0))


def oracle_tcn_block(block, x, training, keep=(None, None)):
    """model.TcnBlock.__call__ as it ran before its tails became
    ops.bn_elu_pool at pool 1 in training and ops.elu_pool in eval: causal
    conv -> oracle_batch_norm -> ELU -> dropout by its mask of keep, twice,
    plus the residual."""
    h = x
    for (conv, bn), mask in zip(((block.conv1, block.bn1), (block.conv2, block.bn2)), keep):
        h = oracle_batch_norm(oracle_causal(h, conv.weight, block.dilation), bn.gamma, bn.beta, bn.running_mean, bn.running_var, training)
        h = ops.elu(h) if mask is None else ops.elu(h) * mask.mask * mask.scale
    return x + h


def oracle_tcn_block_call(block, x, training, keep=(None, None)):
    """model.TcnBlock.__call__ as it ran before the branches' blocks of one
    depth became one model.tcn_block: one branch's causal convs, each tail
    ops.bn_elu_pool at pool 1 in training and ops.elu_pool with the batch
    norm's fixed map in eval, plus the residual."""
    h = x
    for (conv, bn), mask in zip(((block.conv1, block.bn1), (block.conv2, block.bn2)), keep):
        h = oracle_causal(h, conv.weight, block.dilation)
        if training:
            h = ops.bn_elu_pool(h, bn.gamma, bn.beta, bn.running_mean, bn.running_var, 1, mask)
        else:
            maps = ops.bn_affine(bn.gamma.data, bn.beta.data, bn.running_mean, bn.running_var)
            h = Tensor(ops.elu_pool(h.data.transpose(1, 0, 2), [m.astype(h.dtype)[:, None, None] for m in maps], 1))
    return x + h


def oracle_tcn_forward(model, ms, training, keeps=None):
    """model.CsanetModel.tcn_forward as it ran branch by branch: each
    branch's TcnStack on its own fused map of ms (oracle_tcn_block_call per
    block, with the branch's masks of keeps, per branch as
    CsanetModel.dropout_masks gives them, or None), its readout, and the
    four readouts concatenated."""
    cfg, feats = model.config, []
    for m, branch, keep in zip(ms, model.branches, keeps or [None] * 4):
        h = m
        for j, block in enumerate(branch.tcn.blocks if cfg.tcn_enabled else ()):
            h = oracle_tcn_block_call(block, h, training, keep[j] if keep else (None, None))
        b, u, t0 = h.shape
        feats.append(narrow(h, 2, t0 - 1, 1).reshape((b, u)) if cfg.readout == "last_step" else h.reshape((b, u * t0)))
    return concat(feats, axis=1)


def per_group(fn, groups, x, keep):
    """fn(group, x part, keep part) on each group's equal share of the
    channels of the (B, C, T) map x, with its share of each dropout mask of
    keep (ops.DropoutMask or None), the results joined along the channels."""
    c, parts = x.shape[1] // len(groups), []
    for i, group in enumerate(groups):
        share = [None if k is None else ops.DropoutMask(k.mask[:, i * c : (i + 1) * c], k.scale) for k in keep]
        parts.append(fn(group, narrow(x, 1, i * c, c), share))
    return concat(parts, axis=1)


def oracle_branch_call(branch, x, training, lags=None, keep=(None, None), spa_conv=oracle_spa_conv):
    """model.Branch.__call__ with spa_conv run by spa_conv(h, weight).

    Training mode runs the model's ops around spa_conv
    (ops.stem_bn_elu_pool, then ops.bn_elu_pool). Eval mode runs the
    compositions those ops replaced, oracle_branch_stem and oracle_tail:
    the eval semantics that Branch's eval pass reproduces.
    """
    p1, p2 = branch.pools
    bns = [(bn.gamma, bn.beta, bn.running_mean, bn.running_var) for bn in (branch.bn_temporal, branch.bn_depthwise)]
    weights = (branch.temporal_conv.weight, branch.depthwise_conv.weight)
    if training:
        h = ops.stem_bn_elu_pool(x, *weights, *bns, p1, keep[0], lags)
    else:
        h = oracle_branch_stem(x, weights[0], *bns[0], weights[1], False)
        h = oracle_tail(h, *bns[1], False, p1)
    h = spa_conv(h, branch.spa_conv.weight)
    bn = branch.bn_spa
    if training:
        return ops.bn_elu_pool(h, bn.gamma, bn.beta, bn.running_mean, bn.running_var, p2, keep[1])
    return oracle_tail(h, bn.gamma, bn.beta, bn.running_mean, bn.running_var, False, p2)


def oracle_lag_prefixes(x, max_kernel):
    """ops.lag_prefixes with one einsum pass over the rows per lag: the
    same (n, sums, prods) table."""
    T = x.shape[-1]
    rows = x.reshape(-1, T).astype(np.float64)
    sums = np.zeros(T + 1)
    np.cumsum(rows.sum(axis=0), out=sums[1:])
    prods = np.zeros((max_kernel, T + 1))
    for d in range(min(max_kernel, T)):
        prods[d, 1 : T + 1 - d] = np.einsum("nv,nv->v", rows[:, : T - d], rows[:, d:])
    np.cumsum(prods, axis=1, out=prods)
    return rows.size, sums, prods


def oracle_backward(root):
    """root.backward() from a scalar root as it ran before the walk released
    the tape: the same reverse topological walk, but every node keeps its
    closure, its parents and its gradient afterwards."""
    _accumulate(root, np.ones_like(root.data))
    for node in _reverse_topo(root):
        if node._backward is not None:
            node._backward(node.grad)


def oracle_grad_check(fn, inputs, h=1e-4):
    """grad_check with a tape recorded on every evaluation, perturbed or not.

    Same signature, rules and report as csanet.gradcheck.grad_check, whose
    perturbed evaluations now run under no_grad.
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


def oracle_banded(w, tile):
    """ops._banded by one fancy-index assignment into a zeroed band."""
    F, K = w.shape
    band = np.zeros((F, tile + K - 1, tile), dtype=w.dtype)
    i = np.arange(tile)
    band[:, i + np.arange(K)[:, None], i] = w[:, :, None]
    return band


def oracle_tap_spectrum(w, n):
    """ops._tap_spectrum with its cos/sin table built on each call."""
    cout, cin, K = w.shape
    angle = (-2.0 * np.pi / n) * (np.outer(np.arange(K), np.arange(n // 2 + 1)) % n)
    table = np.stack([np.cos(angle), np.sin(angle)], axis=-1).reshape(K, -1).astype(w.dtype)
    s = (w.reshape(-1, K) @ table).view(np.result_type(w.dtype, np.complex64))
    return s.reshape(cout, cin, -1).transpose(2, 0, 1)


def oracle_eval_tail(h, bns, pool):
    """model._tail's eval half as it ran on a Tensor h: ops.elu_pool on h's
    (C, B, T) view with the batch norms' fixed maps, wrapped in a Tensor."""
    affine = [np.concatenate(m).astype(h.dtype)[:, None, None] for m in zip(*map(_affine, bns))]
    return Tensor(ops.elu_pool(h.data.transpose(1, 0, 2), affine, pool))


def oracle_eval_forward(model, x):
    """CsanetModel's eval logits of the raw (B, 1, C, T) array x, as one
    block under no_grad, by the Tensor composition eval ran before it ran
    the kernels from input to logits: each branch as ops.stem_elu_pool,
    ops.conv1d_dilated and oracle_eval_tail; fuse_branches on Tensors;
    tcn_block's grouped ops.conv1d_dilated and oracle_eval_tail per stage;
    the autodiff readout and ops.linear."""
    cfg = model.config
    with no_grad():
        zs = []
        for branch in model.branches:
            p1, p2 = branch.pools
            maps = (_affine(branch.bn_temporal), _affine(branch.bn_depthwise))
            h = Tensor(ops.stem_elu_pool(x, branch.temporal_conv.weight.data, branch.depthwise_conv.weight.data, *maps, p1))
            u, width, _, k = branch.spa_conv.weight.shape
            h = ops.conv1d_dilated(h, branch.spa_conv.weight.reshape((u, width, k)), pad=ops.same_pad(k))
            zs.append(oracle_eval_tail(h, [branch.bn_spa], p2))
        h = concat(model.fuse_branches(zs), axis=1)
        for blocks in zip(*(branch.tcn.blocks for branch in model.branches)) if cfg.tcn_enabled else ():
            x_in, d = h, blocks[0].dilation
            for stage in zip(*(block.stages for block in blocks)):
                convs, bns = zip(*stage)
                pad = ((convs[0].weight.shape[-1] - 1) * d, 0)
                h = oracle_eval_tail(ops.conv1d_dilated(h, [c.weight for c in convs], dilation=d, pad=pad), bns, 1)
            h = x_in + h
        b, c, t0 = h.shape
        feats = narrow(h, 2, t0 - 1, 1).reshape((b, c)) if cfg.readout == "last_step" else h.reshape((b, c * t0))
        return ops.linear(feats, model.classifier.weight, model.classifier.bias).data
