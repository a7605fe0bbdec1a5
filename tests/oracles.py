"""Independent naive-loop reference implementations for oracle tests.

Deliberately written as plain nested loops over numpy scalars so they
share no code path with the package's im2col/BLAS implementations. The
exceptions are the paths the model ran before a faster op replaced them,
built from the package's general ops (which the naive loops here pin):
oracle_branch_stem, the three-op composition that ops.branch_stem
replaced, oracle_tail, the four-op composition that ops.bn_elu_pool
replaced, and oracle_branch_call, a branch whose spatial-refinement conv
runs through conv2d as it did before conv1d_dilated took it over.
"""

import math

import numpy as np

from csanet import ops


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


def naive_conv1d(x, w, b=None, dilation=1, left_pad=0, gout=None):
    """Dilated 1-d cross-correlation with left zero padding, one tap at a time.

    Returns the output; with gout (the output's gradient) also returns the
    gradients of x, w and b, accumulated in the same loop.
    """
    B, cin, T = x.shape
    cout, _, K = w.shape
    to = T + left_pad - (K - 1) * dilation
    out = np.zeros((B, cout, to), dtype=np.float64)
    gx, gw = np.zeros(x.shape), np.zeros(w.shape)
    for bi in range(B):
        for oc in range(cout):
            for t in range(to):
                acc = b[oc] if b is not None else 0.0
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
    return out, gx, gw, gout.sum(axis=(0, 2))


def naive_avg_pool(x, kernel, stride, padding=(0, 0), include_pad=True):
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
                    count = 0
                    for u in range(kh):
                        for v in range(kw):
                            hi = i * sh + u - ph
                            wi = j * sw + v - pw
                            if 0 <= hi < H and 0 <= wi < W:
                                acc += x[bi, c, hi, wi]
                                count += 1
                    out[bi, c, i, j] = acc / (kh * kw if include_pad else count)
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


def oracle_branch_stem(
    x, weight, gamma, beta, running_mean, running_var, depthwise, training, momentum=0.1, eps=1e-5, lags=None
):
    """Temporal conv -> batch norm -> depthwise channel conv, in that order.

    Same signature and result as ops.branch_stem, through the
    (B, F, C, T) intermediate the factorised op never builds; batch norm
    takes its statistics from that intermediate, so lags goes unread.
    """
    kernel = weight.shape[-1]
    h = ops.conv2d(ops.same_pad_time(x, kernel), weight)
    h = ops.batch_norm(h, gamma, beta, running_mean, running_var, training, momentum=momentum, eps=eps)
    return ops.conv2d(h, depthwise, groups=weight.shape[0])


def oracle_spa_conv(h, weight):
    """The spatial-refinement conv on a (B, U, 1, T) map, through conv2d."""
    return ops.conv2d(ops.same_pad_time(h, weight.shape[-1]), weight)


def oracle_tail(x, gamma, beta, running_mean, running_var, training, pool, p_drop, rng=None, momentum=0.1, eps=1e-5):
    """Batch norm -> ELU -> (1, pool) mean pool -> dropout, four ops.

    Same signature and result as ops.bn_elu_pool.
    """
    h = ops.batch_norm(x, gamma, beta, running_mean, running_var, training, momentum=momentum, eps=eps)
    h = ops.avg_pool2d(ops.elu(h), kernel=(1, pool), stride=(1, pool))
    return ops.dropout(h, p_drop, training, rng)


def oracle_branch_call(branch, x, training, rng=None, lags=None):
    """model.Branch.__call__ with spa_conv run by oracle_spa_conv."""
    p1, p2 = branch.pools
    bn = branch.bn_temporal
    h = ops.branch_stem(
        x,
        branch.temporal_conv.weight,
        bn.gamma,
        bn.beta,
        bn.running_mean,
        bn.running_var,
        branch.depthwise_conv.weight,
        training,
        momentum=bn.momentum,
        eps=bn.eps,
        lags=lags,
    )
    h = branch._tail(branch.bn_depthwise, h, p1, training, rng)
    h = oracle_spa_conv(h, branch.spa_conv.weight)
    h = branch._tail(branch.bn_spa, h, p2, training, rng)
    b, u, _, t0 = h.shape
    return h.reshape((b, u, t0))
