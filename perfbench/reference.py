"""Eval-mode forward of the network in plain float64 numpy.

Written from the architecture's equations, apart from csanet.ops and the
autodiff core: four branches (same-padded temporal conv, batch norm,
depthwise channel conv, batch norm, ELU, average pool, same-padded
spatial-refinement conv, batch norm, ELU, average pool), main/auxiliary
attention fusion with multiscale-pooled keys/values and top-k sparse
softmax, per-branch causal dilated TCNs, last-step readout and a linear
classifier. Parameters come from the checkpoint's named blobs.

The top-k selection is a discrete choice: where the k-th and (k+1)-th
scores of a row nearly tie, float32 and float64 may legitimately keep
different entries. forward() therefore also returns the smallest such gap
over all rows, relative to the row's largest |score|, so a caller can
tell an unambiguous trial from a near tie.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

BN_EPS = 1e-5


def _bn(h, p, name):
    shape = (1, -1) + (1,) * (h.ndim - 2)
    gamma = p[f"{name}.gamma"].reshape(shape)
    beta = p.get(f"{name}.beta", np.zeros(1)).reshape(shape)  # absent if a dead shift is dropped
    mean = p[f"{name}.running_mean"].reshape(shape)
    var = p[f"{name}.running_var"].reshape(shape)
    return (h - mean) / np.sqrt(var + BN_EPS) * gamma + beta


def _elu(h):
    return np.where(h > 0, h, np.expm1(np.minimum(h, 0.0)))


def _pool_time(h, p):
    t = h.shape[-1] // p
    return h[..., : t * p].reshape(h.shape[:-1] + (t, p)).mean(axis=-1)


def _pad_time(h, left, right):
    return np.pad(h, [(0, 0)] * (h.ndim - 1) + [(left, right)])


def _branch(x, p, b, cfg, i):
    """x: (B, C, T) -> (B, U, T0)."""
    k = cfg.temporal_kernels[i]
    w = p[f"{b}.temporal_conv.weight"][:, 0, 0, :]  # (F, K)
    win = sliding_window_view(_pad_time(x, (k - 1) // 2, k // 2), k, axis=-1)  # (B, C, T, K)
    h = np.einsum("bctk,fk->bfct", win, w)
    h = _bn(h, p, f"{b}.bn_temporal")
    wd = p[f"{b}.depthwise_conv.weight"][:, 0, :, 0]  # (F*D, C)
    group = np.arange(wd.shape[0]) // cfg.depth_multiplier
    h = np.einsum("oc,boct->bot", wd, h[:, group])
    h = _pool_time(_elu(_bn(h, p, f"{b}.bn_depthwise")), cfg.pools[0])
    s = cfg.spa_kernel
    ws = p[f"{b}.spa_conv.weight"][:, :, 0, :]  # (U, W, S)
    win = sliding_window_view(_pad_time(h, (s - 1) // 2, s // 2), s, axis=-1)  # (B, W, T1, S)
    h = np.einsum("bwts,uws->but", win, ws)
    return _pool_time(_elu(_bn(h, p, f"{b}.bn_spa")), cfg.pools[1])


def _multiscale_pool(y, acfg):
    total = 0.0
    for k, pad in zip(acfg.pool_kernels, acfg.pool_pads):
        total = total + sliding_window_view(_pad_time(y, pad, pad), k, axis=-1).mean(axis=-1)
    return total


class _Attention:
    def __init__(self, acfg):
        self.acfg = acfg
        self.min_gap = math.inf

    def _topk_softmax(self, s, keep):
        t0 = s.shape[-1]
        if keep == t0:
            kept = np.ones(s.shape, dtype=bool)
        else:
            order = np.argsort(-s, axis=-1, kind="stable")
            ranked = np.take_along_axis(s, order, axis=-1)
            gap = (ranked[..., keep - 1] - ranked[..., keep]) / np.abs(s).max(axis=-1)
            self.min_gap = min(self.min_gap, float(gap.min()))
            kept = np.zeros(s.shape, dtype=bool)
            np.put_along_axis(kept, order[..., :keep], True, axis=-1)
        e = np.where(kept, np.exp(s - s.max(axis=-1, keepdims=True)), 0.0)
        return e / e.sum(axis=-1, keepdims=True)

    def __call__(self, x, y, p, b, sparse):
        acfg = self.acfg
        bsz, u, t0 = x.shape
        heads = acfg.heads
        dk = u // heads
        y = _multiscale_pool(y, acfg)

        def to_heads(tokens, w):
            return (tokens.transpose(0, 2, 1) @ w).reshape(bsz, t0, heads, dk).transpose(0, 2, 1, 3)

        q = to_heads(x, p[f"{b}.attention.w_q"])
        k = to_heads(y, p[f"{b}.attention.w_k"])
        v = to_heads(y, p[f"{b}.attention.w_v"])
        s = q @ k.transpose(0, 1, 3, 2) / math.sqrt(dk)
        if sparse:  # ratio mode: keep the top ceil(T0/k) of each row
            out = sum(
                p[f"{b}.attention.{mix}"] * (self._topk_softmax(s, -(-t0 // denom)) @ v)
                for denom, mix in zip(acfg.keep_denominators, ("alpha", "beta"))
            )
        else:
            out = self._topk_softmax(s, t0) @ v
        return out.transpose(0, 2, 1, 3).reshape(bsz, t0, u).transpose(0, 2, 1)


def _causal_conv(h, w, dilation):
    k = w.shape[-1]
    hp = _pad_time(h, (k - 1) * dilation, 0)
    t = h.shape[-1]
    return sum(np.einsum("oi,bit->bot", w[:, :, j], hp[:, :, j * dilation : j * dilation + t]) for j in range(k))


def forward(x, params, cfg):
    """Logits (B, L) and the smallest relative top-k threshold gap for x (B, 1, C, T).

    params: {blob name: array} of parameters and batch-norm buffers.
    Written for the default ModelConfig layout: main/auxiliary fusion with
    the fusion residual, multiscale pooling, ratio-mode top-k, the TCN and
    the last-step readout.
    """
    p = {name: np.asarray(v, dtype=np.float64) for name, v in params.items()}
    x = np.asarray(x, dtype=np.float64)[:, 0]
    names = [f"branch{i + 1}" for i in range(4)]
    zs = [_branch(x, p, b, cfg, i) for i, b in enumerate(names)]
    attend = _Attention(cfg.attention)
    ms = [zs[0] + attend(zs[0], zs[0], p, names[0], sparse=False)]
    ms += [zs[i] + attend(zs[i], zs[0], p, names[i], sparse=True) for i in (1, 2, 3)]
    feats = []
    for b, h in zip(names, ms):
        for j, dilation in enumerate(cfg.tcn.dilations):
            pre = f"{b}.tcn.blocks.{j}"
            r = _elu(_bn(_causal_conv(h, p[f"{pre}.conv1.weight"], dilation), p, f"{pre}.bn1"))
            r = _elu(_bn(_causal_conv(r, p[f"{pre}.conv2.weight"], dilation), p, f"{pre}.bn2"))
            h = h + r
        feats.append(h[:, :, -1])
    logits = np.concatenate(feats, axis=1) @ p["classifier.weight"].T + p["classifier.bias"]
    return logits, attend.min_gap
