"""The assembled network: four conv branches, attention fusion, TCNs, head.

Each branch pairs one temporal kernel scale with its own spatial feature
extractor (temporal conv -> batch norm -> depthwise channel conv, run
spatial-first, then a pooled spatial-refinement conv; each of the two
stages ends in batch norm -> ELU -> pool -> dropout, and the first stage
with its tail is one op; eval mode folds each batch norm into the conv
before it and runs the branch as one tape-free pass). Branch outputs are
fused by attention (the first branch attends to itself densely; the
others run sparse cross-attention), passed through per-branch temporal
convolutional networks (whose conv tails run as the branches' do:
ops.bn_elu_pool at pool 1, folded in eval), and classified from the
concatenated readouts.
"""

import dataclasses
from contextlib import nullcontext

import numpy as np

from . import ops
from .attention import AttentionParams, msca_forward, residual_fuse
from .autodiff import Tensor, concat, narrow, no_grad
from .config import ModelConfig
from .errors import DataError, DimensionError
from .layers import BatchNorm, Conv, Layer, LayerList, Linear


class TcnBlock(Layer):
    """One residual block: two causal dilated convs, each followed by batch
    norm -> ELU -> dropout. Training runs each tail as ops.bn_elu_pool at
    pool 1; eval mode folds each batch norm into its conv's weight and adds
    the folded shift in ops.elu_pool, as Branch._infer does for spa_conv."""

    def __init__(self, channels, kernel, dilation, dropout, rng):
        super().__init__()
        self.dropout = dropout
        self.dilation = dilation
        self.conv1 = Conv((channels, channels, kernel), rng)
        self.bn1 = BatchNorm(channels)
        self.conv2 = Conv((channels, channels, kernel), rng)
        self.bn2 = BatchNorm(channels)

    def causal(self, x, weight):
        """Length-preserving causal conv (left pad (K-1)*dilation) by a
        (C, C, K) weight: a conv's own, or eval mode's copy with its batch
        norm folded in."""
        pad = ((weight.shape[-1] - 1) * self.dilation, 0)
        return ops.conv1d_dilated(x, weight, dilation=self.dilation, pad=pad)

    def __call__(self, x, training, rng=None):
        h = x
        for conv, bn in ((self.conv1, self.bn1), (self.conv2, self.bn2)):
            if training:
                h = ops.bn_elu_pool(self.causal(h, conv.weight), *_batch_norm_args(bn), 1, self.dropout, rng)
            else:
                weight, shift = _fold(bn, conv.weight.data, x.dtype)
                h = Tensor(ops.elu_pool(self.causal(h, weight).data, shift, 1))
        return x + h


class TcnStack(Layer):
    """Residual blocks at increasing dilation; length-preserving."""

    def __init__(self, cfg: ModelConfig, rng):
        super().__init__()
        tcn = cfg.tcn
        self.blocks = LayerList(TcnBlock(tcn.filters, tcn.kernel, d, tcn.dropout, rng) for d in tcn.dilations)

    def __call__(self, x, training, rng=None):
        for block in self.blocks:
            x = block(x, training, rng)
        return x


class Branch(Layer):
    """One temporal-scale pipeline plus its fusion/TCN parameters.

    Every map from the stem to fusion is (B, channels, time). In training,
    the stem (temporal conv -> bn_temporal -> depthwise channel conv) and
    its tail (bn_depthwise -> ELU -> pool p1 -> dropout) are one op,
    ops.stem_bn_elu_pool, run spatial-first: the two convs are linear maps
    per filter on different axes, so they commute, and bn_temporal's
    statistics follow from moments of the raw input (lags, the model's
    lag_prefixes table, shared by the four stems). spa_conv is then
    ops.conv1d_dilated padding its input by ops.same_pad(K), its
    (U, width, 1, K) weight read as (U, width, K), and its tail (bn_spa ->
    ELU -> pool p2 -> dropout) is ops.bn_elu_pool. The Conv and BatchNorm
    layers only hold the parameters and buffers, in the shapes, names and
    init draw order of the checkpoint format.

    bn_temporal.beta is dead in training: bn_depthwise's mean subtraction
    cancels its per-filter shift, so the fused op gives it an exact 0
    gradient and Adam leaves it bitwise unchanged. It stays because eval
    mode reads it (in the folded shift, through c_f = beta_f - a_f *
    running_mean_f) and it is a checkpoint blob.

    Eval mode (_infer) runs none of these ops and records no tape. Each
    batch norm is then a fixed affine map, folded into the linear map
    before it: bn_temporal and bn_depthwise into the depthwise projection
    rows and one per-channel constant (ops.stem_elu_pool, over blocks of
    trials), bn_spa into spa_conv's weight and a shift that ops.elu_pool
    adds before the ELU. The result equals the ops' eval semantics in real
    arithmetic and is held to the numerics contract
    (tests/test_numerics_contract.py) in floating point.
    """

    def __init__(self, cfg: ModelConfig, index, rng):
        super().__init__()
        self.index = index
        self.temporal_kernel = cfg.temporal_kernels[index]
        self.spa_kernel = cfg.spa_kernel
        self.pools = cfg.pools
        self.p_drop = cfg.conv_dropout
        filters = cfg.temporal_filters[index]
        width = cfg.branch_width(index)

        self.temporal_conv = Conv((filters, 1, 1, self.temporal_kernel), rng)
        self.bn_temporal = BatchNorm(filters)
        self.depthwise_conv = Conv((width, 1, cfg.channels, 1), rng)
        self.bn_depthwise = BatchNorm(width)
        self.spa_conv = Conv((cfg.spa_filters, width, 1, self.spa_kernel), rng)
        self.bn_spa = BatchNorm(cfg.spa_filters)
        self.attention = AttentionParams(cfg.attention.embed_dim, rng)
        if cfg.tcn_enabled:
            self.tcn = TcnStack(cfg, rng)
        else:
            self.tcn = None

    def __call__(self, x, training, rng=None, lags=None):
        if not training:
            return Tensor(self._infer(x.data))
        p1, p2 = self.pools
        weights = (self.temporal_conv.weight, self.depthwise_conv.weight)
        bns = (_batch_norm_args(self.bn_temporal), _batch_norm_args(self.bn_depthwise))
        h = ops.stem_bn_elu_pool(x, *weights, *bns, p1, self.p_drop, rng, lags)  # (B, width, T / p1)
        u, width, _, k = self.spa_conv.weight.shape
        weight = self.spa_conv.weight.reshape((u, width, k))
        h = ops.conv1d_dilated(h, weight, pad=ops.same_pad(k))
        return ops.bn_elu_pool(h, *_batch_norm_args(self.bn_spa), p2, self.p_drop, rng)

    def _infer(self, x):
        """Eval-mode branch on the raw (B, 1, C, T) array x, with no tape:
        the folded stem and first tail (ops.stem_elu_pool), then spa_conv
        with bn_spa folded into its weight and ops.elu_pool adding the
        folded shift. The folded weights are computed per call, because
        training moves the parameters between evaluations."""
        p1, p2 = self.pools
        h = ops.stem_elu_pool(
            x,
            self.temporal_conv.weight.data,
            self.depthwise_conv.weight.data,
            _affine(self.bn_temporal),
            _affine(self.bn_depthwise),
            p1,
        )  # (B, width, T / p1)
        weight, shift = _fold(self.bn_spa, self.spa_conv.weight.data[:, :, 0], x.dtype)  # (U, width, K)
        h = ops.conv1d_dilated(h, weight, pad=ops.same_pad(self.spa_kernel)).data
        return ops.elu_pool(h, shift, p2)


def _batch_norm_args(bn):
    """A BatchNorm layer's (gamma, beta, running_mean, running_var)."""
    return bn.gamma, bn.beta, bn.running_mean, bn.running_var


def _affine(bn):
    """A BatchNorm layer's eval-mode map, ops.bn_affine of its arrays."""
    return ops.bn_affine(bn.gamma.data, bn.beta.data, bn.running_mean, bn.running_var)


def _fold(bn, weight, dtype):
    """Eval-mode bn folded into the raw (Cout, Cin, K) conv weight before it:
    the scaled weight and the (Cout, 1) shift that elu_pool adds, in dtype."""
    scale, shift = _affine(bn)
    return (scale[:, None, None] * weight).astype(dtype), shift.astype(dtype)[:, None]


class CsanetModel(Layer):
    """Full network; construction order fixes the init draw order."""

    def __init__(self, cfg: ModelConfig, rng):
        super().__init__()
        cfg.validate()
        self.config = cfg
        self.branch1 = Branch(cfg, 0, rng)
        self.branch2 = Branch(cfg, 1, rng)
        self.branch3 = Branch(cfg, 2, rng)
        self.branch4 = Branch(cfg, 3, rng)
        width = cfg.tcn.filters if cfg.tcn_enabled else cfg.spa_filters
        per_branch = width if cfg.readout == "last_step" else width * cfg.t0
        self.classifier = Linear(4 * per_branch, cfg.n_classes, rng)
        self.assign_parameter_names()

    @property
    def branches(self):
        return [self.branch1, self.branch2, self.branch3, self.branch4]

    @property
    def dtype(self):
        """The parameters' dtype: the one dtype its inputs must have."""
        return self.classifier.weight.dtype

    def fuse_branches(self, zs, training):
        """Attention fusion of the four branch outputs.

        main_auxiliary: branch 1 self-attends densely; branches 2-4 query
        branch 1's pooled keys/values with sparse cross-attention.
        hierarchical: branch 1 self-attends; each later branch's query is
        the previous branch's fused output, keys/values its own features.
        """
        cfg = self.config
        shapes = {tuple(z.shape) for z in zs}
        if len(zs) != 4 or len(shapes) != 1:
            raise DimensionError("fusion expects four equal-shape branch outputs")
        acfg = cfg.attention
        dense_cfg = dataclasses.replace(acfg, topk_enabled=False)

        def fused(z, att_out):
            return residual_fuse(z, att_out) if cfg.residual_enabled else att_out

        outputs = [fused(zs[0], msca_forward(zs[0], zs[0], self.branch1.attention, dense_cfg))]
        if cfg.fusion_mode == "main_auxiliary":
            for i in (1, 2, 3):
                att = msca_forward(zs[i], zs[0], self.branches[i].attention, acfg)
                outputs.append(fused(zs[i], att))
        else:  # hierarchical: chain queries branch to branch
            query = zs[0]
            for i in (1, 2, 3):
                att = msca_forward(query, zs[i], self.branches[i].attention, acfg)
                m = fused(zs[i], att)
                outputs.append(m)
                query = m
        return outputs

    def tcn_forward(self, m, branch, training, rng=None):
        """Per-branch temporal network plus the configured readout."""
        cfg = self.config
        h = branch.tcn(m, training, rng) if cfg.tcn_enabled else m
        b, u, t0 = h.shape
        if cfg.readout == "last_step":
            return narrow(h, 2, t0 - 1, 1).reshape((b, u))
        return h.reshape((b, u * t0))

    def __call__(self, x, training=False, rng=None):
        """Logits (B, L) for a (B, 1, C, T) input of the parameters' dtype.

        Eval mode records no tape: the branches run their folded inference
        pass, and fusion, TCNs and classifier run under no_grad.
        """
        cfg = self.config
        x = x if isinstance(x, Tensor) else Tensor(x)
        if x.ndim != 4 or x.shape[1] != 1 or x.shape[2] != cfg.channels or x.shape[3] != cfg.time_steps:
            raise DimensionError(
                f"expected input (B, 1, {cfg.channels}, {cfg.time_steps}), got {x.shape}"
            )
        if x.dtype != self.dtype:
            raise DataError(f"input dtype {x.dtype} does not match the model's parameter dtype {self.dtype}")
        with nullcontext() if training else no_grad():
            # One lag table at the longest kernel serves every branch's statistics.
            lags = ops.lag_prefixes(x.data, max(cfg.temporal_kernels)) if training else None
            zs = [branch(x, training, rng, lags) for branch in self.branches]
            ms = self.fuse_branches(zs, training)
            feats = concat(
                [self.tcn_forward(m, branch, training, rng) for m, branch in zip(ms, self.branches)],
                axis=1,
            )
            return self.classifier(feats)

    def predict(self, x):
        """Class indices for a (B, 1, C, T) array, eval mode, no tape."""
        return np.argmax(self(x, training=False).data, axis=1)


def count_parameters(cfg: ModelConfig):
    """Per-group parameter counts of the model cfg builds, plus "total".

    A group is a parameter's layer path cut to two names: each branch
    child (branch1.spa_conv, branch1.tcn, ...) and the classifier.
    """
    counts = {}
    for name, p in CsanetModel(cfg, np.random.default_rng(0)).named_parameters():
        group = ".".join(name.split(".")[:-1][:2])
        counts[group] = counts.get(group, 0) + p.data.size
    counts["total"] = sum(counts.values())
    return counts
