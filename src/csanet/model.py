"""The assembled network: four conv branches, attention fusion, TCNs, head.

Each branch pairs one temporal kernel scale with its own spatial feature
extractor (temporal conv -> batch norm -> depthwise channel conv, run
spatial-first, then a pooled spatial-refinement conv; each of the two
stages ends in batch norm -> ELU -> pool -> dropout, and the first stage
with its tail is one op). Branch outputs are fused by attention (the first
branch attends to itself densely; the others run sparse
cross-attention; each is one op, attention.msca_forward, followed by the
residual add), passed through the branches' temporal convolutional
networks as one pass over the fused maps stacked into one (B, 4U, T0) map
(tcn_block: a grouped causal conv, a group per branch, written time-major,
(B, T0, 4U) in memory, so each branch's batch-norm sums keep the bits of a
branch run alone; one tail over all four branches' channels at pool 1),
and classified from its readout. Only a training forward with grad
enabled records a tape, on Tensors through the ops. Every other forward
(eval; training under no_grad, as a gradient check's perturbed losses
run) calls the ops' raw-array kernels from the input to the logits and
builds no Tensor; below __call__ the maps' type carries the choice. Both
paths give a training forward the same bits and buffers; eval runs each
batch norm as its fixed map, ops.bn_affine.

Both modes use the cores the process may use (WORKERS) through one call,
fork_join, which runs its calls on the calling thread and on threads it
starts for that call and joins before it returns, so no thread outlives a
batch or a step; WORKERS is 1 unless BLAS is known to run one thread
(csanet.BLAS_ONE_THREAD), so that a worker never multiplies BLAS's
threads. Eval mode has no batch statistics, so its trials never interact:
a batch runs as up to one contiguous block per worker, each of at least
EVAL_MIN_BLOCK trials. In training the four branches read no other
branch's output before fusion: from TRAIN_MIN_WORK input samples on,
their forwards run by fork_join, in branch order; on the tape they join
it as one node whose backward walks the four branch tapes by fork_join as
well (autodiff.join). Each branch writes only its own running buffers and
its own parameters' gradients, so logits, gradients and buffers come out
byte-equal to the serial step's, as the eval rows do to the serial
forward's. No global of autodiff changes while the threads run: the
kernels read none.
"""

import dataclasses
import os
import threading

import numpy as np

from . import BLAS_ONE_THREAD, autodiff, ops
from .attention import AttentionParams, msca_forward, residual_fuse
from .autodiff import Tensor, concat, default_dtype, join, narrow
from .config import ModelConfig
from .errors import DataError, DimensionError
from .layers import BatchNorm, Conv, Layer, LayerList, Linear

# Workers run only while BLAS runs one thread in each, so a worker never
# multiplies BLAS's threads (see csanet.BLAS_ONE_THREAD).
if not BLAS_ONE_THREAD:
    WORKERS = 1
elif hasattr(os, "sched_getaffinity"):
    WORKERS = len(os.sched_getaffinity(0))
else:
    WORKERS = os.cpu_count() or 1

# Fewest trials per eval block. Measured on a 2-core x86 host, one BLAS
# thread, default config, float32: two halves ran a B = 64 forward 1.56-1.65x
# faster than serial, B = 32 1.28-1.33x and B = 16 1.08-1.11x. Halves of 8
# trials or fewer ran at 0.45-0.95x, and splitting the 16-trial batches of
# paper-scale training's eval pass raised its peak RSS by about 5 MB.
EVAL_MIN_BLOCK = 16

# Fewest input samples (B * C * T) of a training forward whose branch stage
# runs on threads. Measured on a 2-core x86 host, one BLAS thread, forward
# and backward of a training step, serial -> two workers: 88,000 samples ran
# 0.92-0.96x (default config at B = 4, C = 22 and T = 250 at B = 16) and the
# mini config's 98,304 (B = 512) 0.90x, while 128,000-176,000 ran 1.23-1.56x
# (default config at B = 6 and 8, T = 250 at B = 32, C = 8 at B = 16). The
# mini config's B = 2 and 16 ran 0.72-0.73x.
TRAIN_MIN_WORK = 120000


def fork_join(fn, calls):
    """[fn(*args) for args in calls] on the calling thread and the
    min(WORKERS, len(calls)) - 1 threads started for this call. The caller
    runs call 0 and each thread one of the next, then each takes the next
    call left, in order, until none is: calls listed heaviest first spread
    evenly over the threads. Every thread started is joined before this
    returns or raises, also when a later one fails to start, so none
    outlives the caller's context; raises the first error in call order."""
    threads = min(WORKERS, len(calls))
    results, errors = [None] * len(calls), [None] * len(calls)
    rest, taken = iter(range(threads, len(calls))), threading.Lock()

    def run(i):
        while i is not None:
            try:
                results[i] = fn(*calls[i])
            except Exception as error:  # raised below, in call order
                errors[i] = error
            with taken:
                i = next(rest, None)

    started = []
    try:
        for i in range(1, threads):
            thread = threading.Thread(target=run, args=(i,))
            thread.start()
            started.append(thread)
        run(0)
    finally:
        for thread in started:
            thread.join()
    for error in errors:
        if error is not None:
            raise error
    return results


class TcnBlock(Layer):
    """One residual block's parameters: two causal dilated convs, each with
    its batch norm, paired in stages; tcn_block runs them."""

    def __init__(self, channels, kernel, dilation, rng):
        super().__init__()
        self.dilation = dilation
        self.conv1 = Conv((channels, channels, kernel), rng)
        self.bn1 = BatchNorm(channels)
        self.conv2 = Conv((channels, channels, kernel), rng)
        self.bn2 = BatchNorm(channels)
        self.stages = ((self.conv1, self.bn1), (self.conv2, self.bn2))


class TcnStack(Layer):
    """Residual blocks' parameters at increasing dilation."""

    def __init__(self, cfg: ModelConfig, rng):
        super().__init__()
        tcn = cfg.tcn
        self.blocks = LayerList(TcnBlock(cfg.spa_filters, tcn.kernel, d, rng) for d in tcn.dilations)


def tcn_block(blocks, x, training, keep=(None, None)):
    """The residual blocks `blocks` (one per branch, one dilation) as one
    pass over their (B, len(blocks) * U, T) maps x, side by side: grouped
    causal conv -> _tail at pool 1 by its mask of keep, twice, plus x."""
    x = x if training else _array(x)
    h, d = x, blocks[0].dilation
    for stage, mask in zip(zip(*(block.stages for block in blocks)), keep):
        convs, bns = zip(*stage)
        pad = ((convs[0].weight.shape[-1] - 1) * d, 0)
        h = _tail(_conv(h, [conv.weight for conv in convs], d, pad), bns, 1, mask, training)
    return x + h


def _conv(h, weights, dilation, pad):
    """ops.conv1d_dilated on a Tensor h; its kernel on a raw h."""
    if isinstance(h, Tensor):
        return ops.conv1d_dilated(h, weights, dilation=dilation, pad=pad)
    return ops._conv1d(h, [_array(w) for w in weights], dilation, pad)[0]


def _array(x):
    return x.data if isinstance(x, Tensor) else x


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
    (U, U, 1, K) weight (U = spa_filters, the feature width) read as
    (U, U, K), and its tail (bn_spa -> ELU -> pool p2 -> dropout) is
    ops.bn_elu_pool; keep holds the two tails' dropout masks. The Conv and
    BatchNorm layers only hold the parameters and buffers, in the shapes,
    names and init draw order of the checkpoint format.

    bn_temporal.beta is dead in training: bn_depthwise's mean subtraction
    cancels its per-filter shift, so the fused op gives it an exact 0
    gradient and Adam leaves it bitwise unchanged. It stays because eval
    mode reads it (in ops.stem_elu_pool's shift, through c_f = beta_f - a_f
    * running_mean_f) and it is a checkpoint blob.

    Off the tape the branch runs on the raw x: in training the ops'
    kernels; in eval ops.stem_elu_pool, spa_conv's stored weight and
    ops.elu_pool, each batch norm its fixed map, ops.bn_affine, which equals
    the composition's eval semantics in real arithmetic and is held to the
    numerics contract (tests/test_numerics_contract.py) in floating point.
    """

    def __init__(self, cfg: ModelConfig, index, rng):
        super().__init__()
        self.temporal_kernel = cfg.temporal_kernels[index]
        self.pools = cfg.pools
        width = cfg.spa_filters
        filters = width // cfg.depth_multiplier

        self.temporal_conv = Conv((filters, 1, 1, self.temporal_kernel), rng)
        self.bn_temporal = BatchNorm(filters)
        self.depthwise_conv = Conv((width, 1, cfg.channels, 1), rng)
        self.bn_depthwise = BatchNorm(width)
        self.spa_conv = Conv((width, width, 1, cfg.spa_kernel), rng)
        self.bn_spa = BatchNorm(width)
        self.attention = AttentionParams(width, rng)
        if cfg.tcn_enabled:
            self.tcn = TcnStack(cfg, rng)
        else:
            self.tcn = None

    def __call__(self, x, training, lags=None, keep=(None, None)):
        (p1, p2), bns = self.pools, (self.bn_temporal, self.bn_depthwise)
        weights, spa = (self.temporal_conv.weight, self.depthwise_conv.weight), self.spa_conv.weight
        u, width, _, k = spa.shape
        if training and isinstance(x, Tensor):  # the taped forward
            h = ops.stem_bn_elu_pool(x, *weights, *map(_batch_norm_args, bns), p1, keep[0], lags)
            spa = spa.reshape((u, width, k))
        else:
            x, weights, spa = _array(x), [w.data for w in weights], spa.data.reshape(u, width, k)
            if training:
                args = [tuple(map(_array, _batch_norm_args(bn))) for bn in bns]
                h = ops._stem_bn_elu_pool(x, *weights, *args, p1, keep[0], lags)[0]
            else:
                h = ops.stem_elu_pool(x, *weights, *map(_affine, bns), p1)
        h = _conv(h, [spa], 1, ops.same_pad(k))  # (B, width, T / p1)
        return _tail(h, [self.bn_spa], p2, keep[1], training)


def _batch_norm_args(bn):
    """A BatchNorm layer's (gamma, beta, running_mean, running_var)."""
    return bn.gamma, bn.beta, bn.running_mean, bn.running_var


def _affine(bn):
    """A BatchNorm layer's eval-mode map, ops.bn_affine of its arrays."""
    return ops.bn_affine(bn.gamma.data, bn.beta.data, bn.running_mean, bn.running_var)


def _tail(h, bns, pool, keep, training):
    """Batch norm (the layers bns, side by side along C) -> ELU -> pool ->
    dropout by keep on the (B, C, T) map h: ops.bn_elu_pool on a Tensor h,
    its kernel on a raw h, or in eval ops.elu_pool with their fixed maps."""
    if isinstance(h, Tensor):
        return ops.bn_elu_pool(h, *zip(*map(_batch_norm_args, bns)), pool, keep)
    if training:
        gammas, betas, means, variances = zip(*map(_batch_norm_args, bns))
        joined = [np.concatenate([t.data for t in ts]) for ts in (gammas, betas)]
        return ops._bn_elu_pool(h, *joined, means, variances, pool, keep)[0]
    affine = [np.concatenate(m).astype(h.dtype)[:, None, None] for m in zip(*map(_affine, bns))]
    return ops.elu_pool(h.transpose(1, 0, 2), affine, pool)


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
        per_branch = cfg.spa_filters if cfg.readout == "last_step" else cfg.spa_filters * cfg.t0
        self.classifier = Linear(4 * per_branch, cfg.n_classes, rng)
        self.assign_parameter_names()

    @property
    def branches(self):
        return [self.branch1, self.branch2, self.branch3, self.branch4]

    @property
    def dtype(self):
        """The parameters' dtype: the one dtype its inputs must have."""
        return self.classifier.weight.dtype

    def fuse_branches(self, zs):
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

    def dropout_masks(self, batch, rng):
        """A training forward's dropout masks on `batch` trials, each an
        ops.dropout_mask (None, and no draw, at rate 0), in the one order rng
        gives them: per branch, the stem's and then the spa_conv tail's; then,
        per branch, each TCN block's two. Per branch: (Branch, TcnStack) keep."""
        cfg = self.config
        t1, t0 = cfg.time_steps // cfg.pools[0], cfg.t0

        def draw(t, p):
            return ops.dropout_mask((batch, cfg.spa_filters, t), p, rng, self.dtype)

        convs = [(draw(t1, cfg.conv_dropout), draw(t0, cfg.conv_dropout)) for _ in range(4)]
        blocks = range(len(cfg.tcn.dilations) if cfg.tcn_enabled else 0)
        tcns = [[(draw(t0, cfg.tcn.dropout), draw(t0, cfg.tcn.dropout)) for _ in blocks] for _ in range(4)]
        return list(zip(convs, tcns))

    def tcn_forward(self, ms, training, keeps=None):
        """The four branches' TCNs over the fused maps ms, stacked
        branch-major, a tcn_block per depth with the branches' masks keeps
        (per branch, as dropout_masks gives them) joined; then the readout,
        branch-major as the classifier reads it."""
        cfg = self.config
        taped = training and isinstance(ms[0], Tensor)
        h = concat(ms, axis=1) if taped else np.concatenate([_array(m) for m in ms], axis=1)
        depths = zip(*(branch.tcn.blocks for branch in self.branches)) if cfg.tcn_enabled else ()
        for j, blocks in enumerate(depths):
            keep = (None, None)
            if keeps and keeps[0][j][0] is not None:  # the four branches' masks, side by side
                stage = [[k[j][i] for k in keeps] for i in (0, 1)]
                keep = [ops.DropoutMask(np.concatenate([m.mask for m in ks], axis=1), ks[0].scale) for ks in stage]
            h = tcn_block(blocks, h, training, keep)
        b, c, t0 = h.shape
        if cfg.readout == "flatten":
            return h.reshape((b, c * t0))
        return narrow(h, 2, t0 - 1, 1).reshape((b, c)) if taped else h[:, :, t0 - 1 :].reshape((b, c))

    def __call__(self, x, training=False, rng=None):
        """Logits (B, L) for a (B, 1, C, T) input of the parameters' dtype,
        as a Tensor; off the tape, the one Tensor the forward builds.

        Eval mode passes ((None, None), None) per branch as its dropout
        masks, gives an empty batch (0, L) logits and cuts a batch into
        max(1, min(WORKERS, B // EVAL_MIN_BLOCK)) contiguous blocks, run by
        fork_join; one block runs on the calling thread alone.
        """
        cfg = self.config
        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        data = data if data.dtype.kind == "f" else data.astype(default_dtype())  # as a Tensor would hold it
        if data.ndim != 4 or data.shape[1:] != (1, cfg.channels, cfg.time_steps) or training and not len(data):
            raise DimensionError(
                f"expected input (B, 1, {cfg.channels}, {cfg.time_steps}), B >= 1 in training, got {data.shape}"
            )
        if data.dtype != self.dtype:
            raise DataError(f"input dtype {data.dtype} does not match the model's parameter dtype {self.dtype}")
        if training:
            if autodiff._GRAD_ENABLED:
                return self._forward(x if isinstance(x, Tensor) else Tensor(data), True, rng)
            return Tensor(self._forward(data, True, rng))
        B = len(data)
        if not B:
            return Tensor(np.empty((0, cfg.n_classes), dtype=self.dtype))
        n = max(1, min(WORKERS, B // EVAL_MIN_BLOCK))
        cuts = [B * i // n for i in range(n + 1)]
        return Tensor(np.concatenate(fork_join(self._forward, [(data[a:b], False) for a, b in zip(cuts, cuts[1:])])))

    def _forward(self, x, training, rng=None):
        """The forward of __call__ on a checked input, a Tensor to record
        the tape or a raw array for the kernels; it switches no global of
        autodiff, so eval blocks may run it on several threads at once."""
        cfg = self.config
        masks = self.dropout_masks(x.shape[0], rng) if training else [((None, None), None)] * 4
        # One lag table at the longest kernel serves every branch's statistics.
        lags = ops.lag_prefixes(_array(x), max(cfg.temporal_kernels)) if training else None
        zs = self._branch_stage(x, lags, [k for k, _ in masks]) if training else [b(x, False) for b in self.branches]
        feats = self.tcn_forward(self.fuse_branches(zs), training, [keep for _, keep in masks] if training else None)
        return self.classifier(feats)

    def _branch_stage(self, x, lags, keeps):
        """The four branches' training forwards, in branch order (heaviest
        first at the default kernels 64, 32, 16, 8). From TRAIN_MIN_WORK
        input samples on, and with two or more WORKERS, they run by
        fork_join; on the tape they join it as one node (autodiff.join),
        whose backward walks the four branch tapes by fork_join as well.
        Each branch writes only its own running buffers and its own
        parameters' gradients; x, the lag table and the masks are read."""

        def forward(branch, keep):
            return branch(x, True, lags, keep)

        calls = list(zip(self.branches, keeps))
        if WORKERS < 2 or x.size < TRAIN_MIN_WORK:
            return [forward(*args) for args in calls]
        zs = fork_join(forward, calls)
        return join(zs, fork_join) if isinstance(x, Tensor) else zs

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
