"""Named gradient-check scopes for the CLI and the test suite.

Every scope builds small float64 inputs, a deterministic scalar-valued
closure, and runs the finite-difference comparison. The "model-mini"
scope checks every parameter group of a miniature end-to-end model. The
scopes cover the ops a model path runs, and one that none runs:
topk_softmax, whose rows msca_forward's one op computes itself (the msca
scope checks that op on its top-k, dense and self-attention paths) and
which stays because perfbench/trace.py binds it by name. The retired ops
(conv2d, batch_norm, elu, avg_pool2d) are checked by
tests/test_gradients.py.
"""

import numpy as np

from . import ops
from .attention import AttentionParams, msca_forward, multiscale_pool, topk_softmax
from .autodiff import Tensor, precision
from .config import AttentionConfig, ModelConfig, TcnConfig
from .gradcheck import GradCheckReport, grad_check
from .model import CsanetModel, TcnBlock, tcn_block


def mini_model_config() -> ModelConfig:
    """A miniature config (C=3, T=64, B=2, L=2 scale) for end-to-end checks.

    Dropout is zero so the closures stay deterministic under perturbation.
    """
    return ModelConfig(
        channels=3,
        time_steps=64,
        n_classes=2,
        temporal_kernels=(8, 6, 4, 3),
        depth_multiplier=2,
        pools=(4, 4),
        spa_filters=4,
        spa_kernel=4,
        conv_dropout=0.0,
        attention=AttentionConfig(heads=2),
        tcn=TcnConfig(dilations=(1, 2), kernel=2, dropout=0.0),
    )


def _proj_loss(out, rng):
    """Project to a scalar with fixed random weights (breaks symmetry)."""
    c = Tensor(rng.standard_normal(out.shape))
    return (out * c).sum()


def _rng(seed=7):
    return np.random.Generator(np.random.PCG64(seed))


def _check_linear():
    rng = _rng(3)
    x = Tensor(rng.standard_normal((3, 7)))
    w = Tensor(rng.standard_normal((4, 7)) * 0.5)
    b = Tensor(rng.standard_normal(4))
    return grad_check(
        lambda x_, w_, b_: _proj_loss(ops.linear(x_, w_, b_), _rng(102)),
        [x, w, b],
    )


def _check_softmax():
    rng = _rng(6)
    x = Tensor(rng.standard_normal((3, 7)))
    return grad_check(lambda x_: _proj_loss(ops.softmax(x_, axis=-1), _rng(105)), [x])


def _check_cross_entropy():
    rng = _rng(7)
    logits = Tensor(rng.standard_normal((4, 5)))
    targets = np.array([0, 2, 4, 1])
    return grad_check(lambda l_: ops.cross_entropy(l_, targets), [logits])


def _check_topk_softmax():
    rng = _rng(9)
    scores = Tensor(rng.standard_normal((3, 4, 7)))
    return grad_check(lambda s_: _proj_loss(topk_softmax(s_, 3), _rng(107)), [scores])


def _check_multiscale_pool():
    rng = _rng(10)
    y = Tensor(rng.standard_normal((2, 4, 9)))
    cfg = AttentionConfig(heads=2)
    return grad_check(lambda y_: _proj_loss(multiscale_pool(y_, cfg), _rng(108)), [y])


def _check_msca():
    """msca_forward with the pool: top-k cross-attention, dense
    cross-attention and dense x-is-y self-attention (branch 1's case), one
    report whose labels name the case and the input."""
    rng = _rng(11)
    with precision("float64"):
        params = AttentionParams(4, _rng(12))
    x, y = (Tensor(rng.standard_normal((2, 4, 6))) for _ in range(2))
    tensors = dict(x=x, y=y, **{name: getattr(params, name) for name in ("w_q", "w_k", "w_v", "alpha", "beta")})
    dense = AttentionConfig(heads=2, topk_enabled=False)
    cases = [
        ("topk", AttentionConfig(heads=2), y, "x y w_q w_k w_v alpha beta"),
        ("dense", dense, y, "x y w_q w_k w_v"),
        ("self", dense, x, "x w_q w_k w_v"),
    ]
    report = GradCheckReport([], 0.0, [])
    for case, cfg, source, names in cases:
        inputs = [tensors[name] for name in names.split()]
        part = grad_check(lambda *_: _proj_loss(msca_forward(x, source, params, cfg), _rng(109)), inputs)
        report.structurally_zero += [len(report.per_input) + i for i in part.structurally_zero]
        report.per_input += part.per_input
        report.labels += [f"{case}.{name}" for name in names.split()]
        report.max_rel_error = max(report.max_rel_error, part.max_rel_error)
    return report


def _check_tcn():
    """model.tcn_block over two branches in training: a grouped causal conv
    at dilation 2 -> tail at pool 1, twice, each tail with one dropout mask,
    drawn once and passed to every call, plus the residual."""
    rng = _rng(13)
    with precision("float64"):
        blocks = [TcnBlock(3, 2, 2, rng) for _ in range(2)]
    x = Tensor(rng.standard_normal((3, 6, 8)))
    keep = [ops.dropout_mask((3, 6, 8), 0.5, _rng(119 + i), np.float64) for i in range(2)]
    named = [(f"{i}.{name}", p) for i, block in enumerate(blocks) for name, p in block.named_parameters()]
    report = grad_check(lambda *_: _proj_loss(tcn_block(blocks, x, True, keep), _rng(110)), [x] + [p for _, p in named])
    report.labels = ["x"] + [name for name, _ in named]
    return report


def _check_stem():
    """stem_bn_elu_pool (training mode only) at an even and an odd kernel,
    with T % pool != 0 and one dropout mask per kernel, drawn once and
    passed to every call. Each bn_temporal beta is structurally zero."""
    rng = _rng(16)
    x = Tensor(rng.standard_normal((3, 1, 3, 10)))
    params, buffers, labels = [], [], []
    for k in (4, 5):
        params += [Tensor(rng.standard_normal((2, 1, 1, k)) * 0.5), Tensor(rng.standard_normal((4, 1, 3, 1)) * 0.5)]
        for c in (2, 4):  # bn_temporal's gamma and beta, then bn_depthwise's
            params += [Tensor(1.0 + 0.1 * rng.standard_normal(c)), Tensor(0.5 * rng.standard_normal(c))]
        buffers.append([(0.1 * rng.standard_normal(c), 1.0 + rng.random(c)) for c in (2, 4)])
        labels += [f"k{k}.{name}" for name in ("weight", "depthwise", "gamma", "beta", "gamma2", "beta2")]
    keeps = [ops.dropout_mask((3, 4, 3), 0.5, _rng(120 + i), np.float64) for i in range(2)]

    def closure(*p):
        losses = []
        for i, bufs in enumerate(buffers):
            w, dw, g1, b1, g2, b2 = p[6 * i : 6 * i + 6]
            bns = [(g, b, rm.copy(), rv.copy()) for (g, b), (rm, rv) in zip(((g1, b1), (g2, b2)), bufs)]
            out = ops.stem_bn_elu_pool(x, w, dw, *bns, 3, keeps[i])
            losses.append(_proj_loss(out, _rng(112 + 2 * i)))
        return losses[0] + losses[1]

    report = grad_check(closure, params)
    report.labels = labels
    return report


def _check_tail():
    """bn_elu_pool (training mode only) as after spa_conv, with T % pool !=
    0 and one dropout mask, drawn once and passed to every call. The tcn
    scope checks it at pool 1 on the channels-last output of the TCN's
    grouped convs."""
    rng = _rng(17)
    params = [
        Tensor(rng.standard_normal((3, 2, 11))),
        Tensor(1.0 + 0.1 * rng.standard_normal(2)),
        Tensor(0.5 * rng.standard_normal(2)),
    ]
    rm, rv = 0.1 * rng.standard_normal(2), 1.0 + rng.random(2)
    keep = ops.dropout_mask((3, 2, 3), 0.5, _rng(112), np.float64)
    report = grad_check(lambda *p: _proj_loss(ops.bn_elu_pool(*p, rm.copy(), rv.copy(), 3, keep), _rng(114)), params)
    report.labels = ["x", "gamma", "beta"]
    return report


def _check_model_mini():
    cfg = mini_model_config()
    with precision("float64"):
        model = CsanetModel(cfg, rng=_rng(14))
    rng = _rng(15)
    x = Tensor(rng.standard_normal((2, 1, cfg.channels, cfg.time_steps)))
    y = np.array([0, 1])
    params = list(model.parameters())

    report = grad_check(
        lambda *_: ops.cross_entropy(model(x, training=True), y),
        params,
    )
    report.labels = [p.name for p in params]
    return report


GRADCHECK_SCOPES = {
    "linear": _check_linear,
    "softmax": _check_softmax,
    "cross_entropy": _check_cross_entropy,
    "topk_softmax": _check_topk_softmax,
    "multiscale_pool": _check_multiscale_pool,
    "msca": _check_msca,
    "tcn": _check_tcn,
    "stem": _check_stem,
    "tail": _check_tail,
    "model-mini": _check_model_mini,
}


def run_scope(name):
    if name not in GRADCHECK_SCOPES:
        raise KeyError(name)
    return GRADCHECK_SCOPES[name]()
