"""conv1d_dilated's FFT path (_conv1d_fft): against the naive loop oracle
in float64, float32 against float64, its routing rule, its tape, and one
paper-config training step against the direct path; and the direct path's
groups against the ungrouped direct conv they replaced."""

import math

import numpy as np
import pytest

from csanet import ops
from csanet.autodiff import Tensor, no_grad, precision
from csanet.config import ModelConfig
from csanet.errors import DimensionError
from csanet.model import Branch, CsanetModel
from csanet.verification import mini_model_config

from oracles import naive_conv1d, oracle_branch_call, oracle_conv1d_direct
from test_gradients import MODEL_MINI_STRUCTURALLY_ZERO

EPS32 = float(np.finfo(np.float32).eps)

# (B, Cin, Cout, K, T): K from 16 to 64; T = 16, 45, 81 and 100 are
# 5-smooth, 47, 61 and 97 are not (prime).
FFT_SHAPES = [
    (4, 3, 2, 16, 47),
    (5, 2, 3, 16, 16),
    (8, 2, 3, 24, 45),
    (16, 1, 2, 33, 61),
    (64, 2, 1, 16, 20),
    (6, 3, 4, 64, 81),
    (4, 4, 2, 64, 97),
    (32, 2, 3, 20, 100),
]


@pytest.fixture
def fft_calls(monkeypatch):
    """Shapes (B, Cin, T, Cout, K) of every call that takes the FFT path,
    T the padded length the transforms run over."""
    calls = []
    fft = ops._conv1d_fft

    def spy(x, weight, to, pad):
        calls.append(x.shape[:2] + (x.shape[2] + sum(pad),) + weight.shape[::2])
        return fft(x, weight, to, pad)

    monkeypatch.setattr(ops, "_conv1d_fft", spy)
    return calls


def run_conv(x, w, gout):
    """Output, input gradient and weight gradient of conv1d_dilated."""
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    out = ops.conv1d_dilated(xt, wt)
    (out * Tensor(gout)).sum().backward()
    return out.data, xt.grad, wt.grad


def conv_arrays(seed, B, cin, cout, K, T, dtype=np.float64):
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.standard_normal((B, cin, T))
    w = rng.standard_normal((cout, cin, K)) / math.sqrt(cin * K)
    gout = rng.standard_normal((B, cout, T - K + 1))
    return [a.astype(dtype) for a in (x, w, gout)]


def max_rel(got, want):
    return float(np.abs(got - want).max()) / float(np.abs(want).max())


@pytest.mark.parametrize("shape", FFT_SHAPES, ids=["x".join(map(str, s)) for s in FFT_SHAPES])
def test_matches_naive_oracle_in_float64(shape, monkeypatch, fft_calls):
    monkeypatch.setattr(ops, "FFT_MIN_WORK", 0)
    B, cin, cout, K, T = shape
    x, w, gout = conv_arrays(sum(shape), *shape)
    got = run_conv(x, w, gout)
    assert fft_calls == [(B, cin, T, cout, K)]
    want = naive_conv1d(x, w, gout=gout)
    for name, g, e in zip(("output", "input grad", "weight grad"), got, want):
        assert g.shape == e.shape and g.dtype == np.float64, name
        assert max_rel(g, e) <= 1e-12, name


@pytest.mark.parametrize("shape", [(32, 32, 32, 32, 156), (4, 3, 2, 16, 47), (16, 8, 12, 64, 300)])
def test_float32_within_a_few_eps_of_float64(shape, monkeypatch, fft_calls):
    monkeypatch.setattr(ops, "FFT_MIN_WORK", 0)
    arrays = conv_arrays(7, *shape, dtype=np.float32)
    got = run_conv(*arrays)
    want = run_conv(*(a.astype(np.float64) for a in arrays))
    assert len(fft_calls) == 2
    for name, g, e in zip(("output", "input grad", "weight grad"), got, want):
        assert g.dtype == np.float32, name  # no complex or float64 array leaks out
        assert max_rel(g, e) <= 4 * EPS32, name


def test_tape_keeps_no_spectrum_and_the_output_owns_its_memory(monkeypatch, fft_calls):
    monkeypatch.setattr(ops, "FFT_MIN_WORK", 0)
    x, w, _ = conv_arrays(9, 4, 3, 5, 16, 40)
    x, w = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    out = ops.conv1d_dilated(x, w)
    assert fft_calls
    # The tape keeps the parents and shape integers; the nested helpers
    # keep only the transform length.
    kept = [cell.cell_contents for cell in out._backward.__closure__]
    assert not any(isinstance(v, np.ndarray) for v in kept)
    helpers = [v for v in kept if callable(v) and not isinstance(v, Tensor)]
    assert helpers
    for fn in helpers:
        assert all(isinstance(c.cell_contents, int) for c in fn.__closure__)
    # A compact copy of the first T_out samples, not a view of the irfft buffer.
    owner = out.data if out.data.base is None else out.data.base
    assert owner.nbytes == out.data.nbytes
    out.sum().backward()
    assert x.grad.shape == x.shape and w.grad.shape == w.shape


def test_routing_rule(fft_calls):
    """The rule itself, at the edges of each condition."""
    K = ops.FFT_MIN_TAPS
    to = 32
    B = -(-ops.FFT_MIN_WORK // (to * K))  # the smallest batch that qualifies

    def conv(B, K, dilation=1, pad=(0, 0)):  # T_out = to
        T = to + (K - 1) * dilation - sum(pad)
        out = ops.conv1d_dilated(Tensor(np.zeros((B, 1, T))), Tensor(np.zeros((1, 1, K))), dilation, pad)
        assert out.shape == (B, 1, to)

    conv(B, K)
    assert len(fft_calls) == 1
    conv(B - 1, K)  # too little work
    conv(B * 2, K - 1)  # too few taps
    conv(B, K, pad=(1, 0))  # left-only padding: the TCN's causal shape
    conv(B, K, dilation=2)
    assert len(fft_calls) == 1
    conv(B, K, pad=(1, 1))
    conv(B, K, pad=ops.same_pad(K))
    assert len(fft_calls) == 3


def forward_batch(cfg, B, seed=0):
    model = CsanetModel(cfg, rng=np.random.Generator(np.random.PCG64(seed)))
    x = np.random.Generator(np.random.PCG64(seed + 1)).standard_normal((B, 1, cfg.channels, cfg.time_steps))
    with no_grad():
        model(Tensor(x.astype(np.float32)), training=False)


@pytest.mark.parametrize("B", [16, 32, 64])
def test_paper_spa_conv_takes_the_fft_path_at_bench_batch_sizes(B, fft_calls):
    # paper_train's step and train-set eval, paper_eval's evaluate batch.
    cfg = ModelConfig()
    forward_batch(cfg, B)
    t1 = cfg.time_steps // cfg.pools[0] + cfg.spa_kernel - 1  # padded by same_pad
    width = cfg.spa_filters
    assert fft_calls == [(B, width, t1, width, cfg.spa_kernel)] * 4


def test_tcn_and_b1_decoding_stay_direct(fft_calls, monkeypatch):
    direct = []
    conv1d = ops.conv1d_dilated

    def spy(x, weight, dilation=1, pad=(0, 0)):
        taps = (weight[0] if isinstance(weight, list) else weight).shape[-1]  # the TCN's groups, one per branch
        direct.append((x.shape[0], taps, dilation, pad[1] == 0 < pad[0]))
        return conv1d(x, weight, dilation=dilation, pad=pad)

    monkeypatch.setattr(ops, "conv1d_dilated", spy)
    cfg = ModelConfig()
    forward_batch(cfg, 1)  # B = 1 decoding: no call qualifies
    assert fft_calls == []
    causal = [c for c in direct if c[3]]  # padded on the left only
    assert causal and all(c[1] == cfg.tcn.kernel for c in causal)
    assert len(direct) - len(causal) == 4  # the four spa_convs, direct
    direct.clear()
    forward_batch(cfg, 32)  # the TCN's causal convs stay direct at any batch
    assert len(fft_calls) == 4 and len(direct) == 4 + len(causal)


def test_model_mini_stays_direct(fft_calls):
    forward_batch(mini_model_config(), 64)  # K = 4 at any batch
    assert fft_calls == []


def fft_batch(cfg):
    """The smallest batch whose spa_conv takes the FFT path."""
    return -(-ops.FFT_MIN_WORK // ((cfg.time_steps // cfg.pools[0]) * cfg.spa_kernel))


def paper_step(B):
    """Logits, named grads and named buffers of one float64 training step."""
    cfg = ModelConfig()
    with precision("float64"):
        model = CsanetModel(cfg, rng=np.random.Generator(np.random.PCG64(40)))
        x = np.random.Generator(np.random.PCG64(41)).standard_normal((B, 1, cfg.channels, cfg.time_steps))
        logits = model(Tensor(x), training=True, rng=np.random.Generator(np.random.PCG64(42)))
        ops.cross_entropy(logits, np.arange(B) % cfg.n_classes).backward()
    arrays = {"logits": logits.data}
    arrays.update((f"{n} grad", p.grad) for n, p in model.named_parameters())
    arrays.update(model.named_buffers())
    return arrays


def test_paper_training_step_matches_the_direct_path(monkeypatch, fft_calls):
    B = fft_batch(ModelConfig())
    got = paper_step(B)
    assert len(fft_calls) == 4
    monkeypatch.setattr(ops, "FFT_MIN_WORK", math.inf)
    want = paper_step(B)
    assert len(fft_calls) == 4
    assert got.keys() == want.keys()
    zero = {f"{n} grad" for n in MODEL_MINI_STRUCTURALLY_ZERO}
    for name, w in want.items():
        g = got[name]
        if name in zero:
            for a in (g, w):
                assert a is None or float(np.abs(a).max()) <= 1e-14, name
            continue
        assert g.dtype == w.dtype, name
        assert float(np.abs(g - w).max()) <= 1e-9 * float(np.abs(w).max()), name


@pytest.mark.parametrize("training", [True, False])
def test_float32_paper_logits_within_256_eps_of_float64_oracle(training, monkeypatch, fft_calls):
    cfg = ModelConfig()
    B = fft_batch(cfg)
    x = np.random.Generator(np.random.PCG64(51)).standard_normal((B, 1, cfg.channels, cfg.time_steps))
    x = x.astype(np.float32)

    def logits(model, dtype):
        with no_grad():
            return model(Tensor(x.astype(dtype)), training, np.random.Generator(np.random.PCG64(52))).data

    with precision("float32"):
        model32 = CsanetModel(cfg, rng=np.random.Generator(np.random.PCG64(50)))
        got = logits(model32, np.float32)
    assert len(fft_calls) == 4 and got.dtype == np.float32
    with precision("float64"):
        model64 = CsanetModel(cfg, rng=np.random.Generator(np.random.PCG64(50)))
        for (_, p64), (_, p32) in zip(model64.named_parameters(), model32.named_parameters()):
            p64.data = p32.data.astype(np.float64)  # the float32 model's values, exactly
        monkeypatch.setattr(Branch, "__call__", oracle_branch_call)
        want = logits(model64, np.float64)
    assert want.dtype == np.float64
    err = float(np.abs(got - want).max()) / max(1.0, float(np.abs(want).max()))
    assert err <= 256 * EPS32


# (B, G, Cin, Cout, K, dilation, padding): the TCN's causal shapes, copied
# tap by tap (K < TAP_GATHER), and same-padded ones copied at once, among
# them spa_conv's K = 32 at B = 1 and a size whose ungrouped call would take
# the FFT path.
GROUPED = [
    (32, 4, 32, 32, 4, 2, "causal"),
    (1, 4, 32, 32, 4, 1, "causal"),
    (3, 2, 3, 5, 3, 2, "causal"),
    (1, 2, 32, 32, 32, 1, "same"),
    (80, 2, 2, 3, 16, 1, "same"),
]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("shape", GROUPED, ids=["x".join(map(str, s[:5])) + s[6] for s in GROUPED])
def test_groups_are_bitwise_the_ungrouped_direct_conv(shape, dtype, fft_calls):
    """Each group's output, input gradient and weight gradient byte-equal
    to the ungrouped direct conv on its channels (oracle_conv1d_direct),
    from an output gradient laid out as a tail's backward returns it; the
    output is time-major, and no grouped call takes the FFT path."""
    B, G, cin, cout, K, dilation, padding = shape
    pad = ((K - 1) * dilation, 0) if padding == "causal" else ops.same_pad(K)
    rng = np.random.Generator(np.random.PCG64(B * K))
    x = rng.standard_normal((B, G * cin, 17)).astype(dtype)
    weights = [rng.standard_normal((cout, cin, K)).astype(dtype) for _ in range(G)]
    xt, wts = Tensor(x, requires_grad=True), [Tensor(w, requires_grad=True) for w in weights]
    out = ops.conv1d_dilated(xt, wts, dilation=dilation, pad=pad)
    gout = rng.standard_normal((B, out.shape[2], G * cout)).astype(dtype).transpose(0, 2, 1)
    out.backward(gout)
    assert out.data.transpose(0, 2, 1).flags.c_contiguous and fft_calls == []
    for g in range(G):
        i, o = slice(g * cin, (g + 1) * cin), slice(g * cout, (g + 1) * cout)
        xg, wg = Tensor(np.ascontiguousarray(x[:, i]), requires_grad=True), Tensor(weights[g], requires_grad=True)
        want = oracle_conv1d_direct(xg, wg, dilation, pad)
        want.backward(np.ascontiguousarray(gout[:, o].transpose(0, 2, 1)).transpose(0, 2, 1))
        for got, ref in ((out.data[:, o], want.data), (xt.grad[:, i], xg.grad), (wts[g].grad, wg.grad)):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


def test_groups_of_other_shapes_or_widths_are_dimension_errors():
    x = Tensor(np.zeros((2, 6, 9)))
    for weights in ([np.zeros((3, 3, 2)), np.zeros((3, 3, 3))], [np.zeros((3, 2, 2))] * 2, [np.zeros((3, 3, 2, 1))] * 2):
        with pytest.raises(DimensionError):
            ops.conv1d_dilated(x, [Tensor(w) for w in weights], pad=(1, 0))
