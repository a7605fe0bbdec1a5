"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass. Tolerances are pinned here and nowhere else.
"""

import dataclasses
import time

import numpy as np
import pytest

from csanet import ops
from csanet.attention import AttentionParams, msca_forward, topk_softmax
from csanet.augment import segment_bounds, sr_augment
from csanet.autodiff import Tensor, no_grad, precision
from csanet.checkpoint import checkpoint_bytes, load_checkpoint, save_checkpoint
from csanet.cli import apply_ablation
from csanet.config import (
    AttentionConfig,
    ModelConfig,
    RunConfig,
    SplitSpec,
    SrConfig,
    SynthSpec,
    TcnConfig,
    TrainConfig,
)
from csanet.data import TrialSet, read_eegd, write_eegd
from csanet.metrics import ConfusionMatrix, accuracy, kappa, std_across
from csanet.model import CsanetModel, count_parameters
from csanet.psd import welch_psd
from csanet.train import train_run
from csanet.verification import GRADCHECK_SCOPES, mini_model_config

from oracles import naive_avg_pool, naive_conv2d, naive_linear, naive_multihead_attention
from test_gradients import RETIRED_OP_CHECKS, run_check


def report_pass(number, text):
    print(f"ACCEPTANCE {number:02d} PASS: {text}")


def test_criterion_01_gradient_suite(model_mini_check):
    # The session's model-mini check is reused; its seconds count here.
    mini_report, mini_seconds = model_mini_check
    start = time.time()
    worst = {}
    for scope in [*GRADCHECK_SCOPES, *RETIRED_OP_CHECKS]:
        report = mini_report if scope == "model-mini" else run_check(scope)
        worst[scope] = report.max_rel_error
        assert report.passed(1e-3), f"{scope}: {report.max_rel_error:.3e} > 1e-3"
    elapsed = time.time() - start + mini_seconds
    assert elapsed < 120.0, f"gradient suite took {elapsed:.0f}s"
    overall = max(worst.values())
    report_pass(1, f"all {len(worst)} gradcheck scopes ≤ 1e-3 (worst {overall:.2e}, {elapsed:.0f}s)")


def test_criterion_02_oracle_equivalence():
    start = time.time()
    rng = np.random.Generator(np.random.PCG64(2001))
    cases = 100
    with precision("float64"):
        for _ in range(cases):
            # The (1, K) time conv over maps of height 1-4, caller-padded in time.
            b, cin, h, t = int(rng.integers(1, 3)), int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(1, 6))
            cout = int(rng.integers(1, 4))
            pw = int(rng.integers(0, 2))
            k = int(rng.integers(1, t + 2 * pw + 1))
            x = rng.standard_normal((b, cin, h, t))
            wt = rng.standard_normal((cout, cin, 1, k))
            xp = np.pad(x, ((0, 0), (0, 0), (0, 0), (pw, pw)))
            got = ops.conv2d(Tensor(xp), Tensor(wt)).data
            want = naive_conv2d(x, wt, padding=(0, pw))
            np.testing.assert_allclose(got, want, atol=1e-6)

        for _ in range(cases):
            n, din, dout = int(rng.integers(1, 6)), int(rng.integers(1, 8)), int(rng.integers(1, 6))
            x = rng.standard_normal((n, din))
            wt = rng.standard_normal((dout, din))
            bias = rng.standard_normal(dout) if rng.random() < 0.5 else None
            got = ops.linear(Tensor(x), Tensor(wt), None if bias is None else Tensor(bias)).data
            np.testing.assert_allclose(got, naive_linear(x, wt, bias), atol=1e-6)

        for _ in range(cases):
            # The (1, k) time pool at stride 1 or k, zero padding counted.
            b, c, t = int(rng.integers(1, 3)), int(rng.integers(1, 3)), int(rng.integers(1, 8))
            k = int(rng.integers(1, t + 1))
            p = int(rng.integers(0, k))
            stride = k if rng.random() < 0.5 else 1
            x = rng.standard_normal((b, c, 1, t))
            got = ops.avg_pool2d(Tensor(x), k, stride=stride, padding=p).data
            want = naive_avg_pool(x, (1, k), (1, stride), (0, p))
            np.testing.assert_allclose(got, want, atol=1e-6)

        for _ in range(cases):
            heads = int(rng.integers(1, 3))
            dk = int(rng.integers(1, 4))
            u = heads * dk
            b, t = int(rng.integers(1, 3)), int(rng.integers(1, 6))
            cfg = AttentionConfig(heads=heads, topk_enabled=False, multiscale_pool_enabled=False)
            params = AttentionParams(u, rng)
            x = rng.standard_normal((b, u, t))
            y = rng.standard_normal((b, u, t))
            got = msca_forward(Tensor(x), Tensor(y), params, cfg).data
            want = naive_multihead_attention(
                x, y, params.w_q.data, params.w_k.data, params.w_v.data, heads
            )
            np.testing.assert_allclose(got, want, atol=1e-6)

    elapsed = time.time() - start
    assert elapsed < 60.0, f"oracle suite took {elapsed:.0f}s"
    report_pass(2, f"time conv2d/linear/time avg_pool/attention match naive oracles on {cases} cases each ({elapsed:.0f}s)")


def test_criterion_03_sparsity_invariants():
    rng = np.random.Generator(np.random.PCG64(303))
    for _ in range(200):
        t0 = int(rng.integers(1, 12))
        keep = int(rng.integers(1, t0 + 1))
        scores = Tensor(rng.standard_normal((3, t0)) * 3)
        out = topk_softmax(scores, keep).data
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)
        np.testing.assert_array_equal(np.count_nonzero(out, axis=-1), keep)

    with precision("float64"):
        cfg_sparse = AttentionConfig(heads=2, keep_denominators=(1, 1), multiscale_pool_enabled=False)
        cfg_dense = dataclasses.replace(cfg_sparse, topk_enabled=False)
        params = AttentionParams(8, rng)
        params.alpha.data = np.asarray(1.0)
        params.beta.data = np.asarray(0.0)
        x = Tensor(rng.standard_normal((2, 8, 9)))
        y = Tensor(rng.standard_normal((2, 8, 9)))
        sparse = msca_forward(x, y, params, cfg_sparse).data
        dense = msca_forward(x, y, params, cfg_dense).data
        np.testing.assert_allclose(sparse, dense, atol=1e-6)
    report_pass(3, "top-k rows stochastic with exact support; keep=T0, α=1, β=0 equals dense")


def test_criterion_04_shape_formulas():
    cfg = ModelConfig(channels=22, time_steps=1000, n_classes=4)
    assert cfg.t0 == 17  # floor(floor(1000/8)/7)
    model = CsanetModel(cfg, rng=np.random.Generator(np.random.PCG64(4)))
    assert model.branch1.temporal_conv.weight.shape[0] == 16  # F = spa_filters / D
    assert model.branch1.depthwise_conv.weight.shape[0] == 32  # F x D = spa_filters
    with no_grad():
        logits = model(np.zeros((2, 1, 22, 1000), dtype=np.float32))
    assert logits.shape == (2, 4)
    report_pass(4, "U=32, T0=17, and (B, 4) logits on the 22-channel 1000-step config")


def test_criterion_05_sr_contract():
    start = time.time()
    rng = np.random.Generator(np.random.PCG64(505))
    C, T, S = 2, 16, 4
    bounds = segment_bounds(T, S)
    pool_x = np.empty((24, C, T), dtype=np.float32)
    pool_labels = np.empty(24, dtype=np.int64)
    for j in range(24):  # per trial: samples, then label
        pool_x[j] = rng.standard_normal((C, T))
        pool_labels[j] = rng.integers(0, 3)
    for batch_seed in range(1000):
        batch_rng = np.random.Generator(np.random.PCG64(batch_seed))
        idx = batch_rng.choice(len(pool_x), size=6, replace=False)
        batch = TrialSet(x=pool_x[idx], labels=pool_labels[idx], n_classes=3)
        out = sr_augment(batch, SrConfig(segments=S), batch_rng)
        assert len(out) == 2 * len(batch)
        for i, synth in enumerate(out.x[len(batch) :]):
            label = out.labels[len(batch) + i]
            assert label == batch.labels[i]
            donors = batch.x[batch.labels == label]
            for start_s, stop_s in bounds:
                seg = synth[:, start_s:stop_s].tobytes()
                assert any(
                    d[:, start_s:stop_s].tobytes() == seg for d in donors
                ), "synthetic segment must be bit-identical to a same-slot donor segment"
    elapsed = time.time() - start
    assert elapsed < 30.0, f"S&R contract suite took {elapsed:.0f}s"
    report_pass(5, f"1000 seeded batches double exactly with slot-pure segments ({elapsed:.0f}s)")


def test_criterion_06_overfit_convergence(tmp_path):
    start = time.time()
    run = RunConfig(
        synth=SynthSpec(n_per_class=32, channels=8, time_steps=256, n_classes=4, snr=3.0),
        model=ModelConfig(channels=8, time_steps=256, n_classes=4),
        split=SplitSpec(strategy="none"),
        train=TrainConfig(epochs=300, batch_size=64),
        seed=606,
        out_dir=str(tmp_path / "overfit"),
    )
    result = train_run(run, stop_at_train_acc=0.95)
    elapsed = time.time() - start
    assert result.final_train_acc >= 0.95, f"train acc {result.final_train_acc:.3f} after {result.epochs_run} epochs"
    assert result.epochs_run <= 300
    assert elapsed < 900.0, f"overfit run took {elapsed:.0f}s"

    # Evaluating the saved model on the train split reproduces the accuracy.
    from csanet.train import eval_run

    _, reloaded = load_checkpoint(result.checkpoint_path)
    report = eval_run(run, reloaded)
    assert report.acc >= 0.95
    report_pass(
        6,
        f"default config reached {result.final_train_acc:.1%} train acc in "
        f"{result.epochs_run} epochs ({elapsed:.0f}s)",
    )


def _ablation_base(tmp_path):
    return RunConfig(
        synth=SynthSpec(n_per_class=2, channels=6, time_steps=64, n_classes=3),
        model=ModelConfig(channels=6, time_steps=64, n_classes=3, pools=(4, 4)),
        split=SplitSpec(strategy="none"),
        train=TrainConfig(epochs=5, batch_size=6),
        seed=707,
        out_dir=str(tmp_path),
    )


def test_criterion_07_ablation_structure(tmp_path):
    base = _ablation_base(tmp_path)
    results = {}
    for net in (f"net{i}" for i in range(1, 8)):
        variant = apply_ablation(base, net)
        variant.out_dir = str(tmp_path / net)
        results[net] = train_run(variant)
        assert results[net].epochs_run == 5
    assert results["net1"].effective_batch == 2 * results["net2"].effective_batch
    net3_cfg = apply_ablation(base, "net3").model
    assert not any(".tcn" in g for g in count_parameters(net3_cfg))
    assert any(".tcn" in g for g in count_parameters(base.model))
    report_pass(7, "Net1–Net7 all trained 5 epochs; Net2 batch 1x vs Net1 2x; Net3 has no TCN groups")


def test_criterion_08_fusion_modes(tmp_path):
    shapes = {}
    for mode in ("main_auxiliary", "hierarchical"):
        run = _ablation_base(tmp_path / mode)
        run.model.fusion_mode = mode
        result = train_run(run)
        assert result.epochs_run == 5
        x = np.zeros((2, 1, 6, 64), dtype=np.float32)
        with no_grad():
            shapes[mode] = result.model(x).shape
    assert shapes["main_auxiliary"] == shapes["hierarchical"]
    report_pass(8, f"both fusion modes trained 5 epochs with identical logits shape {shapes['hierarchical']}")


def test_criterion_09_metrics_exactness():
    assert kappa(ConfusionMatrix([[40, 10], [20, 30]])) == pytest.approx(0.4, abs=1e-15)
    assert kappa(ConfusionMatrix(np.diag([10, 20, 30]))) == 1.0
    assert kappa(ConfusionMatrix(np.full((3, 3), 7))) == pytest.approx(0.0, abs=1e-15)
    assert accuracy(ConfusionMatrix([[45, 5], [10, 40]])) == pytest.approx(0.85, abs=1e-15)
    assert std_across([0.7, 0.9]) == pytest.approx(0.1, abs=1e-15)
    assert std_across([0.5]) == 0.0
    report_pass(9, "kappa/accuracy/STD closed forms exact to machine precision")


def test_criterion_10_psd():
    fs, f0 = 200.0, 10.0
    t = np.arange(4096) / fs
    est = welch_psd(np.sin(2 * np.pi * f0 * t), fs=fs, segment_len=128)
    bin_width = est.freqs[1] - est.freqs[0]
    assert abs(est.peak_hz() - f0) <= bin_width
    zero = welch_psd(np.zeros(1024), fs=fs)
    np.testing.assert_array_equal(zero.power, 0.0)
    report_pass(10, f"10 Hz sine peaks at {est.peak_hz():.2f} Hz (bin {bin_width:.2f} Hz); zero signal is silent")


def _determinism_run(out_dir, epochs=5):
    return RunConfig(
        synth=SynthSpec(n_per_class=3, channels=6, time_steps=64, n_classes=2),
        model=ModelConfig(channels=6, time_steps=64, n_classes=2, pools=(4, 4)),
        split=SplitSpec(strategy="none"),
        train=TrainConfig(epochs=epochs, batch_size=6),
        seed=1111,
        out_dir=str(out_dir),
    )


def _epoch_losses(log_path):
    out = []
    with open(log_path) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("epoch"):
                continue
            out.append(float(line.split(",")[1]))
    return out


def test_criterion_11_determinism(tmp_path):
    with precision("float64"):
        r1 = train_run(_determinism_run(tmp_path / "f64_a"))
        r2 = train_run(_determinism_run(tmp_path / "f64_b"))
    assert open(r1.log_path, "rb").read() == open(r2.log_path, "rb").read()

    r3 = train_run(_determinism_run(tmp_path / "f32_a"))
    r4 = train_run(_determinism_run(tmp_path / "f32_b"))
    l3, l4 = _epoch_losses(r3.log_path), _epoch_losses(r4.log_path)
    assert len(l3) == 5
    divergence = max(abs(a - b) for a, b in zip(l3, l4))
    assert divergence <= 1e-7
    report_pass(11, f"5-epoch logs bitwise equal in f64; f32 divergence {divergence:.1e} ≤ 1e-7")


def test_criterion_12_roundtrip_fuzzing(tmp_path):
    rng = np.random.Generator(np.random.PCG64(1212))
    for i in range(100):
        n = int(rng.integers(0, 5))
        c = int(rng.integers(1, 4))
        t = int(rng.integers(1, 8))
        x = np.empty((n, c, t), dtype=np.float32)
        ids = np.empty((3, n), dtype=np.int64)
        for j in range(n):  # per trial: samples, label, subject, session
            x[j] = rng.standard_normal((c, t))
            ids[:, j] = rng.integers(0, 3), rng.integers(0, 5), rng.integers(0, 4)
        original = TrialSet(x=x, labels=ids[0], n_classes=3, subject_ids=ids[1], session_ids=ids[2])
        path = tmp_path / "fuzz.eegd"
        write_eegd(original, path)
        first = path.read_bytes()
        write_eegd(read_eegd(path), path)
        assert path.read_bytes() == first, f"EEGD instance {i} not bit-exact"

    cfg_pool = []
    for readout in ("last_step", "flatten"):
        for tcn_on in (True, False):
            cfg = mini_model_config()
            cfg.readout = readout
            cfg.tcn_enabled = tcn_on
            cfg_pool.append(cfg)
    for i in range(100):
        cfg = cfg_pool[i % len(cfg_pool)]
        model = CsanetModel(cfg, rng=np.random.Generator(np.random.PCG64(5000 + i)))
        path = tmp_path / "fuzz.csan"
        save_checkpoint(model, path)
        first = path.read_bytes()
        _, loaded = load_checkpoint(path)
        assert checkpoint_bytes(loaded) == first, f"checkpoint instance {i} not bit-exact"
    report_pass(12, "100 EEGD and 100 checkpoint instances round-trip bit-exactly")
