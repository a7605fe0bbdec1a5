"""Welch PSD estimation and the branch inspection report."""

import numpy as np
import pytest

from csanet.autodiff import precision
from csanet.config import ModelConfig
from csanet.data import synth_generate
from csanet.errors import DataError
from csanet.model import CsanetModel
from csanet.psd import branch_psd_report, psd_series_to_csv, temporal_maps, welch_psd
from csanet.verification import mini_model_config


def make_model(seed=0):
    return CsanetModel(mini_model_config(), rng=np.random.Generator(np.random.PCG64(seed)))


class TestWelch:
    def test_pure_sine_peak_within_one_bin(self):
        fs, f0 = 200.0, 10.0
        t = np.arange(2048) / fs
        est = welch_psd(np.sin(2 * np.pi * f0 * t), fs=fs, segment_len=128)
        bin_width = est.freqs[1] - est.freqs[0]
        assert abs(est.peak_hz() - f0) <= bin_width

    def test_zero_signal_zero_power(self):
        est = welch_psd(np.zeros(1024), fs=100.0)
        np.testing.assert_array_equal(est.power, 0.0)

    def test_constant_signal_concentrates_at_dc(self):
        est = welch_psd(np.full(1024, 3.0), fs=100.0, segment_len=256)
        assert int(np.argmax(est.power)) == 0
        assert est.power[0] > 100 * est.power[3:].max()

    def test_white_noise_flat_within_3db(self):
        rng = np.random.Generator(np.random.PCG64(2024))
        seg = 128
        n = (50 - 1) * (seg // 2) + seg  # 50 half-overlapping segments
        est = welch_psd(rng.standard_normal(n), fs=2.0, segment_len=seg)
        interior = est.power[2:-2]
        mean = interior.mean()
        assert interior.max() <= 2.0 * mean
        assert interior.min() >= 0.5 * mean

    def test_power_nonnegative_and_deterministic(self):
        rng = np.random.Generator(np.random.PCG64(7))
        x = rng.standard_normal(600)
        a = welch_psd(x, fs=100.0)
        b = welch_psd(x, fs=100.0)
        assert (a.power >= 0).all()
        np.testing.assert_array_equal(a.power, b.power)

    def test_signal_shorter_than_segment_is_data_error(self):
        with pytest.raises(DataError):
            welch_psd(np.zeros(64), fs=10.0, segment_len=128)


class TestBranchReport:
    def test_float32_model_convolves_in_float64(self):
        # The default config's branch 1 (K = 64 over 22 rows of 1,000
        # samples) takes conv1d_dilated's FFT path, whose weight spectrum
        # is computed in the weight's dtype: the report casts it first.
        cfg = ModelConfig()
        model32 = CsanetModel(cfg, rng=np.random.Generator(np.random.PCG64(5)))
        with precision("float64"):
            model64 = CsanetModel(cfg, rng=np.random.Generator(np.random.PCG64(5)))
        weight = model32.branch1.temporal_conv.weight.data
        assert weight.dtype == np.float32
        model64.branch1.temporal_conv.weight.data = weight.astype(np.float64)
        trial = np.random.Generator(np.random.PCG64(6)).standard_normal((cfg.channels, cfg.time_steps))
        got = temporal_maps(model32.branch1, trial.astype(np.float32))
        assert got.dtype == np.float64 and got.shape == (cfg.channels, weight.shape[0], cfg.time_steps)
        assert np.array_equal(got, temporal_maps(model64.branch1, trial.astype(np.float32)))

    def test_identity_kernel_matches_raw(self):
        model = make_model()
        branch = model.branch1
        k = branch.temporal_kernel
        w = np.zeros_like(branch.temporal_conv.weight.data)
        w[:, 0, 0, (k - 1) // 2] = 1.0  # centered single-tap kernel = identity
        branch.temporal_conv.weight.data = w
        rng = np.random.Generator(np.random.PCG64(3))
        trial = rng.standard_normal((3, 64)).astype(np.float32)
        before, afters = branch_psd_report(model, trial, 0, fs=250.0, segment_len=64)
        for after in afters:
            mask = before.power > before.power.max() * 1e-3
            rel = np.abs(after.power[mask] - before.power[mask]) / before.power[mask]
            assert rel.max() < 0.05

    def test_zeroed_weights_zero_power(self):
        model = make_model()
        model.branch2.temporal_conv.weight.data = np.zeros_like(
            model.branch2.temporal_conv.weight.data
        )
        trial = np.ones((3, 64), dtype=np.float32)
        _, afters = branch_psd_report(model, trial, 1, fs=250.0, segment_len=64)
        for after in afters:
            np.testing.assert_array_equal(after.power, 0.0)

    def test_synthetic_class_peak_matches_generator(self):
        from csanet.data import SYNTH_CLASS_FREQS, SYNTH_SAMPLE_RATE

        data = synth_generate(1, 4, 512, 2, snr=100.0, seed=11)
        model = CsanetModel(
            mini_model_config().__class__(  # same mini settings, wider input
                channels=4,
                time_steps=512,
                n_classes=2,
                temporal_kernels=(8, 6, 4, 3),
                temporal_filters=(2, 2, 2, 2),
                pools=(4, 4),
                spa_filters=4,
                spa_kernel=4,
                attention=mini_model_config().attention,
                tcn=mini_model_config().tcn,
            ),
            rng=np.random.Generator(np.random.PCG64(0)),
        )
        for trial, label in zip(data.x, data.labels):
            before, _ = branch_psd_report(model, trial, 0, fs=SYNTH_SAMPLE_RATE, segment_len=256)
            bin_width = before.freqs[1] - before.freqs[0]
            assert abs(before.peak_hz() - SYNTH_CLASS_FREQS[label]) <= bin_width

    def test_csv_layout(self):
        est = welch_psd(np.ones(32), fs=10.0, segment_len=16)
        text = psd_series_to_csv([("raw", est)])
        lines = text.splitlines()
        assert lines[0] == "# raw"
        assert lines[1] == "freq_hz,power"
        assert len(lines) == 2 + len(est.freqs)
