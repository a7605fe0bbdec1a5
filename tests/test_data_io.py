"""EEGD format, synthetic generation, splits, PERCLOS labeling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csanet.config import SplitSpec
from csanet.data import (
    TrialSet,
    label_perclos,
    read_eegd,
    split,
    synth_generate,
    write_eegd,
    zscore_apply,
    zscore_fit,
)
from csanet.errors import ConfigurationError, DataError, FormatError
from csanet.psd import welch_psd


def random_set(rng, n_trials, C=3, T=8, L=2, subjects=(1,), sessions=(1,)):
    # Per trial, in this order: samples, label, subject, session.
    x = np.empty((n_trials, C, T), dtype=np.float32)
    ids = np.empty((3, n_trials), dtype=np.int64)
    for i in range(n_trials):
        x[i] = rng.standard_normal((C, T))
        ids[:, i] = rng.integers(0, L), rng.choice(subjects), rng.choice(sessions)
    return TrialSet(x=x, labels=ids[0], n_classes=L, subject_ids=ids[1], session_ids=ids[2])


def sets_equal(a, b):
    if len(a) != len(b) or a.n_classes != b.n_classes:
        return False
    for name in ("labels", "subject_ids", "session_ids"):
        if not np.array_equal(getattr(a, name), getattr(b, name)):
            return False
    return a.x.astype("<f4").tobytes() == b.x.astype("<f4").tobytes()


def with_trial_indices(data):
    """Write each trial's index into its first sample, so a subset names
    the trials it holds."""
    data.x[:, 0, 0] = np.arange(len(data))
    return data


def trial_indices(subset):
    return subset.x[:, 0, 0].astype(int).tolist()


class TestEegdFormat:
    def test_roundtrip_two_trials(self, tmp_path, rng):
        original = random_set(rng, 2)
        path = tmp_path / "two.eegd"
        write_eegd(original, path)
        assert sets_equal(read_eegd(path), original)

    def test_bad_magic_offset_zero(self, tmp_path):
        path = tmp_path / "bad.eegd"
        path.write_bytes(b"XXXX" + b"\x00" * 40)
        with pytest.raises(FormatError) as err:
            read_eegd(path)
        assert err.value.offset == 0

    def test_version_mismatch(self, tmp_path, rng):
        path = tmp_path / "v.eegd"
        write_eegd(random_set(rng, 1), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 7
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as err:
            read_eegd(path)
        assert err.value.offset == 4

    def test_truncation_reports_offset(self, tmp_path, rng):
        path = tmp_path / "t.eegd"
        write_eegd(random_set(rng, 3), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(FormatError):
            read_eegd(path)

    @given(
        n_trials=st.integers(0, 5),
        c=st.integers(1, 4),
        t=st.integers(1, 6),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_fuzz_roundtrip(self, n_trials, c, t, seed):
        import tempfile

        rng = np.random.Generator(np.random.PCG64(seed))
        original = random_set(rng, n_trials, C=c, T=t, L=3, subjects=(1, 2), sessions=(1, 2, 3))
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/fuzz.eegd"
            write_eegd(original, path)
            assert sets_equal(read_eegd(path), original)


class TestSynthGenerate:
    def test_empty_when_zero_per_class(self):
        out = synth_generate(0, 4, 32, 2, snr=1.0, seed=0)
        assert len(out) == 0

    def test_same_seed_bitwise_identical(self):
        a = synth_generate(3, 6, 64, 3, snr=2.0, seed=42)
        b = synth_generate(3, 6, 64, 3, snr=2.0, seed=42)
        assert sets_equal(a, b)

    def test_high_snr_spectral_peaks_match_class_frequencies(self):
        from csanet.data import SYNTH_CLASS_FREQS, SYNTH_SAMPLE_RATE

        out = synth_generate(1, 8, 1024, 4, snr=1e6, seed=1)
        for samples, label in zip(out.x, out.labels):
            lo = label * 8 // 4
            est = welch_psd(samples[lo], fs=SYNTH_SAMPLE_RATE, segment_len=512)
            bin_width = est.freqs[1] - est.freqs[0]
            assert abs(est.peak_hz() - SYNTH_CLASS_FREQS[label]) <= bin_width

    def test_labels_and_counts(self):
        out = synth_generate(5, 8, 32, 4, snr=1.0, seed=0)
        labels = out.labels.tolist()
        assert labels == sorted(labels)
        assert all(labels.count(k) == 5 for k in range(4))

    def test_invalid_dims_rejected(self):
        with pytest.raises(ConfigurationError):
            synth_generate(1, 2, 32, 4, snr=1.0, seed=0)  # fewer channels than classes
        with pytest.raises(ConfigurationError):
            synth_generate(1, 8, 32, 4, snr=0.0, seed=0)


class TestSplits:
    def test_loso_isolates_exactly_one_subject(self, rng):
        data = random_set(rng, 90, subjects=tuple(range(1, 10)))
        train, test = split(data, SplitSpec(strategy="loso", held_out_subject=3))
        assert all(test.subject_ids == 3)
        assert all(train.subject_ids != 3)
        assert len(train) + len(test) == 90

    def test_loso_unknown_subject_is_data_error(self, rng):
        data = random_set(rng, 10, subjects=(1, 2))
        with pytest.raises(DataError):
            split(data, SplitSpec(strategy="loso", held_out_subject=9))

    def test_session_holdout_definition(self, rng):
        data = random_set(rng, 60, sessions=(1, 2, 3))
        spec = SplitSpec(strategy="session_holdout", train_sessions=(1, 2), test_sessions=(3,))
        train, test = split(data, spec)
        assert all(train.session_ids != 3)
        assert all(test.session_ids == 3)

    def test_session_holdout_unknown_session_is_data_error(self, rng):
        data = random_set(rng, 10, sessions=(1, 2))
        spec = SplitSpec(strategy="session_holdout", train_sessions=(1,), test_sessions=(5,))
        with pytest.raises(DataError):
            split(data, spec)

    @given(n=st.integers(5, 40), seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_kfold_partitions_with_balanced_sizes(self, n, seed):
        rng = np.random.Generator(np.random.PCG64(0))
        data = with_trial_indices(random_set(rng, n))
        seen = []
        sizes = []
        for fold in range(5):
            spec = SplitSpec(strategy="kfold", n_folds=5, fold_index=fold, seed=seed)
            train, test = split(data, spec)
            assert len(train) + len(test) == n
            sizes.append(len(test))
            seen.extend(trial_indices(test))
        assert len(seen) == n  # folds partition the set
        assert len(set(seen)) == n
        assert max(sizes) - min(sizes) <= 1

    def test_kfold_deterministic_per_seed(self, rng):
        data = with_trial_indices(random_set(rng, 20))
        spec = SplitSpec(strategy="kfold", n_folds=4, fold_index=1, seed=7)
        t1 = split(data, spec)[1]
        t2 = split(data, spec)[1]
        assert trial_indices(t1) == trial_indices(t2)

    def test_none_strategy_trains_on_everything(self, rng):
        data = random_set(rng, 12)
        train, test = split(data, SplitSpec(strategy="none"))
        assert len(train) == 12 and len(test) == 0


class TestTrialSet:
    def test_malformed_arrays_are_data_errors(self):
        x = np.zeros((2, 3, 4), dtype=np.float32)
        with pytest.raises(DataError, match="N, C, T"):
            TrialSet(x=x[0], labels=[0, 1], n_classes=2)
        with pytest.raises(DataError, match="labels must have shape"):
            TrialSet(x=x, labels=[0], n_classes=2)
        with pytest.raises(DataError, match="session_ids must have shape"):
            TrialSet(x=x, labels=[0, 1], n_classes=2, session_ids=[1, 2, 3])
        with pytest.raises(DataError, match="subject_ids must lie in"):
            TrialSet(x=x, labels=[0, 1], n_classes=2, subject_ids=[-1, 1])
        with pytest.raises(DataError, match="session_ids must lie in"):
            TrialSet(x=x, labels=[0, 1], n_classes=2, session_ids=[1, 2**32])
        with pytest.raises(DataError, match="trial 1 label 2 out of range"):
            TrialSet(x=x, labels=[0, 2], n_classes=2)
        x[1, 2, 3] = np.nan
        with pytest.raises(DataError, match="finite"):
            TrialSet(x=x, labels=[0, 1], n_classes=2)

    def test_ids_default_to_zero_and_subset_gathers(self, rng):
        data = with_trial_indices(random_set(rng, 6, L=3, subjects=(1, 2), sessions=(1, 2)))
        bare = TrialSet(x=data.x, labels=data.labels, n_classes=3)
        assert bare.subject_ids.tolist() == [0] * 6 and bare.session_ids.dtype == np.int64
        sub = data.subset([4, 1])
        assert trial_indices(sub) == [4, 1]
        for name in ("labels", "subject_ids", "session_ids"):
            assert getattr(sub, name).tolist() == getattr(data, name)[[4, 1]].tolist()


class TestPerclos:
    def test_fatigued_example(self):
        label, ratio = label_perclos(1.0, 2.0, 8.0)
        assert ratio == pytest.approx(0.375)
        assert label == "fatigued"

    def test_alert_when_eyes_open(self):
        label, ratio = label_perclos(0.0, 0.0, 8.0)
        assert ratio == 0.0 and label == "alert"

    def test_boundary_is_strictly_greater(self):
        label, ratio = label_perclos(1.4, 1.4, 8.0)  # exactly 0.35
        assert ratio == pytest.approx(0.35)
        assert label == "alert"

    def test_preconditions(self):
        with pytest.raises(DataError):
            label_perclos(-1.0, 0.0, 8.0)
        with pytest.raises(DataError):
            label_perclos(5.0, 5.0, 8.0)
        with pytest.raises(DataError):
            label_perclos(0.0, 0.0, 0.0)


class TestNormalization:
    def test_train_statistics_reused_on_test(self, rng):
        train = random_set(rng, 20, C=2, T=50)
        stats = zscore_fit(train)
        normalized = zscore_apply(train, stats)
        stacked = normalized.x
        np.testing.assert_allclose(stacked.mean(axis=(0, 2)), 0.0, atol=1e-5)
        np.testing.assert_allclose(stacked.std(axis=(0, 2)), 1.0, atol=1e-4)

    def test_empty_train_rejected(self):
        with pytest.raises(DataError):
            zscore_fit(TrialSet(x=np.empty((0, 2, 4), dtype=np.float32), labels=[], n_classes=2))
