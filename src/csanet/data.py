"""Trial sets as arrays, the EEGD file format, synthetic data, and splits.

A TrialSet holds N trials of one shape: samples x (N, C, T) plus int64
labels, subject_ids and session_ids (N,). Subsets, splits, z-scoring,
augmentation and batching index these arrays.

EEGD layout (all integers little-endian u32, samples little-endian f32,
row-major C x T per trial):

    magic "EEGD" | version=1 | n_trials | C | T | L
    per trial: label | subject_id | session_id | C*T samples

Round-trips are bit-exact. Real-dataset ingestion is out of scope; export
from your own preprocessing by writing this layout (see `write_eegd`).
"""

import dataclasses
import struct
from dataclasses import dataclass

import numpy as np

from .atomic import write_atomic
from .errors import ConfigurationError, DataError, FormatError

EEGD_MAGIC = b"EEGD"
EEGD_VERSION = 1

# Class recipes for the synthetic generator: one oscillation frequency per
# class (Hz at the notional sampling rate below), placed on a contiguous
# block of channels per class.
SYNTH_CLASS_FREQS = (6.0, 10.0, 20.0, 35.0)
SYNTH_SAMPLE_RATE = 250.0

# A TrialSet's per-trial integer arrays, in EEGD record order.
TRIAL_IDS = ("labels", "subject_ids", "session_ids")


@dataclass
class TrialSet:
    """Ordered trials of one shape: x (N, C, T) and per-trial int64 labels,
    subject_ids and session_ids (N,); ids default to 0."""

    x: np.ndarray
    labels: np.ndarray
    n_classes: int
    subject_ids: np.ndarray = None
    session_ids: np.ndarray = None

    def __post_init__(self):
        self.x = np.ascontiguousarray(self.x)
        if self.x.ndim != 3:
            raise DataError(f"trial samples must be an (N, C, T) array, got shape {self.x.shape}")
        n = len(self.x)
        for name in TRIAL_IDS:
            value = getattr(self, name)
            value = np.zeros(n, dtype=np.int64) if value is None else np.asarray(value, dtype=np.int64)
            if value.shape != (n,):
                raise DataError(f"{name} must have shape ({n},), got {value.shape}")
            if n and not 0 <= value.min() <= value.max() < 2**32:  # EEGD stores them as u32
                raise DataError(f"{name} must lie in [0, 2**32), got [{value.min()}, {value.max()}]")
            setattr(self, name, value)
        if not np.all(np.isfinite(self.x)):
            raise DataError("trial samples must be finite")
        bad = np.flatnonzero(self.labels >= self.n_classes)
        if bad.size:
            i = int(bad[0])
            raise DataError(f"trial {i} label {self.labels[i]} out of range [0, {self.n_classes})")

    def __len__(self):
        return len(self.x)

    @property
    def channels(self):
        return self.x.shape[1]

    @property
    def time_steps(self):
        return self.x.shape[2]

    def subset(self, indices):
        idx = np.asarray(indices, dtype=np.intp)
        ids = {name: getattr(self, name)[idx] for name in TRIAL_IDS}
        return TrialSet(x=self.x[idx], n_classes=self.n_classes, **ids)


def trials_to_arrays(batch: TrialSet, dtype=np.float32):
    """(B, 1, C, T) model inputs and the labels; no copy when x has `dtype`."""
    return batch.x[:, None].astype(dtype, copy=False), batch.labels


# -- EEGD serialization ----------------------------------------------------


def _record_dtype(c, t):
    """One EEGD trial record: label, subject_id, session_id, C x T samples."""
    return np.dtype([(name, "<u4") for name in TRIAL_IDS] + [("x", "<f4", (c, t))])


def write_eegd(trial_set: TrialSet, path):
    if trial_set.n_classes < 1:
        raise DataError("cannot serialize a set with n_classes < 1")
    n, c, t = trial_set.x.shape
    records = np.empty(n, dtype=_record_dtype(c, t))
    for name in records.dtype.names:
        records[name] = getattr(trial_set, name)
    header = struct.pack("<IIIII", EEGD_VERSION, n, c, t, trial_set.n_classes)
    write_atomic(path, EEGD_MAGIC, header, records)  # records: C-contiguous, written without a copy


def read_eegd(path) -> TrialSet:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != EEGD_MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r}, expected {EEGD_MAGIC!r}", offset=0)
    if len(blob) < 24:
        raise FormatError("truncated header", offset=len(blob))
    version, n_trials, c, t, n_classes = struct.unpack_from("<IIIII", blob, 4)
    if version != EEGD_VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    trial_bytes = 12 + 4 * c * t
    end = 24 + n_trials * trial_bytes
    if len(blob) < end:
        i = (len(blob) - 24) // trial_bytes
        raise FormatError(f"truncated payload in trial {i}", offset=len(blob))
    if len(blob) > end:
        raise FormatError("trailing bytes after final trial", offset=end)
    if max(c, t, trial_bytes) > np.iinfo(np.intc).max:  # numpy's limits on one record
        raise FormatError(f"trial of {c} x {t} samples is too large", offset=12)
    records = np.frombuffer(blob, dtype=_record_dtype(c, t), count=n_trials, offset=24)
    ids = {name: records[name] for name in TRIAL_IDS}
    return TrialSet(x=records["x"].copy(), n_classes=n_classes, **ids)


# -- synthetic data ---------------------------------------------------------


def synth_generate(n_per_class, channels, time_steps, n_classes, snr, seed, subjects=1, sessions=1) -> TrialSet:
    """Deterministic synthetic trials with class-specific oscillations.

    Class k places a sinusoid at SYNTH_CLASS_FREQS[k] (random phase per
    trial, shared across channels) on its own contiguous channel block,
    over unit-variance Gaussian noise everywhere. The sinusoid amplitude
    on active channels is sqrt(2*snr), i.e. per-channel signal power is
    snr times the noise power. Trial i is of subject 1 + i % subjects and
    session 1 + (i // subjects) % sessions.
    """
    if n_classes < 1 or n_classes > len(SYNTH_CLASS_FREQS):
        raise ConfigurationError(f"n_classes must be in [1, {len(SYNTH_CLASS_FREQS)}]")
    if channels < n_classes:
        raise ConfigurationError(f"need at least one channel per class ({channels} < {n_classes})")
    if time_steps < 1 or n_per_class < 0 or subjects < 1 or sessions < 1:
        raise ConfigurationError("invalid synthetic dimensions")
    if snr <= 0:
        raise ConfigurationError("snr must be positive")

    rng = np.random.Generator(np.random.PCG64(seed))
    amp = np.sqrt(2.0 * snr)
    ticks = np.arange(time_steps) / SYNTH_SAMPLE_RATE
    labels = np.repeat(np.arange(n_classes), n_per_class)
    x = np.empty((labels.size, channels, time_steps), dtype=np.float32)
    for i, label in enumerate(labels):
        lo = label * channels // n_classes
        hi = (label + 1) * channels // n_classes
        phase = rng.uniform(0.0, 2.0 * np.pi)
        x[i] = rng.standard_normal((channels, time_steps))
        x[i, lo:hi] += (amp * np.sin(2.0 * np.pi * SYNTH_CLASS_FREQS[label] * ticks + phase)).astype(np.float32)
    index = np.arange(labels.size)
    return TrialSet(
        x=x,
        labels=labels,
        n_classes=n_classes,
        subject_ids=1 + index % subjects,
        session_ids=1 + (index // subjects) % sessions,
    )


# -- splits ------------------------------------------------------------------


def split(trial_set: TrialSet, spec):
    """Partition a set into (train, test) per the split spec; both sides
    keep the set's trial order."""
    spec.validate()
    n = len(trial_set)
    if spec.strategy == "none":
        return trial_set, trial_set.subset([])
    if spec.strategy == "loso":
        subjects = np.unique(trial_set.subject_ids).tolist()
        if spec.held_out_subject not in subjects:
            raise DataError(f"unknown subject {spec.held_out_subject}; have {subjects}")
        test = trial_set.subject_ids == spec.held_out_subject
        train = ~test
    elif spec.strategy == "session_holdout":
        sessions = np.unique(trial_set.session_ids).tolist()
        missing = (set(spec.train_sessions) | set(spec.test_sessions)) - set(sessions)
        if missing:
            raise DataError(f"unknown sessions {sorted(missing)}; have {sessions}")
        train = np.isin(trial_set.session_ids, spec.train_sessions)
        test = np.isin(trial_set.session_ids, spec.test_sessions)
    else:
        # kfold: seeded shuffle, then contiguous folds with sizes differing by <= 1.
        perm = np.random.Generator(np.random.PCG64(spec.seed)).permutation(n)
        base, extra = divmod(n, spec.n_folds)
        f = spec.fold_index
        start = f * base + min(f, extra)
        stop = start + base + (1 if f < extra else 0)
        test = np.zeros(n, dtype=bool)
        test[perm[start:stop]] = True
        train = ~test
    return trial_set.subset(np.flatnonzero(train)), trial_set.subset(np.flatnonzero(test))


# -- fatigue labeling ---------------------------------------------------------

PERCLOS_THRESHOLD = 0.35


def label_perclos(blink_s, close_s, interval_s, threshold=PERCLOS_THRESHOLD):
    """Eye-closure ratio over an interval and its fatigue label.

    Returns ("fatigued"|"alert", ratio); fatigued iff ratio is strictly
    greater than the threshold.
    """
    if interval_s <= 0:
        raise DataError("interval must be positive")
    if blink_s < 0 or close_s < 0:
        raise DataError("durations must be nonnegative")
    if blink_s + close_s > interval_s:
        raise DataError("blink + close exceeds the interval")
    ratio = (blink_s + close_s) / interval_s
    return ("fatigued" if ratio > threshold else "alert"), ratio


# -- normalization -------------------------------------------------------------


@dataclass
class ChannelStats:
    mean: np.ndarray
    std: np.ndarray


def zscore_fit(train: TrialSet) -> ChannelStats:
    """Per-channel mean/std over the train split only."""
    if not len(train):
        raise DataError("cannot fit normalization on an empty set")
    mean = train.x.mean(axis=(0, 2))
    std = train.x.std(axis=(0, 2))
    std = np.where(std < 1e-8, 1.0, std)
    return ChannelStats(mean=mean.astype(np.float32), std=std.astype(np.float32))


def zscore_apply(trial_set: TrialSet, stats: ChannelStats) -> TrialSet:
    return dataclasses.replace(trial_set, x=(trial_set.x - stats.mean[:, None]) / stats.std[:, None])
