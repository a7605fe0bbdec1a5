"""Welch power spectral density estimation and per-branch inspection.

Defaults: Hann window, 50% overlap, segment length min(256, signal
length). Spectra are one-sided densities normalized by window energy and
sampling rate (scipy's Welch with detrending disabled, so constant
signals keep their DC power).
"""

from dataclasses import dataclass

import numpy as np
from scipy import signal as _signal

from .autodiff import Tensor, no_grad
from .errors import DataError


@dataclass
class PsdEstimate:
    freqs: np.ndarray  # bin centers in Hz
    power: np.ndarray  # nonnegative density per bin

    def __post_init__(self):
        self.freqs = np.asarray(self.freqs, dtype=np.float64)
        self.power = np.asarray(self.power, dtype=np.float64)
        if self.freqs.shape != self.power.shape:
            raise DataError("freqs and power must align")

    def peak_hz(self):
        return float(self.freqs[int(np.argmax(self.power))])


def welch_psd(samples, fs, segment_len=None, overlap=0.5, window="hann") -> PsdEstimate:
    """One-sided Welch PSD of a 1-d signal."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise DataError("welch_psd expects a 1-d signal")
    if segment_len is None:
        segment_len = min(256, x.size)
    if segment_len < 1 or segment_len > x.size:
        raise DataError(f"segment length {segment_len} invalid for a signal of {x.size} samples")
    if not 0.0 <= overlap < 1.0:
        raise DataError("overlap fraction must lie in [0, 1)")
    freqs, power = _signal.welch(
        x,
        fs=fs,
        window=window,
        nperseg=segment_len,
        noverlap=int(overlap * segment_len),
        detrend=False,
        return_onesided=True,
        scaling="density",
    )
    return PsdEstimate(freqs=freqs, power=power)


def branch_psd_report(model, samples, branch_index, fs=250.0, segment_len=None, overlap=0.5):
    """PSD of the raw channel average and of each temporal-conv feature map.

    `samples` is one trial's (C, T) array. Returns (before, afters): one
    PsdEstimate for the channel-averaged raw trial and one per temporal
    filter of the chosen branch (each feature map averaged over channels).
    """
    if not 0 <= branch_index < 4:
        raise DataError(f"branch index {branch_index} out of range [0, 4)")
    branch = model.branches[branch_index]
    raw = samples.mean(axis=0)
    before = welch_psd(raw, fs, segment_len=segment_len, overlap=overlap)
    x = Tensor(samples[None, None].astype(np.float64))
    with no_grad():
        feature_maps = branch.temporal_out(x).data[0]  # (F, C, T)
    afters = [
        welch_psd(fmap.mean(axis=0), fs, segment_len=segment_len, overlap=overlap)
        for fmap in feature_maps
    ]
    return before, afters


def psd_series_to_csv(series) -> str:
    """Serialize named PSDs: a `# name` comment line then freq_hz,power rows."""
    lines = []
    for name, est in series:
        lines.append(f"# {name}")
        lines.append("freq_hz,power")
        for f, p in zip(est.freqs, est.power):
            lines.append(f"{f!r},{p!r}")
    return "\n".join(lines) + "\n"
