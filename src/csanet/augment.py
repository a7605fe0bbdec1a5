"""Segmentation-and-reconstruction (S&R) batch augmentation.

Each trial in a batch spawns one synthetic trial of the same class: the
time axis is cut into S segments, and every segment slot is filled with
the same slot taken from a uniformly drawn same-class trial in the batch
(the anchor itself is an eligible donor). Temporal order is preserved and
segments never cross classes. The output is the original batch followed
by the synthetic trials, so the batch size exactly doubles.

Draw order is part of the contract: anchors are visited in batch order,
and one donor index is drawn per segment slot, slots left to right. The
draws come first; then each slot is filled for all anchors by one gather
from the batch's (N, C, T) samples.
"""

import numpy as np

from .config import SrConfig
from .data import TrialSet
from .errors import ConfigurationError


def segment_bounds(T, S):
    """Balanced partition of T samples into S segments.

    The first T mod S segments get one extra sample. Returns a list of
    (start, stop) pairs covering [0, T).
    """
    if S < 1:
        raise ConfigurationError(f"segment count must be positive, got {S}")
    if T < S:
        raise ConfigurationError(f"trial length {T} shorter than segment count {S}")
    base, extra = divmod(T, S)
    bounds = []
    start = 0
    for s in range(S):
        stop = start + base + (1 if s < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def sr_augment(batch: TrialSet, cfg: SrConfig, rng: np.random.Generator) -> TrialSet:
    """Augment a batch per class; identity when cfg.enabled is False."""
    if not cfg.enabled:
        return batch
    bounds = segment_bounds(batch.time_steps, cfg.segments)
    n = len(batch)
    by_class = {label: np.flatnonzero(batch.labels == label) for label in np.unique(batch.labels)}
    donors = np.empty((n, len(bounds)), dtype=np.intp)
    for i, label in enumerate(batch.labels):
        same_class = by_class[label]
        donors[i] = [same_class[rng.integers(0, len(same_class))] for _ in bounds]
    x = np.empty((2 * n,) + batch.x.shape[1:], dtype=batch.x.dtype)
    x[:n] = batch.x
    for s, (start, stop) in enumerate(bounds):
        x[n:, :, start:stop] = batch.x[donors[:, s], :, start:stop]
    return TrialSet(
        x=x,
        labels=np.tile(batch.labels, 2),
        n_classes=batch.n_classes,
        subject_ids=np.tile(batch.subject_ids, 2),
        session_ids=np.tile(batch.session_ids, 2),
    )
