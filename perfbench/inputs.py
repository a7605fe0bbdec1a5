"""Seeded inputs the benchmark writes for the program: EEGD trial files and
the eval checkpoint.

The EEGD bytes are written here from the documented layout, not with the
program's writer, so the program only ever reads files it did not make.
Each class carries an oscillation in its own frequency band on its own
spatial pattern over white noise, so the classes are separable by band.
"""

import struct

import numpy as np

SAMPLE_RATE = 250.0
# (low, high) Hz per class: theta, alpha, beta, low gamma.
CLASS_BANDS = ((4.0, 8.0), (8.0, 13.0), (15.0, 30.0), (30.0, 45.0))
AMPLITUDE = 1.0


def rng_for(seed, stream):
    """Independent generator per (seed, stream name)."""
    return np.random.default_rng([seed, *stream.encode("ascii")])


def make_trials(seed, stream, n_per_class, channels, time_steps):
    """Class-balanced band-limited trials in seeded order.

    Returns (x, labels) with x float32 (N, C, T).
    """
    rng = rng_for(seed, stream)
    n_classes = len(CLASS_BANDS)
    patterns = rng.standard_normal((n_classes, channels))
    patterns *= np.sqrt(channels) / np.linalg.norm(patterns, axis=1, keepdims=True)
    labels = rng.permutation(np.repeat(np.arange(n_classes), n_per_class))
    ticks = np.arange(time_steps) / SAMPLE_RATE
    x = rng.standard_normal((labels.size, channels, time_steps))
    for i, label in enumerate(labels):
        lo, hi = CLASS_BANDS[label]
        freq = rng.uniform(lo, hi)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        x[i] += AMPLITUDE * np.outer(patterns[label], np.sin(2.0 * np.pi * freq * ticks + phase))
    return x.astype(np.float32), labels


def write_eegd(path, x, labels, n_classes=len(CLASS_BANDS)):
    """EEGD v1: magic, header u32s, then per trial label/subject/session + f32 samples."""
    n, c, t = x.shape
    with open(path, "wb") as fh:
        fh.write(b"EEGD")
        fh.write(struct.pack("<IIIII", 1, n, c, t, n_classes))
        for trial, label in zip(x, labels):
            fh.write(struct.pack("<III", int(label), 1, 1))
            fh.write(np.ascontiguousarray(trial, dtype="<f4").tobytes())


def make_eval_checkpoint(seed, path):
    """Save a seeded-init default model whose BN running statistics are
    seeded values away from 0 and 1, so eval-mode batch norm is no identity."""
    from csanet.checkpoint import save_checkpoint
    from csanet.config import ModelConfig
    from csanet.model import CsanetModel

    model = CsanetModel(ModelConfig(), rng=rng_for(seed, "init"))
    rng = rng_for(seed, "bn-stats")
    for name, buf in model.named_buffers():
        if name.endswith("running_mean"):
            buf[...] = rng.uniform(-0.3, 0.3, buf.shape)
        elif name.endswith("running_var"):
            buf[...] = rng.uniform(0.2, 0.6, buf.shape)
    save_checkpoint(model, path)


def mini_check_inputs():
    """Model, input and targets of csanet's model-mini gradient-check scope
    (float64, C=3, T=64, B=2, init seed 14, data seed 15)."""
    from csanet.autodiff import Tensor, precision
    from csanet.model import CsanetModel
    from csanet.verification import mini_model_config

    cfg = mini_model_config()
    with precision("float64"):
        model = CsanetModel(cfg, rng=np.random.Generator(np.random.PCG64(14)))
    rng = np.random.Generator(np.random.PCG64(15))
    x = Tensor(rng.standard_normal((2, 1, cfg.channels, cfg.time_steps)))
    return model, x, np.array([0, 1])
