#!/usr/bin/env python3
"""Bitwise check of seeded training steps between two source trees.

dump runs two seeded training steps of 16 trials, with an Adam update
after each, for the default config and for the mini config with conv
dropout 0.5 and TCN dropout 0.3, each in float32 and float64. It writes
to an .npz, per case: each step's logits and loss, every parameter
gradient and every running buffer after each step, every parameter after
the second update, the eval-mode logits after that update (both steps'
32 trials under eval/logits_b32, the second step's 16 under
eval/logits_b16, and its first trial alone, which takes spa_conv's direct
path, under eval/logits_b1), and the dropout stream's next draw: 1,736
arrays. compare lists every array that differs in dtype, shape or bytes,
or that only one dump holds, and exits 1 if any does. digest prints one
line per array of a dump, its name, dtype, shape and the SHA-256 of its
bytes, sorted by name: tests/data/bitwise_digest.txt holds those lines,
and tests/test_bitwise_digest.py dumps the tree under test against them.

csanet is imported before numpy, so that BLAS runs one thread and
csanet.model.WORKERS counts a worker per core: the default config's
training steps then run their branch stage on threads, and the 32-trial
eval batch its two trial blocks. On a 1-core host every path is serial.

The tree under test is the csanet on the import path, so one copy of this
script dumps any checkout:

    PYTHONPATH=/path/to/parent/src python scripts/bitwise_steps.py dump parent.npz
    PYTHONPATH=src python scripts/bitwise_steps.py dump change.npz
    python scripts/bitwise_steps.py compare parent.npz change.npz

The committed digest is re-derived from the repository root by:

    PYTHONPATH=src python scripts/bitwise_steps.py dump steps.npz && python scripts/bitwise_steps.py digest steps.npz > tests/data/bitwise_digest.txt
"""

import argparse
import dataclasses
import hashlib
import sys

try:
    import csanet  # before numpy: see the docstring
except ImportError:  # compare reads only the dumps
    pass
import numpy as np

DTYPES = ("float32", "float64")
BATCH = 16  # trials per step
SEED = 23  # seed of the init, data and dropout streams


def configs():
    """(name, ModelConfig) for each case's model, both with dropout on."""
    from csanet.config import ModelConfig
    from csanet.verification import mini_model_config

    mini = mini_model_config()
    mini = dataclasses.replace(mini, conv_dropout=0.5, tcn=dataclasses.replace(mini.tcn, dropout=0.3))
    return [("default", ModelConfig()), ("mini", mini)]


def run_case(cfg, dtype):
    """{name: array} of two seeded training steps of cfg in dtype."""
    from csanet import ops
    from csanet.autodiff import Tensor, precision
    from csanet.model import CsanetModel
    from csanet.optim import AdamState, adam_step
    from csanet.rng import substream

    got = {}
    with precision(dtype):
        model = CsanetModel(cfg, rng=substream(SEED, "init"))
        data, dropout = substream(SEED, "data"), substream(SEED, "dropout")
        optimizer, params, xs = AdamState(), list(model.parameters()), []
        for step in (1, 2):
            x = data.standard_normal((BATCH, 1, cfg.channels, cfg.time_steps)).astype(dtype)
            xs.append(x)
            labels = data.integers(0, cfg.n_classes, BATCH)
            logits = model(Tensor(x), training=True, rng=dropout)
            loss = ops.cross_entropy(logits, labels)
            model.zero_grad()
            loss.backward()
            got[f"step{step}/logits"], got[f"step{step}/loss"] = logits.data, loss.data
            for name, p in model.named_parameters():
                if p.grad is not None:
                    got[f"step{step}/grad/{name}"] = p.grad
            for name, b in model.named_buffers():
                got[f"step{step}/buffer/{name}"] = b.copy()
            adam_step(optimizer, params)
        got[f"eval/logits_b{2 * BATCH}"] = model(Tensor(np.concatenate(xs)), training=False).data
        for size in (BATCH, 1):
            got[f"eval/logits_b{size}"] = model(Tensor(x[:size]), training=False).data
    for name, p in model.named_parameters():
        got[f"param/{name}"] = p.data
    got["dropout_next"] = dropout.random(4)
    return got


def dump(path):
    arrays = {}
    for name, cfg in configs():
        for dtype in DTYPES:
            for key, value in run_case(cfg, dtype).items():
                arrays[f"{name}/{dtype}/{key}"] = np.asarray(value)
    np.savez(path, **arrays)
    print(f"{len(arrays)} arrays from {csanet.__file__} (workers: {csanet.model.WORKERS}) written to {path}")


def compare(path_a, path_b):
    """The keys whose arrays differ between the two dumps, printed."""
    with np.load(path_a) as a, np.load(path_b) as b:
        keys = sorted(set(a.files) | set(b.files))
        differ = []
        for key in keys:
            if key not in a.files or key not in b.files:
                differ.append(f"{key}: only in {path_a if key in a.files else path_b}")
                continue
            x, y = a[key], b[key]
            if x.dtype != y.dtype or x.shape != y.shape:
                differ.append(f"{key}: {x.dtype}{x.shape} vs {y.dtype}{y.shape}")
            elif x.tobytes() != y.tobytes():
                diff = np.abs(x.astype(np.float64) - y.astype(np.float64))
                differ.append(f"{key}: bytes differ, max |difference| {np.nanmax(diff):.3e}")
    for line in differ:
        print(line)
    print(f"{len(keys)} arrays compared, {len(differ)} differ")
    return differ


def digest(path):
    """'name dtype shape sha256' per array of the dump at path, by name, printed."""
    with np.load(path) as dumped:
        for key in sorted(dumped.files):
            a = dumped[key]
            sha = hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
            print(f"{key} {a.dtype} {str(a.shape).replace(' ', '')} {sha}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    d = sub.add_parser("dump", help="run the seeded steps and write their arrays")
    d.add_argument("out", help=".npz file to write")
    c = sub.add_parser("compare", help="list the arrays that differ between two dumps")
    c.add_argument("a")
    c.add_argument("b")
    g = sub.add_parser("digest", help="print each array's name, dtype, shape and SHA-256")
    g.add_argument("dump", help=".npz file written by dump")
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.out)
        return 0
    if args.command == "digest":
        digest(args.dump)
        return 0
    return 1 if compare(args.a, args.b) else 0


if __name__ == "__main__":
    sys.exit(main())
