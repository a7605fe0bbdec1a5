"""Command-line entry point.

Subcommands: train, eval, gradcheck, augment, psd, ablate, synth.
Exit codes: 0 ok, 1 usage error, 2 data/format/config error, 3 numerical
failure.
"""

import argparse
import copy
import math
import os
import sys
import time

import numpy as np

from . import rng as rngs
from .atomic import write_atomic
from .augment import sr_augment
from .autodiff import set_default_dtype
from .checkpoint import load_checkpoint
from .config import RunConfig, apply_flat, read_config
from .data import write_eegd
from .errors import ConfigurationError, CsanetError, DataError, NumericalError
from .metrics import report_to_csv, report_to_json
from .model import CsanetModel
from .psd import branch_psd_report, psd_series_to_csv
from .train import eval_run, load_run_data, train_run
from .verification import GRADCHECK_SCOPES, run_scope

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# Table of ablation variants: which run config toggles (dotted keys) each
# one switches off.
ABLATION_NETS = {
    "net1": (),
    "net2": ("sr.enabled",),
    "net3": ("model.tcn_enabled",),
    "net4": ("model.residual_enabled",),
    "net5": ("model.attention.topk_enabled", "model.attention.multiscale_pool_enabled"),
    "net6": ("model.attention.multiscale_pool_enabled",),
    "net7": ("model.attention.topk_enabled",),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive(text):
    """argparse type of a finite number > 0 (a rate, a tolerance)."""
    try:
        if math.isfinite(value := float(text)) and value > 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")


def _add_common(sub):
    sub.add_argument("--config", required=True, help="run config file (flat key=value)")
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_argument("--out", default=None, help="override the config output directory")
    sub.add_argument("--f64", action="store_true", help="64-bit verification mode")


def build_parser():
    parser = _Parser(prog="csanet", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    _add_common(subs.add_parser("train", help="train a model per the config"))

    p_eval = subs.add_parser("eval", help="evaluate a checkpoint")
    _add_common(p_eval)
    p_eval.add_argument("--checkpoint", required=True, help="path to a .csan checkpoint")

    p_grad = subs.add_parser("gradcheck", help="finite-difference gradient checks")
    p_grad.add_argument("--scope", required=True, help="op name, 'model-mini', or 'all'")
    p_grad.add_argument("--tolerance", type=_positive, default=1e-3)

    _add_common(subs.add_parser("augment", help="write an augmented copy of the input data"))

    p_psd = subs.add_parser("psd", help="export Welch PSDs of raw vs temporal-conv features")
    _add_common(p_psd)
    p_psd.add_argument("--checkpoint", default=None, help="optional trained checkpoint")
    p_psd.add_argument("--branch", type=int, default=0, help="branch index 0-3")
    p_psd.add_argument("--trial", type=int, default=0, help="trial index from the run data")
    p_psd.add_argument("--fs", type=_positive, default=250.0, help="sampling rate in Hz")

    p_abl = subs.add_parser("ablate", help="train one ablation variant")
    _add_common(p_abl)
    p_abl.add_argument("--net", required=True, help="net1..net7")

    _add_common(subs.add_parser("synth", help="write the config's synthetic dataset"))
    return parser


def _load_run(args) -> RunConfig:
    run = read_config(args.config)
    if args.seed is not None:
        run.seed = args.seed
    if args.out is not None:
        run.out_dir = args.out
    return run


def _cmd_train(args):
    run = _load_run(args)
    result = train_run(run)
    print(f"trained {result.epochs_run} epochs; final train_acc={result.final_train_acc:.4f}")
    print(f"log: {result.log_path}")
    print(f"checkpoint: {result.checkpoint_path}")
    return EXIT_OK


def _cmd_eval(args):
    run = _load_run(args)
    if not os.path.exists(args.checkpoint):
        raise DataError(f"checkpoint not found: {args.checkpoint}")
    cfg, model = load_checkpoint(args.checkpoint)
    run.model = cfg
    report = eval_run(run, model)
    os.makedirs(run.out_dir, exist_ok=True)
    csv_path = os.path.join(run.out_dir, "report.csv")
    json_path = os.path.join(run.out_dir, "report.json")
    write_atomic(csv_path, report_to_csv(report))
    write_atomic(json_path, report_to_json(report))
    print(f"acc={report.acc:.4f} kappa={report.kappa:.4f}")
    print(f"report: {csv_path}")
    return EXIT_OK


def _cmd_gradcheck(args):
    names = list(GRADCHECK_SCOPES) if args.scope == "all" else [args.scope]
    unknown = [n for n in names if n not in GRADCHECK_SCOPES]
    if unknown:
        valid = ", ".join(sorted(GRADCHECK_SCOPES))
        print(f"unknown gradcheck scope {unknown[0]!r}; valid scopes: {valid}, all", file=sys.stderr)
        return EXIT_USAGE
    failed = False
    for name in names:
        start = time.perf_counter()
        report = run_scope(name)
        seconds = time.perf_counter() - start
        ok = report.passed(args.tolerance)
        print(f"{name:<16} max_rel_err={report.max_rel_error:.3e}  {'pass' if ok else 'FAIL'}  seconds={seconds:.2f}")
        if report.structurally_zero:
            print(f"    structurally zero: {', '.join(report.structurally_zero_names())}")
        if not ok:
            failed = True
            for label, err in zip(report.names(), report.per_input):
                if err > args.tolerance:
                    print(f"    {label}: {err:.3e}")
    return EXIT_NUMERIC if failed else EXIT_OK


def _cmd_augment(args):
    run = _load_run(args)
    data = load_run_data(run)
    out = sr_augment(data, run.sr, rngs.substream(run.seed, rngs.STREAM_AUGMENT))
    os.makedirs(run.out_dir, exist_ok=True)
    path = os.path.join(run.out_dir, "augmented.eegd")
    write_eegd(out, path)
    print(f"wrote {len(out)} trials ({len(data)} original): {path}")
    return EXIT_OK


def _cmd_psd(args):
    run = _load_run(args)
    if args.checkpoint is not None:
        _, model = load_checkpoint(args.checkpoint)
    else:
        model = CsanetModel(run.model, rng=rngs.substream(run.seed, rngs.STREAM_INIT))
    data = load_run_data(run)
    if not 0 <= args.trial < len(data):
        raise DataError(f"trial index {args.trial} out of range [0, {len(data)})")
    before, afters = branch_psd_report(model, data.x[args.trial], args.branch, fs=args.fs)
    series = [("raw_channel_mean", before)]
    series += [(f"branch{args.branch + 1}.filter{i}", est) for i, est in enumerate(afters)]
    os.makedirs(run.out_dir, exist_ok=True)
    path = os.path.join(run.out_dir, "psd.csv")
    write_atomic(path, psd_series_to_csv(series))
    print(f"wrote {len(series)} PSD series: {path}")
    return EXIT_OK


def apply_ablation(run: RunConfig, net: str) -> RunConfig:
    """Copy of the run with one ablation variant's toggles switched off."""
    key = net.lower()
    if key not in ABLATION_NETS:
        raise KeyError(net)
    out = copy.deepcopy(run)
    for toggle in ABLATION_NETS[key]:
        apply_flat(out, toggle, "false")
    return out


def _cmd_ablate(args):
    run = _load_run(args)
    try:
        variant = apply_ablation(run, args.net)
    except KeyError:
        valid = ", ".join(sorted(ABLATION_NETS))
        print(f"unknown ablation net {args.net!r}; valid: {valid}", file=sys.stderr)
        return EXIT_USAGE
    variant.out_dir = os.path.join(run.out_dir, args.net.lower())
    result = train_run(variant)
    print(f"{args.net}: trained {result.epochs_run} epochs; final train_acc={result.final_train_acc:.4f}")
    print(f"checkpoint: {result.checkpoint_path}")
    return EXIT_OK


def _cmd_synth(args):
    run = _load_run(args)
    if run.synth.n_per_class < 1:
        raise ConfigurationError("synth.n_per_class must be >= 1 for the synth command")
    data = load_run_data(run)
    os.makedirs(run.out_dir, exist_ok=True)
    path = os.path.join(run.out_dir, "synth.eegd")
    write_eegd(data, path)
    print(f"wrote {len(data)} trials: {path}")
    return EXIT_OK


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "augment": _cmd_augment,
    "psd": _cmd_psd,
    "ablate": _cmd_ablate,
    "synth": _cmd_synth,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    if getattr(args, "f64", False):
        set_default_dtype(np.float64)
    try:
        return _COMMANDS[args.command](args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except CsanetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
