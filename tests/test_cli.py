"""CLI surface: subcommands, exit codes, artifact files."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from csanet.autodiff import Tensor
from csanet import cli
from csanet.cli import ABLATION_NETS, apply_ablation, main
from csanet.config import ModelConfig, RunConfig, SplitSpec, SynthSpec, TrainConfig, write_config
from csanet.data import read_eegd
from csanet.errors import DimensionError, StateError
from csanet.gradcheck import grad_check
from csanet.verification import GRADCHECK_SCOPES


@pytest.fixture
def run_cfg_path(tmp_path):
    run = RunConfig(
        synth=SynthSpec(n_per_class=3, channels=6, time_steps=64, n_classes=2),
        model=ModelConfig(channels=6, time_steps=64, n_classes=2, pools=(4, 4)),
        split=SplitSpec(strategy="none"),
        train=TrainConfig(epochs=1, batch_size=6),
        seed=5,
        out_dir=str(tmp_path / "out"),
    )
    path = tmp_path / "run.cfg"
    write_config(run, path)
    return str(path)


def test_usage_error_exit_code():
    assert main([]) == 1
    assert main(["train"]) == 1  # missing --config


def test_synth_and_augment_roundtrip(run_cfg_path, tmp_path):
    out = str(tmp_path / "synth_out")
    assert main(["synth", "--config", run_cfg_path, "--out", out]) == 0
    data = read_eegd(os.path.join(out, "synth.eegd"))
    assert len(data) == 6

    aug_out = str(tmp_path / "aug_out")
    assert main(["augment", "--config", run_cfg_path, "--out", aug_out]) == 0
    augmented = read_eegd(os.path.join(aug_out, "augmented.eegd"))
    assert len(augmented) == 12


def test_train_then_eval_reports_are_byte_identical(run_cfg_path, tmp_path, capsys):
    out = str(tmp_path / "train_out")
    assert main(["train", "--config", run_cfg_path, "--out", out]) == 0
    checkpoint = os.path.join(out, "model.csan")
    assert os.path.exists(checkpoint)
    assert os.path.exists(os.path.join(out, "train_log.csv"))

    eval1 = str(tmp_path / "eval1")
    eval2 = str(tmp_path / "eval2")
    assert main(["eval", "--config", run_cfg_path, "--checkpoint", checkpoint, "--out", eval1]) == 0
    assert main(["eval", "--config", run_cfg_path, "--checkpoint", checkpoint, "--out", eval2]) == 0
    for name in ("report.csv", "report.json"):
        b1 = open(os.path.join(eval1, name), "rb").read()
        b2 = open(os.path.join(eval2, name), "rb").read()
        assert b1 == b2


def test_eval_missing_checkpoint_exits_2_without_partial_files(run_cfg_path, tmp_path):
    out = str(tmp_path / "eval_missing")
    code = main(["eval", "--config", run_cfg_path, "--checkpoint", str(tmp_path / "no.csan"), "--out", out])
    assert code == 2
    assert not os.path.exists(os.path.join(out, "report.csv"))
    assert not os.path.exists(os.path.join(out, "report.json"))


def test_eval_corrupted_checkpoint_exits_2(run_cfg_path, tmp_path, capsys):
    out = str(tmp_path / "train_out")
    assert main(["train", "--config", run_cfg_path, "--out", out]) == 0
    checkpoint = tmp_path / "model.csan"
    blob = bytearray(open(os.path.join(out, "model.csan"), "rb").read())
    blob[20] = 0xFF  # inside the config text: not UTF-8
    checkpoint.write_bytes(bytes(blob))
    capsys.readouterr()
    assert main(["eval", "--config", run_cfg_path, "--checkpoint", str(checkpoint), "--out", str(tmp_path / "ev")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "offset 20" in err[0]


@pytest.mark.parametrize(
    "line",
    [
        "model.pools=8",
        "model.attention.keep_denominators=",
        "model.temporal_kernels=1.5,2,3,4",
        "model.attention.pool_kernels=3.0",
        "model.attention.pool_kernels=3,5.0,7",
        "model.tcn.kernel=0",
        "model.tcn.dilations=0",
        "model.tcn.dilations=",  # with tcn_enabled: would build an identity TCN
        "train.lr=0",
        "train.lr=-0.001",  # would run gradient ascent
        "train.lr=nan",
        "train.lr=inf",
        "sr.segments=65",  # more S&R segments than model.time_steps
    ],
)
def test_malformed_config_value_exits_2(run_cfg_path, tmp_path, capsys, line):
    key = line.split("=")[0] + "="
    text = [row for row in open(run_cfg_path).read().splitlines() if not row.startswith(key)]
    path = tmp_path / "bad.cfg"
    path.write_text("\n".join(text + [line]) + "\n")
    out = tmp_path / "out"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not out.exists()  # refused before the log opens


def test_config_file_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"seed=5\nout_dir=\xff\xfe\n")
    assert main(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "UTF-8" in err[0]


def test_gradcheck_scope_passes(capsys):
    assert main(["gradcheck", "--scope", "topk_softmax"]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert "pass" in line
    assert re.search(r"  seconds=\d+\.\d\d$", line), line


def test_gradcheck_multiscale_pool_scope_passes(capsys):
    assert main(["gradcheck", "--scope", "multiscale_pool"]) == 0
    assert "pass" in capsys.readouterr().out


@pytest.mark.parametrize("scope", ["conv2d", "batch_norm", "elu", "avg_pool"])
def test_gradcheck_retired_op_scope_exits_1_and_lists_valid(scope, capsys):
    # No model path runs these ops; tests/test_gradients.py checks them.
    assert main(["gradcheck", "--scope", scope]) == 1
    err = capsys.readouterr().err
    assert f"unknown gradcheck scope {scope!r}" in err and "multiscale_pool" in err


def test_gradcheck_prints_structurally_zero_inputs(monkeypatch, capsys):
    def unused_input_scope():
        x = Tensor(np.arange(3.0))
        unused = Tensor(np.ones(2))
        report = grad_check(lambda x_, u_: (x_ * x_).sum(), [x, unused])
        report.labels = ["x", "unused"]
        return report

    monkeypatch.setitem(GRADCHECK_SCOPES, "unused_input", unused_input_scope)
    assert main(["gradcheck", "--scope", "unused_input"]) == 0
    assert "structurally zero: unused" in capsys.readouterr().out


def test_gradcheck_unknown_scope_lists_valid(capsys):
    assert main(["gradcheck", "--scope", "foo"]) == 1
    err = capsys.readouterr().err
    assert "topk_softmax" in err and "model-mini" in err


def test_psd_writes_series(run_cfg_path, tmp_path):
    out = str(tmp_path / "psd_out")
    assert main(["psd", "--config", run_cfg_path, "--out", out, "--branch", "1", "--fs", "250"]) == 0
    text = open(os.path.join(out, "psd.csv")).read()
    assert text.startswith("# raw_channel_mean")
    assert "# branch2.filter0" in text


@pytest.mark.parametrize("error", [DimensionError("bad shape"), StateError("wrong state"), FileNotFoundError("gone")])
def test_package_and_file_errors_exit_2(run_cfg_path, monkeypatch, capsys, error):
    def fail(args):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "train", fail)
    assert main(["train", "--config", run_cfg_path]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["psd", "--fs", "0"],
        ["psd", "--fs", "-5"],
        ["psd", "--fs", "nan"],
        ["psd", "--fs", "inf"],
        ["psd", "--fs", "fast"],
        ["gradcheck", "--scope", "linear", "--tolerance", "nan"],
        ["gradcheck", "--scope", "linear", "--tolerance=-1e-3"],
        ["gradcheck", "--scope", "linear", "--tolerance", "0"],
    ],
)
def test_bad_number_is_a_usage_error(run_cfg_path, tmp_path, capsys, argv):
    if argv[0] == "psd":
        argv = argv + ["--config", run_cfg_path, "--out", str(tmp_path / "psd")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "expected a finite number > 0" in errors[0], captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "psd").exists()


def test_directory_as_file_and_file_as_directory_exit_2(run_cfg_path, tmp_path, capsys):
    # An OSError other than a missing file is one error: line too, not a
    # traceback with the usage code.
    taken = tmp_path / "taken"
    taken.write_text("")
    for argv in (
        ["eval", "--config", run_cfg_path, "--checkpoint", str(tmp_path), "--out", str(tmp_path / "ev")],
        ["train", "--config", str(tmp_path)],
        ["synth", "--config", run_cfg_path, "--out", str(taken)],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), (argv, err)


def test_one_trial_training_batch_exits_2(run_cfg_path, tmp_path, capsys):
    # 6 trials in batches of 5 with S&R off leave a batch of one trial.
    text = [row for row in open(run_cfg_path).read().splitlines() if not row.startswith("train.batch_size=")]
    path = tmp_path / "one.cfg"
    path.write_text("\n".join(text + ["train.batch_size=5", "model.sr_enabled=false"]) + "\n")
    out = tmp_path / "out"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "train.batch_size=5" in err[0], err
    assert not out.exists()


def test_psd_bad_trial_index_exits_2(run_cfg_path, tmp_path):
    code = main(["psd", "--config", run_cfg_path, "--out", str(tmp_path / "x"), "--trial", "99"])
    assert code == 2


def test_ablate_unknown_net_exits_1(run_cfg_path, capsys):
    assert main(["ablate", "--config", run_cfg_path, "--net", "net9"]) == 1
    assert "net1" in capsys.readouterr().err


def test_ablate_runs_variant(run_cfg_path, tmp_path):
    out = str(tmp_path / "abl")
    assert main(["ablate", "--config", run_cfg_path, "--net", "net3", "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "net3", "model.csan"))


def test_f64_flag_trains_in_double_precision(run_cfg_path, tmp_path):
    import numpy as np

    from csanet.autodiff import set_default_dtype

    out = str(tmp_path / "f64_out")
    try:
        assert main(["train", "--config", run_cfg_path, "--out", out, "--f64"]) == 0
    finally:
        set_default_dtype(np.float32)
    assert os.path.exists(os.path.join(out, "model.csan"))


class TestAblationToggles:
    def base(self):
        return RunConfig(synth=SynthSpec(n_per_class=1), model=ModelConfig())

    def test_net1_is_unmodified_base(self):
        base = self.base()
        assert apply_ablation(base, "net1").model == base.model

    def test_net2_disables_sr_only(self):
        cfg = apply_ablation(self.base(), "net2").model
        assert not cfg.sr_enabled
        assert cfg.tcn_enabled and cfg.residual_enabled
        assert cfg.attention.topk_enabled and cfg.attention.multiscale_pool_enabled

    def test_net5_disables_topk_and_pool(self):
        cfg = apply_ablation(self.base(), "net5").model
        assert not cfg.attention.topk_enabled and not cfg.attention.multiscale_pool_enabled
        assert cfg.sr_enabled and cfg.tcn_enabled and cfg.residual_enabled

    def test_net6_and_net7_split_the_pair(self):
        net6 = apply_ablation(self.base(), "net6").model
        assert not net6.attention.multiscale_pool_enabled and net6.attention.topk_enabled
        net7 = apply_ablation(self.base(), "net7").model
        assert not net7.attention.topk_enabled and net7.attention.multiscale_pool_enabled

    def test_every_net_defined(self):
        assert set(ABLATION_NETS) == {f"net{i}" for i in range(1, 8)}


REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["run_ablations.py", "run_overfit.py"])
def test_script_imports_and_prints_help(script):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), "--help"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout and "--epochs" in done.stdout
