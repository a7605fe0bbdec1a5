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
from csanet.config import ModelConfig, RunConfig, SplitSpec, SynthSpec, TrainConfig, config_to_text, write_config
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


@pytest.mark.parametrize(
    "lines, doubled",
    [
        ([], True),
        (["sr.enabled=false"], False),
        (["model.sr_enabled=true"], True),  # a retired key: accepted, and it changes nothing
        (["sr.enabled=false", "model.sr_enabled=true"], False),
        (["sr.enabled=false", "model.sr_enabled=false"], False),
    ],
)
def test_augment_and_train_follow_sr_enabled_alone(run_cfg_path, tmp_path, lines, doubled):
    # sr.enabled is the one S&R key: augment doubles the 6 trials and
    # training doubles each batch of 6 exactly when it is true, and no
    # written config or checkpoint carries the retired model.sr_enabled.
    text = [row for row in open(run_cfg_path).read().splitlines() if not row.startswith("sr.enabled=")]
    path = tmp_path / "sr.cfg"
    path.write_text("\n".join(text + lines) + "\n")
    factor = 2 if doubled else 1
    aug, out = tmp_path / "aug", tmp_path / "train"
    assert main(["augment", "--config", str(path), "--out", str(aug)]) == 0
    assert len(read_eegd(aug / "augmented.eegd")) == 6 * factor
    assert main(["train", "--config", str(path), "--out", str(out)]) == 0
    assert f"# effective_batch={6 * factor}\n" in (out / "train_log.csv").read_text()
    run_text = (out / "run.cfg").read_text()
    assert f"sr.enabled={str(doubled).lower()}\n" in run_text
    blob = (out / "model.csan").read_bytes()
    assert b"sr_enabled" not in blob and "sr_enabled" not in run_text


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
        "train.eval_every=-3",  # acted as 0
        "model.attention.pool_kernels=3,4",  # no pad keeps the token count
        "model.attention.heads=5",  # does not divide spa_filters=32
        "model.depth_multiplier=3",  # does not divide spa_filters=32
        "split.seed=-1",  # the k-fold shuffle's PCG64 refuses it
        "model.attention.pool_kernels=",  # with multiscale pooling: every key and value 0
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
    path.write_text("\n".join(text + ["train.batch_size=5", "sr.enabled=false"]) + "\n")
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
        assert apply_ablation(base, "net1") == base

    def test_net2_disables_sr_only(self):
        base = self.base()
        run = apply_ablation(base, "net2")
        assert not run.sr.enabled and base.sr.enabled
        assert run.model == base.model

    def test_net5_disables_topk_and_pool(self):
        run = apply_ablation(self.base(), "net5")
        cfg = run.model
        assert not cfg.attention.topk_enabled and not cfg.attention.multiscale_pool_enabled
        assert run.sr.enabled and cfg.tcn_enabled and cfg.residual_enabled

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


def run_bitwise_steps(*args):
    # One BLAS thread, as csanet sets it when the caller has not: so the
    # dump has a worker per core whatever the caller's BLAS setting.
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    script = str(REPO / "scripts" / "bitwise_steps.py")
    return subprocess.run([sys.executable, script, *args], env=env, capture_output=True, text=True, timeout=300)


def test_bitwise_steps_compare_lists_each_differing_array(tmp_path):
    x = np.arange(4, dtype=np.float32)
    y = x.copy()
    y[2] = np.nextafter(y[2], np.float32(9))
    np.savez(tmp_path / "a.npz", same=x, bits=x, shape=x)
    np.savez(tmp_path / "b.npz", same=x, bits=y, shape=x[:3], extra=x)
    done = run_bitwise_steps("compare", str(tmp_path / "a.npz"), str(tmp_path / "b.npz"))
    assert done.returncode == 1, done.stderr
    listed = {line.split(":")[0] for line in done.stdout.splitlines()[:-1]}
    assert listed == {"bits", "shape", "extra"}
    assert done.stdout.splitlines()[-1] == "4 arrays compared, 3 differ"


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset, want", [(None, "1"), ("2", "2")])
def test_import_sets_one_blas_thread_unless_the_user_chose(preset, want):
    # Importing csanet sets each unset BLAS thread variable to 1, before
    # numpy loads BLAS, and keeps a value the user has set.
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env["PYTHONPATH"] = str(REPO / "src")
    if preset is not None:
        env.update(dict.fromkeys(BLAS_THREADS, preset))
    code = f"import os; import csanet; print(*(os.environ[k] for k in {BLAS_THREADS!r}))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [want] * 3


def test_width_key_alone_sets_every_width(run_cfg_path, tmp_path, monkeypatch):
    # spa_filters is the one width key: the branches' filters, the fusion,
    # the TCNs and the classifier follow it, and no retired key is written.
    from csanet import model as model_module
    from csanet.checkpoint import load_checkpoint
    from csanet.config import RETIRED_KEYS

    path = tmp_path / "w16.cfg"
    path.write_text(open(run_cfg_path).read() + "model.spa_filters=16\n")
    out = tmp_path / "w16"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 0
    for text in ((out / "run.cfg").read_text(), config_to_text(load_checkpoint(out / "model.csan")[0])):
        keys = {line.partition("=")[0].removeprefix("model.") for line in text.splitlines()}
        assert not keys & set(RETIRED_KEYS)
    cfg, model = load_checkpoint(out / "model.csan")
    assert cfg.spa_filters == 16
    for branch in model.branches:
        assert branch.temporal_conv.weight.shape[0] == 8
        assert branch.depthwise_conv.weight.shape[0] == branch.spa_conv.weight.shape[1] == 16
        assert branch.attention.w_q.shape == (16, 16)
        assert {block.conv1.weight.shape[:2] for block in branch.tcn.blocks} == {(16, 16)}
    assert model.classifier.weight.shape == (2, 4 * 16)
    widths = []
    fuse = model_module.msca_forward

    def spy(x, y, params, acfg):
        widths.append(x.shape[1])
        return fuse(x, y, params, acfg)

    monkeypatch.setattr(model_module, "msca_forward", spy)
    x = np.zeros((2, 1, cfg.channels, cfg.time_steps), dtype=np.float32)
    assert model(Tensor(x), training=True, rng=np.random.default_rng(0)).shape == (2, 2)
    assert widths == [16] * 4


@pytest.mark.parametrize(
    "line",
    [
        "model.temporal_filters=8,8,8,8",  # spa_filters=32 and D=2 derive 16
        "model.attention.embed_dim=16",
        "model.attention.pool_pads=1,2,4",
        "model.tcn.filters=16",
        "model.tcn.filters=x",
        "model.attention.embed_dim=",
        "model.temporal_filters=16,16,16,a",
        "model.sr_enabled=false",  # sr.enabled=true: the old AND trained without S&R
        "model.sr_enabled=maybe",
        "model.attention.topk_mode=count",
        "model.attention.topk_mode=",
    ],
)
def test_disagreeing_or_malformed_retired_key_exits_2(run_cfg_path, tmp_path, capsys, line):
    path = tmp_path / "old.cfg"
    path.write_text(open(run_cfg_path).read() + line + "\n")
    out = tmp_path / "out"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and line.partition("=")[0] in err[0], err
    assert not out.exists()


@pytest.mark.parametrize(
    "old, new",
    [
        (b"tcn.filters=4", b"tcn.filters=8"),
        (b"tcn.filters=4", b"tcn.filters=x"),
        (b"attention.embed_dim=4", b"attention.embed_dim=2"),
        (b"attention.pool_pads=1,2,3", b"attention.pool_pads=1,2,2"),
        (b"temporal_filters=2,2,2,2", b"temporal_filters=2,2,2,4"),
        (b"attention.topk_mode=ratio", b"attention.topk_mode=count"),
    ],
)
def test_checkpoint_with_disagreeing_or_malformed_retired_key_exits_2(run_cfg_path, tmp_path, capsys, old, new):
    # The v1 fixture carries all four retired keys; one edit of equal length
    # keeps the header's config length right.
    blob = (Path(__file__).parent / "data" / "v1_mini.csan").read_bytes()
    assert blob.count(old) == 1 and len(old) == len(new)
    checkpoint = tmp_path / "old.csan"
    checkpoint.write_bytes(blob.replace(old, new))
    out = tmp_path / "ev"
    assert main(["eval", "--config", run_cfg_path, "--checkpoint", str(checkpoint), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and old.partition(b"=")[0].decode() in err[0], err
    assert not out.exists()
