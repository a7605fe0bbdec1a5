"""Training-loop contracts: determinism, logging, augmentation accounting."""

import numpy as np
import pytest

from csanet.autodiff import precision
from csanet.checkpoint import load_checkpoint
from csanet.config import ModelConfig, RunConfig, SplitSpec, SrConfig, SynthSpec, TrainConfig
from csanet.model import CsanetModel
from csanet.rng import substream
from csanet.train import train_run


def tiny_run(out_dir, epochs=3, sr=True, seed=11, eval_every=0):
    return RunConfig(
        synth=SynthSpec(n_per_class=4, channels=6, time_steps=64, n_classes=3),
        model=ModelConfig(channels=6, time_steps=64, n_classes=3, pools=(4, 4)),
        sr=SrConfig(enabled=sr),
        split=SplitSpec(strategy="none"),
        train=TrainConfig(epochs=epochs, batch_size=6, eval_every=eval_every),
        seed=seed,
        out_dir=str(out_dir),
    )


def read_log(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def parse_losses(text):
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#") and not ln.startswith("epoch")]
    return [float(row.split(",")[1]) for row in rows]


def test_same_seed_identical_logs_f32(tmp_path):
    r1 = train_run(tiny_run(tmp_path / "a", epochs=5))
    r2 = train_run(tiny_run(tmp_path / "b", epochs=5))
    l1, l2 = parse_losses(read_log(r1.log_path)), parse_losses(read_log(r2.log_path))
    assert len(l1) == 5
    assert all(abs(a - b) <= 1e-7 for a, b in zip(l1, l2))


def test_same_seed_bitwise_logs_f64(tmp_path):
    with precision("float64"):
        r1 = train_run(tiny_run(tmp_path / "a", epochs=5))
        r2 = train_run(tiny_run(tmp_path / "b", epochs=5))
    assert open(r1.log_path, "rb").read() == open(r2.log_path, "rb").read()


def test_different_seed_changes_training(tmp_path):
    r1 = train_run(tiny_run(tmp_path / "a", seed=1))
    r2 = train_run(tiny_run(tmp_path / "b", seed=2))
    assert parse_losses(read_log(r1.log_path)) != parse_losses(read_log(r2.log_path))


def test_zero_epochs_checkpoint_equals_initialization(tmp_path):
    run = tiny_run(tmp_path / "init", epochs=0)
    result = train_run(run)
    _, loaded = load_checkpoint(result.checkpoint_path)
    fresh = CsanetModel(run.model, rng=substream(run.seed, "init"))
    for (n1, p1), (n2, p2) in zip(loaded.named_parameters(), fresh.named_parameters()):
        assert n1 == n2
        assert p1.data.tobytes() == p2.data.tobytes()


def test_sr_doubles_effective_batch_and_is_logged(tmp_path):
    on = train_run(tiny_run(tmp_path / "on", epochs=1, sr=True))
    off = train_run(tiny_run(tmp_path / "off", epochs=1, sr=False))
    assert on.effective_batch == 12 and off.effective_batch == 6
    assert "# effective_batch=12" in read_log(on.log_path)
    assert "# effective_batch=6" in read_log(off.log_path)


def test_log_has_header_and_flushed_rows(tmp_path):
    result = train_run(tiny_run(tmp_path / "log", epochs=2))
    lines = read_log(result.log_path).splitlines()
    assert lines[0].startswith("# seed=")
    assert lines[2] == "epoch,train_loss,train_acc"
    assert len(lines) == 3 + 2


def test_eval_column_appears_when_requested(tmp_path):
    run = tiny_run(tmp_path / "ev", epochs=2, eval_every=1)
    run.split = SplitSpec(strategy="kfold", n_folds=4, fold_index=0, seed=3)
    result = train_run(run)
    lines = read_log(result.log_path).splitlines()
    assert lines[2] == "epoch,train_loss,train_acc,eval_acc"
    assert lines[3].count(",") == 3


def test_early_stop_threshold(tmp_path):
    result = train_run(tiny_run(tmp_path / "stop", epochs=50), stop_at_train_acc=0.0)
    assert result.epochs_run == 1  # any accuracy satisfies a zero threshold


def test_dim_mismatch_is_config_error(tmp_path):
    from csanet.errors import ConfigurationError

    run = tiny_run(tmp_path / "bad")
    run.model.channels = 5  # data has 6
    with pytest.raises(ConfigurationError):
        train_run(run)


def test_training_actually_learns(tmp_path):
    run = tiny_run(tmp_path / "learn", epochs=15, seed=5)
    result = train_run(run, stop_at_train_acc=0.99)
    assert result.final_train_acc >= 0.9


def test_non_finite_loss_aborts_with_diagnostic(tmp_path):
    from csanet.errors import NumericalError

    run = tiny_run(tmp_path / "nan", epochs=20)
    run.train.lr = 1e20  # guaranteed divergence
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="non-finite training loss"):
        train_run(run)


def test_empty_train_split_is_config_error_for_train_and_eval(tmp_path):
    from csanet.errors import ConfigurationError
    from csanet.train import eval_run

    run = tiny_run(tmp_path / "empty", epochs=1)
    model = CsanetModel(run.model, rng=substream(run.seed, "init"))
    run.split = SplitSpec(strategy="loso", held_out_subject=1)  # the only subject
    with pytest.raises(ConfigurationError, match="train split is empty"):
        train_run(run)
    with pytest.raises(ConfigurationError, match="train split is empty"):
        eval_run(run, model)


@pytest.mark.parametrize("batch_size", [11, 1])
def test_one_trial_batch_without_sr_fails_before_the_first_step(tmp_path, batch_size):
    """12 trials in batches of 11 (or 1) leave a batch of one trial, which
    training-mode batch norm refuses; with S&R off the run stops before it
    writes a log or a checkpoint. With S&R on, each batch is doubled."""
    from csanet.errors import ConfigurationError

    run = tiny_run(tmp_path / "off", epochs=1, sr=False)
    run.train.batch_size = batch_size
    with pytest.raises(ConfigurationError, match=rf"12 trials and train.batch_size={batch_size}"):
        train_run(run)
    assert not (tmp_path / "off").exists()
    run = tiny_run(tmp_path / "on", epochs=1, sr=True)
    run.train.batch_size = 11
    assert train_run(run).epochs_run == 1
