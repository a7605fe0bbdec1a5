"""Seeded training loop: batching, augmentation, logging, checkpointing.

All randomness fans out from RunConfig.seed into named substreams (init,
dropout, augment, shuffle, synth), so two runs with the same config
produce identical logs and checkpoints. Each epoch's CSV log row is
flushed immediately, so an interrupted run keeps a valid prefix.
"""

import os
from dataclasses import dataclass

import numpy as np

from . import rng as rngs
from .augment import sr_augment
from .autodiff import Tensor
from .checkpoint import save_checkpoint
from .config import RunConfig, write_config
from .data import read_eegd, split, synth_generate, trials_to_arrays, zscore_apply, zscore_fit
from .errors import ConfigurationError, NumericalError
from .metrics import check_dims, evaluate
from .model import CsanetModel
from .ops import cross_entropy
from .optim import AdamState, adam_step


@dataclass
class TrainResult:
    model: CsanetModel
    epochs_run: int
    final_train_acc: float
    train_losses: list
    log_path: str
    checkpoint_path: str
    effective_batch: int


def load_run_data(run: RunConfig):
    """Resolve the run's data source into a TrialSet."""
    if run.data_path:
        return read_eegd(run.data_path)
    s = run.synth
    return synth_generate(
        s.n_per_class,
        s.channels,
        s.time_steps,
        s.n_classes,
        s.snr,
        seed=rngs.substream_seed(run.seed, rngs.STREAM_SYNTH),
        subjects=s.subjects,
        sessions=s.sessions,
    )


def _load_split(run: RunConfig):
    """The run's (train, test) sets: loaded, checked against the model,
    split, and z-scored with the train set's statistics when asked."""
    full = load_run_data(run)
    check_dims(run.model, full)
    train_set, test_set = split(full, run.split)
    if not len(train_set):
        raise ConfigurationError("train split is empty")
    if run.train.normalize:
        stats = zscore_fit(train_set)
        train_set, test_set = zscore_apply(train_set, stats), zscore_apply(test_set, stats)
    return train_set, test_set


def train_run(run: RunConfig, stop_at_train_acc=None, on_epoch=None) -> TrainResult:
    """Run training per the config; returns the final model and artifacts.

    stop_at_train_acc, when set, ends training early once the eval-mode
    accuracy over the train split reaches the threshold. on_epoch, when
    set, is called with (epoch, train_loss, train_acc) after each epoch.
    """
    run.validate()
    train_set, test_set = _load_split(run)
    n = len(train_set)
    batch = run.train.batch_size
    # Without S&R's doubling, a one-trial batch would fail batch norm at the
    # epoch's last step, after the epoch's compute and before any checkpoint.
    if run.train.epochs > 0 and not run.sr.enabled and (batch == 1 or n % batch == 1):
        raise ConfigurationError(
            f"the train split has {n} trials and train.batch_size={batch}, so a training batch "
            "holds one trial; batch norm in training mode needs at least 2 (S&R is off)"
        )

    model = CsanetModel(run.model, rng=rngs.substream(run.seed, rngs.STREAM_INIT))
    optimizer = AdamState(lr=run.train.lr)
    dropout_rng = rngs.substream(run.seed, rngs.STREAM_DROPOUT)
    augment_rng = rngs.substream(run.seed, rngs.STREAM_AUGMENT)
    shuffle_rng = rngs.substream(run.seed, rngs.STREAM_SHUFFLE)

    effective_batch = batch * (2 if run.sr.enabled else 1)

    os.makedirs(run.out_dir, exist_ok=True)
    log_path = os.path.join(run.out_dir, "train_log.csv")
    checkpoint_path = os.path.join(run.out_dir, "model.csan")
    write_config(run, os.path.join(run.out_dir, "run.cfg"))

    params = list(model.parameters())
    losses = []
    final_acc = float("nan")
    epochs_run = 0

    with open(log_path, "w", encoding="utf-8", newline="\n") as log:
        log.write(f"# seed={run.seed}\n")
        log.write(f"# effective_batch={effective_batch}\n")
        columns = "epoch,train_loss,train_acc"
        if run.train.eval_every > 0:
            columns += ",eval_acc"
        log.write(columns + "\n")
        log.flush()

        for epoch in range(1, run.train.epochs + 1):
            order = shuffle_rng.permutation(n)
            epoch_loss = 0.0
            steps = 0
            for start in range(0, n, batch):
                chunk = train_set.subset(order[start : start + batch])
                chunk = sr_augment(chunk, run.sr, augment_rng)
                x, y = trials_to_arrays(chunk, dtype=model.dtype)
                logits = model(Tensor(x), training=True, rng=dropout_rng)
                loss = cross_entropy(logits, y)
                loss_value = float(loss.data)
                if not np.isfinite(loss_value):
                    raise NumericalError(f"non-finite training loss at epoch {epoch}: {loss_value}")
                model.zero_grad()
                loss.backward()
                # adam_step skips params outside the graph (branch1's alpha/beta).
                adam_step(optimizer, params)
                epoch_loss += loss_value
                steps += 1
            mean_loss = epoch_loss / steps
            train_acc = evaluate(model, train_set, run.model).acc
            row = f"{epoch},{mean_loss!r},{train_acc!r}"
            if run.train.eval_every > 0:
                if len(test_set) and epoch % run.train.eval_every == 0:
                    row += f",{evaluate(model, test_set, run.model).acc!r}"
                else:
                    row += ","
            log.write(row + "\n")
            log.flush()
            losses.append(mean_loss)
            final_acc = train_acc
            epochs_run = epoch
            if on_epoch is not None:
                on_epoch(epoch, mean_loss, train_acc)
            if stop_at_train_acc is not None and train_acc >= stop_at_train_acc:
                break

    save_checkpoint(model, checkpoint_path)
    return TrainResult(
        model=model,
        epochs_run=epochs_run,
        final_train_acc=final_acc,
        train_losses=losses,
        log_path=log_path,
        checkpoint_path=checkpoint_path,
        effective_batch=effective_batch,
    )


def eval_run(run: RunConfig, model) -> "EvalReport":
    """Evaluate a model on the run's test split (train split when empty)."""
    train_set, test_set = _load_split(run)
    return evaluate(model, test_set if len(test_set) else train_set, run.model)
