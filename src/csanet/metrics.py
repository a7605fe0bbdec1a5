"""Evaluation metrics: confusion matrix, accuracy, STD, Cohen's kappa.

Values are stored as fractions; displays multiply by 100. The
cross-subject STD uses the population divisor (1/M).
"""

import json
from dataclasses import dataclass

import numpy as np

from .data import TrialSet, trials_to_arrays
from .errors import ConfigurationError, DataError, NumericalError


@dataclass
class ConfusionMatrix:
    """L x L counts; rows are true classes, columns predictions."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise DataError("confusion matrix must be square")
        if (self.counts < 0).any():
            raise DataError("confusion matrix counts must be nonnegative")

    @property
    def total(self):
        return int(self.counts.sum())

    @property
    def n_classes(self):
        return self.counts.shape[0]


def confusion_from_labels(y_true, y_pred, n_classes) -> ConfusionMatrix:
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (np.asarray(y_true, dtype=np.intp), np.asarray(y_pred, dtype=np.intp)), 1)
    return ConfusionMatrix(counts)


def accuracy(cm: ConfusionMatrix) -> float:
    """Trace over total: correctly predicted fraction."""
    if cm.total == 0:
        raise DataError("empty confusion matrix")
    return float(np.trace(cm.counts)) / cm.total


def std_across(accs) -> float:
    """Population standard deviation (1/M divisor) of per-subject accuracies."""
    accs = np.asarray(list(accs), dtype=np.float64)
    if accs.size == 0:
        raise DataError("std_across needs at least one accuracy")
    return float(np.sqrt(np.mean((accs - accs.mean()) ** 2)))


def kappa(cm: ConfusionMatrix) -> float:
    """Chance-corrected agreement (p_o - p_e) / (1 - p_e)."""
    total = cm.total
    if total == 0:
        raise DataError("empty confusion matrix")
    p_o = accuracy(cm)
    rows = cm.counts.sum(axis=1).astype(np.float64)
    cols = cm.counts.sum(axis=0).astype(np.float64)
    p_e = float((rows * cols).sum()) / (total * total)
    if p_e >= 1.0 - 1e-12:
        if p_o >= 1.0 - 1e-12:
            return 1.0
        raise NumericalError("kappa undefined: chance agreement is 1 with imperfect accuracy")
    return (p_o - p_e) / (1.0 - p_e)


def per_class_recall(cm: ConfusionMatrix):
    """Diagonal over row sums; classes with no true instances report 0."""
    rows = cm.counts.sum(axis=1)
    out = []
    for k in range(cm.n_classes):
        out.append(float(cm.counts[k, k] / rows[k]) if rows[k] else 0.0)
    return out


@dataclass
class EvalReport:
    confusion: ConfusionMatrix
    acc: float
    kappa: float
    per_class_recall: list
    subject_accs: dict = None  # subject_id -> accuracy, when >= 2 subjects
    std: float = None


def check_dims(cfg, trial_set: TrialSet):
    """ConfigurationError unless the set's channels, time steps and class
    count are the model config's."""
    if trial_set.channels != cfg.channels or trial_set.time_steps != cfg.time_steps:
        raise ConfigurationError(
            f"model.channels/time_steps=({cfg.channels}, {cfg.time_steps}) do not match "
            f"the data ({trial_set.channels}, {trial_set.time_steps})"
        )
    if trial_set.n_classes != cfg.n_classes:
        raise ConfigurationError(f"model.n_classes={cfg.n_classes} does not match the data ({trial_set.n_classes})")


def evaluate(model, test: TrialSet, cfg, batch_size=64) -> EvalReport:
    """Deterministic eval-mode pass over a set in the model's dtype; no dropout, no augmentation."""
    check_dims(cfg, test)
    x, y = trials_to_arrays(test, dtype=model.dtype)
    preds = np.empty(len(test), dtype=np.int64)
    for start in range(0, len(test), batch_size):
        preds[start : start + batch_size] = model.predict(x[start : start + batch_size])
    return report_from_predictions(y, preds, cfg.n_classes, subjects=test.subject_ids)


def report_from_predictions(y_true, y_pred, n_classes, subjects=None) -> EvalReport:
    cm = confusion_from_labels(y_true, y_pred, n_classes)
    report = EvalReport(
        confusion=cm,
        acc=accuracy(cm),
        kappa=kappa(cm),
        per_class_recall=per_class_recall(cm),
    )
    if subjects is not None:
        subjects = np.asarray(subjects)
        ids = np.unique(subjects)
        if len(ids) >= 2:
            correct = np.asarray(y_true) == np.asarray(y_pred)
            report.subject_accs = {int(sid): float(correct[subjects == sid].mean()) for sid in ids}
            report.std = std_across(report.subject_accs.values())
    return report


# -- serialization -----------------------------------------------------------


def report_to_csv(report: EvalReport) -> str:
    """One header row, metric,value rows, then the L x L confusion block."""
    lines = ["metric,value", f"acc,{report.acc!r}", f"kappa,{report.kappa!r}"]
    for k, r in enumerate(report.per_class_recall):
        lines.append(f"per_class_recall_{k},{r!r}")
    if report.subject_accs is not None:
        for sid in sorted(report.subject_accs):
            lines.append(f"subject_acc_{sid},{report.subject_accs[sid]!r}")
        lines.append(f"std,{report.std!r}")
    lines.append(f"confusion,{report.confusion.n_classes}")
    for row in report.confusion.counts:
        lines.append(",".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def report_to_json(report: EvalReport) -> str:
    payload = {
        "acc": report.acc,
        "kappa": report.kappa,
        "per_class_recall": report.per_class_recall,
        "subject_accs": {str(k): v for k, v in report.subject_accs.items()}
        if report.subject_accs is not None
        else None,
        "std": report.std,
        "confusion": report.confusion.counts.tolist(),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
