"""Metric closed forms, invariants, and the report files."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from csanet.errors import DataError
from csanet.metrics import (
    ConfusionMatrix,
    accuracy,
    confusion_from_labels,
    kappa,
    per_class_recall,
    report_from_predictions,
    report_to_csv,
    report_to_json,
    std_across,
)

cm_strategy = arrays(
    np.int64, st.tuples(st.integers(2, 5).map(lambda n: (n, n))).map(lambda t: t[0]),
    elements=st.integers(0, 50),
)


class TestAccuracy:
    def test_closed_form(self):
        assert accuracy(ConfusionMatrix([[45, 5], [10, 40]])) == pytest.approx(0.85)

    def test_diagonal_is_perfect(self):
        assert accuracy(ConfusionMatrix(np.diag([7, 3, 5]))) == 1.0

    def test_empty_is_data_error(self):
        with pytest.raises(DataError):
            accuracy(ConfusionMatrix(np.zeros((2, 2), dtype=int)))

    @given(cm=cm_strategy, perm_seed=st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_simultaneous_permutation(self, cm, perm_seed):
        counts = np.asarray(cm)
        if counts.sum() == 0:
            counts[0, 0] = 1
        perm = np.random.Generator(np.random.PCG64(perm_seed)).permutation(counts.shape[0])
        permuted = counts[np.ix_(perm, perm)]
        assert accuracy(ConfusionMatrix(counts)) == pytest.approx(
            accuracy(ConfusionMatrix(permuted))
        )


class TestStd:
    def test_constant_is_zero(self):
        assert std_across([0.8, 0.8, 0.8]) == pytest.approx(0.0, abs=1e-12)

    def test_two_point_closed_form(self):
        # Population divisor: sqrt(mean of squared deviations).
        assert std_across([0.7, 0.9]) == pytest.approx(0.1)

    def test_single_element_is_zero(self):
        assert std_across([0.42]) == 0.0

    def test_empty_is_data_error(self):
        with pytest.raises(DataError):
            std_across([])


class TestKappa:
    def test_perfect_agreement(self):
        assert kappa(ConfusionMatrix([[50, 0], [0, 50]])) == 1.0

    def test_chance_agreement(self):
        assert kappa(ConfusionMatrix([[25, 25], [25, 25]])) == 0.0

    def test_worked_example(self):
        # p_o = 0.7, p_e = (50*60 + 50*40) / 100^2 = 0.5 -> kappa = 0.4
        assert kappa(ConfusionMatrix([[40, 10], [20, 30]])) == pytest.approx(0.4)

    def test_single_cell_diagonal_is_one(self):
        assert kappa(ConfusionMatrix([[50, 0], [0, 0]])) == 1.0

    def test_transpose_symmetry(self):
        counts = np.array([[12, 3, 0], [5, 20, 2], [1, 0, 9]])
        assert kappa(ConfusionMatrix(counts)) == pytest.approx(
            kappa(ConfusionMatrix(counts.T))
        )

    @given(cm=cm_strategy)
    @settings(max_examples=50, deadline=None)
    def test_diagonal_iff_kappa_one(self, cm):
        counts = np.asarray(cm)
        np.fill_diagonal(counts, np.maximum(counts.diagonal(), 1))  # every class occurs
        k = kappa(ConfusionMatrix(counts))
        is_diagonal = counts.sum() == counts.diagonal().sum()
        assert (k == pytest.approx(1.0)) == is_diagonal


class TestConstantPredictor:
    def test_acc_is_prevalence_and_kappa_zero(self):
        y_true = np.array([0] * 30 + [1] * 50 + [2] * 20)
        y_pred = np.full(100, 1)
        report = report_from_predictions(y_true, y_pred, 3)
        assert report.acc == pytest.approx(0.5)
        assert report.kappa == pytest.approx(0.0)

    def test_perfect_labels(self):
        y = np.array([0, 1, 2, 0, 1, 2])
        report = report_from_predictions(y, y.copy(), 3)
        assert report.acc == 1.0 and report.kappa == 1.0


class TestReports:
    def make_report(self):
        y_true = np.array([0, 0, 1, 1, 2, 2, 0, 1])
        y_pred = np.array([0, 1, 1, 1, 2, 0, 0, 2])
        subjects = [1, 1, 1, 2, 2, 2, 3, 3]
        return report_from_predictions(y_true, y_pred, 3, subjects=subjects)

    def test_csv_lists_every_field_exactly(self):
        report = self.make_report()
        rows = report_to_csv(report).splitlines()
        assert rows[0] == "metric,value"
        fields = dict(row.split(",", 1) for row in rows[1:-4])
        want = {"acc": report.acc, "kappa": report.kappa, "std": report.std}
        want.update({f"per_class_recall_{k}": r for k, r in enumerate(report.per_class_recall)})
        want.update({f"subject_acc_{sid}": a for sid, a in report.subject_accs.items()})
        assert {key: float(value) for key, value in fields.items()} == want  # repr round-trips exactly
        assert rows[-4] == "confusion,3"
        assert [[int(v) for v in row.split(",")] for row in rows[-3:]] == report.confusion.counts.tolist()

    def test_json_lists_every_field_exactly(self):
        report = self.make_report()
        payload = json.loads(report_to_json(report))
        assert payload == {
            "acc": report.acc,
            "kappa": report.kappa,
            "per_class_recall": report.per_class_recall,
            "subject_accs": {str(sid): a for sid, a in report.subject_accs.items()},
            "std": report.std,
            "confusion": report.confusion.counts.tolist(),
        }

    def test_per_class_recall_values(self):
        report = self.make_report()
        np.testing.assert_allclose(report.per_class_recall, [2 / 3, 2 / 3, 1 / 2])

    def test_subject_std_uses_population_divisor(self):
        report = self.make_report()
        accs = np.array(sorted(report.subject_accs.values()))
        expected = float(np.sqrt(np.mean((accs - accs.mean()) ** 2)))
        assert report.std == pytest.approx(expected)

    def test_confusion_from_labels_counts(self):
        cm = confusion_from_labels([0, 1, 1], [1, 1, 0], 2)
        np.testing.assert_array_equal(cm.counts, [[0, 1], [1, 1]])

    def test_recall_with_absent_class_is_zero(self):
        cm = ConfusionMatrix([[3, 0], [0, 0]])
        assert per_class_recall(cm) == [1.0, 0.0]


class TestEvaluate:
    def test_dim_mismatch_is_config_error(self):
        from csanet.data import TrialSet
        from csanet.errors import ConfigurationError
        from csanet.metrics import evaluate
        from csanet.model import CsanetModel
        from csanet.verification import mini_model_config

        cfg = mini_model_config()
        model = CsanetModel(cfg, rng=np.random.Generator(np.random.PCG64(0)))
        wrong = TrialSet(x=np.zeros((1, 5, 64), dtype=np.float32), labels=[0], n_classes=cfg.n_classes)
        with pytest.raises(ConfigurationError):
            evaluate(model, wrong, cfg)
