from dataclasses import asdict

import numpy as np
import pytest

from peafowl import ConfusionCounts, compute_metrics

from conftest import confusion_oracle


class TestWorkedExamples:
    def test_perfect_classifier(self):
        report = compute_metrics(ConfusionCounts(tp=1, tn=1, fp=0, fn=0))
        assert report.accuracy == 1.0
        assert report.detection_rate == 1.0
        assert report.fpr == 0.0
        assert report.tnr == 1.0
        assert report.fnr == 0.0
        assert report.precision == 1.0
        assert report.f1 == 1.0

    def test_mixed_counts(self):
        report = compute_metrics(ConfusionCounts(tp=75, tn=96, fp=4, fn=25))
        assert report.accuracy == 0.855
        assert report.detection_rate == 0.75
        assert report.fpr == 0.04
        assert report.precision == pytest.approx(75 / 79, abs=1e-15)
        assert report.f1 == pytest.approx(150 / 179, abs=1e-15)

    def test_undefined_rates_reported_as_none(self):
        report = compute_metrics(ConfusionCounts(tp=0, tn=10, fp=0, fn=0))
        assert report.detection_rate is None
        assert report.precision is None
        assert report.fnr is None
        assert report.f1 is None
        assert report.accuracy == 1.0
        assert report.tnr == 1.0

    def test_all_zero_counts_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics(ConfusionCounts())


class TestFromPredictions:
    def test_matches_oracle(self):
        rng = np.random.default_rng(3)
        for n in (1, 7, 200):
            preds, actual = rng.integers(0, 2, n), rng.integers(0, 2, n)
            counts = ConfusionCounts.from_predictions(preds, actual)
            assert (counts.tp, counts.tn, counts.fp, counts.fn) == confusion_oracle(preds, actual)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="predictions"):
            ConfusionCounts.from_predictions([1, 0], [1, 0, 1])

    @pytest.mark.parametrize(
        "preds, actual, message",
        [
            ([2, 0, 1], [1, 0, 5], "position 0: prediction 2 and label 1 must both be 0 or 1"),
            ([0, 1, 1, 0], [0, 1, -1, 0], "position 2: prediction 1 and label -1 must both be 0 or 1"),
            ([0.0, 0.5], [0.0, 1.0], "position 1: prediction 0.5 and label 1.0 must both be 0 or 1"),
        ],
        ids=["two-and-five", "minus-one", "fraction"],
    )
    def test_value_other_than_0_or_1_rejected(self, preds, actual, message):
        # Such a pair fell into no cell: the first case counted 1 of 3 rows.
        with pytest.raises(ValueError, match=message):
            ConfusionCounts.from_predictions(preds, actual)


class TestValidation:
    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1, tn=0, fp=0, fn=1)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=1.5, tn=0, fp=0, fn=0)

    @pytest.mark.parametrize("field", ["tp", "tn", "fp", "fn"])
    @pytest.mark.parametrize("value", [True, False])
    def test_bool_rejected(self, field, value):
        # a bool is not a count
        with pytest.raises(ValueError, match=f"{field} must be a non-negative integer, got {value}"):
            ConfusionCounts(**{field: value})

    def test_pooling(self):
        total = ConfusionCounts(1, 2, 3, 4) + ConfusionCounts(10, 20, 30, 40)
        assert (total.tp, total.tn, total.fp, total.fn) == (11, 22, 33, 44)


class TestProperties:
    def _random_counts(self, rng):
        return ConfusionCounts(*(int(v) for v in rng.integers(0, 10_000, size=4)))

    def test_complementarity_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            c = self._random_counts(rng)
            if c.total == 0:
                continue
            r = compute_metrics(c)
            if r.detection_rate is not None:
                assert r.detection_rate + r.fnr == 1.0
            if r.fpr is not None:
                assert r.fpr + r.tnr == 1.0

    def test_f1_harmonic_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(2000):
            c = self._random_counts(rng)
            if c.total == 0:
                continue
            r = compute_metrics(c)
            if r.precision is not None and r.detection_rate is not None and (
                r.precision + r.detection_rate
            ) > 0:
                harmonic = 2 * r.precision * r.detection_rate / (r.precision + r.detection_rate)
                assert r.f1 == pytest.approx(harmonic, abs=1e-12)

    def test_scale_invariance_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(2000):
            c = self._random_counts(rng)
            if c.total == 0:
                continue
            m = int(rng.integers(1, 1000))
            scaled = ConfusionCounts(c.tp * m, c.tn * m, c.fp * m, c.fn * m)
            assert compute_metrics(c) == compute_metrics(scaled)

    def test_defined_metrics_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            c = self._random_counts(rng)
            if c.total == 0:
                continue
            for value in asdict(compute_metrics(c)).values():
                if value is not None:
                    assert 0.0 <= value <= 1.0


class TestRendering:
    def test_percentages_to_three_decimals(self):
        report = compute_metrics(ConfusionCounts(tp=75, tn=96, fp=4, fn=25))
        pct = report.as_percentages()
        assert pct["accuracy"] == "85.500"
        assert pct["detection_rate"] == "75.000"
        assert pct["fpr"] == "4.000"

    def test_undefined_renders_na(self):
        pct = compute_metrics(ConfusionCounts(tp=0, tn=10, fp=0, fn=0)).as_percentages()
        assert pct["detection_rate"] == "NA"
        assert pct["precision"] == "NA"
        assert pct["accuracy"] == "100.000"
