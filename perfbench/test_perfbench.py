"""Tests of the benchmark harness itself.

Run from the repository root:  PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import inputs
import layers
import reference
import run
import workloads
from tracer import Tracer

import peafowl


class TestInputsAreSeeded:
    def test_planted_tables_repeat_per_seed(self):
        for quantum in (0, 16):
            a = inputs.planted_table(300, 4, inputs.STREAM_TRAIN, quantum=quantum)
            b = inputs.planted_table(300, 4, inputs.STREAM_TRAIN, quantum=quantum)
            c = inputs.planted_table(300, 5, inputs.STREAM_TRAIN, quantum=quantum)
            assert all(np.array_equal(x, y) for x, y in zip(a, b))
            assert not np.array_equal(a[0], c[0])

    def test_streams_of_one_seed_differ(self):
        train = inputs.planted_table(300, 4, inputs.STREAM_TRAIN)
        test = inputs.planted_table(300, 4, inputs.STREAM_TEST)
        assert not np.array_equal(train[0], test[0])

    def test_csv_bytes_repeat_per_seed(self):
        a = inputs.nsl_table(500, 3, inputs.STREAM_TRAIN).csv_text()
        assert a == inputs.nsl_table(500, 3, inputs.STREAM_TRAIN).csv_text()
        assert a != inputs.nsl_table(500, 4, inputs.STREAM_TRAIN).csv_text()

    def test_folds_and_informative_columns_repeat_per_seed(self):
        assert np.array_equal(inputs.fold_assignments(103, 10, 2), inputs.fold_assignments(103, 10, 2))
        assert np.array_equal(inputs.informative_columns(2), inputs.informative_columns(2))
        assert np.bincount(inputs.fold_assignments(103, 10, 2)).tolist() == [11, 11, 11] + [10] * 7

    def test_quantized_values_are_dyadic(self):
        features, _ = inputs.planted_table(200, 1, inputs.STREAM_TEST, quantum=16)
        assert np.array_equal(features * 16, np.round(features * 16))


class TestReferencesAgreeWithPeafowl:
    @pytest.fixture
    def schema(self):
        return peafowl.TableSchema(
            column_count=inputs.COLUMN_COUNT,
            label_column=inputs.LABEL_COLUMN,
            categorical_columns=inputs.CATEGORICAL_COLUMNS,
            ignored_columns=(inputs.DIFFICULTY_COLUMN,),
            normal_labels=("normal",),
        )

    def test_encoder_matches_build_dataset(self, tmp_path, schema):
        train_table = inputs.nsl_table(400, 9, inputs.STREAM_TRAIN)
        test_table = inputs.nsl_table(2000, 9, inputs.STREAM_TEST, test=True)
        (tmp_path / "train.csv").write_text(train_table.csv_text())
        (tmp_path / "test.csv").write_text(test_table.csv_text())
        train = peafowl.load_dataset(tmp_path / "train.csv", schema)
        test = peafowl.load_dataset(tmp_path / "test.csv", schema, fit_from=train)

        train_x, train_y, fitted = reference.encode_scale(train_table)
        test_x, test_y, _ = reference.encode_scale(test_table, fitted)
        np.testing.assert_allclose(train.features, train_x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(test.features, test_x, rtol=0, atol=1e-12)
        assert np.array_equal(train.labels, train_y) and np.array_equal(test.labels, test_y)
        # The test table meets unseen services and clipped values.
        assert np.any(test_x[:, 2] == 0.0) and np.any(test_x == 1.0)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_knn_matches_knn_classify_with_ties(self, k):
        # A two-level quantum makes most distances tie.
        x, y = inputs.planted_table(60, 7, inputs.STREAM_TRAIN, quantum=2)
        q, _ = inputs.planted_table(25, 7, inputs.STREAM_TEST, quantum=2)
        train = peafowl.Dataset.from_arrays(x, y)
        assert np.array_equal(reference.knn(x, y, q, k), peafowl.knn_classify(train, q, k))
        cols = inputs.informative_columns(7)
        mask = peafowl.FeatureSubset.from_indices(cols + 1, inputs.N_FEATURES)
        expected = reference.knn(x[:, cols], y, q[:, cols], k)
        assert np.array_equal(expected, peafowl.knn_classify(train, q, k, mask))

    def test_knn_tie_rules(self):
        x = np.array([[0.0], [2.0], [1.0], [1.0]])
        y = np.array([0, 1, 1, 0])
        # Rows 2 and 3 tie at distance 0 from 1.0: the lower row (label 1) wins.
        assert reference.knn(x, y, np.array([[1.0]]), 1).tolist() == [1]
        # Rows 0 and 1 are both at distance 1 from 1.0: with k=2 the vote is even -> attack.
        assert reference.knn(x[:2], y[:2], np.array([[1.0]]), 2).tolist() == [1]

    def test_knn_refuses_inputs_without_exact_distances(self):
        x = np.array([[0.0], [0.25]])
        with pytest.raises(ValueError):
            reference.knn(x, np.array([0, 1]), np.array([[0.1]]), 1)

    @pytest.mark.parametrize("name", sorted(reference.FUNCTIONS))
    def test_benchmark_functions_match(self, name):
        fn, dim, lower, upper = reference.FUNCTIONS[name]
        points = np.random.default_rng(0).uniform(lower, upper, size=(20, dim))
        expected = [peafowl.evaluate_benchmark(name, p) for p in points]
        np.testing.assert_allclose(fn(points), expected, rtol=1e-12, atol=0)
        assert reference.f1_score(3, 1, 1) == 0.75


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestTracer:
    def test_self_time_excludes_children_and_their_hooks(self):
        clock = FakeClock()
        tracer = Tracer(clock)

        def leaf():
            clock.now += 2.0

        def hook(args, kwargs, result):
            clock.now += 0.5

        traced_leaf = tracer.wrap(leaf, "leaf", on_return=hook)

        def root():
            clock.now += 1.0
            traced_leaf()
            clock.now += 3.0
            traced_leaf()

        tracer.wrap(root, "root")()
        assert tracer.durations("root").tolist() == [9.0]
        assert tracer.self_times("root").tolist() == [4.0]
        assert tracer.durations("leaf").tolist() == [2.0, 2.0]
        assert tracer.self_times("leaf").tolist() == [2.0, 2.0]

    def test_span_closes_when_the_function_raises(self):
        clock = FakeClock()
        tracer = Tracer(clock)

        def boom():
            clock.now += 1.0
            raise ValueError

        with pytest.raises(ValueError):
            tracer.wrap(boom, "boom")()
        tracer.wrap(lambda: None, "after")()
        assert tracer.durations("boom").tolist() == [1.0]
        assert tracer.spans[-1][4] == -1  # "after" has no parent left open

    def test_probes_restore_every_function(self):
        modules = [m for n, m in sys.modules.items() if n == "peafowl" or n.startswith("peafowl.")]
        before = [dict(vars(m)) for m in modules]
        probes = layers.Probes()
        with probes.tracer:
            probes.install()
            original = before[modules.index(peafowl.optimizer)]["run_season"]
            assert peafowl.optimizer.run_season.__wrapped__ is original
            assert peafowl.selection.knn_classify is peafowl.knn_classify
        assert probes.missing == []
        assert [dict(vars(m)) for m in modules] == before

    def test_missing_function_is_listed_not_patched(self, monkeypatch):
        monkeypatch.delattr(peafowl.transfer, "binarize")
        probes = layers.Probes()
        with probes.tracer:
            probes.install()
        assert probes.missing == ["transfer.binarize"]

    def test_layer_metrics_cover_every_name_with_zero_for_untouched_layers(self):
        probes = layers.Probes()
        with probes.tracer:
            probes.install()
            peafowl.compute_metrics(peafowl.ConfusionCounts(tp=1, tn=1))
        metrics = layers.layer_metrics([probes.summary()], 0.0, probes.missing)
        assert list(metrics) == list(layers.metric_units())
        assert metrics["metrics.compute_us"]["value"] > 0
        assert metrics["data.load_csv_s"]["value"] == 0.0


def test_benchmark_json_lists_every_metric_the_harness_reports():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {**layers.metric_units(), **workloads.ANSWER_UNITS}
