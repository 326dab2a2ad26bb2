"""The four workloads: their inputs, one timed pass, and the checks on its outputs.

A pass is a fixed unit of work; a run repeats passes with new pass indices
until its time is up.  ``run`` is the only timed part.  ``check`` compares the
outputs with answers the harness computes itself and records the answer
quality that goes with the speed.
"""

from __future__ import annotations

import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import numpy as np

import inputs
import reference

K_NEIGHBORS = 5

ANSWER_UNITS = {
    "answer.best_F1": "value",
    "answer.best_F10": "value",
    "answer.best_F14": "value",
    "answer.wins_vs_random": "frac",
    "answer.select_fitness": "frac",
    "answer.n_selected": "count",
    "answer.test_f1": "frac",
}


@dataclass
class Op:
    """One operation of a pass: its output, or the exception it raised."""

    label: str
    value: Any = None
    error: Optional[Exception] = None


def attempt(label, fn) -> Op:
    # A failing operation is counted, not fatal: the run goes on.
    try:
        return Op(label, fn())
    except Exception as exc:  # noqa: BLE001 - every failure counts against error_rate
        traceback.print_exc(file=sys.stderr)
        return Op(label, error=exc)


class Workload:
    """Base: ``setup`` builds inputs, ``run`` is timed, ``check`` returns failures.

    ``speed_tasks`` names the speed-probe tasks that pass times are adjusted
    by (see ``speed.py``).
    """

    speed_tasks = ("numpy", "python")

    def __init__(self, pf, seed: int, workdir: Path):
        self.pf = pf
        self.seed = seed
        self.workdir = workdir
        self.answers: dict[str, list] = {}

    def pass_seed(self, index: int) -> int:
        return self.seed * 1000 + index

    def record(self, name, value):
        self.answers.setdefault(name, []).append(value)

    def answer_metrics(self) -> dict:
        """Medians of the recorded answers (the share for wins); 0 where not recorded."""
        out = {}
        for name, unit in ANSWER_UNITS.items():
            values = self.answers.get(name, [])
            reduce = np.mean if name == "answer.wins_vs_random" else np.median
            out[name] = {"value": float(reduce(values)) if values else 0.0, "unit": unit}
        return out


class Campaign(Workload):
    """Default-parameter ``optimize`` on F1, F10 and F14; one run each per pass."""

    functions = ("F1", "F10", "F14")

    def setup(self):
        pass  # the problems come from the benchmark registry; the seed is the input

    def run(self, index, probes=None):
        pf, seed = self.pf, self.pass_seed(index)

        def call(name):
            problem = pf.make_problem(name, seed=seed)
            if probes is not None:
                problem.objective = probes.objective(problem.objective, name)
                probes.box = (problem.domain.lower, problem.domain.upper)
            return pf.optimize(problem, pf.PfmParams(seed=seed))

        return [attempt(name, lambda name=name: call(name)) for name in self.functions]

    def units(self, ops):
        return sum(op.value.evaluations for op in ops if op.error is None)

    def check(self, index, ops):
        failed = 0
        for number, op in enumerate(ops):
            if op.error is not None:
                failed += 1
                continue
            trace = op.value
            fn, dim, lower, upper = reference.FUNCTIONS[op.label]
            position = np.asarray(trace.best_solution.position, dtype=float)
            fitness = trace.best_solution.fitness
            bests = np.asarray(trace.best_per_iteration)
            ok = (
                position.shape == (dim,)
                and bool(np.all((position >= lower) & (position <= upper)))
                and bool(np.isclose(fn(position[None])[0], fitness, rtol=1e-12, atol=0.0))
                and bool(np.all(np.diff(bests) <= 0))
                and bests[-1] == fitness
            )
            failed += not ok
            # Equal-budget random search, from its own stream, outside the timed pass.
            rng = inputs.rng_for(self.seed, inputs.STREAM_RANDOM_SEARCH, index, number)
            random_best = reference.random_search_best(op.label, trace.evaluations, rng)
            self.record(f"answer.best_{op.label}", fitness)
            self.record("answer.wins_vs_random", float(fitness < random_best))
        return failed


class Select(Workload):
    """``select_features`` on a planted 41-column table, then the best mask on a test table."""

    n_rows = 1000
    iterations = 5

    def setup(self):
        pf = self.pf
        self.train = pf.Dataset.from_arrays(*inputs.planted_table(self.n_rows, self.seed, inputs.STREAM_TRAIN))
        self.test = pf.Dataset.from_arrays(*inputs.planted_table(self.n_rows, self.seed, inputs.STREAM_TEST))

    def _spec(self, index):
        return self.pf.WrapperFitnessSpec(k_neighbors=K_NEIGHBORS, split_seed=self.pass_seed(index))

    def run(self, index, probes=None):
        pf = self.pf

        def call():
            params = pf.PfmParams(max_iterations=self.iterations, seed=self.pass_seed(index))
            best, trace = pf.select_features(self.train, params, self._spec(index))
            return best, trace, pf.evaluate_subset(best, self.train, self.test, K_NEIGHBORS)

        return [attempt("select", call)]

    def units(self, ops):
        return sum(op.value[1].evaluations for op in ops if op.error is None)

    def check(self, index, ops):
        op = ops[0]
        if op.error is not None:
            return 1
        best, trace, counts = op.value
        fitness = trace.best_solution.fitness
        ok = (
            self.pf.subset_fitness(best, self.train, self._spec(index)) == fitness
            and np.array_equal(best.mask, trace.best_solution.position)
            and counts.total == self.test.n_rows
        )
        self.record("answer.select_fitness", fitness)
        self.record("answer.n_selected", best.cardinality)
        self.record("answer.test_f1", reference.f1_score(counts.tp, counts.fp, counts.fn))
        return int(not ok)


class Classify(Workload):
    """KNN on one large training table, all features and a 5-feature mask, then 10-fold CV."""

    n_train = 20_000
    n_test = 1_000
    n_cv = 5_000
    folds = 10
    quantum = 4  # coarse dyadic values: exact distances and many real ties
    speed_tasks = ("numpy",)  # see the probe table in README.md

    def setup(self):
        pf = self.pf

        def table(n, stream):
            return pf.Dataset.from_arrays(*inputs.planted_table(n, self.seed, stream, quantum=self.quantum))

        self.train = table(self.n_train, inputs.STREAM_TRAIN)
        self.test = table(self.n_test, inputs.STREAM_TEST)
        self.cv = table(self.n_cv, inputs.STREAM_CV)
        assignments = inputs.fold_assignments(self.n_cv, self.folds, self.seed)
        self.plan = pf.FoldPlan(k=self.folds, assignments=assignments, seed=self.seed)
        self.columns = inputs.informative_columns(self.seed)
        self.mask = pf.FeatureSubset.from_indices(self.columns + 1, inputs.N_FEATURES)
        self.expected = None

    def run(self, index, probes=None):
        pf = self.pf
        return [
            attempt("all", lambda: pf.evaluate_subset(None, self.train, self.test, K_NEIGHBORS)),
            attempt("mask5", lambda: pf.evaluate_subset(self.mask, self.train, self.test, K_NEIGHBORS)),
            attempt("cv", lambda: pf.cross_validate(None, self.cv, self.plan, K_NEIGHBORS)),
        ]

    def units(self, ops):
        rows = {"all": self.n_test, "mask5": self.n_test, "cv": self.n_cv}
        return sum(rows[op.label] for op in ops if op.error is None)

    def _expected(self):
        """Brute-force confusion counts of every timed call, computed once per run."""
        if self.expected is None:

            def counts(train_x, train_y, test_x, test_y):
                return reference.confusion(reference.knn(train_x, train_y, test_x, K_NEIGHBORS), test_y)

            train, test, cv, cols = self.train, self.test, self.cv, self.columns
            held = [self.plan.assignments == fold for fold in range(self.folds)]
            self.expected = {
                "all": counts(train.features, train.labels, test.features, test.labels),
                "mask5": counts(train.features[:, cols], train.labels, test.features[:, cols], test.labels),
                "cv": [counts(cv.features[~h], cv.labels[~h], cv.features[h], cv.labels[h]) for h in held],
            }
        return self.expected

    def check(self, index, ops):
        expected = self._expected()
        failed = 0
        for op in ops:
            if op.error is not None:
                failed += 1
            elif op.label == "cv":
                per_fold, report = op.value
                got = [(c.tp, c.tn, c.fp, c.fn) for c in per_fold]
                pooled = sum(tp + tn for tp, tn, _, _ in expected["cv"]) / self.n_cv
                failed += not (got == expected["cv"] and np.isclose(report.accuracy, pooled, rtol=1e-12))
            else:
                got = op.value
                failed += (got.tp, got.tn, got.fp, got.fn) != expected[op.label]
        return failed


class Ingest(Workload):
    """CSV ingest at NSL-KDD size: fit on the training file, then apply to the test file."""

    n_train = 125_973  # NSL-KDD KDDTrain+ rows
    speed_tasks = ("numpy",)  # see the probe table in README.md
    n_test = 22_544  # NSL-KDD KDDTest+ rows

    def setup(self):
        self.train_table = inputs.nsl_table(self.n_train, self.seed, inputs.STREAM_TRAIN)
        self.test_table = inputs.nsl_table(self.n_test, self.seed, inputs.STREAM_TEST, test=True)
        self.train_csv = self.workdir / "train.csv"
        self.test_csv = self.workdir / "test.csv"
        self.train_csv.write_text(self.train_table.csv_text())
        self.test_csv.write_text(self.test_table.csv_text())
        self.schema = self.pf.TableSchema(
            column_count=inputs.COLUMN_COUNT,
            label_column=inputs.LABEL_COLUMN,
            categorical_columns=inputs.CATEGORICAL_COLUMNS,
            ignored_columns=(inputs.DIFFICULTY_COLUMN,),
            normal_labels=(inputs.LABELS[0],),
        )
        self.expected = None

    def run(self, index, probes=None):
        pf, schema = self.pf, self.schema
        train = attempt("train", lambda: pf.build_dataset(pf.load_csv(self.train_csv, schema), schema))
        if train.error is not None:
            return [train, Op("test", error=RuntimeError("no training dataset to fit from"))]
        test = attempt(
            "test",
            lambda: pf.build_dataset(pf.load_csv(self.test_csv, schema), schema, fit_from=train.value),
        )
        return [train, test]

    def units(self, ops):
        rows = {"train": self.n_train, "test": self.n_test}
        return sum(rows[op.label] for op in ops if op.error is None)

    def check(self, index, ops):
        if self.expected is None:
            train_x, train_y, fitted = reference.encode_scale(self.train_table)
            test_x, test_y, _ = reference.encode_scale(self.test_table, fitted)
            self.expected = {"train": (train_x, train_y), "test": (test_x, test_y)}
        failed = 0
        for op in ops:
            if op.error is not None:
                failed += 1
                continue
            features, labels = self.expected[op.label]
            got = op.value
            ok = (
                got.features.shape == features.shape
                and np.allclose(got.features, features, rtol=0.0, atol=1e-12)
                and np.array_equal(got.labels, labels)
            )
            failed += not ok
        return failed


WORKLOADS = {"campaign": Campaign, "select": Select, "classify": Classify, "ingest": Ingest}
