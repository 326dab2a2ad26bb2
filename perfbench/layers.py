"""Per-layer probes for the traced run.

The traced run wraps public functions of each peafowl module (the layers),
records spans and counters, restores every function afterwards and turns what
it saw into the per-layer metrics.  A function that no longer exists is
reported as missing; its metrics read 0 and the workload keeps running.
"""

from __future__ import annotations

import os
import sys

import numpy as np

from tracer import Tracer

# Timings reported as median, p99 and sample count.
SAMPLED = {
    "optimizer.season_us": "us",
    "optimizer.season_self_us": "us",
    "optimizer.mate_us": "us",
    "transfer.binarize_us": "us",
    "benchmarks.objective_us.F1": "us",
    "benchmarks.objective_us.F10": "us",
    "benchmarks.objective_us.F14": "us",
}

SCALARS = {
    "optimizer.init_s": "s",
    "optimizer.mate_calls": "count",
    "optimizer.evals": "count",
    "optimizer.newborn_survival": "frac",
    "optimizer.improving_iters": "count",
    "optimizer.last_improve_iter": "count",
    "optimizer.clamp_frac": "frac",
    "transfer.mask_bits_mean": "count",
    "transfer.empty_frac": "frac",
    "selection.fitness_calls": "count",
    "selection.fitness_ms": "ms",
    "selection.fitness_self_ms": "ms",
    "selection.distinct_mask_frac": "frac",
    "selection.knn_s": "s",
    "selection.knn_pairs": "count",
    "selection.knn_ns_per_cell": "ns",
    "selection.eval_s": "s",
    "selection.cv_s": "s",
    "metrics.compute_us": "us",
    "data.load_csv_s": "s",
    "data.load_csv_mb_per_s": "MB/s",
    "data.frequency_encode_s": "s",
    "data.min_max_normalize_s": "s",
    "data.binarize_labels_s": "s",
    "data.build_self_s": "s",
    "data.build_fit_s": "s",
    "data.build_apply_s": "s",
    "trace.overhead_frac": "frac",
    "trace.missing": "count",
}


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, unit in SAMPLED.items():
        units.update({name: unit, f"{name}.p99": unit, f"{name}.n": "count"})
    units.update(SCALARS)
    return units


def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else (args[position] if len(args) > position else None)


class Probes:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.tracer = Tracer()
        self.missing: list[str] = []
        self.box = None  # (lower, upper) of the continuous problem being optimized
        self.evals = 0
        self.runs: list[tuple[int, int]] = []  # (improving iterations, last improving iteration)
        self.survivors = 0
        self.coords = self.clamped = 0
        self.binarized = self.bits = self.empty = 0
        self.masks: set[bytes] = set()
        self.knn_pairs = self.knn_cells = 0
        self.csv_bytes = 0
        self.build_applies: list[bool] = []

    # --- hooks ------------------------------------------------------------------

    def _on_optimize(self, args, kwargs, trace):
        self.evals += trace.evaluations
        bests = trace.best_per_iteration
        improved = [i + 1 for i in range(1, len(bests)) if bests[i] != bests[i - 1]]
        self.runs.append((len(improved), improved[-1] if improved else 1))

    def _on_season(self, args, kwargs, population):
        before = {id(p) for p in _arg(args, kwargs, 0, "population")}
        self.survivors += sum(id(p) not in before for p in population)

    def _on_mate(self, args, kwargs, raw):
        self.coords += raw.size
        if self.box is not None:
            self.clamped += int(np.count_nonzero((raw < self.box[0]) | (raw > self.box[1])))

    def _on_binarize(self, args, kwargs, bits):
        n = int(bits.sum())
        self.binarized += 1
        self.bits += n
        self.empty += n == 0

    def _on_fitness(self, args, kwargs, value):
        self.masks.add(_arg(args, kwargs, 0, "mask").mask.tobytes())

    def _on_knn(self, args, kwargs, preds):
        train = _arg(args, kwargs, 0, "train")
        mask = _arg(args, kwargs, 3, "mask")
        pairs = len(preds) * train.n_rows
        self.knn_pairs += pairs
        self.knn_cells += pairs * (train.n_features if mask is None else mask.cardinality)

    def _on_load_csv(self, args, kwargs, table):
        self.csv_bytes += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def _on_build(self, args, kwargs, dataset):
        self.build_applies.append(_arg(args, kwargs, 2, "fit_from") is not None)

    def install(self):
        """Wrap every layer function in every loaded peafowl module."""
        modules = [m for n, m in list(sys.modules.items()) if n == "peafowl" or n.startswith("peafowl.")]
        targets = (
            ("optimizer", "optimize", "optimizer.optimize", self._on_optimize),
            ("optimizer", "initialize_population", "optimizer.init", None),
            ("optimizer", "run_season", "optimizer.season", self._on_season),
            ("optimizer", "mate", "optimizer.mate", self._on_mate),
            ("transfer", "binarize", "transfer.binarize", self._on_binarize),
            ("selection", "subset_fitness", "selection.fitness", self._on_fitness),
            ("selection", "_repair_empty_mask", "selection.repair", None),
            ("selection", "knn_classify", "selection.knn", self._on_knn),
            ("selection", "evaluate_subset", "selection.eval", None),
            ("selection", "cross_validate", "selection.cv", None),
            ("metrics", "compute_metrics", "metrics.compute", None),
            ("data", "load_csv", "data.load_csv", self._on_load_csv),
            ("data", "frequency_encode", "data.frequency_encode", None),
            ("data", "min_max_normalize", "data.min_max_normalize", None),
            ("data", "binarize_labels", "data.binarize_labels", None),
            ("data", "build_dataset", "data.build", self._on_build),
        )
        for module, attr, name, hook in targets:
            owner = sys.modules.get(f"peafowl.{module}")
            if owner is None or not self.tracer.patch(owner, attr, name, modules, hook):
                self.missing.append(f"{module}.{attr}")

    def objective(self, fn, function_name):
        """A benchmark objective that records a span per evaluation."""
        return self.tracer.wrap(fn, f"benchmarks.objective.{function_name}")

    def summary(self) -> dict:
        """Samples and per-pass totals; drops the spans."""
        t = self.tracer
        builds = t.durations("data.build")
        applies = np.array(self.build_applies[: len(builds)], dtype=bool)
        out = {
            "samples": {
                "optimizer.season_us": t.durations("optimizer.season") * 1e6,
                "optimizer.season_self_us": t.self_times("optimizer.season") * 1e6,
                "optimizer.mate_us": t.durations("optimizer.mate") * 1e6,
                "transfer.binarize_us": t.durations("transfer.binarize") * 1e6,
                "optimizer.init_s": t.durations("optimizer.init"),
                "selection.fitness_ms": t.durations("selection.fitness") * 1e3,
                "selection.fitness_self_ms": t.self_times("selection.fitness") * 1e3,
                "metrics.compute_us": t.durations("metrics.compute") * 1e6,
                **{
                    f"benchmarks.objective_us.{f}": t.durations(f"benchmarks.objective.{f}") * 1e6
                    for f in ("F1", "F10", "F14")
                },
            },
            "totals": {
                "optimizer.mate_calls": len(t.durations("optimizer.mate")),
                "optimizer.evals": self.evals,
                "selection.fitness_calls": len(t.durations("selection.fitness")),
                "selection.knn_s": t.durations("selection.knn").sum(),
                "selection.knn_pairs": self.knn_pairs,
                "selection.eval_s": t.durations("selection.eval").sum(),
                "selection.cv_s": t.durations("selection.cv").sum(),
                "data.load_csv_s": t.durations("data.load_csv").sum(),
                "data.frequency_encode_s": t.durations("data.frequency_encode").sum(),
                "data.min_max_normalize_s": t.durations("data.min_max_normalize").sum(),
                "data.binarize_labels_s": t.durations("data.binarize_labels").sum(),
                "data.build_self_s": t.self_times("data.build").sum(),
                "data.build_fit_s": builds[~applies].sum(),
                "data.build_apply_s": builds[applies].sum(),
            },
            "counts": {
                "survivors": self.survivors,
                "coords": self.coords,
                "clamped": self.clamped,
                "binarized": self.binarized,
                "bits": self.bits,
                "empty": self.empty,
                "distinct_masks": len(self.masks),
                "knn_cells": self.knn_cells,
                "csv_bytes": self.csv_bytes,
            },
            "runs": list(self.runs),
        }
        t.spans.clear()
        return out


def _ratio(num, den):
    return float(num / den) if den else 0.0


def layer_metrics(summaries: list[dict], overhead_frac: float, missing: list[str]) -> dict:
    """Per-layer metric values from the summaries of all traced passes.

    Sampled timings pool every sample; totals are medians over passes; ratios
    divide sums over passes.  Anything a workload never touched reads 0.
    """
    values = {}
    pooled = {
        name: np.concatenate([s["samples"][name] for s in summaries])
        for name in summaries[0]["samples"]
    }
    for name in SAMPLED:
        samples = pooled[name]
        values[name] = float(np.median(samples)) if samples.size else 0.0
        # A p99 needs at least ten samples beyond it.
        values[f"{name}.p99"] = float(np.percentile(samples, 99)) if samples.size >= 1000 else 0.0
        values[f"{name}.n"] = int(samples.size)
    for name in ("optimizer.init_s", "selection.fitness_ms", "selection.fitness_self_ms", "metrics.compute_us"):
        values[name] = float(np.median(pooled[name])) if pooled[name].size else 0.0
    for name in summaries[0]["totals"]:
        values[name] = float(np.median([s["totals"][name] for s in summaries]))

    count = {key: sum(s["counts"][key] for s in summaries) for key in summaries[0]["counts"]}
    total = {key: sum(s["totals"][key] for s in summaries) for key in summaries[0]["totals"]}
    runs = [run for s in summaries for run in s["runs"]]
    values["optimizer.newborn_survival"] = _ratio(count["survivors"], total["optimizer.mate_calls"])
    values["optimizer.improving_iters"] = float(np.mean([r[0] for r in runs])) if runs else 0.0
    values["optimizer.last_improve_iter"] = float(np.mean([r[1] for r in runs])) if runs else 0.0
    values["optimizer.clamp_frac"] = _ratio(count["clamped"], count["coords"])
    values["transfer.mask_bits_mean"] = _ratio(count["bits"], count["binarized"])
    values["transfer.empty_frac"] = _ratio(count["empty"], count["binarized"])
    values["selection.distinct_mask_frac"] = _ratio(count["distinct_masks"], total["selection.fitness_calls"])
    values["selection.knn_ns_per_cell"] = _ratio(total["selection.knn_s"] * 1e9, count["knn_cells"])
    values["data.load_csv_mb_per_s"] = _ratio(count["csv_bytes"] / 1e6, total["data.load_csv_s"])
    values["trace.overhead_frac"] = overhead_frac
    values["trace.missing"] = len(missing)
    units = metric_units()
    return {name: {"value": values[name], "unit": units[name]} for name in units}
