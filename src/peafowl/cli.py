"""Batch command-line front end.

Four commands: ``bench`` (benchmark campaign: ``runs`` independent runs of
each function, run i with seed ``seed + i``), ``select`` (wrapper feature
selection), ``eval`` (train/test metrics for a feature set) and ``cv``
(k-fold cross validation).  ``_COMMAND_KEYS`` lists the settings each
command reads; its flags, its resolved settings and its manifest all come
from that list.  Each setting takes the first value found among explicit
flags, the YAML config file given by ``--config``, and the defaults of
``PfmParams`` and ``WrapperFitnessSpec`` (or of the CLI, for settings the
library does not hold).  A config value must have its flag's type, checked
when the file is read: an int where a float is taken (widened), a bool for
``baseline``, a string for ``functions``, ``features`` and the file paths.
A config file may also hold settings of other commands; they are checked,
then ignored.  Three settings have no flag and are set only in the config
file: ``dedup`` (a bool or null; when set, it replaces the schema's
``drop_duplicates``), and ``holdout_fraction`` and ``top_subsets``, which
only ``select`` reads.  Results are written to files only (logs go to
stderr) and every output directory receives a manifest echoing the
effective value of exactly the settings ``_COMMAND_KEYS`` lists for its
command, so a run can be reproduced byte-for-byte from it.  Wall times
vary between runs, so they go to ``timings.csv`` apart from the files a
rerun reproduces: ``bench`` writes one row per function, and ``eval`` one
per evaluated row, the classify time of ``selected`` and, under
``--baseline``, of ``all_features``.

``select`` reports as ``fitness`` the search's own holdout score: KNN
accuracy on the held-out rows on which it scored every mask.  The best of
many masks scored on the same rows is biased upward, so this number is
optimistic by construction, not an estimate of test accuracy; ``eval`` on a
separate test file gives one.  ``cv`` of a selected mask on the table it was
selected on is optimistic too.

Exit codes: 0 success; 2 usage/config error, an ``--out`` that cannot be made
a directory included; 3 data error, such as an input file that cannot be read
or is not UTF-8; 4 runtime error, a result file that cannot be written
included.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import logging
import os
import sys
import time
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

from . import __version__
from .benchmarks import BENCHMARKS, get_benchmark, make_problem
from .data import TableSchema, load_dataset, make_folds, read_yaml_settings
from .errors import ConfigError, DataError, EvaluationError
from .metrics import ConfusionCounts, MetricsReport, compute_metrics
from .optimizer import PfmParams, optimize
from .selection import (
    FeatureSubset,
    WrapperFitnessSpec,
    cross_validate,
    evaluate_subset,
    select_features,
    top_subsets,
)

log = logging.getLogger("peafowl")

# The settings the library holds: CLI key -> (class, field, end), where `end`
# picks r_min and r_max out of the PfmParams.r_range pair.  Each key's
# default and value type are those of the field in `class()`.
_LIBRARY = {
    "seed": (PfmParams, "seed", None),
    "population": (PfmParams, "population_size", None),
    "iterations": (PfmParams, "max_iterations", None),
    "seasons": (PfmParams, "seasons_per_iteration", None),
    "alpha": (PfmParams, "dominance_factor", None),
    "gamma1": (PfmParams, "gamma1", None),
    "gamma2": (PfmParams, "gamma2", None),
    "i0": (PfmParams, "call_intensity", None),
    "c0": (PfmParams, "colorfulness", None),
    "r_min": (PfmParams, "r_range", 0),
    "r_max": (PfmParams, "r_range", 1),
    "k_neighbors": (WrapperFitnessSpec, "k_neighbors", None),
    "holdout_fraction": (WrapperFitnessSpec, "holdout_fraction", None),
}
_PFM_KEYS = [key for key, (cls, _, _) in _LIBRARY.items() if cls is PfmParams]
_DATA_KEYS = ("train", "schema", "dedup", "out")
# The settings each command reads: its flags, its resolved config and its manifest.
_COMMAND_KEYS = {
    "bench": ("functions", "runs", "out", *_PFM_KEYS),
    "select": (*_DATA_KEYS, *_PFM_KEYS, "k_neighbors", "holdout_fraction", "top_subsets"),
    "eval": (*_DATA_KEYS, "test", "k_neighbors", "features", "baseline"),
    "cv": (*_DATA_KEYS, "k_neighbors", "features", "folds", "seed"),
}
_CONFIG_ONLY = ("dedup", "holdout_fraction", "top_subsets")  # no flag: set in the config file

_DEFAULTS = {
    key: getattr(cls(), field) if end is None else getattr(cls(), field)[end]
    for key, (cls, field, end) in _LIBRARY.items()
}
_DEFAULTS.update(  # the settings with no library counterpart
    runs=30,
    functions="all",
    features="all",
    folds=10,
    top_subsets=3,
    baseline=False,
    dedup=None,  # unset: the schema's drop_duplicates stands
)
# A config value takes the type of its key's default, as a flag does.
_CONFIG_TYPES = {key: (type(value),) for key, value in _DEFAULTS.items()}
_CONFIG_TYPES.update(dict.fromkeys(("train", "test", "schema", "out"), (str,)), dedup=(bool, type(None)))

_HELP = {  # --help texts, by command and by setting
    "bench": "run the benchmark campaign",
    "select": "wrapper feature selection on a dataset",
    "eval": "train/test metrics for a feature set",
    "cv": "k-fold cross validation",
    "functions": "comma-separated ids (F1..F23) or 'all'",
    "features": "comma-separated 1-based indices or 'all'",
    "baseline": "also report the all-features row",
}

_METRIC_HEADER = [f.name for cls in (ConfusionCounts, MetricsReport) for f in dataclasses.fields(cls)]


def build_parser() -> argparse.ArgumentParser:
    """One flag per setting a command reads, but config-only ones; a bool setting is a --key/--no-key pair."""
    parser = argparse.ArgumentParser(prog="peafowl", description=__doc__)
    parser.add_argument("--version", action="version", version=f"peafowl {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    for command, keys in _COMMAND_KEYS.items():
        sub = commands.add_parser(command, help=_HELP[command])
        sub.add_argument("--config")
        for key in keys:
            if key in _CONFIG_ONLY:
                continue
            (kind,) = _CONFIG_TYPES[key]
            if kind is bool:
                parse = {"action": argparse.BooleanOptionalAction}  # unset (None) defers to the config
            else:  # argparse keeps a string as given
                parse = {"type": None if kind is str else kind}
            sub.add_argument("--" + key.replace("_", "-"), dest=key, help=_HELP.get(key), **parse)
    return parser


def _resolve_config(args: argparse.Namespace) -> dict:
    """The settings ``args.command`` reads: defaults < config file < explicit flags.

    The whole config file is type-checked; keys other commands read are then ignored.
    """
    from_file = read_yaml_settings(args.config, "config", _CONFIG_TYPES) if args.config else {}
    flags = vars(args)
    config = {}
    for key in _COMMAND_KEYS[args.command]:
        flag = flags.get(key)
        config[key] = flag if flag is not None else from_file.get(key, _DEFAULTS.get(key))
    return config


@contextmanager
def _config_errors():
    """Report the library's ValueError for a bad setting as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _from_config(cls, config: dict):
    """A ``cls`` (PfmParams or WrapperFitnessSpec), which checks itself, from its keys in ``config``.

    A field whose key ``config`` lacks keeps its default.
    """
    fields = {}
    for key, (owner, field, end) in _LIBRARY.items():
        if owner is cls and key in config:
            value = config[key]
            if end is not None:  # r_min, then r_max, extends the r_range pair
                value = (*fields.get(field, ()), value)
            fields[field] = value
    with _config_errors():
        return cls(**fields)


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``NAME.tmp``, then move it onto ``path``; a failed write leaves no temporary."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError:
        with suppress(OSError):  # the write's own error is the one to report
            tmp.unlink()
        raise


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_atomic(path, buffer.getvalue())


def _write_json(path: Path, payload) -> None:
    _write_atomic(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict, inputs: dict) -> None:
    manifest = {
        "command": command,
        "config": config,
        "inputs": inputs,
        "package_version": __version__,
    }
    _write_json(out_dir / "manifest.json", manifest)


def _out_dir(config: dict) -> Path:
    """Create ``--out``; a command calls it once its settings and inputs have passed their checks.

    A path that cannot be made a directory is a ConfigError.
    """
    path = Path(config["out"])
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc
    return path


def _require(config: dict, *keys):
    for key in keys:
        if not config.get(key):
            raise ConfigError(f"--{key.replace('_', '-')} is required for this command")


def _parse_feature_list(spec_text: str, n_features: int):
    """'all' -> None (no masking); otherwise a 1-based index list."""
    if spec_text.strip().lower() == "all":
        return None
    try:
        indices = [int(tok) for tok in spec_text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse feature list {spec_text!r}") from None
    if not indices:
        raise ConfigError("feature list is empty")
    with _config_errors():
        return FeatureSubset.from_indices(indices, n_features)


def _metrics_entry(counts: ConfusionCounts, report: MetricsReport) -> dict:
    return {
        "counts": dataclasses.asdict(counts),
        "fractions": dataclasses.asdict(report),
        "percentages": report.as_percentages(),
    }


def _metric_cells(entry: dict) -> list:
    """The cells under _METRIC_HEADER for one metrics entry."""
    return [*entry["counts"].values(), *entry["percentages"].values()]


def cmd_bench(config: dict) -> int:
    _require(config, "out")
    requested = config["functions"]
    names = list(BENCHMARKS) if requested.strip().lower() == "all" else [
        tok.strip() for tok in requested.split(",") if tok.strip()
    ]
    if not names:
        raise ConfigError("function list is empty")
    repeated = next((name for i, name in enumerate(names) if name in names[:i]), None)
    if repeated is not None:
        raise ConfigError(f"function {repeated} is listed more than once")
    for name in names:
        get_benchmark(name)
    runs = config["runs"]
    if runs < 1:
        raise ConfigError("runs must be >= 1")
    params = _from_config(PfmParams, config)
    out = _out_dir(config)

    log.info("bench: %d functions x %d runs (seed %d)", len(names), runs, params.seed)
    summaries, conv_rows, timings = [], [], []
    for name in names:
        started = time.perf_counter()
        traces = []
        for i in range(runs):
            run_params = dataclasses.replace(params, seed=params.seed + i)
            traces.append(optimize(make_problem(name, seed=run_params.seed), run_params).best_per_iteration)
        timings.append([name, (time.perf_counter() - started) * 1000.0])
        finals = np.array([trace[-1] for trace in traces])
        summaries.append(
            {
                "function": name,
                "dimension": BENCHMARKS[name].dimension,
                "runs": runs,
                "avg": float(finals.mean()),
                "std": float(finals.std()),  # the population std: divisor = runs
                "best": float(finals.min()),
                "worst": float(finals.max()),
                "per_run_best": finals.tolist(),
                "params": dataclasses.asdict(params),
            }
        )
        for run_idx, trace in enumerate(traces):
            conv_rows.extend([name, run_idx, iteration, best] for iteration, best in enumerate(trace))
    header = ["function", "dimension", "runs", "avg", "std", "best", "worst"]
    _write_csv(out / "results.csv", header, [[s[key] for key in header] for s in summaries])
    _write_json(out / "results.json", summaries)
    _write_csv(out / "convergence.csv", ["function", "run", "iteration", "best"], conv_rows)
    # Wall times vary between runs; kept apart so primary files stay reproducible.
    _write_csv(out / "timings.csv", ["function", "wall_ms"], timings)
    _write_manifest(out, "bench", config, {})
    log.info("bench: wrote %s", out / "results.csv")
    return 0


def _load_train(config: dict):
    schema = TableSchema.from_yaml(config["schema"])
    if config["dedup"] is not None:
        schema = dataclasses.replace(schema, drop_duplicates=config["dedup"])
    config["dedup"] = schema.drop_duplicates
    train = load_dataset(config["train"], schema)
    inputs = {
        "schema": {"path": config["schema"], "fingerprint": schema.fingerprint()},
        "train": {"path": config["train"], "sha256": _file_sha256(config["train"])},
    }
    return schema, train, inputs


def cmd_select(config: dict) -> int:
    _require(config, "out", "train", "schema")
    _, train, inputs = _load_train(config)
    params = _from_config(PfmParams, config)
    spec = _from_config(WrapperFitnessSpec, config)
    with _config_errors():
        # Rejects a count below 1 before the search.
        top_subsets((np.empty((0, 1)), np.empty(0)), config["top_subsets"])
    out = _out_dir(config)
    log.info(
        "select: %d rows x %d features, pop %d, %d iterations",
        train.n_rows, train.n_features, params.population_size, params.max_iterations,
    )
    _, trace = select_features(train, params, spec)
    tops = top_subsets(trace.final_population, n=config["top_subsets"])
    subsets = [
        {"subset_id": f"FSs{i + 1}", "n_features": s.cardinality, "features": s.indices, "fitness": fitness}
        for i, (s, fitness) in enumerate(tops)
    ]
    best = {key: subsets[0][key] for key in ("n_features", "features", "fitness")}  # FSs1
    _write_csv(
        out / "results.csv",
        ["subset_id", "n_features", "features", "fitness"],
        [[s["subset_id"], s["n_features"], ",".join(map(str, s["features"])), s["fitness"]] for s in subsets],
    )
    _write_json(
        out / "results.json",
        {
            "best": best,
            "subsets": subsets,
            "evaluations": trace.evaluations,
            "seed": params.seed,
        },
    )
    _write_csv(
        out / "convergence.csv",
        ["iteration", "best_fitness"],
        [[i, v] for i, v in enumerate(trace.best_per_iteration)],
    )
    _write_manifest(out, "select", config, inputs)
    log.info(
        "select: best subset has %d features (fitness %.4f); fitness is the search's own holdout score, "
        "optimistic by construction, not an estimate of test accuracy",
        best["n_features"], best["fitness"],
    )
    return 0


def cmd_eval(config: dict) -> int:
    _require(config, "out", "train", "test", "schema")
    schema, train, inputs = _load_train(config)
    test = load_dataset(config["test"], schema, fit_from=train)
    inputs["test"] = {"path": config["test"], "sha256": _file_sha256(config["test"])}
    k = _from_config(WrapperFitnessSpec, config).k_neighbors

    mask = _parse_feature_list(config["features"], train.n_features)
    requested = [("selected", mask)]
    if config["baseline"] and mask is not None:
        requested.append(("all_features", None))
    out = _out_dir(config)

    entries, timings = [], []
    for label, row_mask in requested:
        started = time.perf_counter()
        counts = evaluate_subset(row_mask, train, test, k)
        timings.append([label, (time.perf_counter() - started) * 1000.0])
        features = "all" if row_mask is None else ",".join(map(str, row_mask.indices))
        entries.append(
            {"label": label, "features": features, "k_neighbors": k,
             **_metrics_entry(counts, compute_metrics(counts))}
        )
    _write_csv(
        out / "results.csv",
        ["label", "features", "k", *_METRIC_HEADER],
        [[e["label"], e["features"], e["k_neighbors"], *_metric_cells(e)] for e in entries],
    )
    _write_json(out / "results.json", entries)
    _write_csv(out / "timings.csv", ["label", "wall_ms"], timings)
    _write_manifest(out, "eval", config, inputs)
    return 0


def cmd_cv(config: dict) -> int:
    _require(config, "out", "train", "schema")
    _, data, inputs = _load_train(config)
    k = _from_config(WrapperFitnessSpec, config).k_neighbors
    mask = _parse_feature_list(config["features"], data.n_features)
    with _config_errors():
        folds = make_folds(data.n_rows, config["folds"], config["seed"])
    out = _out_dir(config)
    log.info("cv: %d folds over %d rows", folds.k, data.n_rows)
    per_fold, pooled_report = cross_validate(mask, data, folds, k)

    fold_entries = [_metrics_entry(counts, compute_metrics(counts)) for counts in per_fold]
    pooled = _metrics_entry(sum(per_fold, ConfusionCounts()), pooled_report)
    csv_rows = [[fold, *_metric_cells(entry)] for fold, entry in enumerate(fold_entries)]
    csv_rows.append(["pooled", *_metric_cells(pooled)])
    _write_csv(out / "results.csv", ["fold", *_METRIC_HEADER], csv_rows)
    _write_json(
        out / "results.json",
        {
            "folds": [{"fold": fold, "counts": entry["counts"]} for fold, entry in enumerate(fold_entries)],
            "pooled": pooled,
        },
    )
    _write_manifest(out, "cv", config, inputs)
    return 0


_COMMANDS = {"bench": cmd_bench, "select": cmd_select, "eval": cmd_eval, "cv": cmd_cv}


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _resolve_config(args)
        return _COMMANDS[args.command](config)
    except ConfigError as exc:
        log.error("%s", exc)
        return 2
    except DataError as exc:
        log.error("%s", exc)
        return 3
    except (EvaluationError, ValueError, ArithmeticError, OSError) as exc:  # OSError: a result write failed
        log.error("%s", exc)
        return 4


if __name__ == "__main__":
    sys.exit(main())
