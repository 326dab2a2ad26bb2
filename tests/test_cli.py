"""Golden tests for the command-line front end, run in-process on the toy fixture."""

import csv
import dataclasses
import hashlib
import json
import logging
from pathlib import Path

import numpy as np
import pytest

from peafowl import PfmParams, WrapperFitnessSpec, cli, make_problem, optimize

from conftest import TOY_SCHEMA_YAML, write_toy_csv

BENCH = ["bench", "--functions", "F1,F10", "--runs", "2", "--iterations", "4", "--population", "6"]
PRIMARY = ("results.csv", "results.json", "convergence.csv", "manifest.json")


@pytest.fixture
def files(toy_csv, tmp_path):
    train, schema = toy_csv
    test = tmp_path / "toy_test.csv"
    write_toy_csv(test, seed=11)
    return {"train": str(train), "schema": str(schema), "test": str(test), "tmp": tmp_path}


def run(*argv, out):
    return cli.main([*argv, "--out", str(out)])


def primary_bytes(out):
    return {name: (out / name).read_bytes() for name in PRIMARY if (out / name).exists()}


def manifest_config(out):
    return json.loads((out / "manifest.json").read_text())["config"]


def command_argv(files):
    data = ["--train", files["train"], "--schema", files["schema"]]
    return {
        "bench": BENCH,
        "select": ["select", *data, "--iterations", "4", "--population", "8"],
        "eval": ["eval", *data, "--test", files["test"], "--features", "2,3", "--baseline"],
        "cv": ["cv", *data, "--features", "2,3", "--folds", "5"],
    }


@pytest.mark.parametrize("command", ["bench", "select", "eval", "cv"])
def test_rerun_is_byte_identical(files, command):
    out = files["tmp"] / command
    argv = command_argv(files)[command]
    assert run(*argv, out=out) == 0
    first = primary_bytes(out)
    expected = {"results.csv", "results.json", "manifest.json"}
    if command in ("bench", "select"):
        expected.add("convergence.csv")
    assert set(first) == expected
    assert run(*argv, out=out) == 0
    assert primary_bytes(out) == first


@pytest.mark.golden
def test_select_output_is_pinned(files):
    # Digests from before the optimizer handed fitness a cutoff: stopping a
    # mask early must change no byte that select writes.
    out = files["tmp"] / "select"
    assert run(*command_argv(files)["select"], out=out) == 0
    names = ("results.json", "convergence.csv")
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}
    assert digests == {
        "results.json": "c1cd0203add3fbd082b8ccb770877565504922c4bf8ba53d342c0159ea6ce718",
        "convergence.csv": "a8d08f0ded46bc1273dbeccdd386653f55fa4faf23b56f8c5620114387649b6a",
    }


def test_select_best_is_the_first_subset(files, caplog):
    # At seed 2 the final population's row 0 is the mask of features 1 and 2,
    # and FSs1 is feature 1 alone at the same fitness: fewer features rank first.
    caplog.set_level(logging.INFO, logger="peafowl")
    out = files["tmp"] / "select"
    assert run(*command_argv(files)["select"], "--seed", "2", out=out) == 0
    result = json.loads((out / "results.json").read_text())
    first = result["subsets"][0]
    assert result["best"] == {"n_features": 1, "features": [1], "fitness": first["fitness"]}
    assert first["features"] == [1]
    assert "best subset has 1 features (fitness 1.0000)" in caplog.text
    assert "holdout score, optimistic by construction" in caplog.text


@pytest.mark.golden
@pytest.mark.parametrize(
    "argv, digests",
    [
        (
            ["bench", "--functions", "F1,F10,F14", "--runs", "2", "--iterations", "20"],
            {
                "results.json": "4ba1cd6d620e48d239b3f3a63fae21597c84476a287a5e1ff56467dea84c94c3",
                "convergence.csv": "794c41fdab5a2394868c3b1de561985532b0287cac907a9331458344f703a2ad",
            },
        ),
        (
            BENCH,
            {
                "results.json": "389c180031318c7d63c126c73bf11f825c97019a79e559d4776a48fa156da052",
                "convergence.csv": "73a4e3f84214038ec7fd48af39d9c14d32da40c02f3c393ea3465f030fe95c50",
            },
        ),
    ],
    ids=["population-30", "population-6"],
)
def test_bench_output_is_pinned(files, argv, digests):
    # Digests from when a box window first made each kind of its draws in one
    # generator call, but population 30's, which runs F14, from when its sixth
    # powers became products of doubles.  At population 30 every male mates
    # once; at 6 a season with 2 males lets each take up to 2, so both paths run.
    out = files["tmp"] / "bench"
    assert run(*argv, out=out) == 0
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in digests} == digests


@pytest.mark.golden
@pytest.mark.parametrize(
    "command, digest",
    [
        ("eval", "24f88ad69d92b9dd8483e84938d892c5541e66be7aa9d68466a52260ac20f78e"),
        ("cv", "dc17704b218f337d4cf6cafe5e8c6f653d3f5508305b3e5c1b8b4bac7d9b4c1b"),
    ],
)
def test_results_json_is_pinned(files, command, digest):
    # Digests from before the KNN core took over its callers' checks and
    # block sizes: eval and cv must write the same bytes.
    out = files["tmp"] / command
    assert run(*command_argv(files)[command], out=out) == 0
    assert hashlib.sha256((out / "results.json").read_bytes()).hexdigest() == digest


def test_eval_results_csv(files):
    out = files["tmp"] / "eval"
    argv = ["eval", "--train", files["train"], "--test", files["test"], "--schema", files["schema"]]
    assert run(*argv, "--features", "2,3", "--k-neighbors", "3", out=out) == 0
    assert (out / "results.csv").read_text() == (
        "label,features,k,tp,tn,fp,fn,accuracy,detection_rate,fpr,tnr,fnr,precision,f1\n"
        'selected,"2,3",3,8,13,17,22,35.000,26.667,56.667,43.333,73.333,32.000,29.091\n'
    )


def test_eval_baseline_rows_parse(files):
    out = files["tmp"] / "eval"
    argv = ["eval", "--train", files["train"], "--test", files["test"], "--schema", files["schema"]]
    assert run(*argv, "--features", "1", "--baseline", out=out) == 0
    with open(out / "results.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert [row[:7] for row in rows[1:]] == [
        ["selected", "1", "5", "30", "30", "0", "0"],
        ["all_features", "all", "5", "30", "30", "0", "0"],
    ]


@pytest.mark.parametrize("flag, labels", [([], ["selected"]), (["--baseline"], ["selected", "all_features"])])
def test_eval_times_each_evaluated_row(files, flag, labels):
    out = files["tmp"] / "eval"
    argv = ["eval", "--train", files["train"], "--test", files["test"], "--schema", files["schema"]]
    assert run(*argv, "--features", "2,3", *flag, out=out) == 0
    rows = list(csv.DictReader((out / "timings.csv").read_text().splitlines()))
    assert [row["label"] for row in rows] == labels
    assert all(float(row["wall_ms"]) >= 0 for row in rows)
    assert list(rows[0]) == ["label", "wall_ms"]


@pytest.mark.parametrize("flag, rows", [([], 2), (["--no-baseline"], 1), (["--baseline"], 2)])
def test_no_baseline_overrides_the_config(files, flag, rows):
    config = write_config(files, "baseline: true\n")
    data = ["--train", files["train"], "--test", files["test"], "--schema", files["schema"]]
    out = files["tmp"] / "eval"
    assert run("eval", *data, "--features", "2,3", "--config", config, *flag, out=out) == 0
    labels = [row["label"] for row in csv.DictReader((out / "results.csv").read_text().splitlines())]
    assert labels == ["selected", "all_features"][:rows]
    assert manifest_config(out)["baseline"] is (rows == 2)


def test_cv_results_csv(files):
    out = files["tmp"] / "cv"
    assert run(*command_argv(files)["cv"], out=out) == 0
    assert (out / "results.csv").read_text() == (
        "fold,tp,tn,fp,fn,accuracy,detection_rate,fpr,tnr,fnr,precision,f1\n"
        "0,4,1,4,3,41.667,57.143,80.000,20.000,42.857,50.000,53.333\n"
        "1,0,4,3,5,33.333,0.000,42.857,57.143,100.000,0.000,0.000\n"
        "2,3,1,5,3,33.333,50.000,83.333,16.667,50.000,37.500,42.857\n"
        "3,3,3,4,2,50.000,60.000,57.143,42.857,40.000,42.857,50.000\n"
        "4,4,2,3,3,50.000,57.143,60.000,40.000,42.857,57.143,57.143\n"
        "pooled,14,11,19,16,41.667,46.667,63.333,36.667,53.333,42.424,44.444\n"
    )
    pooled = json.loads((out / "results.json").read_text())["pooled"]["counts"]
    assert pooled == {"tp": 14, "tn": 11, "fp": 19, "fn": 16}


# A small campaign: 8 birds, 5 iterations of one season each.
SMALL = ["--population", "8", "--iterations", "5", "--seasons", "1"]
SMALL_PARAMS = PfmParams(population_size=8, max_iterations=5, seasons_per_iteration=1)


def bench_results(files, *argv):
    out = files["tmp"] / "bench"
    assert run("bench", *argv, out=out) == 0
    return json.loads((out / "results.json").read_text())


def manual_traces(name, params, runs):
    """Each run's best per iteration, run i by a direct optimize at seed ``params.seed + i``."""
    traces = []
    for i in range(runs):
        run_params = dataclasses.replace(params, seed=params.seed + i)
        traces.append(optimize(make_problem(name, seed=run_params.seed), run_params).best_per_iteration)
    return traces


def test_bench_results_json_matches_manual_runs(files):
    params = PfmParams(population_size=6, max_iterations=4)
    expected = []
    for name in ("F1", "F10"):
        finals = [trace[-1] for trace in manual_traces(name, params, 2)]
        expected.append(
            {
                "function": name,
                "dimension": 30,
                "runs": 2,
                "avg": float(np.mean(finals)),
                "std": float(np.std(finals, ddof=0)),  # the population std: divisor = runs
                "best": min(finals),
                "worst": max(finals),
                "per_run_best": finals,
                "params": dataclasses.asdict(params),
            }
        )
    assert bench_results(files, *BENCH[1:]) == json.loads(json.dumps(expected))


def test_bench_per_run_best_matches_manual_runs_at_seed_plus_i(files):
    (row,) = bench_results(files, "--functions", "F1", "--runs", "3", "--seed", "4", *SMALL)
    traces = manual_traces("F1", dataclasses.replace(SMALL_PARAMS, seed=4), 3)
    assert row["per_run_best"] == [trace[-1] for trace in traces]
    assert len(set(row["per_run_best"])) == 3  # three seeds, three runs
    convergence = (files["tmp"] / "bench" / "convergence.csv").read_text().splitlines()
    assert convergence[1:] == [
        f"F1,{run_idx},{iteration},{best}"
        for run_idx, trace in enumerate(traces)
        for iteration, best in enumerate(trace)
    ]


def test_bench_single_run_has_zero_std(files):
    (row,) = bench_results(files, "--functions", "F16", "--runs", "1", *SMALL)
    assert row["runs"] == 1 and len(row["per_run_best"]) == 1
    assert row["std"] == 0.0
    assert row["best"] == row["worst"] == row["avg"] == row["per_run_best"][0]


def test_bench_noisy_function_rerun_is_byte_identical(files):
    out = files["tmp"] / "bench"
    argv = ["bench", "--functions", "F7", "--runs", "2", *SMALL]
    assert run(*argv, out=out) == 0
    first = primary_bytes(out)
    assert run(*argv, out=out) == 0
    assert primary_bytes(out) == first
    per_run_best = json.loads(first["results.json"])[0]["per_run_best"]
    assert per_run_best[0] != per_run_best[1]


def test_bench_echoes_its_params(files):
    (row,) = bench_results(files, "--functions", "F16", "--runs", "1", *SMALL)
    assert row["params"] == json.loads(json.dumps(dataclasses.asdict(SMALL_PARAMS)))
    snap = row["params"]
    assert snap["gamma1"] == 1.0 and snap["gamma2"] == 1.0
    assert snap["call_intensity"] == 0.1 and snap["colorfulness"] == 0.1
    assert snap["dominance_factor"] == 0.8


@pytest.mark.parametrize("runs", ["0", "-1"])
def test_bench_runs_below_one_exits_2(files, runs, caplog):
    out = files["tmp"] / "bench"
    assert run("bench", "--functions", "F1", "--runs", runs, out=out) == 2
    assert "runs must be >= 1" in caplog.text
    assert not out.exists()


def write_config(files, text):
    path = files["tmp"] / "config.yaml"
    path.write_text(text)
    return str(path)


QUICK_BENCH = ["bench", "--functions", "F1", "--runs", "1", "--iterations", "2", "--population", "4"]


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--functions", "F99"],
        ["bench", "--functions", "F1", "--runs", "0"],
        ["cv", "--folds", "1"],
        ["select", "--k-neighbors", "0"],
        ["eval", "--k-neighbors", "0"],
        ["cv", "--k-neighbors", "0"],
        ["cv", "--schema", "column_count: abc\nlabel_column: 3\n"],
        ["cv", "--config", 'dedup: "no"\n'],
        [*QUICK_BENCH, "--config", "seed: 1.5\n"],
        ["bench", "--functions", "F1", "--runs", "1", "--config", "iterations: 2.9\n"],
        ["eval", "--config", "k_neighbors: 3.7\n"],
        ["eval", "--features", "1", "--config", 'baseline: "no"\n'],
        ["bench", "--functions", "F1", "--iterations", "2", "--config", "runs: true\n"],
        [*QUICK_BENCH, "--config", 'alpha: "0.5"\n'],
        ["bench", "--runs", "1", "--iterations", "2", "--config", "functions: 5\n"],
        ["bench", "--runs", "1", "--iterations", "2", "--config", "functions: [F1, F10]\n"],
        ["select", "--iterations", "2", "--population", "4", "--config", "top_subsets: abc\n"],
        ["cv", "--config", "features: 1\n"],
    ],
    ids=[
        "unknown-function", "runs-0", "folds-1", "select-k-0", "eval-k-0", "cv-k-0", "schema-not-int",
        "config-dedup-string", "config-seed-float", "config-iterations-float", "config-k-float",
        "config-baseline-string", "config-runs-bool", "config-alpha-string", "config-functions-int",
        "config-functions-list", "config-top-subsets-string", "config-features-int",
    ],
)
def test_config_errors_exit_2(files, argv, caplog):
    argv = list(argv)
    for flag in ("--schema", "--config"):  # the entry after either flag is that file's text
        if flag in argv:
            i = argv.index(flag) + 1
            path = files["tmp"] / f"{flag[2:]}.yaml"
            path.write_text(argv[i])
            argv[i] = str(path)
    if argv[0] != "bench":
        argv += ["--train", files["train"]] + ([] if "--schema" in argv else ["--schema", files["schema"]])
    if argv[0] == "eval":
        argv += ["--test", files["test"]]
    assert run(*argv, out=files["tmp"] / "out") == 2
    if "--config" in argv:  # the error names the file and the key
        path = argv[argv.index("--config") + 1]
        key = Path(path).read_text().split(":")[0]
        assert f"config file {path}: '{key}'" in caplog.text


def test_top_subsets_below_one_exits_2_before_the_search(files, monkeypatch):
    monkeypatch.setattr(cli, "select_features", lambda *args: pytest.fail("the search started"))
    argv = ["select", "--train", files["train"], "--schema", files["schema"]]
    config = write_config(files, "top_subsets: 0\n")
    assert run(*argv, "--config", config, out=files["tmp"] / "out") == 2


def test_config_ints_and_null_dedup_read_as_flags(files):
    """An int for a float key is that float, and a null dedup leaves the schema's."""
    argv = ["select", "--train", files["train"], "--schema", files["schema"], "--iterations", "3", "--population", "6"]
    out = files["tmp"] / "select"
    assert run(*argv, "--alpha", "1", "--gamma1", "2", out=out) == 0
    with_flags = primary_bytes(out)
    config = write_config(files, "alpha: 1\ngamma1: 2\ndedup: null\n")
    assert run(*argv, "--config", config, out=out) == 0
    assert primary_bytes(out) == with_flags


def test_missing_out_exits_2():
    assert cli.main(["bench", "--functions", "F1", "--runs", "1"]) == 2


@pytest.mark.parametrize(
    "argv, status, stream, text",
    [
        (["--version"], 0, "out", f"peafowl {cli.__version__}"),
        ([], 2, "err", "the following arguments are required: command"),
        (["bench", "--bogus"], 2, "err", "unrecognized arguments: --bogus"),
    ],
    ids=["version", "no-command", "unknown-flag"],
)
def test_argparse_exits_return_their_status(argv, status, stream, text, capsys):
    assert cli.main(argv) == status
    assert text in getattr(capsys.readouterr(), stream)


@pytest.mark.parametrize(
    "command, flag, value, status",
    [
        ("bench", "--functions", "F99", 2),
        ("select", "--schema", "missing.yaml", 3),
        ("eval", "--features", "99", 2),
        ("cv", "--folds", "1", 2),
    ],
)
def test_failed_command_leaves_no_out_directory(files, command, flag, value, status):
    # the flag comes after the command's own and overrides it
    if flag == "--schema":
        value = str(files["tmp"] / value)
    out = files["tmp"] / "out"
    assert run(*command_argv(files)[command], flag, value, out=out) == status
    assert not out.exists()


@pytest.mark.parametrize(
    "text", ["bogus: 1\n", "seed: [1,\n", "1: a\nbogus: b\n"], ids=["unknown-key", "invalid-yaml", "mixed-key-types"]
)
def test_bad_config_file_exits_2(files, text):
    config = write_config(files, text)
    assert run("bench", "--config", config, "--functions", "F1", out=files["tmp"] / "out") == 2


def test_missing_train_flag_exits_2(files, caplog):
    assert run("cv", "--schema", files["schema"], out=files["tmp"] / "out") == 2
    assert "--train is required for this command" in caplog.text


@pytest.mark.parametrize(
    "features, message",
    [("1,x", "cannot parse feature list '1,x'"), (",", "feature list is empty")],
    ids=["not-an-int", "empty"],
)
def test_bad_feature_list_exits_2(files, features, message, caplog):
    argv = ["cv", "--train", files["train"], "--schema", files["schema"], "--features", features]
    assert run(*argv, out=files["tmp"] / "out") == 2
    assert message in caplog.text


@pytest.mark.parametrize("functions", [",", ""], ids=["comma", "blank"])
def test_empty_function_list_exits_2(files, functions, caplog):
    out = files["tmp"] / "out"
    assert run("bench", "--functions", functions, "--runs", "1", out=out) == 2
    assert "function list is empty" in caplog.text
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("command", ["eval", "cv"])
def test_repeated_feature_exits_2(files, command, caplog):
    out = files["tmp"] / "out"
    assert run(*command_argv(files)[command], "--features", "2,2,3", out=out) == 2
    assert "feature index 2 is listed more than once" in caplog.text
    assert not out.exists()


def test_repeated_function_exits_2(files, caplog):
    out = files["tmp"] / "out"
    assert run("bench", "--functions", "F1,F10,F1", "--runs", "1", out=out) == 2
    assert "function F1 is listed more than once" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("flag, value, field", [("--gamma1", "inf", "gamma1"), ("--i0", "nan", "call_intensity")])
def test_non_finite_coefficient_exits_2(files, flag, value, field, caplog):
    out = files["tmp"] / "out"
    assert run("bench", "--functions", "F1", "--runs", "1", "--iterations", "2", flag, value, out=out) == 2
    assert f"{field} must be finite and non-negative, got {float(value)!r}" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("flag, status", [("--config", 2), ("--schema", 3)])
def test_unreadable_config_exits_2_and_unreadable_schema_exits_3(files, flag, status, caplog):
    unreadable = files["tmp"] / "directory.yaml"
    unreadable.mkdir()
    paths = {"--train": files["train"], "--schema": files["schema"], flag: str(unreadable)}
    argv = ["cv", *(item for pair in paths.items() for item in pair)]
    assert run(*argv, out=files["tmp"] / "out") == status
    assert f"cannot read {flag[2:]} file {unreadable}" in caplog.text


@pytest.mark.parametrize(
    "flag, status, text",
    [
        ("--config", 2, b"seed: 1\n# caf\xe9\n"),
        ("--schema", 3, TOY_SCHEMA_YAML.encode() + b"# caf\xe9\n"),
        ("--train", 3, b"0.5,caf\xe9,1.0,normal\n"),
    ],
    ids=["config", "schema", "train"],
)
def test_input_not_utf8_exits_2_for_config_and_3_for_data(files, flag, status, text, caplog):
    path = files["tmp"] / "latin1"
    path.write_bytes(text)
    paths = {"--train": files["train"], "--schema": files["schema"], flag: str(path)}
    argv = ["cv", *(item for pair in paths.items() for item in pair)]
    assert run(*argv, out=files["tmp"] / "out") == status
    assert str(path) in caplog.text and "0xe9" in caplog.text


@pytest.mark.parametrize(
    "rows, schema, message",
    [
        ("0.1,normal\n0.9,anomaly\n0.2,normal\n0.8,anomaly\n", "column_count: 2\nlabel_column: 1\n",
         "need at least 2 features to select from"),
        ("0.1,tcp,1.0,normal\n0.9,udp,2.0,anomaly\n", TOY_SCHEMA_YAML, "degenerate holdout split"),
    ],
    ids=["one-feature", "two-rows"],
)
def test_select_table_faults_exit_3(files, rows, schema, message, caplog):
    (files["tmp"] / "t.csv").write_text(rows)
    (files["tmp"] / "t.yaml").write_text(schema)
    argv = ["select", "--train", str(files["tmp"] / "t.csv"), "--schema", str(files["tmp"] / "t.yaml")]
    assert run(*argv, "--iterations", "1", out=files["tmp"] / "out") == 3
    assert message in caplog.text


@pytest.mark.parametrize("out", ["afile", "afile/sub"], ids=["existing-file", "below-a-file"])
def test_out_that_cannot_be_a_directory_exits_2(files, out, caplog):
    (files["tmp"] / "afile").write_text("kept\n")
    assert run("bench", "--functions", "F1", "--runs", "1", out=files["tmp"] / out) == 2
    assert f"cannot create output directory {files['tmp'] / out}" in caplog.text
    assert (files["tmp"] / "afile").read_text() == "kept\n"


def test_result_that_cannot_be_written_exits_4(files, caplog):
    out = files["tmp"] / "out"
    (out / "results.csv").mkdir(parents=True)
    assert run("bench", "--functions", "F1", "--runs", "1", "--iterations", "1", out=out) == 4
    assert str(out / "results.csv") in caplog.text
    assert [path.name for path in out.iterdir()] == ["results.csv"]  # no results.csv.tmp left behind


def test_missing_train_file_exits_3(files):
    missing = str(files["tmp"] / "missing.csv")
    assert run("cv", "--train", missing, "--schema", files["schema"], out=files["tmp"] / "out") == 3


def test_k_beyond_training_rows_exits_4(files):
    argv = ["eval", "--train", files["train"], "--test", files["test"], "--schema", files["schema"]]
    assert run(*argv, "--k-neighbors", "1000", out=files["tmp"] / "out") == 4


def test_defaults_then_config_file_then_flags(files):
    config = write_config(files, "seed: 4\npopulation: 6\niterations: 3\nruns: 1\nfolds: 3\n")
    out = files["tmp"] / "bench"
    assert run("bench", "--config", config, "--functions", "F1", "--seed", "9", out=out) == 0
    effective = manifest_config(out)
    assert effective["seed"] == 9  # flag over config file
    assert (effective["population"], effective["iterations"], effective["runs"]) == (6, 3, 1)
    defaults = PfmParams()
    assert effective["alpha"] == defaults.dominance_factor
    assert [effective["r_min"], effective["r_max"]] == list(defaults.r_range)
    assert set(effective) == {  # only the settings bench reads
        "functions", "runs", "out", "seed", "population", "iterations", "seasons",
        "alpha", "gamma1", "gamma2", "i0", "c0", "r_min", "r_max",
    }

    out = files["tmp"] / "cv"
    argv = ["cv", "--train", files["train"], "--schema", files["schema"], "--features", "1"]
    assert run(*argv, "--config", config, "--seed", "9", out=out) == 0
    effective = manifest_config(out)
    assert (effective["seed"], effective["folds"]) == (9, 3)
    assert effective["k_neighbors"] == WrapperFitnessSpec().k_neighbors
    assert effective["dedup"] is False
    data = {"train", "schema", "dedup", "out", "k_neighbors"}
    assert set(effective) == data | {"features", "folds", "seed"}

    out = files["tmp"] / "select"
    argv = ["select", "--train", files["train"], "--schema", files["schema"]]
    assert run(*argv, "--config", config, "--iterations", "2", out=out) == 0
    effective = manifest_config(out)
    assert (effective["seed"], effective["population"], effective["iterations"]) == (4, 6, 2)
    assert set(effective) == data | {
        "seed", "population", "iterations", "seasons", "alpha", "gamma1", "gamma2",
        "i0", "c0", "r_min", "r_max", "holdout_fraction", "top_subsets",
    }

    out = files["tmp"] / "eval"
    argv = ["eval", "--train", files["train"], "--test", files["test"], "--schema", files["schema"]]
    assert run(*argv, "--config", config, out=out) == 0
    assert set(manifest_config(out)) == data | {"test", "features", "baseline"}


def test_bare_bench_params_are_library_defaults():
    for command in ("bench", "select"):
        config = cli._resolve_config(cli.build_parser().parse_args([command]))
        assert cli._from_config(PfmParams, config) == PfmParams()
        assert cli._from_config(WrapperFitnessSpec, config) == WrapperFitnessSpec()


def test_holdout_fraction_is_read_by_select_only(files):
    """eval and cv hold out no rows, so an out-of-range holdout_fraction is not theirs to reject."""
    config = write_config(files, "holdout_fraction: 0.9\n")
    data = ["--train", files["train"], "--schema", files["schema"], "--config", config]
    for argv in (["cv", *data, "--folds", "3"], ["eval", *data, "--test", files["test"]]):
        out = files["tmp"] / argv[0]
        assert run(*argv, out=out) == 0
        assert "holdout_fraction" not in manifest_config(out)
    assert run("select", *data, "--iterations", "2", "--population", "4", out=files["tmp"] / "select") == 2


# Each command's flags as (dest, type, action class), listed from the hand-written
# parser that _COMMAND_KEYS replaced: the generated parser must keep every one.
_PFM_FLAGS = {
    *((key, "int", "_StoreAction") for key in ("seed", "population", "iterations", "seasons")),
    *((key, "float", "_StoreAction") for key in ("alpha", "gamma1", "gamma2", "i0", "c0", "r_min", "r_max")),
}
_COMMON_FLAGS = {("help", None, "_HelpAction"), ("config", None, "_StoreAction"), ("out", None, "_StoreAction")}
PARENT_FLAGS = {
    "bench": _COMMON_FLAGS | _PFM_FLAGS | {("functions", None, "_StoreAction"), ("runs", "int", "_StoreAction")},
    "select": _COMMON_FLAGS | _PFM_FLAGS | {
        ("train", None, "_StoreAction"), ("schema", None, "_StoreAction"), ("k_neighbors", "int", "_StoreAction"),
    },
    "eval": _COMMON_FLAGS | {
        ("train", None, "_StoreAction"), ("test", None, "_StoreAction"), ("schema", None, "_StoreAction"),
        ("features", None, "_StoreAction"), ("baseline", None, "BooleanOptionalAction"),
        ("k_neighbors", "int", "_StoreAction"),
    },
    "cv": _COMMON_FLAGS | {
        ("train", None, "_StoreAction"), ("schema", None, "_StoreAction"), ("features", None, "_StoreAction"),
        ("folds", "int", "_StoreAction"), ("k_neighbors", "int", "_StoreAction"), ("seed", "int", "_StoreAction"),
    },
}


@pytest.mark.parametrize("command", sorted(PARENT_FLAGS))
def test_parser_keeps_every_flag(command):
    (subparsers,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    actions = subparsers.choices[command]._actions
    assert {(a.dest, getattr(a.type, "__name__", a.type), type(a).__name__) for a in actions} == PARENT_FLAGS[command]
    for action in actions:  # each flag is named after its dest; a bool one also has its negation
        option = "--" + action.dest.replace("_", "-")
        expected = {"help": ["-h", "--help"], "baseline": [option, "--no-" + option[2:]]}.get(action.dest, [option])
        assert action.option_strings == expected


def pooled_rows(out):
    pooled = json.loads((out / "results.json").read_text())["pooled"]["counts"]
    return sum(pooled.values())


@pytest.mark.parametrize(
    "schema_extra, config_text, rows, dedup",
    [
        ("", "", 70, False),
        ("drop_duplicates: true\n", "", 60, True),
        ("drop_duplicates: true\n", "dedup: false\n", 70, False),
        ("", "dedup: true\n", 60, True),
    ],
    ids=["schema-keeps", "schema-drops", "config-keeps", "config-drops"],
)
def test_dedup_defers_to_schema(files, schema_extra, config_text, rows, dedup):
    lines = Path(files["train"]).read_text().splitlines()
    train = files["tmp"] / "dup.csv"
    train.write_text("\n".join(lines + lines[:10]) + "\n")
    schema = files["tmp"] / "dedup_schema.yaml"
    schema.write_text(TOY_SCHEMA_YAML + schema_extra)
    argv = ["cv", "--train", str(train), "--schema", str(schema), "--folds", "5"]
    if config_text:
        argv += ["--config", write_config(files, config_text)]
    out = files["tmp"] / "cv"
    assert run(*argv, out=out) == 0
    assert pooled_rows(out) == rows
    assert manifest_config(out)["dedup"] is dedup
