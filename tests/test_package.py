import importlib
import os
import subprocess
import sys
import textwrap

import peafowl

MODULES = ("benchmarks", "data", "errors", "metrics", "optimizer", "selection", "transfer")

# What the package root exported before it re-exported each module's __all__.
EARLIER_EXPORTS = [
    "BENCHMARKS", "BenchmarkFunction", "evaluate_benchmark", "get_benchmark", "make_problem",
    "Dataset", "FoldPlan", "RawTable", "TableSchema", "build_dataset", "frequency_encode",
    "load_csv", "load_dataset", "make_folds", "min_max_normalize",
    "ConfigError", "DataError", "EvaluationError", "PeafowlError",
    "ConfusionCounts", "MetricsReport", "compute_metrics",
    "Binary", "ContinuousBox", "Peafowl", "PfmParams", "Problem", "RunTrace", "attractiveness",
    "initialize_population", "mate", "optimize", "run_season", "split_population",
    "FeatureSubset", "WrapperFitnessSpec", "cross_validate", "evaluate_subset", "knn_classify",
    "select_features", "subset_fitness", "top_subsets",
    "binarize", "transfer_s",
]


def test_root_exports_each_modules_all_once():
    modules = [importlib.import_module(f"peafowl.{name}") for name in MODULES]
    joined = [name for module in modules for name in module.__all__]
    assert peafowl.__all__ == joined and len(set(joined)) == len(joined)
    for module in modules:
        for name in module.__all__:
            assert getattr(peafowl, name) is getattr(module, name)


def test_root_keeps_every_earlier_export():
    assert len(EARLIER_EXPORTS) == 44
    assert set(EARLIER_EXPORTS) <= set(peafowl.__all__)
    assert set(peafowl.__all__) - set(EARLIER_EXPORTS) == {"binarize_labels", "read_yaml_settings"}


# A fresh interpreter, so that no earlier test has loaded a module already.
LAZY_IMPORTS = textwrap.dedent(
    """
    import sys
    import numpy
    before = set(sys.modules)
    import peafowl
    loaded = sorted({"yaml", "csv", "hashlib", "json"} & (set(sys.modules) - before))
    assert not loaded, f"import peafowl loaded {loaded}"
    schema_path, csv_path = sys.argv[1:]
    schema = peafowl.TableSchema.from_yaml(schema_path)
    table = peafowl.load_csv(csv_path, schema)
    assert table.lines.tolist() == [1, 3] and table.cells[1] == ("tc\\np", "udp")
    data = peafowl.build_dataset(table, schema)
    assert data.features.shape == (2, 2) and data.labels.tolist() == [0, 1] and len(data.provenance) == 64
    assert {"yaml", "csv", "hashlib", "json"} <= set(sys.modules)
    """
)


def test_import_loads_no_yaml_csv_hashlib_or_json_until_used(tmp_path):
    schema = tmp_path / "schema.yaml"
    schema.write_text("column_count: 3\nlabel_column: 2\ncategorical_columns: [1]\n")
    table = tmp_path / "table.csv"
    table.write_text('0.1,"tc\np",normal\n0.9,udp,attack\n')  # a cell spanning lines: load_csv reads it with csv
    src = os.path.dirname(os.path.dirname(peafowl.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", LAZY_IMPORTS, str(schema), str(table)], env=env, check=True)
