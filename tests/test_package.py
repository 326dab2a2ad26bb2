import importlib

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
