"""Peafowl-mating metaheuristic with a benchmark suite and wrapper feature selection."""

from .benchmarks import (
    BENCHMARKS,
    BenchmarkFunction,
    evaluate_benchmark,
    get_benchmark,
    make_problem,
)
from .data import (
    Dataset,
    FoldPlan,
    RawTable,
    TableSchema,
    build_dataset,
    frequency_encode,
    load_csv,
    load_dataset,
    make_folds,
    min_max_normalize,
)
from .errors import ConfigError, DataError, EvaluationError, PeafowlError
from .metrics import ConfusionCounts, MetricsReport, compute_metrics
from .optimizer import (
    Binary,
    ContinuousBox,
    Peafowl,
    PfmParams,
    Problem,
    RunTrace,
    attractiveness,
    initialize_population,
    mate,
    optimize,
    run_season,
    split_population,
)
from .selection import (
    FeatureSubset,
    WrapperFitnessSpec,
    cross_validate,
    evaluate_subset,
    knn_classify,
    select_features,
    subset_fitness,
    top_subsets,
)
from .transfer import binarize, transfer_s

__version__ = "0.1.0"
