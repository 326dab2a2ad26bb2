"""Shared test helpers: stub generators, brute-force oracles, fixture builders."""

import math
import tracemalloc

import numpy as np
import pytest

from peafowl import Dataset


class CountingRng:
    """Wraps a real generator and counts scalar draws consumed."""

    def __init__(self, seed=0):
        self._rng = np.random.default_rng(seed)
        self.draws = 0

    def uniform(self, low=0.0, high=1.0, size=None):
        self.draws += 1 if size is None else int(np.prod(size))
        return self._rng.uniform(low, high, size)

    def random(self, size=None):
        self.draws += 1 if size is None else int(np.prod(size))
        return self._rng.random(size)

    def integers(self, low, high=None):
        self.draws += 1
        return self._rng.integers(low, high)


def knn_oracle(train_x, train_y, query_x, k):
    """Brute-force reference KNN: full sort by (distance, row index),
    majority vote over the k nearest, even votes predicting class 1."""
    preds = []
    for q in np.asarray(query_x, dtype=float):
        scored = sorted(
            (math.dist(q, t), i) for i, t in enumerate(np.asarray(train_x, dtype=float))
        )
        ones = sum(int(train_y[i]) for _, i in scored[:k])
        preds.append(1 if 2 * ones >= k else 0)
    return np.asarray(preds, dtype=int)


def knn_exact_reference(train_x, train_y, query_x, k):
    """Per-query KNN on the exact sum of squared differences: a stable sort
    keeps the lower row on distance ties, even votes predict class 1.  Each
    row is summed from a C-ordered copy, as knn_classify sums it, so that
    rounding breaks a true tie the same way whatever the input's layout."""
    train_x = np.ascontiguousarray(train_x, dtype=float)
    preds = []
    for q in np.asarray(query_x, dtype=float):
        nearest = np.argsort(((train_x - q) ** 2).sum(axis=1), kind="stable")[:k]
        preds.append(1 if 2 * int(train_y[nearest].sum()) >= k else 0)
    return np.asarray(preds, dtype=int)


def confusion_oracle(preds, actual):
    tp = tn = fp = fn = 0
    for p, a in zip(preds, actual):
        if p == 1 and a == 1:
            tp += 1
        elif p == 0 and a == 0:
            tn += 1
        elif p == 1 and a == 0:
            fp += 1
        else:
            fn += 1
    return tp, tn, fp, fn


def planted_dataset(n_rows=1000, n_features=20, n_informative=5, seed=0, gap=0.34, sigma=0.11):
    """Two balanced classes separated along the first ``n_informative``
    columns; the rest are uniform noise."""
    rng = np.random.default_rng(seed)
    labels = np.repeat([0, 1], n_rows // 2)
    features = rng.random((n_rows, n_features))
    centers = np.where(labels == 1, 0.5 + gap / 2, 0.5 - gap / 2)
    for j in range(n_informative):
        features[:, j] = np.clip(centers + rng.normal(0.0, sigma, n_rows), 0.0, 1.0)
    perm = rng.permutation(n_rows)
    return Dataset.from_arrays(features[perm], labels[perm])


def two_cluster_dataset(n_rows=120, n_noise=3, seed=0):
    """Perfectly separable toy: feature 1 carries the label, the rest is noise."""
    rng = np.random.default_rng(seed)
    labels = np.repeat([0, 1], n_rows // 2)
    informative = np.where(labels == 1, 0.9, 0.1) + rng.normal(0, 0.02, n_rows)
    noise = rng.random((n_rows, n_noise))
    features = np.clip(np.column_stack([informative, noise]), 0.0, 1.0)
    return Dataset.from_arrays(features, labels)


# --- 50-row NSL-KDD-format fixture with hand-computable encoding maps ------

NSL_PROTOCOLS = ["tcp"] * 30 + ["udp"] * 15 + ["icmp"] * 5
NSL_SERVICES = ["http"] * 20 + ["ftp"] * 10 + ["smtp"] * 10 + ["dns"] * 10
NSL_FLAGS = ["SF"] * 40 + ["REJ"] * 7 + ["S0"] * 3
NSL_LABELS = (
    ["normal"] * 25
    + ["neptune"] * 10
    + ["smurf"] * 5
    + ["portsweep"] * 5
    + ["guess_passwd"] * 3
    + ["buffer_overflow"] * 2
)


def write_nsl_fixture(path, seed=7):
    """50 rows x 43 columns: 41 features, attack-type label, difficulty."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(50)
    lines = []
    for i in order:
        numerics = rng.integers(0, 1000, size=38)
        cells = [str(numerics[0]), NSL_PROTOCOLS[i], NSL_SERVICES[i], NSL_FLAGS[i]]
        cells += [str(v) for v in numerics[1:]]
        cells += [NSL_LABELS[i], str(rng.integers(0, 22))]
        assert len(cells) == 43
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return {
        1: {"tcp": 30.0, "udp": 15.0, "icmp": 5.0},
        2: {"http": 20.0, "ftp": 10.0, "smtp": 10.0, "dns": 10.0},
        3: {"SF": 40.0, "REJ": 7.0, "S0": 3.0},
    }


NSL_SCHEMA_YAML = """\
# NSL-KDD layout: 41 features, attack-type label, difficulty score (dropped).
column_count: 43
label_column: 41
ignored_columns: [42]
categorical_columns: [1, 2, 3]
normal_labels: [normal]
"""


def write_toy_csv(path, n_rows=60, seed=3):
    """Small labeled CSV: f1 numeric+informative, f2 categorical, f3 noise."""
    rng = np.random.default_rng(seed)
    lines = []
    for i in range(n_rows):
        attack = i % 2
        f1 = (0.8 if attack else 0.2) + rng.normal(0, 0.05)
        f2 = rng.choice(["tcp", "udp", "icmp"])
        f3 = rng.random() * 10
        label = "anomaly" if attack else "normal"
        lines.append(f"{f1:.6f},{f2},{f3:.6f},{label}")
    path.write_text("\n".join(lines) + "\n")


TOY_SCHEMA_YAML = """\
column_count: 4
label_column: 3
categorical_columns: [1]
normal_labels: [normal]
attack_labels: [anomaly]
"""


@pytest.fixture
def toy_csv(tmp_path):
    csv_path = tmp_path / "toy.csv"
    schema_path = tmp_path / "toy_schema.yaml"
    write_toy_csv(csv_path)
    schema_path.write_text(TOY_SCHEMA_YAML)
    return csv_path, schema_path


def traced_peak(call):
    """Bytes that ``call()`` held at its peak beyond what was held before, as
    tracemalloc counts them; NumPy reports its array buffers to it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
