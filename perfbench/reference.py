"""The harness's own answers, written independently of peafowl.

Correctness checks compare peafowl's outputs with these: the benchmark
functions in row-batched form, a brute-force KNN and a NumPy frequency
encoder with min-max scaling.
"""

from __future__ import annotations

import numpy as np

from inputs import CATEGORICAL_COLUMNS, VOCABULARIES, NslTable

# --- benchmark functions (one row per candidate) ----------------------------


def f1(x):
    return np.sum(x * x, axis=1)


def f10(x):
    n = x.shape[1]
    return (
        -20.0 * np.exp(-0.2 * np.sqrt(np.sum(x * x, axis=1) / n))
        - np.exp(np.sum(np.cos(2.0 * np.pi * x), axis=1) / n)
        + 20.0
        + np.e
    )


_FOXHOLES = np.array(
    [[-32.0, -16.0, 0.0, 16.0, 32.0] * 5, [v for v in (-32.0, -16.0, 0.0, 16.0, 32.0) for _ in range(5)]]
)


def f14(x):
    inner = np.arange(1, 26) + np.sum((x[:, :, None] - _FOXHOLES[None]) ** 6, axis=1)
    return 1.0 / (1.0 / 500.0 + np.sum(1.0 / inner, axis=1))


FUNCTIONS = {"F1": (f1, 30, -100.0, 100.0), "F10": (f10, 30, -32.0, 32.0), "F14": (f14, 2, -65.0, 65.0)}


_CHUNK = 8192  # random-search samples drawn at once


def random_search_best(name: str, budget: int, rng: np.random.Generator) -> float:
    """Best of ``budget`` uniform samples over the function's box."""
    fn, dim, lo, hi = FUNCTIONS[name]
    best = np.inf
    for start in range(0, budget, _CHUNK):
        size = min(_CHUNK, budget - start)
        best = min(best, float(fn(rng.uniform(lo, hi, size=(size, dim))).min()))
    return best


# --- KNN ---------------------------------------------------------------------


_BLOCK = 16  # queries per block of distances
_DYADIC = 64  # inputs must be multiples of 1/_DYADIC, at most _DYADIC in size


def knn(train_x, train_y, query_x, k):
    """Brute-force KNN: k smallest squared distances, lower row first on ties,
    an even vote predicts attack (1).

    Every (query, training row) distance is computed as ``|q|^2 - 2 q.t + |t|^2``.
    On dyadic values every term and partial sum is exact in float64, so ties
    are real ties whatever the summation order; other inputs are refused.
    """
    train_x, query_x = np.asarray(train_x, dtype=float), np.asarray(query_x, dtype=float)
    for x in (train_x, query_x):
        if not (np.array_equal(x * _DYADIC, np.round(x * _DYADIC)) and np.all(np.abs(x) <= _DYADIC)):
            raise ValueError("reference KNN needs dyadic inputs to compute exact distances")
    train_sq = np.einsum("ij,ij->i", train_x, train_x)
    votes_for = np.asarray(train_y, dtype=float)
    preds = np.empty(len(query_x), dtype=int)
    for start in range(0, len(query_x), _BLOCK):
        q = query_x[start : start + _BLOCK]
        d2 = np.einsum("ij,ij->i", q, q)[:, None] - 2.0 * (q @ train_x.T) + train_sq
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
        closer = d2 < kth
        tied = d2 == kth
        # The lowest-numbered rows at the k-th distance fill the places left.
        room = k - closer.sum(axis=1, keepdims=True)
        nearest = closer | (tied & (np.cumsum(tied, axis=1) <= room))
        preds[start : start + len(q)] = 2 * (nearest @ votes_for) >= k
    return preds


def confusion(preds, actual):
    """(tp, tn, fp, fn) with attack (1) as the positive class."""
    return (
        int(np.sum((preds == 1) & (actual == 1))),
        int(np.sum((preds == 0) & (actual == 0))),
        int(np.sum((preds == 1) & (actual == 0))),
        int(np.sum((preds == 0) & (actual == 1))),
    )


def f1_score(tp, fp, fn):
    return 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0


# --- ingest --------------------------------------------------------------------


def encode_counts(table: NslTable) -> dict:
    """Occurrences of every vocabulary entry in the table, per categorical column."""
    return {
        c: np.bincount(table.codes[:, j], minlength=len(VOCABULARIES[c])).astype(float)
        for j, c in enumerate(CATEGORICAL_COLUMNS)
    }


def encode_scale(table: NslTable, fitted=None):
    """Frequency-encode and min-max scale a generated table.

    ``fitted`` is the ``(counts, lower, upper)`` of a training table; without
    it they are fit on this table.  Returns ``(features, labels, fitted)``.
    """
    counts = encode_counts(table) if fitted is None else fitted[0]
    x = table.numeric.copy()
    for j, c in enumerate(CATEGORICAL_COLUMNS):
        x[:, c] = counts[c][table.codes[:, j]]
    if fitted is None:
        lower, upper = x.min(axis=0), x.max(axis=0)
    else:
        lower, upper = fitted[1], fitted[2]
    span = upper - lower
    scaled = (x - lower) / np.where(span > 0, span, 1.0)
    scaled[:, span <= 0] = 0.0
    if fitted is not None:
        scaled = np.clip(scaled, 0.0, 1.0)
    labels = (table.label_codes != 0).astype(int)
    return scaled, labels, (counts, lower, upper)
