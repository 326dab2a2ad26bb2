import re

import numpy as np
import pytest

from peafowl import (
    DataError,
    Dataset,
    FeatureSubset,
    PfmParams,
    TableSchema,
    WrapperFitnessSpec,
    cross_validate,
    evaluate_subset,
    knn_classify,
    load_dataset,
    make_folds,
    select_features,
    subset_fitness,
    top_subsets,
)
from peafowl import selection

from conftest import (
    confusion_oracle,
    knn_exact_reference,
    knn_oracle,
    planted_dataset,
    traced_peak,
    two_cluster_dataset,
)


class TestFeatureSubset:
    def test_indices_are_one_based(self):
        subset = FeatureSubset(np.array([1.0, 0.0, 1.0, 1.0]))
        assert subset.indices == [1, 3, 4]
        assert subset.columns.tolist() == [0, 2, 3]
        assert subset.cardinality == 3

    def test_from_indices_round_trip(self):
        subset = FeatureSubset.from_indices([2, 5], 6)
        assert subset.mask.tolist() == [0, 1, 0, 0, 1, 0]

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            FeatureSubset(np.zeros(4))

    def test_non_binary_mask_rejected(self):
        with pytest.raises(ValueError):
            FeatureSubset(np.array([0.5, 1.0]))

    def test_out_of_range_index(self):
        with pytest.raises(ValueError, match="outside"):
            FeatureSubset.from_indices([7], 6)

    @pytest.mark.parametrize("bad", [True, 1.5, 2.0, np.float64(2.0), "2"], ids=["True", "1.5", "2.0", "np.float64", "str"])
    def test_from_indices_rejects_a_non_integer(self, bad):
        # True once marked feature 1 and 1.5 raised a bare IndexError
        with pytest.raises(ValueError, match=re.escape(f"feature index must be an int, got {bad!r}")):
            FeatureSubset.from_indices([bad, 3], 5)

    def test_from_indices_rejects_a_repeated_index(self):
        # [2, 2, 3] once became [2, 3]
        with pytest.raises(ValueError, match="feature index 2 is listed more than once"):
            FeatureSubset.from_indices([2, 2, 3], 5)

    def test_from_indices_takes_numpy_integers(self):
        assert FeatureSubset.from_indices(np.array([2, 5]), 6).indices == [2, 5]
        assert FeatureSubset.from_indices([np.int32(1), 3], 6).indices == [1, 3]


class TestKnnClassify:
    def test_exact_match_wins_with_k1(self):
        train = Dataset.from_arrays([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]], [0, 1, 1])
        preds = knn_classify(train, [[1.0, 1.0]], k=1)
        assert preds.tolist() == [1]

    def test_two_point_example(self):
        train = Dataset.from_arrays([[0.0, 0.0], [1.0, 1.0]], [0, 1])
        assert knn_classify(train, [[0.1, 0.1]], k=1).tolist() == [0]

    def test_distance_tie_prefers_lower_row(self):
        train = Dataset.from_arrays([[1.0], [1.0], [3.0]], [1, 0, 0])
        # rows 0 and 1 are both at distance 1 from the query; row 0 wins
        assert knn_classify(train, [[0.0]], k=1).tolist() == [1]

    def test_vote_tie_predicts_attack(self):
        train = Dataset.from_arrays([[0.0], [2.0]], [0, 1])
        assert knn_classify(train, [[1.0]], k=2).tolist() == [1]

    def test_mask_restricts_columns(self):
        # feature 2 is misleading; masking it away flips the prediction
        train = Dataset.from_arrays([[0.0, 9.0], [1.0, 0.1]], [0, 1])
        query = [[0.9, 0.0]]
        assert knn_classify(train, query, k=1).tolist() == [1]
        only_second = FeatureSubset(np.array([0.0, 1.0]))
        assert knn_classify(train, query, k=1, mask=only_second).tolist() == [1]
        only_first = FeatureSubset(np.array([1.0, 0.0]))
        assert knn_classify(train, query, k=1, mask=only_first).tolist() == [1]

    def test_k_larger_than_training_rejected(self):
        train = Dataset.from_arrays([[0.0], [1.0]], [0, 1])
        with pytest.raises(ValueError, match="exceeds"):
            knn_classify(train, [[0.5]], k=3)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n_train = int(rng.integers(5, 120))
            n_query = int(rng.integers(1, 40))
            dim = int(rng.integers(1, 8))
            k = int(rng.integers(1, min(6, n_train + 1)))
            train = Dataset.from_arrays(
                rng.random((n_train, dim)), rng.integers(0, 2, n_train)
            )
            queries = rng.random((n_query, dim))
            assert np.array_equal(
                knn_classify(train, queries, k),
                knn_oracle(train.features, train.labels, queries, k),
            )

    def test_all_ones_mask_equals_no_mask(self):
        rng = np.random.default_rng(5)
        train = Dataset.from_arrays(rng.random((40, 5)), rng.integers(0, 2, 40))
        queries = rng.random((15, 5))
        full = FeatureSubset(np.ones(5))
        assert np.array_equal(
            knn_classify(train, queries, 3), knn_classify(train, queries, 3, mask=full)
        )

    def test_non_finite_training_value_rejected(self):
        train = Dataset.from_arrays([[0.0, 0.0], [1.0, np.nan], [0.5, 0.5]], [0, 1, 1])
        with pytest.raises(DataError, match="training row 2, feature 2 is not finite"):
            knn_classify(train, [[0.0, 0.0]], k=1)
        # a column the mask leaves out takes no part in any distance
        only_first = FeatureSubset(np.array([1.0, 0.0]))
        assert knn_classify(train, [[0.9, 0.0]], k=1, mask=only_first).tolist() == [1]

    def test_non_finite_query_value_rejected(self):
        train = Dataset.from_arrays([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], [0, 1])
        with pytest.raises(DataError, match="query row 1, feature 1 is not finite"):
            knn_classify(train, [[np.nan, 0.0, 0.0]], k=1)
        last_two = FeatureSubset(np.array([0.0, 1.0, 1.0]))
        with pytest.raises(DataError, match="query row 2, feature 3 is not finite"):
            knn_classify(train, [[0.0, 0.0, 0.0], [0.0, 0.0, np.inf]], k=1, mask=last_two)

    def test_overflowing_row_does_not_hide_a_later_non_finite_one(self):
        # row 1 is finite but its sum of squares overflows to inf; row 3 holds the NaN
        rows = [[1e200, 1e200], [0.0, 0.0], [0.5, np.nan], [1.0, 1.0]]
        with pytest.raises(DataError, match=r"training row 3, feature 2 is not finite \(nan\)"):
            knn_classify(Dataset.from_arrays(rows, [0, 1, 0, 1]), [[0.0, 0.0]], k=1)
        train = Dataset.from_arrays([[0.0, 0.0], [1.0, 1.0]], [0, 1])
        with pytest.raises(DataError, match=r"query row 3, feature 2 is not finite \(nan\)"):
            knn_classify(train, rows, k=1)


def _exactness_case(name, seed=0, n=60, m=40, width=6):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, n)
    if name == "duplicates":
        base = rng.random((n // 3, width))
        queries = np.vstack([base[:5], rng.random((m, width))])
        return base[rng.integers(0, n // 3, n)], labels, queries
    if name in ("grid4", "grid3"):
        g = 4 if name == "grid4" else 3
        grid = rng.integers(0, g + 1, (n + m, width)) / g
        return grid[:n], labels, grid[n:]
    if name == "offset":
        return 1e7 + rng.random((n, width)), labels, 1e7 + rng.random((m, width))
    # mirrored: each query is the midpoint of two rows of opposite labels, so
    # the pair ties in exact arithmetic
    queries, base = rng.random((m, width)), rng.random((m, width))
    train = np.empty((2 * m, width))
    train[0::2], train[1::2] = base, 2 * queries - base
    return train, np.arange(2 * m) % 2, queries


def _gram_only(train_x, train_y, query_x, k):
    gram = (query_x**2).sum(axis=1)[:, None] - 2.0 * query_x @ train_x.T + (train_x**2).sum(axis=1)
    nearest = np.argsort(gram, axis=1, kind="stable")[:, :k]
    return (2 * train_y[nearest].sum(axis=1) >= k).astype(int)


class TestKnnExactness:
    """Predictions equal a per-query ranking by the exact sum of squared
    differences, including where a Gram-form ranking alone goes wrong."""

    @pytest.mark.parametrize("k", [1, 2, 4, 5])
    @pytest.mark.parametrize("name", ["duplicates", "grid4", "grid3", "offset", "mirrored"])
    def test_matches_exact_reference(self, name, k):
        train_x, train_y, queries = _exactness_case(name)
        expected = knn_exact_reference(train_x, train_y, queries, k)
        train = Dataset.from_arrays(train_x, train_y)
        assert np.array_equal(knn_classify(train, queries, k), expected)

    def test_cases_defeat_gram_only_ranking(self):
        # the offset data would catch a regression to a plain Gram ranking
        train_x, train_y, queries = _exactness_case("offset")
        wrong = [
            _gram_only(train_x, train_y, queries, k)
            != knn_exact_reference(train_x, train_y, queries, k)
            for k in (1, 2, 4, 5)
        ]
        assert np.any(wrong)


@pytest.fixture
def knn_data():
    rng = np.random.default_rng(4)
    features = np.vstack([rng.integers(0, 4, (90, 5)) / 3, 1e6 + rng.random((30, 5))])
    ds = Dataset.from_arrays(features, rng.integers(0, 2, 120))
    return ds.take(np.arange(0, 120, 2)), ds.take(np.arange(1, 120, 2)), ds


def _knn_answers(data):
    train, test, whole = data
    mask = FeatureSubset.from_indices([1, 3, 4], 5)
    return (
        knn_classify(train, test.features, 3).tolist(),
        knn_classify(train, test.features, 4, mask).tolist(),
        evaluate_subset(mask, train, test, k=5),
        cross_validate(None, whole, make_folds(whole.n_rows, 4, seed=2), k=3),
    )


def _votes_in_blocks_of(train, queries, k, n):
    """The generator's votes drained in blocks of n queries: the cell budget
    holds n queries of this table, and the floor is one query."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(selection, "_BLOCK_CELLS", n * train.n_rows)
        patch.setattr(selection, "_MIN_BLOCK", 1)
        return np.concatenate(list(selection._knn_predict(train, queries, k, None)))


class TestKnnBlocks:
    """The per-block cell budget changes how queries are grouped, never the answer."""

    def test_block_size_does_not_change_answers(self, knn_data, monkeypatch):
        default = _knn_answers(knn_data)
        monkeypatch.setattr(selection, "_BLOCK_CELLS", 1)  # one query per block
        monkeypatch.setattr(selection, "_MIN_BLOCK", 1)
        one_query = _knn_answers(knn_data)
        monkeypatch.setattr(selection, "_BLOCK_CELLS", 10**12)  # all queries in one block
        one_block = _knn_answers(knn_data)
        assert one_query == default and one_block == default


@pytest.fixture
def block_sizes(monkeypatch):
    """The query count of each block, one list per _knn_predict call."""
    seen, predict = [], selection._knn_predict

    def spy(*args):
        seen.append([])
        for votes in predict(*args):
            seen[-1].append(votes.size)
            yield votes

    monkeypatch.setattr(selection, "_knn_predict", spy)
    return seen


class TestBlockSchedule:
    """A block holds the queries of the cell budget, at least _MIN_BLOCK; a
    fitness with a cutoff caps only its first block, at _FITNESS_ROWS."""

    def test_fitness_scores_a_mask_in_one_block_or_two(self, block_sizes):
        ds = planted_dataset(n_rows=1000, n_features=12, seed=5)
        spec = WrapperFitnessSpec(split_seed=0)
        split = selection._holdout_split(ds, spec)
        assert (split.fit.n_rows, split.held.n_rows) == (800, 200)
        mask = FeatureSubset.from_indices([1, 2, 7], 12)
        exact = subset_fitness(mask, split, spec)
        assert 0.0 < exact < 1.0
        assert subset_fitness(mask, split, spec, cutoff=0.0) == exact  # never stops
        assert subset_fitness(mask, split, spec, cutoff=1.0) <= 1.0  # stops after its first block
        assert block_sizes == [[200], [50, 150], [50]]

    def test_floor_under_the_cell_budget(self, monkeypatch, block_sizes):
        rng = np.random.default_rng(3)
        points = rng.integers(0, 3, (220, 4)) / 2  # a coarse grid: many ties
        train_x, train_y, queries = points[:120], rng.integers(0, 2, 120), points[120:]
        monkeypatch.setattr(selection, "_BLOCK_CELLS", 10 * 120)  # the budget alone: 10 queries
        expected = knn_exact_reference(train_x, train_y, queries, 3)
        train = Dataset.from_arrays(train_x, train_y)
        assert np.array_equal(knn_classify(train, queries, 3), expected)
        for first_block in (7, 50):
            got = np.concatenate(list(selection._knn_predict(train, queries, 3, None, first_block)))
            assert np.array_equal(got, expected)
        assert block_sizes == [[40, 40, 20], [7, 40, 40, 13], [40, 40, 20]]


class _SlabSpy:
    """Each _knn_predict call's ``(n_train, k, slabs)``, as ``_slab_count``
    returns the count; each full scan's slab length, the rows it tiles the
    limit to; and each block's scan with its candidates, the array that
    ``np.divmod`` splits into training rows and queries.  A block's scan is
    "full" or "sparse" (only the passing groups' rows), "counted " first
    where the passing groups were counted: the count is the block's first
    ``np.flatnonzero``, where the full scan calls ``np.tile`` first.  A
    block that groups the training rows records "grouped" in place of a
    scan, and is scored again.  ``force(count)`` makes ``_slab_count``
    return ``count(n_train, k)`` in place of the rule's."""

    def __init__(self, monkeypatch):
        self.calls, self.lengths, self.scans, self.candidates = [], [], [], []
        self._count, self._events = selection._slab_count, []
        tile, flatnonzero, divmod_, first_rows = np.tile, np.flatnonzero, np.divmod, selection._first_rows

        def slab_count(n_train, k):
            self.calls.append((n_train, k, self._count(n_train, k)))
            self._events = []  # the blocks start after it
            return self.calls[-1][2]

        def spy_tile(limit, reps):
            self.lengths.append(reps)
            self._events.append("tile")
            return tile(limit, reps)

        def spy_flatnonzero(a):
            self._events.append("flatnonzero")
            return flatnonzero(a)

        def spy_divmod(flat, n_query):
            counted = "counted " if self._events[0] == "flatnonzero" else ""
            self.scans.append(counted + ("full" if "tile" in self._events else "sparse"))
            self.candidates.append(flat.copy())
            self._events = []
            return divmod_(flat, n_query)

        def spy_first_rows(values):
            self.scans.append("grouped")
            self._events = []
            return first_rows(values)

        monkeypatch.setattr(selection, "_slab_count", slab_count)
        monkeypatch.setattr(selection, "_first_rows", spy_first_rows)
        monkeypatch.setattr(np, "tile", spy_tile)
        monkeypatch.setattr(np, "flatnonzero", spy_flatnonzero)
        monkeypatch.setattr(np, "divmod", spy_divmod)

    def force(self, count):
        self._count = count


@pytest.fixture
def slabs(monkeypatch):
    return _SlabSpy(monkeypatch)


class TestSlabCount:
    """The rule: the power of two nearest sqrt(n_train / k), never more than n_train // k."""

    def test_counts_at_benchmark_sizes(self):
        # select's 800 fit rows, cv's 4,500-row folds, classify's 20,000 rows, NSL-KDD's 100,779 fit rows
        assert [selection._slab_count(n, 5) for n in (800, 4_500, 20_000, 100_779)] == [16, 32, 64, 128]
        assert selection._slab_count(800, np.int64(5)) == 16  # _knn_predict takes NumPy integers for k

    def test_at_least_k_groups_and_near_the_root(self):
        wrong = []
        for k in range(1, 11):
            for n_train in range(k, 5_001):
                count, most = selection._slab_count(n_train, k), n_train // k
                # a power of two whose square is within a factor of 2 of n_train // k
                near = count & (count - 1) == 0 and most < 2 * count * count <= 4 * most
                if not (1 <= count <= most and near):
                    wrong.append((n_train, k, count))
        assert wrong == []


class TestKnnSlabs:
    """The slab count changes how loose the shortlist bound is, never the answer."""

    def test_slab_count_does_not_change_answers(self, knn_data, slabs):
        default = _knn_answers(knn_data)
        slabs.force(lambda n_train, k: 1)  # the row's own k-th smallest key
        one_slab = _knn_answers(knn_data)
        slabs.force(lambda n_train, k: n_train // k)  # as many slabs as the slack proof allows
        most_slabs = _knn_answers(knn_data)
        assert one_slab == default and most_slabs == default
        # 60 training rows for k = 3, 4 and 5, then 90 in each of 4 folds for k = 3: the
        # rule's 4 slabs, then each forced count, and one block a call scanned in slabs of it.
        # One slab of 90 rows is counted and takes the full scan, so each fold's call turns
        # to its distinct rows, 88, 86, 86 and 86 (one slab again), and scans those; no two
        # of the 60 rows are equal.
        trains = [(60, 3), (60, 4), (60, 5)] + [(90, 3)] * 4
        counts = [4] * 7 + [1] * 7 + [n // k for n, k in trains]
        calls = [(n, k, c) for (n, k), c in zip(trains * 3, counts)]
        lengths = [n // c for (n, _), c in zip(trains * 3, counts)]
        distinct = [(88, 3, 1), (86, 3, 1), (86, 3, 1), (86, 3, 1)]
        calls[10:14] = [call for pair in zip(calls[10:14], distinct) for call in pair]
        lengths[10:14] = [n for n, _, _ in distinct]
        assert slabs.calls == calls
        assert slabs.lengths == lengths

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("shape", ["k-groups", "remainder", "overflow"])
    def test_matches_exact_reference(self, shape, k, slabs):
        train_x, train_y, queries = _slab_case(shape, k)
        slabs.force(lambda n_train, k: _CASE_SLABS)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = knn_exact_reference(train_x, train_y, queries, k)
            got = knn_classify(Dataset.from_arrays(train_x, train_y), queries, k)
        assert np.array_equal(got, expected)
        assert slabs.calls == [(train_x.shape[0], k, _CASE_SLABS)]
        assert slabs.lengths == [k]  # slabs of k rows: k groups, and 7 remainder rows but for k-groups


_CASE_SLABS = 16  # the slab count _slab_case's shapes are built for


def _slab_case(shape, k):
    rng = np.random.default_rng(k)
    # k-groups: _CASE_SLABS slabs of k columns, so exactly k groups and the
    # bound is their largest minimum; otherwise 7 columns are left over
    n = _CASE_SLABS * k + (0 if shape == "k-groups" else 7)
    if shape == "overflow":  # squares and differences overflow to inf
        points = rng.choice([-1.0, 1.0], (n + 30, 3)) * 10.0 ** rng.uniform(154, 300, (n + 30, 3))
        points[n + 20 :] = points[rng.integers(0, n, 10)]  # queries with a copy in train
    else:
        points = rng.integers(0, 4, (n + 30, 3)) / 3  # a coarse grid: many ties
    return points[:n], rng.integers(0, 2, n), points[n:]


@pytest.fixture
def key_dtypes(monkeypatch):
    """The key dtype of every _knn_predict call, in call order."""
    seen, choose = [], selection._key_dtype

    def spy(width, scale):
        seen.append(choose(width, scale))
        return seen[-1]

    monkeypatch.setattr(selection, "_key_dtype", spy)
    return seen


class TestKnnKeyPrecision:
    """The key's dtype changes how long the shortlist is, never the answer."""

    def test_float64_key_does_not_change_answers(self, knn_data, monkeypatch, key_dtypes):
        default = _knn_answers(knn_data)
        narrow = key_dtypes[:]
        monkeypatch.setattr(selection, "_NARROW_KEY", np.float64)
        assert _knn_answers(knn_data) == default
        assert set(narrow) == {np.float32} and set(key_dtypes[len(narrow) :]) == {np.float64}

    def test_rule(self):
        f32_max = float(np.finfo(np.float32).max)
        assert selection._key_dtype(41, 82.0) is np.float32
        assert selection._key_dtype(1, 0.0) is np.float32
        assert selection._key_dtype(3, f32_max / 4) is np.float32
        # some value (a sum, a key or the limit) could overflow float32
        assert selection._key_dtype(3, f32_max / 3.9) is np.float64
        assert selection._key_dtype(3, 1e300) is np.float64
        assert selection._key_dtype(3, np.inf) is np.float64
        # a float32 slack of 5(w + 2)eps.S would reach S: every row is within it
        assert selection._key_dtype(1_600_000, 1.0) is np.float32
        assert selection._key_dtype(1_700_000, 1.0) is np.float64

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_overflow_cases_take_float64(self, k, key_dtypes):
        train_x, train_y, queries = _slab_case("overflow", k)
        with np.errstate(over="ignore", invalid="ignore"):
            knn_classify(Dataset.from_arrays(train_x, train_y), queries, k)
        assert key_dtypes == [np.float64]

    @pytest.mark.parametrize("exponent", [100, 120, 150])
    def test_huge_values_take_float64(self, exponent, key_dtypes):
        rng = np.random.default_rng(exponent)
        points = rng.choice([-1.0, 1.0], (90, 4)) * 10.0 ** rng.uniform(100, exponent, (90, 4))
        points[80:] = points[rng.integers(0, 60, 10)]  # queries with a copy in train
        train_x, train_y, queries = points[:60], rng.integers(0, 2, 60), points[60:]
        for k in (1, 2, 5):
            expected = knn_exact_reference(train_x, train_y, queries, k)
            assert np.array_equal(knn_classify(Dataset.from_arrays(train_x, train_y), queries, k), expected)
        assert key_dtypes == [np.float64] * 3

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_blas_sized_product_matches_exact_reference(self, offset):
        # 200 x 2000 x 21 is past the size where OpenBLAS runs a product on several threads
        rng = np.random.default_rng(7)
        points = offset + rng.integers(0, 5, (2200, 20)) / 4 + rng.random((2200, 20)) * 1e-3
        train_x, train_y, queries = points[:2000], rng.integers(0, 2, 2000), points[2000:]
        got = knn_classify(Dataset.from_arrays(train_x, train_y), queries, 5)
        assert np.array_equal(got, knn_exact_reference(train_x, train_y, queries, 5))


_CORPUS_KINDS = ("uniform", "offset", "grid", "duplicates", "mirrored", "subnormal")


def _corpus_case(kind, seed):
    """One random KNN case of ``kind``: width 1-49, k 1-8, up to 120 training rows."""
    rng = np.random.default_rng([_CORPUS_KINDS.index(kind), seed])
    width, n, m = int(rng.integers(1, 50)), int(rng.integers(8, 121)), int(rng.integers(1, 41))
    k = int(rng.integers(1, 9))
    labels = rng.integers(0, 2, n)
    if kind in ("uniform", "subnormal"):  # squares of 1e-30..1e-20 are float32 subnormals
        low, high = (-8, 7) if kind == "uniform" else (-30, -20)
        points = rng.uniform(-1.0, 1.0, (n + m, width)) * 10.0 ** rng.uniform(low, high)
    elif kind == "offset":
        points = rng.uniform(-1e8, 1e8) + rng.random((n + m, width))
    elif kind == "grid":  # a coarse 1/g grid: many exact ties
        g = int(rng.integers(2, 8))
        points = rng.integers(0, g + 1, (n + m, width)) / g
    elif kind == "duplicates":
        base = rng.random((max(1, n // 4), width))
        points = base[rng.integers(0, base.shape[0], n + m)]
    else:  # mirrored: dyadic, so each pair ties exactly, with opposite labels, at the query it mirrors across
        half = n // 2
        queries = rng.integers(-64, 65, (m, width)) / 64.0
        base = rng.integers(-64, 65, (half, width)) / 64.0
        train = np.vstack([base, 2 * queries[rng.integers(0, m, half)] - base])
        labels = np.concatenate([np.zeros(half, int), np.ones(half, int)])
        order = rng.permutation(2 * half)
        points, labels = np.vstack([train[order], queries]), labels[order]
        n = 2 * half
    return points[:n], labels, points[n:], min(k, n)


class TestKnnRandomCorpus:
    """Seeded random cases, compared with a per-query exact ranking."""

    @pytest.mark.parametrize("kind", _CORPUS_KINDS)
    def test_matches_exact_reference(self, kind):
        wrong = []
        for seed in range(134):
            train_x, train_y, queries, k = _corpus_case(kind, seed)
            got = knn_classify(Dataset.from_arrays(train_x, train_y), queries, k)
            if not np.array_equal(got, knn_exact_reference(train_x, train_y, queries, k)):
                wrong.append(seed)
        assert wrong == []

    @pytest.mark.parametrize("kind", _CORPUS_KINDS)
    def test_permuted_columns_in_small_blocks(self, kind):
        # Permuted columns make the key's product sum in another order, with
        # no BLAS threads; blocks of 1 and 7 queries cross block boundaries.
        wrong = []
        for seed in range(134):
            train_x, train_y, queries, k = _corpus_case(kind, seed)
            perm = np.random.default_rng([seed, 1]).permutation(train_x.shape[1])
            train_x, queries = train_x[:, perm], queries[:, perm]
            expected = knn_exact_reference(train_x, train_y, queries, k)
            train = Dataset.from_arrays(train_x, train_y)
            got = [knn_classify(train, queries, k)] + [_votes_in_blocks_of(train, queries, k, n) for n in (1, 7)]
            if not all(np.array_equal(g, expected) for g in got):
                wrong.append(seed)
        assert wrong == []


def _cluster_case(k, seed, shared=False):
    """16 far-apart clusters of k rows each, row i in cluster i % 16, and 40
    queries each near a cluster.  The rule cuts the 16k rows into 4 slabs of
    4k, so row i falls in group i mod 4k, and for odd k a cluster's rows, 16
    apart, fall in k distinct groups: the bound is the k-th nearest key and
    each query's shortlist is its cluster.
    ``shared`` puts cluster 1's rows on top of cluster 0's, so a query there
    has 2k tied candidates."""
    rng = np.random.default_rng(seed)
    centres = rng.random((16, 4)) * 100.0
    offsets = rng.random((16 * k, 4)) * 0.01
    if shared:
        centres[1] = centres[0]
        offsets[1::16] = offsets[0::16]
    train_x = centres[np.arange(16 * k) % 16] + offsets
    nearest = rng.integers(0, 16, 40)
    queries = centres[nearest] + rng.random((40, 4)) * 0.01
    return train_x, rng.integers(0, 2, 16 * k), queries, nearest


@pytest.fixture
def reranked(monkeypatch):
    """The query count of each block's exact re-rank, one entry per sort."""
    seen, lexsort = [], np.lexsort

    def spy(keys):
        seen.append(np.unique(keys[-1]).size)  # the shortlist's query rows
        return lexsort(keys)

    monkeypatch.setattr(np, "lexsort", spy)
    return seen


def _votes_in_blocks(train, queries, k):
    """Predictions of knn_classify, and of the generator drained in 7-query blocks."""
    return knn_classify(train, queries, k), _votes_in_blocks_of(train, queries, k, 7)


class TestKnnShortlistShapes:
    """A shortlist of exactly k rows is the k nearest and votes unsorted;
    only a shortlist whose labels leave the vote open is re-ranked by exact
    distance."""

    @pytest.mark.parametrize("k", [3, 5])
    def test_every_query_has_exactly_k_candidates(self, k, reranked):
        train_x, train_y, queries, _ = _cluster_case(k, seed=k)
        expected = knn_exact_reference(train_x, train_y, queries, k)
        for got in _votes_in_blocks(Dataset.from_arrays(train_x, train_y), queries, k):
            assert np.array_equal(got, expected)
        assert reranked == []

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_no_query_has_exactly_k_candidates(self, k, reranked):
        # every training row is the same point, so every row ties with the
        # k-th and the lower rows win: the first k labels decide, all 0,
        # against a majority of 1s among the rest
        train_x, train_y = np.full((30, 3), 0.25), np.r_[np.zeros(k, int), np.ones(30 - k, int)]
        queries = np.random.default_rng(k).random((20, 3))
        expected = knn_exact_reference(train_x, train_y, queries, k)
        assert not expected.any()
        for got in _votes_in_blocks(Dataset.from_arrays(train_x, train_y), queries, k):
            assert np.array_equal(got, expected)
        assert reranked == [20] + [7, 7, 6]

    @pytest.mark.parametrize("k", [3, 5])
    def test_blocks_mix_both_kinds(self, k, reranked):
        train_x, train_y, queries, nearest = _cluster_case(k, seed=k, shared=True)
        train_y[0::16], train_y[1::16] = 0, 1  # the two stacked clusters vote apart
        expected = knn_exact_reference(train_x, train_y, queries, k)
        for got in _votes_in_blocks(Dataset.from_arrays(train_x, train_y), queries, k):
            assert np.array_equal(got, expected)
        tied = nearest <= 1  # queries at the stacked clusters
        assert 0 < tied.sum() < tied.size
        per_block = [int(tied[start : start + 7].sum()) for start in range(0, 40, 7)]
        assert reranked == [int(tied.sum())] + [n for n in per_block if n]

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_labels_of_identical_rows_decide_the_sort(self, k, reranked):
        # c identical training rows are all candidates and all tie, so the
        # first k rows vote.  The k nearest then hold between max(0, k - zeros)
        # and min(k, ones) attack rows, and only ends that vote apart need a sort.
        queries = np.random.default_rng(k).random((4, 3))
        for c in range(k + 1, k + 4):
            for ones in range(c + 1):
                zeros = c - ones
                is_open = 2 * max(0, k - zeros) < k <= 2 * min(k, ones)
                train_x, attack_first = np.full((c, 3), 0.5), np.arange(c) < ones
                votes = []
                for train_y in (attack_first.astype(int), attack_first[::-1].astype(int)):
                    reranked.clear()
                    got = knn_classify(Dataset.from_arrays(train_x, train_y), queries, k)
                    assert np.array_equal(got, knn_exact_reference(train_x, train_y, queries, k)), (c, ones, train_y)
                    assert reranked == ([4] if is_open else []), (c, ones, train_y)
                    votes.append(got[0])
                # the two orders put min(k, ones) and max(0, k - zeros) attack rows first
                assert (votes[0] != votes[1]) == is_open, (c, ones)


def _remainder_tie_case(k):
    """69 training rows: 16 slabs of 4 and remainder rows 64-68.  Query i
    sits 0.25 from slab row 13i + 3 (label 0) and from remainder row 64 + i
    (label 1), an exact tie, with k - 1 rows nearer; every other row is far.
    Lower rows win ties, so every vote is 0; the remainder row would make it 1."""
    rng = np.random.default_rng(k)
    train_x, train_y = 1000.0 + rng.random((69, 3)), rng.integers(0, 2, 69)
    centres = 8.0 * np.arange(5)[:, None] + np.zeros(3)
    for i, c in enumerate(centres):
        train_x[13 * i + 3], train_x[64 + i] = c + [0.25, 0, 0], c - [0.25, 0, 0]
        train_y[13 * i + 3], train_y[64 + i] = 0, 1
        near = [j for j in range(64) if j % 13 != 3][2 * i : 2 * i + k - 1]  # not a tied slab row
        for step, j in enumerate(near):
            train_x[j], train_y[j] = c + [0, 0.125, 0], step % 2
    return train_x, train_y, np.repeat(centres, 2, axis=0)


class TestKnnTrainingMajorShapes:
    """The key holds one column per query.  Slabs, remainder rows, blocks of
    any query count and the grouping by query before the re-rank leave every
    answer equal to a per-query exact ranking."""

    @pytest.mark.parametrize("k", [1, 3])
    def test_remainder_row_ties_a_slab_row(self, k, reranked, slabs):
        slabs.force(lambda n_train, k: 16)
        train_x, train_y, queries = _remainder_tie_case(k)
        expected = knn_exact_reference(train_x, train_y, queries, k)
        assert not expected.any()
        train = Dataset.from_arrays(train_x, train_y)
        single = _votes_in_blocks_of(train, queries, k, 1)
        for got in (*_votes_in_blocks(train, queries, k), single):
            assert np.array_equal(got, expected)
        assert reranked and all(reranked)  # every block re-ranked its tied queries
        assert slabs.calls == [(69, k, 16)] * 3
        assert slabs.lengths == [4] * (1 + 2 + 10)  # blocks of all 10 queries, of 7 and of 1

    def test_block_of_more_than_65535_queries(self, reranked):
        # 8 training rows, the corners of the unit cube: one block holds
        # _BLOCK_CELLS // 8 queries, so all 70,000, and uint16 query ids wrap.
        # Every query has first coordinate 1/2, so the corners tie in pairs
        # and the third nearest is always a tie.  The label is the first
        # coordinate, so each tied pair holds a 0 and a 1, every shortlist
        # holds as many of each and the vote stays open: every query is re-ranked.
        rng = np.random.default_rng(12)
        corners = np.array([[(c >> b) & 1 for b in range(3)] for c in range(8)], dtype=float)
        train_x = corners[rng.permutation(8)]
        train_y = train_x[:, 0].astype(int)
        queries = np.column_stack([np.full(70_000, 0.5), rng.integers(0, 5, (70_000, 2)) / 4])
        expected = knn_exact_reference(train_x, train_y, queries, 3)
        assert np.array_equal(knn_classify(Dataset.from_arrays(train_x, train_y), queries, 3), expected)
        assert reranked == [70_000]

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_single_query_blocks(self, k, reranked):
        # 37 rows on a coarse grid: whole slabs and a remainder for every k
        rng = np.random.default_rng(k)
        points = rng.integers(0, 3, (67, 4)) / 2
        train_x, train_y, queries = points[:37], rng.integers(0, 2, 37), points[37:]
        expected = knn_exact_reference(train_x, train_y, queries, k)
        got = _votes_in_blocks_of(Dataset.from_arrays(train_x, train_y), queries, k, 1)
        assert np.array_equal(got, expected)
        assert reranked and set(reranked) == {1}

    @pytest.mark.parametrize(("n_train", "k"), [(5, 5), (7, 3), (40, 3), (79, 5)])
    def test_fewer_training_rows_than_slabs_times_k(self, n_train, k, slabs):
        # n_train // k slabs, the most the slack proof allows: 1, 2, 13 and 15,
        # each of at least k rows, where the rule takes 1, 2, 4 and 4
        slabs.force(lambda n_train, k: n_train // k)
        rng = np.random.default_rng(n_train)
        points = rng.integers(0, 3, (n_train + 30, 3)) / 2  # a coarse grid: many ties
        train_x, train_y, queries = points[:n_train], rng.integers(0, 2, n_train), points[n_train:]
        expected = knn_exact_reference(train_x, train_y, queries, k)
        for got in _votes_in_blocks(Dataset.from_arrays(train_x, train_y), queries, k):
            assert np.array_equal(got, expected)
        assert slabs.calls == [(n_train, k, n_train // k)] * 2
        assert slabs.lengths == [n_train // (n_train // k)] * 6  # one block of 30 queries, then blocks of 7


def _extra_row_case(k):
    """16 far-apart clusters of k rows, row i in cluster i % 16 as in
    ``_cluster_case``, and for clusters 0-7 one more row at the centre.  The
    rule cuts the 16k + 8 rows into 4 slabs and no remainder, and for k in
    1, 3 and 5 a cluster's rows and its centre fall in distinct groups: a
    query on such a centre has exactly k + 1 candidates, one on another
    centre exactly k.  The extra row (label 1) is the nearest and the
    cluster's farthest row (label 0) is not among the k nearest, so taking
    the first k by training row, or the k after the nearest, turns the vote
    to 0; the other k - 1 rows hold (k - 1) / 2 votes for 1."""
    rng = np.random.default_rng(k)
    centres = rng.random((16, 4)) * 100.0
    train_x = centres[np.arange(16 * k) % 16] + rng.random((16 * k, 4)) * 0.01
    train_y = np.zeros(16 * k, int)
    for c in range(16):
        rows = np.arange(c, 16 * k, 16)
        by_distance = rows[np.argsort(((train_x[rows] - centres[c]) ** 2).sum(axis=1))]
        train_y[by_distance[: (k - 1) // 2]] = 1
    train_x, train_y = np.concatenate([train_x, centres[:8]]), np.r_[train_y, np.ones(8, int)]
    return train_x, train_y, centres


@pytest.fixture
def candidates(monkeypatch):
    """The candidate count of each re-ranked query, one array per sort."""
    seen, lexsort = [], np.lexsort

    def spy(keys):
        counts = np.bincount(keys[-1])
        seen.append(counts[counts > 0])
        return lexsort(keys)

    monkeypatch.setattr(np, "lexsort", spy)
    return seen


class TestKnnGroupStarts:
    """After the sort the k nearest of a re-ranked query are the first k of
    its group, whose start is the candidate count of the queries before it."""

    @staticmethod
    def _all_ways(train_x, train_y, queries, k):
        """Predictions of knn_classify, then of the generator in 1- and 7-query blocks."""
        train = Dataset.from_arrays(train_x, train_y)
        blocks = (_votes_in_blocks_of(train, queries, k, n) for n in (1, 7))
        return [knn_classify(train, queries, k), *blocks]

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_every_query_of_every_block_is_wide(self, k, candidates):
        train_x, train_y, centres = _extra_row_case(k)
        queries = centres[np.random.default_rng(k).integers(0, 8, 30)]
        expected = knn_exact_reference(train_x, train_y, queries, k)
        assert expected.all()
        for got in self._all_ways(train_x, train_y, queries, k):
            assert np.array_equal(got, expected)
        sizes = [part.size for part in candidates]
        assert sizes == [30] + [1] * 30 + [7, 7, 7, 7, 2]
        assert all((part == k + 1).all() for part in candidates)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_k_plus_one_candidates_next_to_exactly_k(self, k, candidates):
        train_x, train_y, centres = _extra_row_case(k)
        nearest = np.random.default_rng(k).integers(0, 16, 40)
        wide = nearest < 8  # queries on a centre with an extra row
        expected = knn_exact_reference(train_x, train_y, centres[nearest], k)
        assert np.array_equal(expected, wide.astype(int))
        for got in self._all_ways(train_x, train_y, centres[nearest], k):
            assert np.array_equal(got, expected)
        per_block = [int(wide[start : start + 7].sum()) for start in range(0, 40, 7)]
        assert [part.size for part in candidates] == [int(wide.sum())] + [1] * int(wide.sum()) + [
            n for n in per_block if n
        ]
        assert all((part == k + 1).all() for part in candidates)


def _interleaved_case(k, near, labels):
    """Query 0 sits at distance 1 from point A, rows 3 and 10, and from point
    B, rows 5 and 7, with ``near`` rows (11 on) nearer: a tie at the k-th
    distance whose lower rows interleave the two points.  ``labels`` are
    those of rows 3, 5, 7 and 10; the other rows are far, and query 1 sits
    on A."""
    train_x = 100.0 + np.arange(11 + near)[:, None] * np.ones(3)  # far, one point each
    train_x[[3, 10]], train_x[[5, 7]] = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]
    train_x[11:] = 0.5 * np.eye(3)[np.arange(near) % 3] * (1.0 - 0.25 * (np.arange(near) // 3))[:, None]
    train_y = np.arange(11 + near) % 2
    train_y[[3, 5, 7, 10]] = labels
    return train_x, train_y, np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), k


def _repeat_cases():
    """Cases whose training rows repeat: interleaved ties at the k-th distance,
    points held by at least k rows, fewer than k distinct rows, and rows
    equal but for the sign of a zero."""
    for k in range(1, 6):
        for near in range(max(0, k - 4), k):
            for bits in range(16):
                labels = [(bits >> i) & 1 for i in range(4)]
                yield (f"interleaved k={k} near={near} labels={labels}", *_interleaved_case(k, near, labels))
    rng = np.random.default_rng(17)
    for k in (1, 3, 5):
        points = rng.random((6, 3))
        # each point held by 2k + 1 rows, with labels in runs, and queries on and between the points
        train_x = np.repeat(points, 2 * k + 1, axis=0)[rng.permutation(6 * (2 * k + 1))]
        queries = np.vstack([points, (points[:-1] + points[1:]) / 2, rng.random((6, 3))])
        yield (f"{2 * k + 1} rows a point k={k}", train_x, (np.arange(train_x.shape[0]) // 3) % 2, queries, k)
        if k > 1:  # fewer than k distinct rows: nothing to turn to, the call keeps its rows
            few = np.repeat(points[: k - 1], 6, axis=0)
            yield (f"{k - 1} distinct rows k={k}", few, rng.integers(0, 2, few.shape[0]), queries, k)
    for k in (1, 2, 4):
        # a grid of -0.5, 0 and 0.5 with each zero's sign drawn: equal rows, other bytes
        signed = rng.integers(-1, 2, (60, 3)) * 0.5
        signed[rng.random(signed.shape) < 0.5] *= -1.0
        yield (f"signed zeros k={k}", signed[:40], rng.integers(0, 2, 40), signed[40:], k)


def _scan_cases(family):
    """``(name, train_x, train_y, queries, k)`` cases: the random corpus,
    ``_slab_case``'s shapes, the tie cases of TestKnnShortlistShapes, or
    ``_repeat_cases``."""
    if family == "repeats":
        yield from _repeat_cases()
    elif family == "corpus":
        for kind in _CORPUS_KINDS:
            for seed in range(134):
                yield (f"{kind} {seed}", *_corpus_case(kind, seed))
    elif family == "slab":
        for shape in ("k-groups", "remainder", "overflow"):
            for k in (1, 2, 3, 5):
                yield (f"{shape} k={k}", *_slab_case(shape, k), k)
    else:
        for k in (3, 5):
            train_x, train_y, queries, _ = _cluster_case(k, seed=k)
            yield (f"clusters k={k}", train_x, train_y, queries, k)
            train_x, train_y, queries, _ = _cluster_case(k, seed=k, shared=True)
            train_y[0::16], train_y[1::16] = 0, 1
            yield (f"stacked clusters k={k}", train_x, train_y, queries, k)
        for k in (1, 2, 5):
            train_y = np.r_[np.zeros(k, int), np.ones(30 - k, int)]
            yield (f"one point k={k}", np.full((30, 3), 0.25), train_y, np.random.default_rng(k).random((20, 3)), k)
        for k in range(1, 6):
            queries = np.random.default_rng(k).random((4, 3))
            for c in range(k + 1, k + 4):
                for ones in range(c + 1):
                    attack_first = np.arange(c) < ones
                    for train_y in (attack_first.astype(int), attack_first[::-1].astype(int)):
                        yield (f"{c} identical rows, {ones} attack k={k}", np.full((c, 3), 0.5), train_y, queries, k)


class TestKnnScans:
    """The shortlist scan tests every cell of the key, or only the rows of
    the groups whose minimum passes the limit; _SPARSE_SCAN chooses per
    block, and the choice changes no candidate and no answer."""

    @pytest.mark.parametrize("family", ["corpus", "slab", "ties"])
    def test_both_scans_match_exact_reference(self, family, monkeypatch, slabs):
        if family == "slab":
            slabs.force(lambda n_train, k: _CASE_SLABS)  # the count its shapes are built for
        wrong = []
        for name, train_x, train_y, queries, k in _scan_cases(family):
            with np.errstate(over="ignore", invalid="ignore"):  # the overflow shape's inf and NaN keys
                expected = knn_exact_reference(train_x, train_y, queries, k)
                runs = []
                # _SPARSE_SCAN 0 makes every block sparse, and 10**9 counts none
                for share, scan in ((0, "counted sparse"), (10**9, "full")):
                    monkeypatch.setattr(selection, "_SPARSE_SCAN", share)
                    slabs.scans.clear()
                    slabs.candidates.clear()
                    got = knn_classify(Dataset.from_arrays(train_x, train_y), queries, k)
                    runs.append(slabs.candidates[:])
                    if not np.array_equal(got, expected) or set(slabs.scans) != {scan}:
                        wrong.append((name, share))
            sparse, full = runs
            if len(sparse) != len(full) or not all(np.array_equal(a, b) for a, b in zip(sparse, full)):
                wrong.append((name, "candidates"))
        assert wrong == []


class TestScanChoice:
    """Which scan a block takes at the default _SPARSE_SCAN."""

    @pytest.fixture(scope="class")
    def classify_sized(self):
        """20,000 training rows and 100 queries of a planted 41-column table,
        all columns, then its 5 planted columns quantized to 1/4 (perfbench
        classify's mask5 shape, where distances tie often)."""
        ds = planted_dataset(n_rows=20_100, n_features=41, seed=11)
        x, y = ds.features, ds.labels
        tied = np.round(x[:, :5] * 4) / 4
        return [(x[:20_000], y[:20_000], x[20_000:]), (tied[:20_000], y[:20_000], tied[20_000:])]

    def test_few_passing_groups_take_the_sparse_scan(self, classify_sized, slabs):
        train_x, train_y, queries = classify_sized[0]
        expected = knn_exact_reference(train_x, train_y, queries, 5)
        for got in _votes_in_blocks(Dataset.from_arrays(train_x, train_y), queries, 5):
            assert np.array_equal(got, expected)
        # 64 slabs of 312 rows and 32 remainder rows; one block of 100 queries, then blocks of 7
        assert slabs.calls == [(20_000, 5, 64)] * 2
        assert slabs.scans == ["counted sparse"] * (1 + 15) and slabs.lengths == []

    def test_tied_planted_columns_take_the_full_scan(self, classify_sized, slabs):
        train_x, train_y, queries = classify_sized[1]
        expected = knn_exact_reference(train_x, train_y, queries, 5)
        for got in _votes_in_blocks(Dataset.from_arrays(train_x, train_y), queries, 5):
            assert np.array_equal(got, expected)
        # Each call's first block counts, would take the full scan, and turns the call to
        # the 479 distinct rows: 8 slabs of 59 rows, too short to count.  It is scored
        # again there, and the 93 queries after 7 fit one block (a budget of 7 x 20,000 cells).
        assert slabs.calls == [(20_000, 5, 64), (479, 5, 8)] * 2
        assert slabs.scans == ["grouped", "full"] + ["grouped", "full", "full"] and slabs.lengths == [59] * 3

    def test_select_sized_fit_table_is_not_counted(self, slabs):
        # select's 800 fit rows: 16 slabs of 50 rows, fewer than _SPARSE_SCAN * k
        ds = planted_dataset(n_rows=1000, n_features=12, seed=5)
        spec = WrapperFitnessSpec(split_seed=0)
        split = selection._holdout_split(ds, spec)
        subset_fitness(FeatureSubset.from_indices([1, 2, 7], 12), split, spec)
        subset_fitness(None, split, spec, cutoff=0.0)
        assert slabs.calls == [(800, 5, 16)] * 2
        assert slabs.scans == ["full"] * 3 and slabs.lengths == [50] * 3


class TestKnnCollapse:
    """A call that turns to the distinct training rows weighs each by its
    member count and label-1 count, and re-ranks an open query on member
    rows: no answer changes.  _tie_heavy is forced to turn every call at its
    first block (True) or none (False)."""

    @pytest.mark.parametrize("family", ["corpus", "slab", "ties", "repeats"])
    def test_both_forcings_match_exact_reference(self, family, monkeypatch, slabs):
        wrong, collapsed = [], 0
        for name, train_x, train_y, queries, k in _scan_cases(family):
            n_distinct = np.unique(train_x + 0.0, axis=0).shape[0]
            collapses = k <= n_distinct < train_x.shape[0]
            with np.errstate(over="ignore", invalid="ignore"):  # the overflow shape's inf and NaN keys
                expected = knn_exact_reference(train_x, train_y, queries, k)
                for force in (True, False):
                    monkeypatch.setattr(selection, "_tie_heavy", lambda counted, sparse, force=force: force)
                    slabs.calls.clear()
                    slabs.scans.clear()
                    got = knn_classify(Dataset.from_arrays(train_x, train_y), queries, k)
                    if not np.array_equal(got, expected):
                        wrong.append((name, force))
                    # grouped at the first block, then a second layout where rows merge
                    if slabs.scans.count("grouped") != force or len(slabs.calls) != 1 + (force and collapses):
                        wrong.append((name, force, "schedule"))
            collapsed += collapses
        assert wrong == []
        assert collapsed >= {"corpus": 141, "slab": 8, "ties": 27, "repeats": 230}[family]

    def test_cutoff_fitness_on_collapsed_blocks(self, monkeypatch, slabs):
        # TestEarlyAbandoning's shape, its values quantized to 1/4 so that rows repeat
        ds = planted_dataset(n_rows=600, n_features=10, seed=3)
        ds = Dataset.from_arrays(np.round(ds.features * 4) / 4, ds.labels)
        monkeypatch.setattr(selection, "_tie_heavy", lambda counted, sparse: True)
        spec = WrapperFitnessSpec(split_seed=4)
        split = selection._holdout_split(ds, spec)
        rng = np.random.default_rng(8)
        abandoned = 0
        for _ in range(40):
            bits = rng.random(10) < 0.3
            bits[rng.integers(0, 10)] = True
            mask = FeatureSubset(bits.astype(float))
            cols = mask.columns
            fit, held = split.fit.features[:, cols], split.held.features[:, cols]
            preds = knn_exact_reference(fit, split.fit.labels, held, spec.k_neighbors)
            exact = subset_fitness(mask, split, spec)
            assert exact == float(np.mean(preds == split.held.labels))
            for cutoff in (rng.uniform(0.5, 1.0), exact, np.nextafter(exact, 0.0), 1.0):
                got = subset_fitness(mask, split, spec, cutoff)
                assert got == exact or (got <= cutoff and exact <= cutoff)
                abandoned += got != exact
            split = split.hardest_first()
        assert abandoned > 0
        # every call grouped its 480 fit rows at its first block, and most masks merged some
        assert slabs.scans.count("grouped") == 40 * 5
        assert sum(n < 480 for n, _, _ in slabs.calls) > 40 * 5 // 2


def _both_paths(split, spec, mask):
    """subset_fitness on the split, which reads its column-major copies, and
    the accuracy of knn_classify's per-call set-up on the same rows."""
    preds = knn_classify(split.fit, split.held.features, spec.k_neighbors, mask)
    return subset_fitness(mask, split, spec), float(np.mean(preds == split.held.labels))


def _random_mask(rng, width):
    bits = rng.random(width) < 0.5
    bits[rng.integers(0, width)] = True
    return FeatureSubset(bits.astype(float))


class TestSplitPath:
    """subset_fitness on a split takes each mask's columns from the split's
    column-major copies; it scores as knn_classify does from the rows."""

    @pytest.mark.parametrize("kind", _CORPUS_KINDS)
    def test_corpus_matches_knn_classify(self, kind):
        wrong = []
        for seed in range(40):
            train_x, train_y, queries, k = _corpus_case(kind, seed)
            labels = np.concatenate([train_y, np.random.default_rng(seed).integers(0, 2, queries.shape[0])])
            table = Dataset.from_arrays(np.vstack([train_x, queries]), labels)
            split = selection._holdout_split(table, WrapperFitnessSpec(holdout_fraction=0.3, split_seed=seed))
            spec = WrapperFitnessSpec(k_neighbors=min(k, split.fit.n_rows), holdout_fraction=0.3)
            rng = np.random.default_rng([seed, 2])
            for mask in (None, _random_mask(rng, table.n_features), _random_mask(rng, table.n_features)):
                on_split, per_call = _both_paths(split, spec, mask)
                if on_split != per_call:
                    wrong.append((seed, None if mask is None else mask.indices))
        assert wrong == []

    def test_float64_key_matches_knn_classify(self):
        ds = planted_dataset(n_rows=600, n_features=10, seed=3)
        ds = Dataset.from_arrays(ds.features * 1e19, ds.labels)  # squares overflow float32
        spec = WrapperFitnessSpec(split_seed=4)
        split = selection._holdout_split(ds, spec)
        rng = np.random.default_rng(9)
        for mask in [None] + [_random_mask(rng, 10) for _ in range(10)]:
            columns = range(10) if mask is None else mask.columns
            scale = sum((x[:, columns] ** 2).sum(axis=1).max() for x in (split.fit.features, split.held.features))
            assert selection._key_dtype(len(columns), scale) is np.float64
            on_split, per_call = _both_paths(split, spec, mask)
            assert on_split == per_call

    @pytest.mark.parametrize("side", ["fit", "held"])
    def test_non_finite_used_cell_raises_the_same_error(self, side):
        # inf at row 3, column 5 and NaN at row 5, column 2 (1-based): the first
        # bad cell in row-major order is the inf, in column-major the NaN
        ds = planted_dataset(n_rows=100, n_features=6, seed=2)
        spec = WrapperFitnessSpec(split_seed=0)
        split = selection._holdout_split(ds, spec)
        rows, columns = getattr(split, side).features, getattr(split, f"{side}_columns")
        for row, col, value in ((2, 4, np.inf), (4, 1, np.nan)):
            rows[row, col] = columns[col, row] = value
        mask = FeatureSubset.from_indices([2, 5, 6], 6)
        with pytest.raises(DataError) as per_call:
            knn_classify(split.fit, split.held.features, spec.k_neighbors, mask)
        with pytest.raises(DataError) as on_split:
            subset_fitness(mask, split, spec)
        row = "training row 3" if side == "fit" else "query row 3"
        assert str(on_split.value) == str(per_call.value) == f"{row}, feature 5 is not finite (inf)"
        # the bad cells lie in columns 2 and 5, which this mask does not use
        on_split, per_call = _both_paths(split, spec, FeatureSubset.from_indices([1, 3, 4, 6], 6))
        assert on_split == per_call

    @pytest.mark.parametrize("grouping", ["forced", "natural"])
    def test_tie_heavy_masks_group_on_both_paths(self, grouping, monkeypatch, slabs):
        # Values on a 1/4 grid, so rows repeat on the used columns.  "forced" makes every
        # call group at its first block; "natural" has 6,400 fit rows in 32 slabs of 200,
        # so a call counts, finds the full scan and groups, as perfbench classify's mask5 does.
        n_rows, n_masks = (600, 20) if grouping == "forced" else (8000, 3)
        ds = planted_dataset(n_rows=n_rows, n_features=10, seed=3)
        ds = Dataset.from_arrays(np.round(ds.features * 4) / 4, ds.labels)
        if grouping == "forced":
            monkeypatch.setattr(selection, "_tie_heavy", lambda counted, sparse: True)
        spec = WrapperFitnessSpec(split_seed=4)
        split = selection._holdout_split(ds, spec)
        rng = np.random.default_rng(8)
        masks = [FeatureSubset.from_indices([1, 2, 3, 4, 5], 10)] + [_random_mask(rng, 10) for _ in range(n_masks - 1)]
        for mask in masks:
            slabs.scans.clear()
            exact, per_call = _both_paths(split, spec, mask)
            assert exact == per_call
            assert slabs.scans.count("grouped") == 2  # once on each path
            for cutoff in (rng.uniform(0.5, 1.0), exact, np.nextafter(exact, 0.0)):
                got = subset_fitness(mask, split, spec, cutoff)
                assert got == exact or (got <= cutoff and exact <= cutoff)

    def test_split_after_hardest_first(self):
        ds = planted_dataset(n_rows=600, n_features=10, seed=3)
        spec = WrapperFitnessSpec(split_seed=4)
        split = selection._holdout_split(ds, spec)
        split.misses[:] = np.random.default_rng(1).integers(0, 4, split.misses.size)
        ordered = split.hardest_first()
        assert ordered.fit_columns is split.fit_columns
        assert np.array_equal(ordered.held_columns, ordered.held.features.T)
        assert ordered.held_columns.flags.c_contiguous
        rng = np.random.default_rng(2)
        for mask in [None] + [_random_mask(rng, 10) for _ in range(10)]:
            on_split, per_call = _both_paths(ordered, spec, mask)
            assert on_split == per_call


@pytest.fixture(scope="module")
def wide_table():
    """A 50,000 x 41 table (16.4 MB of float64) and 30 queries."""
    rng = np.random.default_rng(41)
    return rng.random((50_000, 41)), rng.integers(0, 2, 50_000), rng.random((30, 41))


def _knn_budget(n_rows, n_queries, used, key, copied, grouped=False):
    """Bytes one KNN call may hold, counted as _knn_predict's docstring does:
    a float64 copy of the used columns unless the table is used as it is,
    their |t|^2 in float64, [t, |t|^2] in the key's dtype, and one block of
    keys (each is released after its scan) with the scan's two boolean
    arrays.  A block holds the queries that the cell budget allows, at least
    the floor's: at 50,000 rows both give 40, so the 30 queries make one
    block of 1.5M cells.  A call that groups its rows may hold the grouping
    in place of the block: two float64 copies of the used columns and eight
    int64 values a row."""
    item = np.dtype(key).itemsize
    block = max(selection._BLOCK_CELLS // n_rows, selection._MIN_BLOCK)
    cells = min(n_queries, block) * n_rows
    scan = cells * (item + 2)
    if grouped:
        scan = max(scan, n_rows * (2 * used + 8) * 8)
    return copied * n_rows * used * 8 + n_rows * 8 + n_rows * (used + 1) * item + scan


class TestKnnMemory:
    """The memory one knn_classify call holds (k = 5, 30 queries or one).  Before
    the key buffer took [t, |t|^2] straight from the table, a float64 copy of
    the table came first: 31.9 MB at its peak without a mask and 10.3 MB with
    a 5-feature one, in either memory order."""

    def test_c_ordered_table_is_not_copied(self, wide_table, monkeypatch):
        # With a 1M-cell budget and no floor the 30 queries make blocks of 20
        # (1.0M cells), not one of 1.5M: the call then holds less than the
        # table (13.8 MB against 16.4 MB), and a copy of the table would add
        # its whole size.  The default 2M cells give one block of 30 queries
        # and a peak of 16.36 MB, too near the table's size to tell.
        monkeypatch.setattr(selection, "_BLOCK_CELLS", 1_000_000)
        monkeypatch.setattr(selection, "_MIN_BLOCK", 1)
        x, y, queries = wide_table
        train = Dataset.from_arrays(x, y)
        assert traced_peak(lambda: knn_classify(train, queries, 5)) < x.nbytes

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("columns", [None, [1, 2, 3, 4, 5]], ids=["all", "mask5"])
    @pytest.mark.parametrize(("scale", "key"), [(1.0, np.float32), (1e19, np.float64)], ids=["f32", "f64"])
    def test_peak_within_budget(self, wide_table, order, columns, scale, key):
        # A float64 key (values near 1e19 overflow float32) makes [t, |t|^2] a
        # second float64 copy beside the used columns, which the re-rank reads
        x, y, queries = wide_table
        x, queries = x * scale, queries * scale
        used = x.shape[1] if columns is None else len(columns)
        scale_sq = (queries[:, :used] ** 2).sum(axis=1).max() + (x[:, :used] ** 2).sum(axis=1).max()
        assert selection._key_dtype(used, scale_sq) is key
        train = Dataset.from_arrays(np.asarray(x, order=order), y)
        mask = None if columns is None else FeatureSubset.from_indices(columns, 41)
        copied = columns is not None  # from_arrays stores either order C-ordered, used as it is
        budget = _knn_budget(x.shape[0], queries.shape[0], used, key, copied)
        assert traced_peak(lambda: knn_classify(train, queries, 5, mask)) <= budget

    @pytest.mark.parametrize("columns", [None, [1, 2, 3, 4, 5]], ids=["all", "mask5"])
    def test_fitness_on_a_split_within_budget(self, wide_table, columns):
        # The split holds its column-major copies once per run, so one fitness
        # call on it holds what a knn_classify call does: one copy of a mask's
        # columns, and none of all columns, which are the copies themselves.
        # A call that copied the table again would exceed the budget by about 12 MB.
        x, y, _ = wide_table
        spec = WrapperFitnessSpec(holdout_fraction=0.05, split_seed=0)
        split = selection._holdout_split(Dataset.from_arrays(x, y), spec)
        mask = None if columns is None else FeatureSubset.from_indices(columns, 41)
        used = x.shape[1] if columns is None else len(columns)
        budget = _knn_budget(split.fit.n_rows, split.held.n_rows, used, np.float32, columns is not None)
        assert traced_peak(lambda: subset_fitness(mask, split, spec)) <= budget

    @pytest.mark.parametrize("case", ["mask5", "wide", "wide distinct", "one query"])
    def test_grouped_peak_within_budget(self, wide_table, case, monkeypatch):
        # Values on a 1/4 grid tie often, so the count ends in the full scan
        # and the call groups its rows.  "wide" keeps 3 such columns of 41
        # and sets the rest to 1/2: its grouping holds more than a block of
        # keys.  "wide distinct" gives column 41 distinct values too small for
        # the float32 key, so nothing merges: the sorted copy is widest.
        grouped, first_rows = [], selection._first_rows
        monkeypatch.setattr(selection, "_first_rows", lambda values: grouped.append(1) or first_rows(values))
        x, y, queries = wide_table
        x, queries = np.round(x * 4) / 4, np.round(queries * 4) / 4
        if case == "mask5":
            mask, used = FeatureSubset.from_indices([1, 2, 3, 4, 5], 41), 5
        else:
            mask, used = None, 41
            x[:, 3:] = 0.5
            if case == "wide distinct":
                x[:, 40] = np.random.default_rng(2).permutation(x.shape[0]) * 2.0**-30
            if case == "one query":
                queries = queries[:1]
        train = Dataset.from_arrays(x, y)
        budget = _knn_budget(x.shape[0], queries.shape[0], used, np.float32, mask is not None, grouped=True)
        assert traced_peak(lambda: knn_classify(train, queries, 5, mask)) <= budget
        assert grouped == [1]


_WRONG_MASKS = {"short": [1.0, 0.0, 1.0], "long": [1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0]}


@pytest.fixture
def five_wide():
    rng = np.random.default_rng(6)
    return Dataset.from_arrays(rng.random((60, 5)), np.repeat([0, 1], 30))


class TestKnnInputChecks:
    """Every KNN entry point rejects a mask or a query table of the wrong width, and a k that is not an int."""

    @pytest.mark.parametrize("k", [2.5, 3.0, True, np.float64(3.0)], ids=["2.5", "3.0", "True", "np.float64"])
    def test_knn_classify_k_must_be_an_int(self, five_wide, k):
        with pytest.raises(ValueError, match=re.escape(f"k must be an int, got {k!r}")):
            knn_classify(five_wide, five_wide.features, k)

    @pytest.mark.parametrize("k", [2.5, True])
    def test_evaluate_subset_k_must_be_an_int(self, five_wide, k):
        with pytest.raises(ValueError, match=re.escape(f"k must be an int, got {k!r}")):
            evaluate_subset(None, five_wide, five_wide, k)

    @pytest.mark.parametrize("k", [2.5, True])
    def test_cross_validate_k_must_be_an_int(self, five_wide, k):
        with pytest.raises(ValueError, match=re.escape(f"k must be an int, got {k!r}")):
            cross_validate(None, five_wide, make_folds(five_wide.n_rows, 3, seed=0), k)

    def test_knn_classify_k_must_be_positive(self, five_wide):
        with pytest.raises(ValueError, match="k must be >= 1"):
            knn_classify(five_wide, five_wide.features, 0)

    def test_numpy_integer_k_is_accepted(self, five_wide):
        expected = knn_classify(five_wide, five_wide.features, 3)
        assert np.array_equal(knn_classify(five_wide, five_wide.features, np.int64(3)), expected)
        counts = evaluate_subset(None, five_wide, five_wide, np.int32(3))
        assert counts == evaluate_subset(None, five_wide, five_wide, 3)

    @pytest.mark.parametrize("length", _WRONG_MASKS)
    def test_knn_classify_mask_length(self, five_wide, length):
        with pytest.raises(ValueError, match="mask length"):
            knn_classify(five_wide, five_wide.features, 3, FeatureSubset(_WRONG_MASKS[length]))

    @pytest.mark.parametrize("width", [4, 6])
    def test_knn_classify_query_width(self, five_wide, width):
        with pytest.raises(ValueError, match="feature counts differ"):
            knn_classify(five_wide, np.zeros((3, width)), 3)

    @pytest.mark.parametrize("length", _WRONG_MASKS)
    def test_subset_fitness_mask_length_on_a_dataset(self, five_wide, length):
        with pytest.raises(ValueError, match="mask length"):
            subset_fitness(FeatureSubset(_WRONG_MASKS[length]), five_wide, WrapperFitnessSpec())

    @pytest.mark.parametrize("length", _WRONG_MASKS)
    def test_subset_fitness_mask_length_on_a_split(self, five_wide, length):
        split = selection._holdout_split(five_wide, WrapperFitnessSpec(split_seed=0))
        with pytest.raises(ValueError, match="mask length"):
            subset_fitness(FeatureSubset(_WRONG_MASKS[length]), split, WrapperFitnessSpec(), cutoff=0.5)
        assert not split.misses.any()

    @pytest.mark.parametrize("length", _WRONG_MASKS)
    def test_evaluate_subset_mask_length(self, five_wide, length):
        with pytest.raises(ValueError, match="mask length"):
            evaluate_subset(FeatureSubset(_WRONG_MASKS[length]), five_wide, five_wide, k=3)

    @pytest.mark.parametrize("width", [4, 6])
    def test_evaluate_subset_test_width(self, five_wide, width):
        test = Dataset.from_arrays(np.zeros((4, width)), np.array([0, 1, 0, 1]))
        with pytest.raises(ValueError, match="feature counts differ"):
            evaluate_subset(None, five_wide, test, k=3)


class TestSubsetFitness:
    def test_separable_clusters_reach_perfect_accuracy(self):
        ds = two_cluster_dataset()
        spec = WrapperFitnessSpec(split_seed=0)
        mask = FeatureSubset(np.array([1.0, 0.0, 0.0, 0.0]))
        assert subset_fitness(mask, ds, spec) == 1.0

    def test_uninformative_feature_near_chance(self):
        rng = np.random.default_rng(0)
        labels = np.repeat([0, 1], 100)
        features = np.column_stack([np.full(200, 0.5), rng.random(200)])
        ds = Dataset.from_arrays(features, labels)
        mask = FeatureSubset(np.array([1.0, 0.0]))
        scores = [
            subset_fitness(mask, ds, WrapperFitnessSpec(split_seed=seed)) for seed in range(20)
        ]
        assert np.mean(scores) == pytest.approx(0.5, abs=0.1)

    def test_deterministic_given_seed(self):
        ds = two_cluster_dataset(seed=3)
        spec = WrapperFitnessSpec(split_seed=11)
        mask = FeatureSubset(np.array([1.0, 1.0, 0.0, 0.0]))
        assert subset_fitness(mask, ds, spec) == subset_fitness(mask, ds, spec)

    def test_fitness_bounded(self):
        rng = np.random.default_rng(2)
        ds = Dataset.from_arrays(rng.random((60, 4)), rng.integers(0, 2, 60))
        for seed in range(10):
            mask = FeatureSubset.from_indices([1 + int(rng.integers(0, 4))], 4)
            value = subset_fitness(mask, ds, WrapperFitnessSpec(split_seed=seed))
            assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("cutoff", [None, 0.99])
    def test_returns_a_python_float(self, five_wide, cutoff, monkeypatch):
        # both the full and the early return are (n - errors) / n of Python ints;
        # a 2-row first block, with an error among 12 rows, lets the cutoff stop
        monkeypatch.setattr(selection, "_FITNESS_ROWS", 2)
        mask = FeatureSubset([1.0, 0.0, 1.0, 0.0, 0.0])
        assert type(subset_fitness(mask, five_wide, WrapperFitnessSpec(), cutoff)) is float

    def test_one_row_per_class_leaves_nothing_to_fit(self):
        ds = Dataset.from_arrays(np.array([[0.0], [1.0]]), [0, 1])
        with pytest.raises(DataError, match="degenerate holdout split"):
            selection._holdout_split(ds, WrapperFitnessSpec(split_seed=0))

    def test_bad_spec_rejected(self):
        bad_specs = [
            {"holdout_fraction": 0.9},
            {"k_neighbors": 0},
            {"k_neighbors": 2.5},
            {"k_neighbors": True},
            {"split_seed": 1.5},
            {"split_seed": False},
        ]
        for bad in bad_specs:
            with pytest.raises(ValueError):
                WrapperFitnessSpec(**bad)

    @pytest.mark.parametrize("fraction", ["0.2", None, [0.2], True], ids=["str", "None", "list", "True"])
    def test_holdout_fraction_must_be_a_real_number(self, fraction):
        # the first three once failed the range comparison with a bare TypeError
        with pytest.raises(ValueError, match=re.escape(f"holdout_fraction must be a real number, got {fraction!r}")):
            WrapperFitnessSpec(holdout_fraction=fraction)

    def test_numpy_holdout_fraction_is_accepted(self):
        assert WrapperFitnessSpec(holdout_fraction=np.float64(0.25)).holdout_fraction == 0.25


def _select_digest(ds, seed):
    best, trace = select_features(ds, PfmParams(population_size=8, max_iterations=5, seed=seed), WrapperFitnessSpec())
    positions, fitness = trace.final_population
    return (
        best.mask.tobytes(),
        repr(trace.best_per_iteration),
        positions.tobytes(),
        fitness.tobytes(),
        trace.newborns,
        trace.survivors,
        trace.evaluations,
    )


class TestEarlyAbandoning:
    """A mask that cannot beat the cutoff may stop early; no answer changes."""

    @pytest.mark.parametrize("block", [None, 7])
    def test_select_matches_a_cutoff_free_run(self, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(selection, "_FITNESS_ROWS", block)
        ds = planted_dataset(n_rows=400, n_features=12, seed=5)
        scored, predict, fitness = [], selection._knn_predict, selection.subset_fitness

        def counting(train, query_rows, k, columns, size, *copies):
            scored.append(0)
            for votes in predict(train, query_rows, k, columns, size, *copies):
                scored[-1] += votes.size
                yield votes

        monkeypatch.setattr(selection, "_knn_predict", counting)
        with_cutoff = [_select_digest(ds, seed) for seed in range(10)]
        # 40 held-out rows of each class; some masks stopped short of them
        assert min(scored) < 80 and max(scored) == 80
        cutoff_free = lambda mask, split, spec, cutoff=None: fitness(mask, split, spec)  # noqa: E731
        monkeypatch.setattr(selection, "subset_fitness", cutoff_free)
        scored.clear()
        assert [_select_digest(ds, seed) for seed in range(10)] == with_cutoff
        assert set(scored) == {80}

    def test_fitness_is_exact_or_both_at_most_cutoff(self):
        ds = planted_dataset(n_rows=600, n_features=10, seed=3)
        spec = WrapperFitnessSpec(split_seed=4)
        split = selection._holdout_split(ds, spec)
        rng = np.random.default_rng(8)
        abandoned = 0
        for _ in range(80):
            bits = rng.random(10) < 0.5
            bits[rng.integers(0, 10)] = True
            mask = FeatureSubset(bits.astype(float))
            preds = knn_classify(split.fit, split.held.features, spec.k_neighbors, mask)
            exact = subset_fitness(mask, split, spec)
            assert exact == float(np.mean(preds == split.held.labels))
            for cutoff in (rng.uniform(0.5, 1.0), exact, np.nextafter(exact, 0.0), 1.0):
                got = subset_fitness(mask, split, spec, cutoff)
                assert got == exact or (got <= cutoff and exact <= cutoff)
                abandoned += got != exact
            split = split.hardest_first()
        assert abandoned > 0

    def test_hardest_rows_first(self):
        split = selection._holdout_split(planted_dataset(n_rows=40, n_features=6), WrapperFitnessSpec())
        split.misses[:] = [0, 2, 1, 2, 0, 0, 1, 0]
        ordered = split.hardest_first()
        order = [1, 3, 2, 6, 0, 4, 5, 7]
        assert ordered.misses.tolist() == [2, 2, 1, 1, 0, 0, 0, 0]
        assert np.array_equal(ordered.held.features, split.held.features[order])
        assert np.array_equal(ordered.held.labels, split.held.labels[order])
        assert ordered.fit is split.fit


class TestSelectFeatures:
    PARAMS = PfmParams(population_size=10, max_iterations=15, seasons_per_iteration=2, seed=1)

    def test_single_informative_feature_found(self):
        ds = two_cluster_dataset()
        subset, trace = select_features(ds, self.PARAMS, WrapperFitnessSpec())
        assert trace.best_solution.fitness == 1.0
        assert 1 in subset.indices

    def test_best_fitness_matches_trace_maximum(self):
        ds = two_cluster_dataset(seed=9)
        _, trace = select_features(ds, self.PARAMS, WrapperFitnessSpec())
        assert trace.best_solution.fitness == max(trace.best_per_iteration)

    def test_trace_holds_python_numbers(self):
        _, trace = select_features(two_cluster_dataset(), self.PARAMS, WrapperFitnessSpec())
        assert {type(v) for v in trace.best_per_iteration} == {float}
        assert {type(v) for v in trace.newborns + trace.survivors} == {int}

    def test_never_evaluates_empty_mask(self):
        ds = two_cluster_dataset()
        spec = WrapperFitnessSpec()
        seen = []
        original = subset_fitness

        def spying_objective(mask, train, fitness_spec, cutoff=None):
            seen.append(mask.cardinality)
            return original(mask, train, fitness_spec, cutoff)

        import peafowl.selection as sel

        monkey = sel.subset_fitness
        sel.subset_fitness = spying_objective
        try:
            select_features(ds, self.PARAMS, spec)
        finally:
            sel.subset_fitness = monkey
        assert seen and min(seen) >= 1

    def test_single_class_rejected(self):
        ds = Dataset.from_arrays(np.random.default_rng(0).random((20, 3)), np.zeros(20, dtype=int))
        with pytest.raises(DataError, match="single class"):
            select_features(ds, self.PARAMS, WrapperFitnessSpec())

    def test_single_feature_rejected(self):
        ds = Dataset.from_arrays(np.random.default_rng(0).random((20, 1)), np.arange(20) % 2)
        with pytest.raises(DataError, match="at least 2"):
            select_features(ds, self.PARAMS, WrapperFitnessSpec())

    def test_top_subsets_distinct_and_ordered(self):
        positions = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        tops = top_subsets((positions, np.array([0.9, 0.9, 0.9, 0.8])), n=3)
        assert len(tops) == 3
        assert tops[0][0].indices == [1, 3]  # equal fitness, fewer features first
        assert tops[1][0].indices == [1, 2, 3]
        assert tops[2][1] == 0.8

    @pytest.mark.parametrize(
        "n, message",
        [(0, ">= 1, got 0"), (-1, ">= 1, got -1"), (2.5, "an int, got 2.5"), (True, "an int, got True"), ("2", "an int, got '2'")],
        ids=["0", "-1", "2.5", "True", "str"],
    )
    def test_top_subsets_needs_a_positive_count(self, n, message):
        # 2.5 once listed every distinct mask
        population = (np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.9, 0.8]))
        with pytest.raises(ValueError, match=re.escape(f"top_subsets must be {message}")):
            top_subsets(population, n=n)

    def test_top_subsets_takes_a_numpy_integer(self):
        population = (np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.9, 0.8]))
        assert [s.indices for s, _ in top_subsets(population, n=np.int64(1))] == [[1]]

    def test_returned_mask_is_the_ranked_best(self, toy_csv):
        # Row 0 of the optimizer's population has features 1 and 2 here, and
        # feature 1 alone ties it: the mask, the trace's best and FSs1 were two.
        train = load_dataset(toy_csv[0], TableSchema.from_yaml(toy_csv[1]))
        best, trace = select_features(train, PfmParams(population_size=8, max_iterations=4, seed=2), WrapperFitnessSpec())
        [(top, fitness)] = top_subsets(trace.final_population, 1)
        assert best.indices == top.indices == [1]
        assert np.array_equal(trace.best_solution.position, best.mask)
        assert trace.best_solution.fitness == fitness
        assert np.all(np.diff(trace.final_population[1]) <= 0)


class TestEvaluateSubset:
    def test_self_match_is_perfect(self):
        ds = two_cluster_dataset(seed=4)
        counts = evaluate_subset(FeatureSubset(np.ones(4)), ds, ds, k=1)
        assert counts.fp == 0 and counts.fn == 0
        assert counts.total == ds.n_rows

    def test_counts_match_oracle(self):
        rng = np.random.default_rng(8)
        train = Dataset.from_arrays(rng.random((200, 6)), rng.integers(0, 2, 200))
        test = Dataset.from_arrays(rng.random((80, 6)), rng.integers(0, 2, 80))
        mask = FeatureSubset.from_indices([1, 3, 5], 6)
        counts = evaluate_subset(mask, train, test, k=5)
        cols = mask.columns
        preds = knn_oracle(train.features[:, cols], train.labels, test.features[:, cols], 5)
        assert (counts.tp, counts.tn, counts.fp, counts.fn) == confusion_oracle(preds, test.labels)

    def test_provenance_mismatch_rejected(self):
        a = two_cluster_dataset()
        b = two_cluster_dataset()
        a.provenance = "abc"
        b.provenance = "xyz"
        with pytest.raises(DataError, match="different transforms"):
            evaluate_subset(FeatureSubset(np.ones(4)), a, b, k=1)

    def test_feature_count_mismatch(self):
        a = two_cluster_dataset(n_noise=2)
        b = two_cluster_dataset(n_noise=3)
        with pytest.raises(ValueError, match="feature counts"):
            evaluate_subset(FeatureSubset(np.ones(3)), a, b, k=1)


class TestCrossValidate:
    def test_duplicated_rows_give_perfect_pooled_accuracy(self):
        from peafowl import FoldPlan

        rng = np.random.default_rng(0)
        base = rng.random((30, 3))
        labels = rng.integers(0, 2, 30)
        ds = Dataset.from_arrays(np.vstack([base, base]), np.concatenate([labels, labels]))
        # place each duplicate pair in different folds so every test row
        # keeps a zero-distance twin in training
        assignments = np.concatenate([np.arange(30) % 5, (np.arange(30) + 1) % 5])
        folds = FoldPlan(k=5, assignments=assignments, seed=0)
        per_fold, pooled = cross_validate(None, ds, folds, k=1)
        assert pooled.accuracy == 1.0
        assert sum(c.total for c in per_fold) == ds.n_rows

    def test_counts_partition_rows(self):
        ds = two_cluster_dataset(n_rows=100)
        folds = make_folds(100, 10, seed=0)
        per_fold, _ = cross_validate(FeatureSubset(np.ones(4)), ds, folds, k=3)
        assert sum(c.total for c in per_fold) == 100

    def test_deterministic_given_fold_plan(self):
        ds = two_cluster_dataset(n_rows=80, seed=6)
        folds = make_folds(80, 4, seed=5)
        a = cross_validate(None, ds, folds, k=3)
        b = cross_validate(None, ds, folds, k=3)
        assert a[0] == b[0]

    def test_all_ones_mask_equals_no_mask(self):
        ds = two_cluster_dataset(n_rows=60, seed=1)
        folds = make_folds(60, 3, seed=0)
        with_mask = cross_validate(FeatureSubset(np.ones(4)), ds, folds, k=3)
        without = cross_validate(None, ds, folds, k=3)
        assert with_mask[0] == without[0]

    def test_single_class_fold_warns_but_runs(self):
        features = np.array([[0.0], [0.1], [0.9], [1.0]])
        labels = np.array([0, 0, 0, 1])
        ds = Dataset.from_arrays(features, labels)
        folds = make_folds(4, 2, seed=3)
        with pytest.warns(UserWarning, match="single class"):
            per_fold, _ = cross_validate(None, ds, folds, k=1)
        assert sum(c.total for c in per_fold) == 4

    def test_fold_plan_must_cover_data(self):
        ds = two_cluster_dataset(n_rows=40)
        folds = make_folds(30, 3, seed=0)
        with pytest.raises(ValueError, match="cover"):
            cross_validate(None, ds, folds, k=1)

    @pytest.mark.parametrize(
        "assignments",
        [[0, 1, 0, 1, 5, 5], [0, 1, 0, 1, -1, 0], [0, 0, 0, 0, 0, 0], [0, 1, 0, 1, 2, 3]],
        ids=["fold-5-of-2", "fold-minus-1", "fold-1-empty", "four-folds-of-2"],
    )
    def test_fold_plan_must_use_exactly_folds_0_to_k_minus_1(self, assignments):
        # A row in a fold outside 0..k-1 was never scored (4 of 6 rows with
        # no error), and an empty fold made cv's per-fold metrics fail.
        from peafowl import FoldPlan

        ds = Dataset.from_arrays(np.arange(12.0).reshape(6, 2), [0, 1, 0, 1, 0, 1])
        folds = FoldPlan(k=2, assignments=np.array(assignments), seed=0)
        with pytest.raises(ValueError, match=re.escape("every fold 0..1")):
            cross_validate(None, ds, folds, k=1)
