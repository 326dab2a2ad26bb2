"""Wrapper feature selection: binary positions score via a built-in KNN.

The optimizer searches bit masks over the feature columns; a mask's fitness
is the holdout accuracy of a k-nearest-neighbor classifier restricted to the
masked columns.  KNN is deterministic: distance ties prefer the lower
training-row index and even-vote ties predict the attack class.

Neighbors are ranked by the exact sum of squared differences,
``((q - t) ** 2).sum()`` in float64, over the masked columns.  One BLAS
product of ``[t, |t|^2]`` with ``[-2q, 1]`` gives the key ``|t|^2 - 2 q.t``,
which is ``|q - t|^2`` less a constant per query, and it only shortlists.
The key is training-major, one column per query, as in brute-force GEMM KNN
(Garcia, Debreuve & Barlaud 2008; Johnson, Douze & Jegou 2019), so the
bound and the shortlist scan read contiguous memory.  It is float32 unless
a value could overflow float32 (or the table is too wide for a float32
slack to shortlist anything); then it is float64.  An upper bound on each
query's k-th smallest key comes from the minima of groups of training rows,
the elementwise minimum of equal slabs of the query's column (about
sqrt(n_train / k) slabs: 16 at 800 training rows and k = 5, 128 at
100,779), and the shortlist is every row within a rounding slack of that
bound, derived for the key's dtype including the rounding of its inputs and
underflow.  It holds every row at or below the exact k-th distance, and at
least k rows, so a query's k nearest, ties included, are among its
candidates.  No row of a group whose minimum exceeds the limit can pass, so
where few groups pass, the scan tests only their rows, as the UCR suite's
lower-bound cascade skips a distance (Rakthanmanon et al. 2012); elsewhere
it tests every cell.  At perfbench ``classify``'s 20,000 training rows
about 2% of the cells (all features) and 4% (its cross-validation folds)
lie in passing groups, against half on its tie-heavy 5-feature mask.  There
distances tie because rows repeat: those 20,000 rows hold 497 distinct ones
on the 5 columns (seed 100).  So the first block whose count ends in the
full scan turns its call to the distinct rows of the used columns, once:
each is scored once, its votes weighed by its member count and label-1
count.  Only a shortlist whose labels leave the vote open is re-ranked by
the exact sum: one in which the attack rows could make half of k and the
normal rows more than half.  Any other, such as every shortlist of exactly
k rows, votes by its candidates' labels alone (a classifier needs the
majority, not the ranking; Liu, Moore & Gray 2006).  So the key's precision
never decides a neighbor, and predictions do not depend on it.

Every KNN call runs through ``_knn_predict``, a short driver over seven
stages, each a module-level function that it calls through its module name,
so that a tracer can wrap each one: :func:`_knn_setup` once per call, then
per block of queries :func:`_key_product`, :func:`_key_bound`,
:func:`_shortlist`, :func:`_vote_counts` and :func:`_rerank`; the first
block whose count ends in the full scan runs :func:`_group` after its bound
instead, and is scored again.  At perfbench sizes: ``select``'s 800 fit
rows make 16 slabs of 50 rows, too few to count, so its blocks take the
full scan and never group.  ``classify`` takes the sparse scan on all
features and on its cross-validation folds; on its 5-feature mask the first
block counts, ends in the full scan and groups, and the call scores the
distinct rows.
:func:`select_features` splits the table into fit and holdout rows once per
run and scores every mask on that split.  The split keeps column-major
copies of both sides, so a mask's columns are contiguous rows of them: 31
of 41 columns of 800 rows took 6.8 us that way against 31 us from the
row-major table (timeit), and that gather was most of a fitness call's
set-up.

Each season the optimizer hands the fitness its cutoff, the worst parent's
fitness: a newborn that does not beat it is always dropped.  So
:func:`subset_fitness` abandons a mask early, as the UCR suite does a
distance (Rakthanmanon et al. 2012): it scores the held-out rows in blocks
and stops once the errors so far hold the accuracy at or below the cutoff,
returning that bound.  Only the dropped masks stop, so no output changes.
The first block holds ``_FITNESS_ROWS`` rows and each later one all that the
cell budget allows, so at ``select`` size (800 fit and 200 held-out rows) a
mask is scored in one block or two.  There a block costs about 30 us of
NumPy calls whatever its row count, and of the cutoff fitnesses in ten
perfbench ``select`` passes, 59% stopped within the first 50 rows and 32%
never stopped: the short first block serves the former, and the latter pay
that cost twice, not once per 50 rows.  Before each season the held-out rows
are reordered, those that fully scored masks got wrong most often first, so
that a hopeless mask meets its errors early.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .data import Dataset, FoldPlan, _first_rows
from .errors import DataError
from .metrics import ConfusionCounts, MetricsReport, compute_metrics
from .optimizer import Binary, PfmParams, Problem, RunTrace, _is_real, optimize

__all__ = [
    "FeatureSubset",
    "WrapperFitnessSpec",
    "knn_classify",
    "subset_fitness",
    "select_features",
    "top_subsets",
    "evaluate_subset",
    "cross_validate",
]


def _is_int(value) -> bool:
    # A count or an index: an int or a NumPy integer, not a bool.
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class FeatureSubset:
    """A nonempty set of feature columns, stored as a 0/1 mask."""

    mask: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=float)
        if mask.ndim != 1 or not np.all((mask == 0.0) | (mask == 1.0)):
            raise ValueError("mask must be a flat vector of 0s and 1s")
        if mask.sum() < 1:
            raise ValueError("feature subset must select at least one feature")
        object.__setattr__(self, "mask", mask)

    @property
    def columns(self) -> np.ndarray:
        """0-based column indices for slicing."""
        return np.flatnonzero(self.mask)

    @property
    def indices(self) -> list[int]:
        """1-based feature indices, the reporting convention."""
        return [int(c) + 1 for c in self.columns]

    @property
    def cardinality(self) -> int:
        return int(self.mask.sum())

    @classmethod
    def from_indices(cls, indices_1based, n_features: int) -> "FeatureSubset":
        mask = np.zeros(n_features)
        for i in indices_1based:
            if not _is_int(i):  # nor is 2.0: NumPy would truncate 1.5
                raise ValueError(f"feature index must be an int, got {i!r}")
            if not 1 <= i <= n_features:
                raise ValueError(f"feature index {i} outside 1..{n_features}")
            if mask[i - 1]:
                raise ValueError(f"feature index {i} is listed more than once")
            mask[i - 1] = 1.0
        return cls(mask)


@dataclass(frozen=True)
class WrapperFitnessSpec:
    """How a candidate mask is scored: KNN accuracy on a seeded holdout.

    The holdout is stratified by label.  ``split_seed`` defaults to the
    optimizer seed inside :func:`select_features`, or 0 for direct calls.
    """

    k_neighbors: int = 5
    holdout_fraction: float = 0.2
    split_seed: Optional[int] = None

    def __post_init__(self):
        # type(), not isinstance: a bool is not a neighbour count or a seed.
        if type(self.k_neighbors) is not int:
            raise ValueError(f"k_neighbors must be an int, got {self.k_neighbors!r}")
        if self.split_seed is not None and type(self.split_seed) is not int:
            raise ValueError(f"split_seed must be an int or None, got {self.split_seed!r}")
        if not _is_real(self.holdout_fraction):
            raise ValueError(f"holdout_fraction must be a real number, got {self.holdout_fraction!r}")
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")
        if not 0.0 < self.holdout_fraction <= 0.5:
            raise ValueError("holdout_fraction must lie in (0, 0.5]")


_BLOCK_CELLS = 2_000_000  # query x training-row cells per block of keys (8 MB in float32)
_MIN_BLOCK = 40  # queries per block however many training rows: the floor under _BLOCK_CELLS // n_train
# held-out rows in subset_fitness's first block with a cutoff; the rest follow in full blocks.
# At select size uniform blocks of 20-200 rows and first blocks of 16-40 were slower.
_FITNESS_ROWS = 50
_NARROW_KEY = np.float32  # the key's dtype wherever _key_dtype admits it
# The shortlist scan tests only the rows of passing groups where those hold at most
# 1/_SPARSE_SCAN of a block's whole-slab cells, and counts them only where a slab holds at
# least _SPARSE_SCAN * k rows.  0 always takes that scan, a huge value never.
_SPARSE_SCAN = 16


def _slab_count(n_train: int, k: int) -> int:
    """Slabs of training rows whose elementwise minimum bounds each query's k-th smallest key.

    The power of two nearest sqrt(n_train / k): the bound partitions about
    n_train / slabs group minima per query, and the shortlist grows by about
    k * slabs candidates per query, so the two costs balance there.  With
    m = (n_train // k).bit_length(), 2^(m - 1) <= n_train // k, so the count
    2^(m // 2) is at most sqrt(2 * (n_train // k)): at most n_train // k
    where that is 2 or more, and 1 where it is 1.  So a slab always holds at
    least k rows, and the bound at least k groups, as the slack proof needs,
    with no clamp.
    """
    return 1 << (int(n_train // k).bit_length() // 2)


def _layout(n_rows: int, k: int) -> tuple[int, int, int, int]:
    """A key of ``n_rows`` training rows: queries per block, slabs, rows per slab, and rows in whole slabs."""
    slabs = _slab_count(n_rows, k)
    return max(_BLOCK_CELLS // n_rows, _MIN_BLOCK), slabs, n_rows // slabs, slabs * (n_rows // slabs)


def _tie_heavy(counted: bool, sparse: bool) -> bool:
    """Whether a block's scan choice turns its call to the distinct training rows.

    A block whose passing groups were counted, and hold more than
    ``1/_SPARSE_SCAN`` of its whole-slab cells, takes the full scan: ties
    crowd its shortlists, as they do where training rows repeat on the used
    columns.  The rows are then grouped, once per call.
    """
    return counted and not sparse


def _key_dtype(width: int, scale: float) -> type:
    """The shortlist key's dtype: ``_NARROW_KEY``, or float64 where that could fail.

    ``scale`` is max|q|^2 + max|t|^2 over the queries q and training rows t.
    The narrow key needs every value it holds to stay finite, and its slack
    below ``scale``; see the slack comment in :func:`_key_bound`.
    """
    info = np.finfo(_NARROW_KEY)
    if 4.0 * scale <= float(info.max) and 5.0 * (width + 2) * float(info.eps) < 1.0:
        return _NARROW_KEY
    return np.float64


def _used_columns(x: np.ndarray, mask) -> np.ndarray:
    """``mask``'s columns of ``x`` (None: all) as a C-ordered float64 array.

    Without a mask a C-ordered float64 table, as ``Dataset.from_arrays`` and
    ``knn_classify`` make, is used as it is.  A mask's columns come from
    ``np.take``: on a C-ordered table the fancy index returns a
    Fortran-ordered array, and with its reorder it took 2 to 6 times as long
    (17 to 56 against 8.7 us for 33 of 800 x 41 columns).
    """
    if mask is None:
        return np.ascontiguousarray(x, dtype=float)
    return np.take(x, mask.columns, axis=1).astype(float, copy=False)


def _take_rows(x: np.ndarray, rows: np.ndarray, columns) -> np.ndarray:
    """``rows`` of ``x``, then their ``columns`` (None: all), C-ordered: each ``np.take`` returns one."""
    taken = np.take(x, rows, axis=0)
    return taken if columns is None else np.take(taken, columns, axis=1)


def _by_column(x: np.ndarray) -> np.ndarray:
    """A C-ordered float64 copy of ``x`` transposed: one contiguous row per column."""
    return np.ascontiguousarray(x.T, dtype=float)


class _Ranked(NamedTuple):
    """The training rows that a call's key ranks: its training rows, or after
    :func:`_group`, their distinct rows in first-occurrence order.

    ``aug`` is their ``[t, |t|^2]`` in the key's dtype, ``rows`` the
    C-ordered rows that the re-rank reads, of which it takes the columns
    ``used`` (None: all), ``ones`` their label-1 counts and ``layout`` the
    ``_layout`` of their count.  ``labels`` are the training rows' labels,
    member rows' on distinct rows.  ``values``, the used training columns in
    float64, is what :func:`_group` reads, and None once it has run.  On
    distinct rows ``counts`` holds each one's member count, ``members`` the
    member rows by distinct row, each one's ascending, and ``starts`` where
    each one's members begin in ``members``.
    """

    aug: np.ndarray
    rows: np.ndarray
    used: Optional[np.ndarray]
    ones: np.ndarray
    labels: np.ndarray
    layout: tuple[int, int, int, int]
    values: Optional[np.ndarray]
    counts: Optional[np.ndarray] = None
    members: Optional[np.ndarray] = None
    starts: Optional[np.ndarray] = None


class _Queries(NamedTuple):
    """A call's queries: ``[-2q, 1]`` in the key's dtype, each one's shortlist slack, and the rows the re-rank reads."""

    aug: np.ndarray
    slack: np.ndarray
    rows: np.ndarray


class _Bound(NamedTuple):
    """A block's shortlist limit per query, and the scan its shortlist takes.

    ``passing`` holds the flat (group, query) pairs whose group minimum
    passes the limit where the sparse scan tests only their rows, else None;
    ``counted`` says whether those pairs were counted.
    """

    limit: np.ndarray
    passing: Optional[np.ndarray]
    counted: bool


def _knn_setup(
    train: Dataset, query_rows: np.ndarray, k: int, mask, columns: Optional[tuple[np.ndarray, np.ndarray]]
) -> tuple[_Ranked, _Queries]:
    """Check a call's inputs and build what every block reads: the set-up stage.

    It checks the query width, mask length, ``k`` and finiteness of the used
    columns.  It takes the used columns of the training and query rows in
    float64, picks the key's dtype, writes ``[t, |t|^2]`` into a buffer of
    that dtype and builds every query's ``[-2q, 1]`` and slack (see
    :func:`_key_bound`).  ``knn_classify`` passes no ``columns``: with no
    later call to amortize copies over, its used columns are C-ordered
    copies of the rows' (``_used_columns``).  ``subset_fitness`` passes its
    split's column-major copies of the training and query rows
    (``_Holdout``): the used columns are then contiguous rows of them, and
    both buffers are column-major, so every fill reads contiguous memory and
    the product reads their transposes.  The re-rank then reads whole rows
    of the row-major tables and takes the used columns of them.

    Memory held by the call from here on: the training columns, which are
    the table itself for ``mask=None`` on a C-ordered table or on a split,
    and one copy otherwise (on a split, of the split's column-major copies,
    which the split holds once per run, not the call); and ``[t, |t|^2]``,
    one column wider, in the key's dtype (4 bytes a value in float32).  A
    float64 key makes ``[t, |t|^2]`` a second float64 copy of the training
    columns; a copied table then holds about twice its used columns, where a
    float32 key holds one and a half times.
    """
    if query_rows.shape[1] != train.n_features:
        raise ValueError(f"feature counts differ: {query_rows.shape[1]} in queries, {train.n_features} in training")
    if mask is not None and mask.mask.size != train.n_features:
        raise ValueError("mask length does not match the feature count")
    if not _is_int(k):
        raise ValueError(f"k must be an int, got {k!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > train.n_rows:
        raise ValueError(f"k={k} exceeds the {train.n_rows} training rows")
    if columns is None:
        train_x, query_x = _used_columns(train.features, mask), _used_columns(query_rows, mask)
        rank_train, rank_query, used = train_x, query_x, None
    else:
        used = None if mask is None else mask.columns  # once: each access runs flatnonzero, about 2 us
        # (n, width) views of the mask's columns, taken as contiguous rows of the copies
        train_x, query_x = (c.T if used is None else np.take(c, used, axis=0).T for c in columns)
        rank_train, rank_query = train.features, query_rows
    order = "C" if columns is None else "F"  # so filling [t, |t|^2] and [-2q, 1] reads contiguous memory
    width = train_x.shape[1]
    train_sq = np.einsum("ij,ij->i", train_x, train_x)
    query_sq = np.einsum("ij,ij->i", query_x, query_x)
    train_max = train_sq.max()
    scale = query_sq.max(initial=0.0) + train_max
    # A NaN or inf value makes its row's sum of squares non-finite, and so
    # the sum of the largest ones, so only then are the cells scanned; a
    # finite row may also overflow, and passes.  ``argwhere`` finds the first
    # bad cell in row-major order in either memory order.
    if not np.isfinite(scale):
        for side, values, sq in (("training", train_x, train_sq), ("query", query_x, query_sq)):
            if not np.isfinite(sq).all():
                bad = np.argwhere(~np.isfinite(values))
                if bad.size:
                    row, col = bad[0]
                    feature = (col if mask is None else mask.columns[col]) + 1
                    raise DataError(f"{side} row {row + 1}, feature {feature} is not finite ({values[row, col]})")
    dtype = _key_dtype(width, scale)
    info = np.finfo(dtype)
    key_aug = np.empty((train.n_rows, width + 1), dtype, order)
    key_aug[:, :width] = train_x
    key_aug[:, width] = train_sq
    query_aug = np.empty((query_x.shape[0], width + 1), dtype, order)
    np.multiply(query_x, -2.0, out=query_aug[:, :width])
    query_aug[:, width] = 1.0
    query_slack = 5.0 * (width + 2) * (info.eps * (query_sq + train_max) + info.smallest_subnormal)
    ranked = _Ranked(key_aug, rank_train, used, train.labels, train.labels, _layout(train.n_rows, k), train_x)
    return ranked, _Queries(query_aug, query_slack, rank_query)


def _key_product(ranked: _Ranked, query_aug: np.ndarray) -> np.ndarray:
    """A block's key, training rows by queries: ``|t|^2 - 2q.t``, which is ``|q - t|^2`` less the query's ``|q|^2``.

    One BLAS product of ``[t, |t|^2]`` with the block's ``[-2q, 1]``.  It is
    at most ``max(_BLOCK_CELLS, _MIN_BLOCK * n_train)`` cells (the floor
    passes the budget above 50,000 training rows: 16 MB of float32 at
    100,779), and the block holds it through its bound and shortlist only.
    """
    return ranked.aug @ query_aug.T


def _key_bound(key: np.ndarray, layout: tuple[int, int, int, int], slack: np.ndarray, k: int) -> _Bound:
    """Each query's shortlist limit, an upper bound on its k-th smallest key plus its slack, and the count.

    Split each query's column of the key into ``slabs`` slabs of L =
    ``slab_rows`` rows and take their elementwise minimum, each remainder
    row a group of its own, so group j holds rows j, j + L, ...  The groups
    are disjoint and there are at least k of them (``_slab_count``), so the
    k smallest group minima are k distinct cells of the column, all at most
    the k-th of them.  The slabs are contiguous, so their minimum runs down
    whole slabs; the bound partitions a query-major copy of the groups.

    No row of a group whose minimum exceeds the limit can pass it, and a NaN
    makes its group's minimum NaN, which passes.  So where a slab holds at
    least ``_SPARSE_SCAN * k`` rows, the (group, query) pairs whose group
    minimum is not greater than the limit are counted, and if their rows are
    at most ``1/_SPARSE_SCAN`` of the whole-slab cells, the shortlist tests
    only those rows (the sparse scan).  Each query passes at least k groups,
    so where a slab holds fewer rows the pairs could pass the share only if
    remainder rows were among those k, and they are not counted.  The group
    minima, 1/slabs of the key, are released at the return, before either
    scan.
    """
    _, slabs, slab_rows, span = layout
    n_query = key.shape[1]
    minima = key[:span].reshape(slabs, -1).min(axis=0).reshape(-1, n_query)  # group j's minimum, every query
    groups = np.concatenate([minima, key[span:]]).T.copy()
    groups.partition(k - 1, axis=1)
    # Shortlist slack, after the dot-product error bounds of Higham,
    # "Accuracy and Stability of Numerical Algorithms", ch. 3.  Let eps be
    # the key dtype's epsilon, u = eps/2 and eta its smallest subnormal;
    # w = width, S = |q|^2 + max|t|^2, and D = |q - t|^2 <= 2S the true
    # distance.  A cast, product or fused multiply-add errs by at most u
    # relative plus, where its result underflows, eta/2 absolute; a sum
    # that underflows is exact.  So in any summation order, which is the
    # BLAS kernel's to choose:
    # - exact, in float64, is within (w + 2)eps64.S + w.eta64/2 of D;
    # - |t|^2, a float64 sum, is within w.u64.S + w.eta64/2 of its value;
    # - a float32 key rounds -2q, t and |t|^2 once more, which moves
    #   |t|^2 - 2q.t by at most u.S (|t|^2) + 2u.S (the relative part of
    #   the products) + 2u.S (their absolute part: eta/2 times |y|, for y
    #   = 2q_i or t_i, is at most u.y^2/2 + eta^2/8u) + eta/2 (|t|^2);
    # - key, a (w + 1)-term dot product of those inputs whose absolute
    #   terms sum to at most |q|^2 + 2|t|^2 <= 2S, is within
    #   (w + 1)(eps.S + eta/2) of their exact dot product.
    # Hence |key + |q|^2 - exact| <= E for every row, with 2E at most
    # (5w + 6)eps.S + (3w + 1)eta for a float64 key, and (2w + 7)eps.S +
    # (w + 2)eta, plus float64 terms under 2^-27 of that, for a float32
    # one.  The k-th smallest of each differ by at most E, the bound is at
    # least the k-th smallest key, and any row whose exact distance is at
    # most the exact k-th one has key <= bound + 2E.  5(w + 2)(eps.S + eta)
    # covers both with at least 4eps.S to spare for second-order terms,
    # and bound + slack, summed in float64, is rounded up to the key's
    # dtype.  _key_dtype takes float32 only where 4S fits in it and
    # 5(w + 2)eps < 1, so (w + 1)u < 0.05: every value the key holds
    # (products <= 1.01S, sums and keys < 3S, bound + slack < 4S) is then
    # finite, and no kept row's key can overflow past the limit.  Last,
    # the count: the k cells behind the k smallest group minima have keys
    # at most bound, so they are kept, and the shortlist holds at least k
    # rows.  It also holds every row whose exact distance is at most the
    # exact k-th one, and there are at least k of those.  So it holds the
    # k nearest, whichever rows the tie rule picks at the k-th distance.
    # On distinct rows, let every member row have its distinct row's key,
    # one within E of their common exact distance: the k distinct rows
    # behind the k smallest group minima hold at least k member rows, so
    # bound is at least the k-th smallest of those keys, and all of the
    # above holds for the member rows of the candidates.
    limit = np.nextafter((groups[:, k - 1] + slack).astype(key.dtype), key.dtype.type(np.inf))
    del groups
    counted = slab_rows >= _SPARSE_SCAN * k
    passing = np.flatnonzero(~(minima > limit)) if counted else None
    sparse = counted and passing.size * _SPARSE_SCAN <= minima.size
    return _Bound(limit, passing if sparse else None, counted)


def _shortlist(key: np.ndarray, bound: _Bound, layout: tuple[int, int, int, int]) -> np.ndarray:
    """A block's candidates, the cells whose key is not greater than the query's limit, as flat indices of the key.

    "Not greater" also keeps rows whose float64 terms overflowed to inf or
    NaN.  The sparse scan tests only the rows of the passing groups, laid
    out (slabs, pairs): slab by slab, the same cells in the same ascending
    order as the full scan, which compares each slab with the limit tiled to
    its length.  Either way the remainder rows follow, so candidates come by
    training row, then query: within each query the training rows ascend.

    The full scan holds two boolean arrays of the key's size; the sparse
    scan the int64 indices of the cells it tests, at most ``1/_SPARSE_SCAN``
    of the key's cells (half a byte a cell), with their keys and a boolean
    mask.  The driver releases the key after it, before
    :func:`_vote_counts` splits the indices into training rows and queries.
    """
    _, slabs, slab_rows, span = layout
    n_query, passing = key.shape[1], bound.passing
    if passing is not None:
        cells = passing + np.arange(0, span * n_query, slab_rows * n_query)[:, None]
        flat = cells[~(key.ravel()[cells] > bound.limit[passing % n_query])]
        del cells
    else:
        flat = np.flatnonzero(~(key[:span].reshape(slabs, -1) > np.tile(bound.limit, slab_rows)))
    if span < key.shape[0]:
        flat = np.concatenate([flat, span * n_query + np.flatnonzero(~(key[span:] > bound.limit))])
    return flat


def _group(ranked: _Ranked, k: int) -> _Ranked:
    """The rows for the key to rank once a block reads tie-heavy: the distinct rows of the used columns, or the same.

    It groups the used training columns with ``data._first_rows``.  Where
    at least k distinct rows result, fewer than the rows, the key ranks them
    from here on: each counts its member rows and their label-1 count in the
    vote, and blocks and slabs are sized for them.  k distinct rows hold at
    least k rows, so the bound and the shortlist keep their proof.
    Otherwise the rows stay as they were, and the grouping was paid for
    nothing.  Either way a call groups once: the record returned holds no
    ``values``.

    The block's key is released first.  The grouping holds two float64
    copies of the used columns (``+ 0.0`` and its rows sorted), then at most
    eight int64 values a row, briefly.  After it a call on distinct rows
    holds their rows for the re-rank (on a split, whole rows) and
    ``[t, |t|^2]`` in place of the rows', one int64 member row a training
    row, and three values a distinct row; its keys span the distinct rows.
    """
    first, inverse = _first_rows(ranked.values)
    if not k <= first.size < ranked.values.shape[0]:
        return ranked._replace(values=None)
    rows, aug = ranked.rows[first], ranked.aug[first]
    counts = np.bincount(inverse)
    ones = np.bincount(inverse, weights=ranked.labels)
    # by distinct row, then ascending; ids of at most 16 bits sort by radix
    members = np.argsort(inverse.astype(np.min_scalar_type(first.size)), kind="stable")
    starts = np.cumsum(counts) - counts
    return _Ranked(aug, rows, ranked.used, ones, ranked.labels, _layout(first.size, k), None, counts, members, starts)


def _vote_counts(ranked: _Ranked, flat: np.ndarray, n_query: int, k: int) -> tuple:
    """Each query's label-1 and total candidate rows, which queries those leave open, and the open ones' candidates.

    A query's k nearest are k of its c >= k candidates, so they hold x
    attack rows, max(0, k - zeros) <= x <= min(k, ones), where ones and
    zeros count its candidates' labels.  Its vote, 2x >= k, is open exactly
    when the ends vote apart: 2 max(0, k - zeros) < k <= 2 min(k, ones),
    that is 2 zeros > k and 2 ones >= k.  Otherwise both ends give the vote,
    and so does 2 ones >= k over all candidates: ones is at least the lower
    end, and is the upper end where that votes 0.  With c = k the ends
    meet, so the vote is never open.  On distinct rows each candidate counts
    its member rows.  The open queries' candidates come grouped by query,
    as (queries, training rows), or None where no query is open; the
    block's whole candidate lists end at the return.
    """
    train_ids, query_ids = np.divmod(flat, n_query)
    ones = np.bincount(query_ids, weights=ranked.ones[train_ids], minlength=n_query)
    weights = None if ranked.counts is None else ranked.counts[train_ids]
    counts = np.bincount(query_ids, weights=weights, minlength=n_query)
    undecided = (2 * ones >= k) & (2 * (counts - ones) > k)
    if not undecided.any():
        return ones, counts, undecided, None
    keep = undecided[query_ids]
    query_ids, train_ids = query_ids[keep], train_ids[keep]
    # Group the candidates by query.  The sort is stable, so each query's
    # training rows stay ascending, also where uint16 wraps two queries of a
    # block over 65,535 into one group.
    order = np.argsort(query_ids.astype(np.uint16), kind="stable")
    return ones, counts, undecided, (query_ids[order], train_ids[order])


def _rerank(ranked: _Ranked, query_rows: np.ndarray, tallies: tuple, k: int) -> np.ndarray:
    """A block's votes: open queries by their k nearest candidates on the exact distance, the rest by their counts.

    Only the open queries' candidates, grouped by query, get exact distances
    from rows that ``np.take`` gathers (``_take_rows``: on a split, whole
    rows of the row-major tables, then the used columns, so the differences
    are C-ordered rows on either path and their sums keep NumPy's order),
    and a sort, after which each query's k nearest are the first k of its
    group.  On distinct rows each candidate gives the sort
    its first ``min(members, k)`` member rows at its exact distance: equal
    rows tie, so the lower ones win, and the sort's last key is the training
    row.  A block with no open query skips both and votes by its counts.
    It holds slices of at most ``_BLOCK_CELLS`` gathered values (on a
    split, whole rows, gathered before their used columns), so a shortlist
    swollen by ties keeps memory bounded.
    """
    ones, counts, undecided, open_candidates = tallies
    if open_candidates is not None:
        query_ids, train_ids = open_candidates
        # ``.sum(axis=1)`` keeps NumPy's own order: a column-by-column sum
        # would be faster on narrow masks, but to give the same bits it
        # would have to copy NumPy's 8-way order for rows of 8 or more.
        rows, used, step = ranked.rows, ranked.used, max(1, _BLOCK_CELLS // max(1, ranked.rows.shape[1]))
        exact = np.empty(query_ids.size)
        for at in range(0, query_ids.size, step):
            r, c = query_ids[at : at + step], train_ids[at : at + step]
            exact[at : at + step] = ((_take_rows(query_rows, r, used) - _take_rows(rows, c, used)) ** 2).sum(axis=1)
        if ranked.members is None:
            # Per query by exact distance, lower training row first on ties:
            # each query's training rows come ascending and lexsort is stable.
            order = np.lexsort((exact, query_ids))
            sizes = counts[undecided]
        else:
            # At most the first k members of a distinct row can be among a
            # query's k nearest, and only those are taken.  Members of rows
            # at one distance interleave, so the training row is the last key.
            taken = np.minimum(ranked.counts[train_ids], k)
            ends = np.cumsum(taken)
            at = np.arange(ends[-1]) + np.repeat(ranked.starts[train_ids] - (ends - taken), taken)
            query_ids, exact, train_ids = np.repeat(query_ids, taken), np.repeat(exact, taken), ranked.members[at]
            order = np.lexsort((train_ids, exact, query_ids))
            sizes = np.bincount(query_ids, minlength=undecided.size)[undecided]
        # The open queries' groups follow in query order, so the k nearest
        # of each are the first k of its group.
        firsts = (np.cumsum(sizes) - sizes)[:, None] + np.arange(k)
        ones[undecided] = ranked.labels[train_ids[order[firsts]]].sum(axis=1)
    return (2 * ones >= k).astype(int)


def _knn_predict(
    train: Dataset,
    query_rows: np.ndarray,
    k: int,
    mask,
    first_block: Optional[int] = None,
    columns: Optional[tuple[np.ndarray, np.ndarray]] = None,
):
    """Yield the KNN votes (0 or 1) of ``query_rows`` on ``mask``'s columns (None: all), block by block.

    Every KNN call runs through here.  After :func:`_knn_setup`, a block
    holds ``max(_BLOCK_CELLS // n_train, _MIN_BLOCK)`` queries, and the
    first at most ``first_block``: the cell budget, with a floor so that a
    large training table does not pay the per-block cost for every few
    queries (at 100,779 training rows the budget alone gives 19).  The
    set-up runs once, so a caller may stop after any block at the cost of
    the blocks it drew.  Each block runs :func:`_key_product`,
    :func:`_key_bound`, :func:`_shortlist`, :func:`_vote_counts` and
    :func:`_rerank`.  The first block whose count ends in the full scan
    (``_tie_heavy``) runs :func:`_group` after its bound, once per call, and
    is scored again on the rows it returns.  Each stage is called through
    its module name.  The key is released before the grouping and after the
    shortlist, so no two keys are held at once and neither the vote counts
    nor the re-rank hold one.
    """
    ranked, queries = _knn_setup(train, query_rows, k, mask, columns)
    start, stop = 0, ranked.layout[0] if first_block is None else min(ranked.layout[0], first_block)
    while start < queries.slack.size:
        key = _key_product(ranked, queries.aug[start:stop])
        bound = _key_bound(key, ranked.layout, queries.slack[start:stop], k)
        if ranked.values is not None and _tie_heavy(bound.counted, bound.passing is not None):
            del key  # so that the grouping's copies do not join it
            ranked = _group(ranked, k)
            continue
        flat = _shortlist(key, bound, ranked.layout)
        del key
        yield _rerank(ranked, queries.rows[start:stop], _vote_counts(ranked, flat, bound.limit.size, k), k)
        start, stop = stop, stop + ranked.layout[0]


def knn_classify(
    train: Dataset, query_rows, k: int, mask: Optional[FeatureSubset] = None
) -> np.ndarray:
    """Majority label among the k nearest training rows on masked columns.

    ``mask=None`` means all columns.  Distances are the exact sum of squared
    differences over those columns (Euclidean order); a Gram-form matrix
    product only shortlists candidates for it.  Ties are broken
    deterministically: lower training-row index first, and even votes go to
    class 1.  A NaN or infinite value in a used column of the training or
    query rows raises :class:`DataError` naming its row and feature (1-based).
    """
    query_rows = np.atleast_2d(np.ascontiguousarray(query_rows, dtype=float))
    votes = list(_knn_predict(train, query_rows, k, mask))
    return np.concatenate(votes) if votes else np.empty(0, dtype=int)


@dataclass(frozen=True)
class _Holdout:
    """A training table split into the rows KNN fits on and the held-out rows it scores.

    ``misses[i]`` counts the masks scored to the end that got held-out row i
    wrong; it only orders the rows that an abandoned mask scores.
    ``fit_columns`` and ``held_columns`` are column-major float64 copies of
    the two sides' features (``_by_column``), so that each mask's columns
    are contiguous rows of them.  The fit side's copy is made once per run
    and each reordering makes the held-out side's.  Together they hold one
    more copy of the table: about 0.3 MB at perfbench ``select`` size and
    41 MB at NSL-KDD's 125,973 x 41 rows.
    """

    fit: Dataset
    held: Dataset
    misses: np.ndarray
    fit_columns: np.ndarray
    held_columns: np.ndarray

    def hardest_first(self) -> "_Holdout":
        """The same split, held-out rows reordered by misses, most first, ties kept in order."""
        order = np.argsort(-self.misses, kind="stable")
        held = self.held.take(order)
        return _Holdout(self.fit, held, self.misses[order], self.fit_columns, _by_column(held.features))


def _holdout_split(train: Dataset, spec: WrapperFitnessSpec) -> _Holdout:
    """``train``'s fit and held-out rows, ``spec.holdout_fraction`` of each label's rows held out."""
    rng = np.random.default_rng(0 if spec.split_seed is None else spec.split_seed)
    held = []
    for cls in np.unique(train.labels):
        idx = np.flatnonzero(train.labels == cls)
        perm = rng.permutation(idx)
        held.append(perm[: max(1, int(round(spec.holdout_fraction * idx.size)))])
    held = np.sort(np.concatenate(held)) if held else np.empty(0, dtype=int)  # a table without rows has no class
    fit = np.setdiff1d(np.arange(train.n_rows), held)
    if fit.size == 0 or held.size == 0:
        raise DataError("degenerate holdout split: one side is empty")
    fit, held = train.take(fit), train.take(held)
    return _Holdout(fit, held, np.zeros(held.n_rows, dtype=int), _by_column(fit.features), _by_column(held.features))


def subset_fitness(
    mask: Optional[FeatureSubset],
    train: Dataset | _Holdout,
    spec: WrapperFitnessSpec,
    cutoff: Optional[float] = None,
) -> float:
    """Holdout accuracy in [0, 1] of KNN restricted to the masked columns (None: all).

    ``train`` is the split that :func:`select_features` makes once per run,
    or a :class:`Dataset`, split by ``spec`` the same way.  With a
    ``cutoff``, scoring stops once the errors so far bound the accuracy at
    or below it, and that bound is returned: a value at most ``cutoff``, as
    is the exact accuracy.
    """
    split = train if isinstance(train, _Holdout) else _holdout_split(train, spec)
    labels, n = split.held.labels, split.held.n_rows
    wrong = np.empty(n, dtype=bool)
    errors, start = 0, 0
    # Without a cutoff nothing can stop early, so the first block takes its full size too.
    first_block = None if cutoff is None else _FITNESS_ROWS
    columns = (split.fit_columns, split.held_columns)
    for votes in _knn_predict(split.fit, split.held.features, spec.k_neighbors, mask, first_block, columns):
        stop = start + votes.size
        errors += int(np.count_nonzero(np.not_equal(votes, labels[start:stop], out=wrong[start:stop])))
        start = stop
        if cutoff is not None and start < n and (n - errors) / n <= cutoff:
            break
    else:  # scored to the end: only such masks count misses
        split.misses[wrong] += 1
    return (n - errors) / n


def _repair_empty_mask(position: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    # The transfer layer may emit the empty subset; switch one random bit on.
    if position.sum() == 0:
        position = position.copy()
        position[int(rng.integers(0, position.size))] = 1.0
    return position


def select_features(
    train: Dataset, params: PfmParams, spec: WrapperFitnessSpec
) -> tuple[FeatureSubset, RunTrace]:
    """Search feature masks maximizing wrapper fitness; returns the best mask and the trace.

    The final population is ranked by ``_best_first``, as in :func:`top_subsets`: fitness
    ties go to fewer features, then the optimizer's order.  The mask is its row 0.
    """
    if train.n_features < 2:
        raise DataError("need at least 2 features to select from")
    if np.unique(train.labels).size < 2:
        raise DataError("training data contains a single class")
    resolved = spec if spec.split_seed is not None else replace(spec, split_seed=params.seed)
    split = _holdout_split(train, resolved)  # every evaluation scores the same split

    def objective(rows, cutoff):
        # One KNN fitness per mask, through the module-level name, the rows
        # that earlier masks got wrong scored first.
        nonlocal split
        split = split.hardest_first()
        return [subset_fitness(FeatureSubset(row), split, resolved, cutoff) for row in rows]

    problem = Problem(
        dimension=train.n_features,
        domain=Binary(),
        objective=objective,
        sense="max",
        repair=_repair_empty_mask,
    )
    trace = optimize(problem, params)
    trace.final_population = _best_first(trace.final_population)
    return FeatureSubset(trace.best_solution.position), trace


def _best_first(population):
    """A ``(positions, fitness)`` reordered best first: fitness descending, then fewer features, then row order."""
    positions, fitness = population
    order = np.lexsort((positions.sum(axis=1), -fitness))  # stable: rows that tie keep their order
    return positions[order], fitness[order]


def top_subsets(population, n: int) -> list[tuple[FeatureSubset, float]]:
    """Best n distinct masks of a final ``(positions, fitness)``: each mask's first row in ``_best_first`` order."""
    if not _is_int(n):
        raise ValueError(f"top_subsets must be an int, got {n!r}")
    if n < 1:
        raise ValueError(f"top_subsets must be >= 1, got {n}")
    positions, fitness = _best_first(population)
    first, _ = _first_rows(positions)
    return [(FeatureSubset(positions[i]), float(fitness[i])) for i in first[:n]]


def evaluate_subset(
    mask: Optional[FeatureSubset], train: Dataset, test: Dataset, k: int
) -> ConfusionCounts:
    """Classify every test row against the training set; tally the confusion counts.

    ``mask=None`` evaluates on all features (identical to the all-ones mask).
    """
    if (
        train.provenance is not None
        and test.provenance is not None
        and train.provenance != test.provenance
    ):
        raise DataError("train and test datasets come from different transforms")
    preds = knn_classify(train, test.features, k, mask)
    return ConfusionCounts.from_predictions(preds, test.labels)


def cross_validate(
    mask: Optional[FeatureSubset], data: Dataset, folds: FoldPlan, k: int
) -> tuple[list[ConfusionCounts], MetricsReport]:
    """Per-fold confusion counts plus metrics of the elementwise-pooled counts."""
    if folds.assignments.size != data.n_rows:
        raise ValueError("fold plan does not cover the dataset")
    if not np.array_equal(np.unique(folds.assignments), np.arange(folds.k)):
        raise ValueError(f"fold plan must assign rows to every fold 0..{folds.k - 1} and to no other")
    per_fold = []
    for fold in range(folds.k):
        test_idx = folds.fold_indices(fold)
        train_idx = np.flatnonzero(folds.assignments != fold)
        train_part = data.take(train_idx)
        if np.unique(train_part.labels).size < 2:
            warnings.warn(f"fold {fold}: training portion has a single class")
        preds = knn_classify(train_part, data.features[test_idx], k, mask)
        per_fold.append(ConfusionCounts.from_predictions(preds, data.labels[test_idx]))
    return per_fold, compute_metrics(sum(per_fold, ConfusionCounts()))
