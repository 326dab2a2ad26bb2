"""Peafowl-mating optimizer for continuous and binary search spaces.

Candidate solutions ("peafowls") are ranked by fitness each mating season and
split into males and females; the strongest males are dominant and take
several mates.  A newborn combines its parents coordinate-wise and carries an
additive mutation term.  Elitist truncation keeps the population size fixed,
so the best solution found is never lost.  The population is an ``(n, d)``
position matrix and an ``(n,)`` fitness vector, kept best-first; a season
where no newborn enters returns its input arrays, not copies.

Randomness discipline: every run owns a single ``numpy.random.Generator``
seeded from ``PfmParams.seed`` and consumes from it in a fixed order, making
runs bit-reproducible.  Initialization draws the position matrix in one call,
then runs any repair per row.  Seasons run in windows, each kind of draw one
generator call per window; :func:`run_season` gives the draw order, the
window sizes (a box run draws seasons ahead) and the spans of seasons that
one objective call scores.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Callable, Optional, Union

import numpy as np

from .errors import EvaluationError
from .transfer import binarize

__all__ = [
    "Peafowl",
    "PfmParams",
    "ContinuousBox",
    "Binary",
    "Problem",
    "RunTrace",
    "attractiveness",
    "split_population",
    "mate",
    "initialize_population",
    "run_season",
    "optimize",
]

Population = tuple[np.ndarray, np.ndarray]  # positions (a row each) and fitness, best first

# Seasons in a box window, which run_season draws ahead and mates together: the
# speedup of a default campaign levels off above 16.  The constant is part of the
# random stream, so changing it moves the answer of every box run and every box golden.
_SEASONS_AHEAD = 16


@dataclass
class Peafowl:
    """The best solution of a run: its position vector and fitness."""

    position: np.ndarray
    fitness: float


def _is_real(value) -> bool:
    # A bool is a numbers.Real too, but not a coefficient.
    return isinstance(value, numbers.Real) and type(value) is not bool


@dataclass(frozen=True)
class PfmParams:
    """Algorithm constants.

    Defaults follow the published parameterisation: unit sound-distortion and
    color-absorption coefficients, call intensity and colorfulness of 0.1,
    dominance factor 0.8 and the male-fraction draw in [0.4, 0.6].
    """

    population_size: int = 30
    max_iterations: int = 500
    seasons_per_iteration: int = 3
    call_intensity: float = 0.1
    colorfulness: float = 0.1
    gamma1: float = 1.0
    gamma2: float = 1.0
    dominance_factor: float = 0.8
    r_range: tuple[float, float] = (0.4, 0.6)
    seed: int = 0

    def __post_init__(self):
        # type(), not isinstance: a bool is not a count or a seed.
        for name in ("population_size", "max_iterations", "seasons_per_iteration", "seed"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.population_size < 4:
            raise ValueError(
                "population_size must be >= 4 to guarantee at least one "
                f"male, female and dominant male (got {self.population_size})"
            )
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.seasons_per_iteration < 1:
            raise ValueError("seasons_per_iteration must be positive")
        for name in ("call_intensity", "colorfulness", "gamma1", "gamma2", "dominance_factor"):
            if not _is_real(getattr(self, name)):
                raise ValueError(f"{name} must be a real number, got {getattr(self, name)!r}")
        for name in ("call_intensity", "colorfulness", "gamma1", "gamma2"):
            # A NaN fails every comparison, so ask for 0 <= value < inf.
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {getattr(self, name)!r}")
        if not 0.0 <= self.dominance_factor <= 1.0:
            raise ValueError("dominance_factor must lie in [0, 1]")
        pair = self.r_range
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2 and all(map(_is_real, pair))):
            raise ValueError(f"r_range must be a pair of real numbers, got {pair!r}")
        object.__setattr__(self, "r_range", tuple(pair))  # a list would make the params unhashable
        lo, hi = self.r_range
        if not (0.0 < lo <= hi < 1.0):
            raise ValueError(f"r_range must satisfy 0 < lo <= hi < 1, got {self.r_range}")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class ContinuousBox:
    """Box domain; newborn coordinates are clamped into it."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        if self.lower.shape != self.upper.shape:
            raise ValueError("lower and upper bounds must have the same length")
        if not (np.isfinite(self.lower).all() and np.isfinite(self.upper).all()):
            raise ValueError("bounds must be finite")
        if np.any(self.lower >= self.upper):
            raise ValueError("each lower bound must be strictly below its upper bound")


@dataclass(frozen=True)
class Binary:
    """Bit-vector domain; newborns pass through the tanh transfer layer."""


@dataclass
class Problem:
    """An objective over a box or bit-vector domain.

    ``objective(rows, cutoff)`` maps an ``(m, dimension)`` matrix to ``m``
    fitness values, one per row.  :func:`optimize` passes ``rows`` as a
    C-ordered float64 array, the layout in which the benchmark functions give
    a row the same bits in any batch.  ``cutoff`` is None or a fitness value:
    for a row whose value would not beat it (at or above it for ``"min"``, at
    or below it for ``"max"``) the objective may instead return any finite
    value that does not beat it either, such as a bound reached before the
    exact value is known.  ``repair`` is an optional hook applied to one
    position after domain adjustment, e.g. to forbid the empty feature
    subset; it may consume draws from the run generator.  On a box domain the
    objective may be handed rows that the run then discards
    (:func:`run_season`).  An objective may keep state, such as a noise
    generator: its values then depend on every row it is handed, discarded
    ones included.
    """

    dimension: int
    domain: Union[ContinuousBox, Binary]
    objective: Callable[[np.ndarray, Optional[float]], np.ndarray]
    sense: str = "min"
    repair: Optional[Callable[[np.ndarray, np.random.Generator], np.ndarray]] = None

    def __post_init__(self):
        # type(), not isinstance: a bool is not a dimension.
        if type(self.dimension) is not int:
            raise ValueError(f"dimension must be an int, got {self.dimension!r}")
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        if isinstance(self.domain, ContinuousBox) and self.domain.lower.size != self.dimension:
            raise ValueError("bound vectors must match the problem dimension")


@dataclass
class RunTrace:
    """Result of one optimizer run.

    ``newborns[i]`` counts iteration i's newborns, ``survivors[i]`` those that
    truncation kept.
    """

    best_per_iteration: list[float]
    final_population: Population
    newborns: list[int]
    survivors: list[int]

    @property
    def best_solution(self) -> Peafowl:
        """Row 0 of the best-first final population, its position a copy."""
        positions, fitness = self.final_population
        return Peafowl(positions[0].copy(), float(fitness[0]))

    @property
    def evaluations(self) -> int:
        """Positions evaluated: the initial population, then every newborn.

        Not the rows the objective got: on a box domain these include rows
        scored ahead and then discarded (:func:`run_season`).
        """
        return len(self.final_population[1]) + sum(self.newborns)


def attractiveness(d, params: PfmParams):
    """I0·exp(-γ1·d) + C0·exp(-γ2·d), elementwise: strictly decreasing in d >= 0, at most I0 + C0."""
    return params.call_intensity * np.exp(-params.gamma1 * d) + params.colorfulness * np.exp(-params.gamma2 * d)


def split_population(n: int, r: Union[float, np.ndarray], alpha: float):
    """Head-count split for one season: ``(n_males, n_dominant)``, or arrays of them for an array of ``r``.

    Males are round(n*r) clamped into [1, n-1], the other n - n_males are
    females; dominant males are round(n_males*alpha) clamped into
    [1, n_males].  Rounding is half-up: floor(x + 0.5) in doubles.
    """
    if n < 4:
        raise ValueError(f"population too small to split: need n >= 4, got {n}")
    n_males = np.minimum(np.maximum(np.floor(n * r + 0.5), 1), n - 1)
    n_dominant = np.minimum(np.maximum(np.floor(n_males * alpha + 0.5), 1), n_males)
    return n_males.astype(int), n_dominant.astype(int)


def mate(fathers: np.ndarray, mothers: np.ndarray, params: PfmParams, noise: np.ndarray) -> np.ndarray:
    """Raw newborn positions (before domain adjustment), one row per pair of parent rows.

    Per coordinate: father*mother + (father - mother) * A + rand * e^(g1*g2),
    where A is the attractiveness at the pair's distance sqrt(d·d), d = father
    - mother, and rand is the matching entry of ``noise``, uniform in [-1, 1].
    ``noise`` is read, never written, so a window that mates again reuses it.
    A row's result does not depend on the other rows.
    """
    if fathers.ndim != 2 or fathers.shape != mothers.shape or noise.shape != fathers.shape:
        raise ValueError(f"dimension mismatch: {fathers.shape} vs {mothers.shape} vs noise {noise.shape}")
    # float64 even for integer parents, as the in-place steps below need.
    diff = np.subtract(fathers, mothers, dtype=float)
    a = attractiveness(np.sqrt(np.einsum("ij,ij->i", diff, diff)), params)
    # In place, but summed in the order of the formula above.
    raw = np.multiply(fathers, mothers, dtype=float)
    diff *= a[:, None]
    raw += diff
    raw += np.multiply(noise, math.exp(params.gamma1 * params.gamma2), out=diff)
    return raw


def _per_row(rows: np.ndarray, problem: Problem, rng: np.random.Generator, transfer: bool) -> np.ndarray:
    """In place, row by row: the transfer draws if ``transfer``, then any repair."""
    if transfer or problem.repair is not None:
        for i, row in enumerate(rows):
            if transfer:
                row = binarize(row, rng)
            if problem.repair is not None:
                row = problem.repair(row, rng)
            rows[i] = row
    return rows


def _evaluate(problem: Problem, rows: np.ndarray, cutoff: Optional[float]) -> np.ndarray:
    values = np.asarray(problem.objective(rows, cutoff), dtype=float)
    if values.shape != (len(rows),):
        raise EvaluationError(f"objective returned shape {values.shape} for {len(rows)} rows")
    return values


def _check_finite(rows: np.ndarray, values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        bad = np.flatnonzero(~np.isfinite(values))[0]
        raise EvaluationError(f"objective returned {float(values[bad])!r} at position {rows[bad].tolist()}")


def _best_first(fitness: np.ndarray, sense: str) -> np.ndarray:
    # A stable sort, also for "max": ties keep their order.
    return np.argsort(fitness if sense == "min" else -fitness, kind="stable")


def initialize_population(problem: Problem, params: PfmParams, rng: np.random.Generator) -> Population:
    """Uniform random population over the domain, evaluated and ranked best-first.

    One call draws the ``(population_size, dimension)`` matrix, a fair coin
    per bit or a uniform coordinate within its bounds; then any repair per row.
    """
    shape = (params.population_size, problem.dimension)
    if isinstance(problem.domain, Binary):
        positions = (rng.random(shape) < 0.5).astype(float)
    else:
        positions = rng.uniform(problem.domain.lower, problem.domain.upper, size=shape)
    positions = _per_row(positions, problem, rng, transfer=False)
    fitness = _evaluate(problem, positions, None)
    _check_finite(positions, fitness)
    order = _best_first(fitness, problem.sense)
    return positions[order], fitness[order]


def _draw_window(n: int, params: PfmParams, rng: np.random.Generator, dimension: int, count: int):
    """Draws (1)-(4) of a window of ``count`` seasons (:func:`run_season`): every pair's
    father and mother rank, the pairs' ``(pairs, dimension)`` noise and each season's pair count."""
    lo, hi = params.r_range
    males, dominant = split_population(n, lo + (hi - lo) * rng.random(count), params.dominance_factor)
    firsts = np.cumsum(males) - males  # each season's first male among the window's
    fathers = np.arange(males.sum()) - np.repeat(firsts, males)  # a male's rank in its season
    sizes = males
    max_mates = (n - males) // dominant
    if (max_mates > 1).any():
        several = fathers < np.repeat(np.where(max_mates > 1, dominant, 0), males)
        mates = np.ones(len(fathers), dtype=int)
        mates[several] = rng.integers(1, np.repeat(max_mates, males)[several] + 1)
        sizes = np.add.reduceat(mates, firsts)
        fathers = np.repeat(fathers, mates)
    mothers = rng.integers(np.repeat(males, sizes), n)
    # Into [-1, 1] as Generator.uniform(-1, 1) scales a double u: -1 + 2u, with 2u exact.
    noise = rng.random((len(mothers), dimension))
    noise *= 2.0
    noise -= 1.0
    return fathers, mothers, noise, sizes.tolist()


def _offspring(positions, fathers, mothers, noise, params, problem, rng) -> np.ndarray:
    """Newborns of the given rank pairs, mated and adjusted to the domain."""
    newborns = mate(positions.take(fathers, axis=0), positions.take(mothers, axis=0), params, noise)
    binary = isinstance(problem.domain, Binary)
    if not binary:
        # np.clip's ufunc pair, in place: ``newborns`` is a fresh array from ``mate``.
        np.minimum(np.maximum(newborns, problem.domain.lower, out=newborns), problem.domain.upper, out=newborns)
    return _per_row(newborns, problem, rng, transfer=binary)


def run_season(
    population: Population, params: PfmParams, problem: Problem, rng: np.random.Generator, tally=None, seasons=1
) -> Population:
    """``seasons`` mating seasons from a best-first ``(positions, fitness)``; returns the last one's population.

    The seasons run in windows from the call's first season on, the last one
    shorter, whatever ``seasons`` is.  Draw order per window of k seasons, each
    of (1)-(4) one ``Generator`` call: (1) k ``random()`` doubles, the j-th u
    giving season j's male fraction r = lo + (hi - lo)·u, uniform in r_range
    as ``Generator.uniform`` draws it; (2) the mate count of each dominant
    male, uniform over {1..m}, in every season where m = floor(n_females /
    n_dominant) exceeds 1, in season order and then rank order, in one
    ``integers`` call with an array of upper bounds, while every other male
    takes one mate; no call where no season of the window has m > 1 (at the
    published population size 30 and dominance factor 0.8, m is always 1);
    (3) a female partner for every pair of the window, pairs ordered by
    season, then father rank, then mate, in one ``integers`` call with each
    pair's season's n_males as its lower bound; (4) the (pairs, dimension)
    mating noise, uniform in [-1, 1] as ``Generator.uniform`` draws it: -1 +
    2u for one ``random()`` double u per coordinate; (5) per newborn in pair
    order, for binary domains its ``dimension`` transfer draws, then any
    repair draw.  On a box domain with no repair hook (5) draws nothing, and
    a window holds ``_SEASONS_AHEAD`` seasons: one :func:`mate` call and one
    clip make every newborn of the window from the current parents.
    Otherwise a window holds one season.  An objective call that raises
    finds the window's later seasons already drawn.

    Each season's newborns are scored with the worst parent's fitness as the
    cutoff, and one stable sort keeps the best ``population_size``, ties
    keeping parents in rank order, then newborns in birth order.  So a newborn
    that does not beat the worst parent is always dropped, and a dropped
    newborn's exact value reaches no output.  A season where no newborn
    enters skips the sort and keeps its input arrays themselves, the
    population the sort would keep.  A season where one does enter changes
    the parents, so the window's later seasons mate again from the new
    population with the ranks and noise they drew.

    So the seasons of a window up to the first with an entrant share one
    cutoff, and one objective call scores a span of them, never past the
    window's end.  The span is one season at the start of the call, doubles
    after each objective call in which no newborn enters, up to a window, and
    falls back to one after an entrant (galloping search, Bentley & Yao
    1976); a window of one season gets spans of one season.  The seasons
    before the first entrant's keep their parents, and the entrant's season
    merges.  Rows of the span's later seasons came from the old parents:
    they are discarded and mated again, and a non-finite value there raises
    nothing, where one in a season up to the first entrant's raises
    :class:`EvaluationError`.  A ``tally`` list gains a ``(newborns, kept,
    best fitness)`` triple per season.
    """
    positions, fitness = population
    n = params.population_size
    if len(fitness) != n:
        raise ValueError(f"expected population of size {n}, got {len(fitness)}")
    # type(), not isinstance: a bool is not a count.
    if type(seasons) is not int or seasons < 1:
        raise ValueError(f"seasons must be a positive int, got {seasons!r}")
    ahead = _SEASONS_AHEAD if isinstance(problem.domain, ContinuousBox) and problem.repair is None else 1
    span = 1
    for first in range(0, seasons, ahead):
        count = min(ahead, seasons - first)
        fathers, mothers, noise, sizes = _draw_window(n, params, rng, problem.dimension, count)
        ends = [0, *accumulate(sizes)]
        newborns = _offspring(positions, fathers, mothers, noise, params, problem, rng)
        season = 0
        while season < count:
            stop = min(season + span, count)
            start, worst = ends[season], float(fitness[-1])
            values = _evaluate(problem, newborns[start : ends[stop]], worst)
            enters = values < worst if problem.sense == "min" else values > worst
            entrant = int(enters.argmax())
            entered = bool(enters[entrant])
            if entered:
                # The season of the first entrant is the last one scored.
                stop = bisect_right(ends, start + entrant, season + 1)
            _check_finite(newborns[start : ends[stop]], values[: ends[stop] - start])
            if tally is not None:
                tally.extend(zip(sizes[season : stop - entered], repeat(0), repeat(float(fitness[0]))))
            if entered:
                lo, hi = ends[stop - 1], ends[stop]
                pool = np.concatenate([fitness, values[lo - start : hi - start]])
                keep = _best_first(pool, problem.sense)[:n]
                positions, fitness = np.concatenate([positions, newborns[lo:hi]])[keep], pool[keep]
                if tally is not None:
                    tally.append((hi - lo, int(np.count_nonzero(keep >= n)), float(fitness[0])))
                if stop < count:
                    # In place: no objective call has seen these rows since the parents changed.
                    newborns[hi:] = _offspring(positions, fathers[hi:], mothers[hi:], noise[hi:], params, problem, rng)
                span = 1
            else:
                span = min(2 * span, ahead)
            season = stop
    return positions, fitness


def optimize(problem: Problem, params: PfmParams) -> RunTrace:
    """Full run: random initialization, then all the run's seasons in one :func:`run_season` call.

    Its tally groups the seasons into iterations.  Records the best fitness
    after each iteration; elitist truncation makes the record monotone
    non-worsening in the problem's sense.
    """
    rng = np.random.default_rng(params.seed)
    population = initialize_population(problem, params, rng)
    per = params.seasons_per_iteration
    total = params.max_iterations * per
    seasons = []  # (newborns, kept, best) per season
    population = run_season(population, params, problem, rng, seasons, total)

    born, kept, best = (np.reshape(column, (-1, per)) for column in zip(*seasons))
    return RunTrace(best[:, -1].tolist(), population, born.sum(axis=1).tolist(), kept.sum(axis=1).tolist())
