"""Peafowl-mating optimizer for continuous and binary search spaces.

Candidate solutions ("peafowls") are ranked by fitness each mating season and
split into males and females; the strongest males are dominant and take
several mates.  A newborn combines its parents coordinate-wise and carries an
additive mutation term.  Elitist truncation keeps the population size fixed,
so the best solution found is never lost.

Randomness discipline: every run owns a single ``numpy.random.Generator``
seeded from ``PfmParams.seed`` and all stochastic choices consume from it in
a fixed, documented order (see :func:`run_season`), making runs
bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Callable, Optional, Union

import numpy as np

from .errors import EvaluationError
from .transfer import binarize

__all__ = [
    "Peafowl",
    "PfmParams",
    "PopulationSplit",
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


@dataclass
class Peafowl:
    """One candidate solution: a position vector plus its cached fitness."""

    position: np.ndarray
    fitness: float


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
        for name in ("call_intensity", "colorfulness", "gamma1", "gamma2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 <= self.dominance_factor <= 1.0:
            raise ValueError("dominance_factor must lie in [0, 1]")
        lo, hi = self.r_range
        if not (0.0 < lo <= hi < 1.0):
            raise ValueError(f"r_range must satisfy 0 < lo <= hi < 1, got {self.r_range}")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class PopulationSplit:
    """Season head-count: males, females, dominant and normal males."""

    n_males: int
    n_females: int
    n_dominant: int
    n_normal: int


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
        if np.any(self.lower >= self.upper):
            raise ValueError("each lower bound must be strictly below its upper bound")


@dataclass(frozen=True)
class Binary:
    """Bit-vector domain; newborns pass through the tanh transfer layer."""


@dataclass
class Problem:
    """An objective over a box or bit-vector domain.

    ``objective`` must be a pure function of the position (a noisy benchmark
    may close over its own generator).  ``repair`` is an optional hook applied
    after domain adjustment, e.g. to forbid the empty feature subset; it may
    consume draws from the run generator.
    """

    dimension: int
    domain: Union[ContinuousBox, Binary]
    objective: Callable[[np.ndarray], float]
    sense: str = "min"
    repair: Optional[Callable[[np.ndarray, np.random.Generator], np.ndarray]] = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        if isinstance(self.domain, ContinuousBox) and self.domain.lower.size != self.dimension:
            raise ValueError("bound vectors must match the problem dimension")


@dataclass
class RunTrace:
    """Result of one optimizer run."""

    best_per_iteration: list[float]
    best_solution: Peafowl
    evaluations: int
    seed: int
    final_population: list[Peafowl] = field(default_factory=list)


def attractiveness(d: float, params: PfmParams) -> float:
    """Exponentially distance-decayed blend of call intensity and colorfulness.

    Strictly decreasing in the distance d >= 0; at most I0 + C0.
    """
    return params.call_intensity * math.exp(-params.gamma1 * d) + params.colorfulness * math.exp(
        -params.gamma2 * d
    )


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def split_population(n: int, r: float, alpha: float) -> PopulationSplit:
    """Head-count split for one season.

    Males are round(n*r) clamped into [1, n-1]; dominant males are
    round(n_males*alpha) clamped into [1, n_males].  Rounding is half-up.
    """
    if n < 4:
        raise ValueError(f"population too small to split: need n >= 4, got {n}")
    n_males = min(max(_round_half_up(n * r), 1), n - 1)
    n_females = n - n_males
    n_dominant = min(max(_round_half_up(n_males * alpha), 1), n_males)
    n_normal = n_males - n_dominant
    return PopulationSplit(n_males, n_females, n_dominant, n_normal)


def mate(father: Peafowl, mother: Peafowl, params: PfmParams, rng: np.random.Generator) -> np.ndarray:
    """Raw newborn position (before domain adjustment).

    Per dimension: father*mother + (father - mother) * A + rand * e^(g1*g2),
    where A is the attractiveness at the parents' Euclidean distance
    sqrt(d·d), d = father - mother, and rand is drawn fresh per dimension,
    uniform in [-1, 1].  Consumes exactly ``dimension`` draws from ``rng``.
    """
    xi = father.position
    xj = mother.position
    if xi.shape != xj.shape:
        raise ValueError(f"dimension mismatch: {xi.shape} vs {xj.shape}")
    # float64 even for integer parents, as the in-place steps below need.
    diff = np.subtract(xi, xj, dtype=float)
    a = attractiveness(math.sqrt(diff.dot(diff)), params)
    rand = rng.uniform(-1.0, 1.0, size=xi.size)
    # In place, but summed in the order of the formula above.
    raw = np.multiply(xi, xj, dtype=float)
    diff *= a
    raw += diff
    rand *= math.exp(params.gamma1 * params.gamma2)
    raw += rand
    return raw


def _adjust(raw: np.ndarray, problem: Problem, rng: np.random.Generator) -> np.ndarray:
    if isinstance(problem.domain, Binary):
        position = binarize(raw, rng)
    else:
        # np.clip's ufunc pair, in place: ``raw`` is a fresh array from ``mate``.
        position = np.minimum(np.maximum(raw, problem.domain.lower, out=raw), problem.domain.upper, out=raw)
    if problem.repair is not None:
        position = problem.repair(position, rng)
    return position


def _evaluate(problem: Problem, position: np.ndarray) -> Peafowl:
    value = float(problem.objective(position))
    if not math.isfinite(value):
        raise EvaluationError(f"objective returned {value!r} at position {position.tolist()}")
    return Peafowl(position=position, fitness=value)


def _sorted_best_first(population: list[Peafowl], sense: str) -> list[Peafowl]:
    # Stable sort, also under ``reverse``: ties keep insertion order.
    return sorted(population, key=attrgetter("fitness"), reverse=sense == "max")


def initialize_population(problem: Problem, params: PfmParams, rng: np.random.Generator) -> list[Peafowl]:
    """Uniform random population over the domain, evaluated.

    Binary domains draw each bit as a fair coin; continuous domains draw each
    coordinate uniformly within its bounds.  Consumes ``dimension`` draws per
    individual (plus any repair draws).
    """
    population = []
    for _ in range(params.population_size):
        if isinstance(problem.domain, Binary):
            position = (rng.random(problem.dimension) < 0.5).astype(float)
        else:
            position = rng.uniform(problem.domain.lower, problem.domain.upper)
        if problem.repair is not None:
            position = problem.repair(position, rng)
        population.append(_evaluate(problem, position))
    return population


def run_season(
    population: list[Peafowl],
    params: PfmParams,
    problem: Problem,
    rng: np.random.Generator,
) -> list[Peafowl]:
    """One mating season; returns the next population of the same size.

    Draw order: (1) the male fraction r, uniform in r_range; (2) for each
    dominant male in rank order, its number of mates k, uniform over
    {1..max(1, floor(n_females / n_dominant))}, then per child a partner
    index, the per-dimension mating draws, and for binary domains the
    per-dimension transfer draws (plus any repair draw); (3) the same per
    child for each normal male, with k fixed to 1.  Parents and newborns are
    then truncated to the best ``population_size``.
    """
    n = params.population_size
    if len(population) != n:
        raise ValueError(f"expected population of size {n}, got {len(population)}")
    lo, hi = params.r_range
    r = rng.uniform(lo, hi)
    ranked = _sorted_best_first(population, problem.sense)
    split = split_population(n, r, params.dominance_factor)
    males = ranked[: split.n_males]
    females = ranked[split.n_males :]
    max_mates = max(1, split.n_females // split.n_dominant)

    newborns = []

    def bear_child(father):
        mother = females[int(rng.integers(0, split.n_females))]
        raw = mate(father, mother, params, rng)
        newborns.append(_evaluate(problem, _adjust(raw, problem, rng)))

    for father in males[: split.n_dominant]:
        k = int(rng.integers(1, max_mates + 1))
        for _ in range(k):
            bear_child(father)
    for father in males[split.n_dominant :]:
        bear_child(father)

    return _sorted_best_first(ranked + newborns, problem.sense)[:n]


def optimize(problem: Problem, params: PfmParams) -> RunTrace:
    """Full run: random initialization, then seasons grouped into iterations.

    Records the best fitness after each iteration; elitist truncation makes
    the record monotone non-worsening in the problem's sense.
    """
    rng = np.random.default_rng(params.seed)

    evaluations = 0
    inner_objective = problem.objective

    def counting_objective(x):
        nonlocal evaluations
        evaluations += 1
        return inner_objective(x)

    counted = replace(problem, objective=counting_objective)
    population = initialize_population(counted, params, rng)

    best_per_iteration = []
    for _ in range(params.max_iterations):
        for _ in range(params.seasons_per_iteration):
            population = run_season(population, params, counted, rng)
        best_per_iteration.append(population[0].fitness)

    best = population[0]
    return RunTrace(
        best_per_iteration=best_per_iteration,
        best_solution=Peafowl(position=best.position.copy(), fitness=best.fitness),
        evaluations=evaluations,
        seed=params.seed,
        final_population=population,
    )
