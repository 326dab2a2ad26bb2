import math

import numpy as np
import pytest

from peafowl import (
    Binary,
    ContinuousBox,
    EvaluationError,
    Peafowl,
    PfmParams,
    Problem,
    attractiveness,
    initialize_population,
    mate,
    optimize,
    run_season,
    split_population,
)

from peafowl.selection import _repair_empty_mask
from peafowl.transfer import binarize

from conftest import CountingRng, StubRng

DEFAULTS = PfmParams()


def sphere_problem(dim=2, bound=100.0, sense="min"):
    sign = 1.0 if sense == "min" else -1.0
    return Problem(
        dimension=dim,
        domain=ContinuousBox(np.full(dim, -bound), np.full(dim, bound)),
        objective=lambda x: sign * float(np.sum(x * x)),
        sense=sense,
    )


class TestAttractiveness:
    def test_zero_distance_gives_intensity_plus_color(self):
        assert attractiveness(0.0, DEFAULTS) == pytest.approx(0.2, abs=1e-15)

    def test_large_distance_decays_to_zero(self):
        assert attractiveness(40.0, DEFAULTS) <= 1e-12

    def test_unit_distance(self):
        # 0.2 * exp(-1), frozen from the reference exponential
        assert attractiveness(1.0, DEFAULTS) == pytest.approx(0.07357588823428847, abs=1e-15)

    def test_strictly_decreasing_and_bounded(self):
        grid = np.linspace(0.0, 25.0, 100)
        values = [attractiveness(d, DEFAULTS) for d in grid]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(0.0 < v <= 0.2 for v in values)

    def test_respects_coefficients(self):
        params = PfmParams(call_intensity=0.3, colorfulness=0.5, gamma1=2.0, gamma2=0.5)
        expected = 0.3 * math.exp(-2.0 * 1.5) + 0.5 * math.exp(-0.5 * 1.5)
        assert attractiveness(1.5, params) == pytest.approx(expected, abs=1e-15)


class TestSplitPopulation:
    @pytest.mark.parametrize(
        "n,r,alpha,expected",
        [
            (30, 0.5, 0.8, (15, 15, 12, 3)),
            (30, 0.4, 0.8, (12, 18, 10, 2)),
            (4, 0.4, 0.8, (2, 2, 2, 0)),
        ],
    )
    def test_worked_examples(self, n, r, alpha, expected):
        split = split_population(n, r, alpha)
        assert (split.n_males, split.n_females, split.n_dominant, split.n_normal) == expected

    def test_population_too_small(self):
        with pytest.raises(ValueError, match="population too small"):
            split_population(3, 0.5, 0.8)

    def test_identities_hold(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(4, 200))
            r = float(rng.uniform(0.0, 1.0))
            alpha = float(rng.uniform(0.0, 1.0))
            s = split_population(n, r, alpha)
            assert s.n_males + s.n_females == n
            assert s.n_dominant + s.n_normal == s.n_males
            assert 1 <= s.n_males <= n - 1
            assert s.n_females >= 1
            assert 1 <= s.n_dominant <= s.n_males
            assert s.n_normal >= 0


class TestMate:
    def test_identical_binary_parents_no_mutation(self):
        parent = Peafowl(np.array([1.0, 0.0]), fitness=0.0)
        child = mate(parent, parent, DEFAULTS, StubRng(uniform_value=0.0))
        assert np.array_equal(child, np.array([1.0, 0.0]))

    def test_opposite_binary_parents_no_mutation(self):
        father = Peafowl(np.array([1.0, 0.0]), fitness=0.0)
        mother = Peafowl(np.array([0.0, 1.0]), fitness=0.0)
        child = mate(father, mother, DEFAULTS, StubRng(uniform_value=0.0))
        # +-(I0 + C0) * exp(-sqrt(2)), frozen from the reference exponential
        expected = 0.04862334688684284
        assert child == pytest.approx([expected, -expected], abs=1e-15)

    def test_mutation_term_scale(self):
        parent = Peafowl(np.array([1.0, 1.0]), fitness=0.0)
        child = mate(parent, parent, DEFAULTS, StubRng(uniform_value=1.0))
        # values may leave [0, 1]; the transfer layer handles that downstream
        assert child == pytest.approx([3.718281828459045] * 2, abs=1e-14)

    def test_elementwise_product_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            position = (rng.random(6) < 0.5).astype(float)
            parent = Peafowl(position, fitness=0.0)
            child = mate(parent, parent, DEFAULTS, StubRng(uniform_value=0.0))
            assert np.array_equal(child, position)

    def test_consumes_one_draw_per_dimension(self):
        rng = CountingRng(3)
        father = Peafowl(np.arange(7, dtype=float), fitness=0.0)
        mother = Peafowl(np.ones(7), fitness=0.0)
        mate(father, mother, DEFAULTS, rng)
        assert rng.draws == 7

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            mate(
                Peafowl(np.ones(3), 0.0),
                Peafowl(np.ones(4), 0.0),
                DEFAULTS,
                StubRng(),
            )


class TestRunSeason:
    def _population(self, problem, params, seed=0):
        return initialize_population(problem, params, np.random.default_rng(seed))

    def test_best_member_survives(self):
        params = PfmParams(population_size=10, seed=0)
        problem = sphere_problem(dim=3)
        population = self._population(problem, params)
        best = min(p.fitness for p in population)
        out = run_season(population, params, problem, np.random.default_rng(1))
        assert out[0].fitness <= best

    def test_population_size_constant(self):
        params = PfmParams(population_size=30, seed=0)
        problem = sphere_problem(dim=4)
        population = self._population(problem, params)
        for i in range(5):
            population = run_season(population, params, problem, np.random.default_rng(i))
            assert len(population) == 30

    def test_deterministic_given_seed(self):
        params = PfmParams(population_size=12, seed=0)
        problem = sphere_problem(dim=3)
        population = self._population(problem, params)
        out1 = run_season(list(population), params, problem, np.random.default_rng(9))
        out2 = run_season(list(population), params, problem, np.random.default_rng(9))
        assert [p.fitness for p in out1] == [p.fitness for p in out2]
        for a, b in zip(out1, out2):
            assert np.array_equal(a.position, b.position)

    def test_binary_offspring_are_bits(self):
        params = PfmParams(population_size=10, seed=0)
        problem = Problem(4, Binary(), lambda x: float(x.sum()), sense="max")
        rng = np.random.default_rng(2)
        population = initialize_population(problem, params, rng)
        for _ in range(10):
            population = run_season(population, params, problem, rng)
        for p in population:
            assert np.all(np.isin(p.position, (0.0, 1.0)))

    def test_continuous_offspring_stay_in_box(self):
        params = PfmParams(population_size=10, seed=0)
        problem = sphere_problem(dim=3, bound=2.0)
        rng = np.random.default_rng(4)
        population = initialize_population(problem, params, rng)
        for _ in range(10):
            population = run_season(population, params, problem, rng)
        for p in population:
            assert np.all(p.position >= -2.0) and np.all(p.position <= 2.0)

    def test_wrong_population_size_rejected(self):
        params = PfmParams(population_size=10, seed=0)
        problem = sphere_problem(dim=2)
        population = self._population(problem, params)[:-1]
        with pytest.raises(ValueError, match="population of size"):
            run_season(population, params, problem, np.random.default_rng(0))


# The season in its plainest NumPy form (np.linalg.norm, np.clip and a lambda-key
# sort): the reference that run_season must match bit for bit.
def reference_mate(father, mother, params, rng):
    xi = father.position
    xj = mother.position
    a = attractiveness(np.linalg.norm(xi - xj), params)
    rand = rng.uniform(-1.0, 1.0, size=xi.size)
    return xi * xj + (xi - xj) * a + rand * math.exp(params.gamma1 * params.gamma2)


def reference_adjust(raw, problem, rng):
    if isinstance(problem.domain, Binary):
        position = binarize(raw, rng)
    else:
        position = np.clip(raw, problem.domain.lower, problem.domain.upper)
    if problem.repair is not None:
        position = problem.repair(position, rng)
    return position


def reference_sorted_best_first(population, sense):
    if sense == "min":
        return sorted(population, key=lambda p: p.fitness)
    return sorted(population, key=lambda p: -p.fitness)


def reference_season(population, params, problem, rng):
    n = params.population_size
    lo, hi = params.r_range
    r = rng.uniform(lo, hi)
    ranked = reference_sorted_best_first(population, problem.sense)
    split = split_population(n, r, params.dominance_factor)
    males = ranked[: split.n_males]
    females = ranked[split.n_males :]
    max_mates = max(1, split.n_females // split.n_dominant)

    newborns = []

    def bear_child(father):
        mother = females[int(rng.integers(0, split.n_females))]
        raw = reference_mate(father, mother, params, rng)
        position = reference_adjust(raw, problem, rng)
        newborns.append(Peafowl(position, float(problem.objective(position))))

    for father in males[: split.n_dominant]:
        k = int(rng.integers(1, max_mates + 1))
        for _ in range(k):
            bear_child(father)
    for father in males[split.n_dominant :]:
        bear_child(father)

    return reference_sorted_best_first(ranked + newborns, problem.sense)[:n]


def season_cases():
    box = ContinuousBox(np.full(5, -4.0), np.full(5, 4.0))
    return {
        "box-min": Problem(5, box, lambda x: float(np.sum(x * x))),
        "box-max": Problem(5, box, lambda x: float(np.sum(np.sin(3.0 * x))), sense="max"),
        # a 3-bit space: the transfer layer often emits the empty mask, which the repair fixes
        "binary-repair": Problem(
            3, Binary(), lambda x: float(x @ [1.0, 2.0, 4.0]), sense="max", repair=_repair_empty_mask
        ),
        # most newborns tie with each other and with their parents
        "box-ties": Problem(5, box, lambda x: float(np.sum(x * x) > 40.0)),
    }


class TestSeasonMatchesReference:
    @pytest.mark.parametrize("n", [4, 7, 30])
    @pytest.mark.parametrize("case", list(season_cases()))
    def test_twenty_seasons_bit_identical(self, case, n):
        problem = season_cases()[case]
        params = PfmParams(population_size=n)
        population = initialize_population(problem, params, np.random.default_rng(n))
        got_rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
        got = want = population
        for _ in range(20):
            got = run_season(got, params, problem, got_rng)
            want = reference_season(want, params, problem, want_rng)
            assert [p.fitness for p in got] == [p.fitness for p in want]
            assert [p.position.tobytes() for p in got] == [p.position.tobytes() for p in want]
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        if case == "box-ties":
            assert len({p.fitness for p in got}) < n

    def test_mate_matches_reference(self):
        rng = np.random.default_rng(3)
        params = PfmParams(call_intensity=0.3, colorfulness=0.05, gamma1=0.7, gamma2=1.3)
        for d in (1, 2, 5, 30):
            for _ in range(50):
                father = Peafowl(rng.normal(0.0, 10.0, d), 0.0)
                mother = Peafowl(rng.normal(0.0, 10.0, d), 0.0)
                for p in (params, DEFAULTS):
                    got = mate(father, mother, p, np.random.default_rng(d))
                    want = reference_mate(father, mother, p, np.random.default_rng(d))
                    assert got.tobytes() == want.tobytes()

    def test_integer_positions_mate_as_floats(self):
        # a repair hook may hand back integer positions
        father = Peafowl(np.array([3, -1, 2]), 0.0)
        mother = Peafowl(np.array([1, 4, 2]), 0.0)
        got = mate(father, mother, DEFAULTS, np.random.default_rng(0))
        want = reference_mate(father, mother, DEFAULTS, np.random.default_rng(0))
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


class TestOptimize:
    def test_sphere_monotone_and_improving(self):
        params = PfmParams(population_size=30, max_iterations=50, seasons_per_iteration=3, seed=0)
        trace = optimize(sphere_problem(dim=2), params)
        bests = trace.best_per_iteration
        assert len(bests) == 50
        assert all(a >= b for a, b in zip(bests, bests[1:]))
        assert bests[-1] <= bests[0]

    def test_bit_identical_reruns(self):
        params = PfmParams(population_size=15, max_iterations=20, seasons_per_iteration=2, seed=123)
        t1 = optimize(sphere_problem(dim=4), params)
        t2 = optimize(sphere_problem(dim=4), params)
        assert t1.best_per_iteration == t2.best_per_iteration
        assert t1.evaluations == t2.evaluations
        assert np.array_equal(t1.best_solution.position, t2.best_solution.position)
        assert t1.best_solution.fitness == t2.best_solution.fitness

    def test_maximize_sense(self):
        params = PfmParams(population_size=10, max_iterations=15, seasons_per_iteration=2, seed=7)
        trace = optimize(sphere_problem(dim=2, sense="max"), params)
        bests = trace.best_per_iteration
        assert all(a <= b for a, b in zip(bests, bests[1:]))

    def test_counts_objective_calls(self):
        calls = 0

        def objective(x):
            nonlocal calls
            calls += 1
            return float(np.sum(x * x))

        problem = Problem(2, ContinuousBox(np.full(2, -1.0), np.full(2, 1.0)), objective)
        params = PfmParams(population_size=8, max_iterations=10, seasons_per_iteration=2, seed=0)
        trace = optimize(problem, params)
        assert trace.evaluations == calls
        assert trace.evaluations > params.population_size

    def test_binary_initialization_is_bernoulli(self):
        problem = Problem(2000, Binary(), lambda x: float(x.sum()), sense="max")
        rng = np.random.default_rng(0)
        population = initialize_population(problem, PfmParams(population_size=4), rng)
        frequency = np.mean([p.position.mean() for p in population])
        assert frequency == pytest.approx(0.5, abs=0.05)

    def test_non_finite_objective_reported_with_position(self):
        problem = Problem(
            2,
            ContinuousBox(np.full(2, -1.0), np.full(2, 1.0)),
            lambda x: float("nan"),
        )
        params = PfmParams(population_size=5, max_iterations=2, seed=0)
        with pytest.raises(EvaluationError, match="position"):
            optimize(problem, params)

    @pytest.mark.parametrize(
        "bad",
        [
            {"population_size": 3},
            {"max_iterations": 0},
            {"seasons_per_iteration": 0},
            {"dominance_factor": 1.5},
            {"r_range": (0.0, 0.6)},
            {"r_range": (0.4, 1.0)},
            {"gamma1": -1.0},
            {"seed": -5},
            {"max_iterations": 2.5},
            {"population_size": 10.0},
            {"seasons_per_iteration": True},
            {"seed": True},
            {"seed": 1.0},
        ],
    )
    def test_invalid_params_rejected(self, bad):
        with pytest.raises(ValueError):
            PfmParams(**bad)

    def test_default_params_match_published_settings(self):
        p = PfmParams()
        assert p.gamma1 == 1.0 and p.gamma2 == 1.0
        assert p.call_intensity == 0.1 and p.colorfulness == 0.1
        assert p.dominance_factor == 0.8
        assert p.r_range == (0.4, 0.6)
