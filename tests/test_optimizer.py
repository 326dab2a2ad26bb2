import copy
import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from peafowl import (
    Binary,
    ContinuousBox,
    EvaluationError,
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

from peafowl import optimizer
from peafowl.selection import _repair_empty_mask
from peafowl.transfer import binarize


DEFAULTS = PfmParams()


def sphere_problem(dim=2, bound=100.0, sense="min"):
    sign = 1.0 if sense == "min" else -1.0
    return Problem(
        dimension=dim,
        domain=ContinuousBox(np.full(dim, -bound), np.full(dim, bound)),
        objective=lambda x, cutoff: sign * (x * x).sum(axis=1),
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

    @pytest.mark.parametrize("gamma2", [1.0, 0.5])
    def test_both_exponentials_bit_for_bit(self, gamma2):
        # mate and the season reference both take A from this function, so pin it to the formula
        params = PfmParams(call_intensity=0.3, colorfulness=0.05, gamma1=1.0, gamma2=gamma2)
        d = np.random.default_rng(5).uniform(0.0, 30.0, 1000)
        expected = 0.3 * np.exp(-1.0 * d) + 0.05 * np.exp(-gamma2 * d)
        assert attractiveness(d, params).tobytes() == expected.tobytes()


@pytest.mark.golden
class TestSplitPopulation:
    @pytest.mark.parametrize(
        "n,r,alpha,expected",
        [
            (30, 0.5, 0.8, (15, 12)),
            (30, 0.4, 0.8, (12, 10)),
            (4, 0.4, 0.8, (2, 2)),
        ],
    )
    def test_worked_examples(self, n, r, alpha, expected):
        assert split_population(n, r, alpha) == expected

    def test_population_too_small(self):
        with pytest.raises(ValueError, match="population too small"):
            split_population(3, 0.5, 0.8)

    def test_identities_hold(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(4, 200))
            r = float(rng.uniform(0.0, 1.0))
            alpha = float(rng.uniform(0.0, 1.0))
            n_males, n_dominant = split_population(n, r, alpha)
            assert 1 <= n_males <= n - 1
            assert 1 <= n_dominant <= n_males

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 0.8, 1.0])
    def test_array_matches_math_floor(self, alpha):
        # Every half-up boundary (j + 0.5)/n with its neighbouring doubles, where
        # round-half-even, or NumPy arithmetic other than math.floor's, would differ.
        for n in range(4, 65):
            edges = [(j + 0.5) / n for j in range(-1, n + 1)]
            rs = [r for edge in edges for r in (np.nextafter(edge, -1.0), edge, np.nextafter(edge, 2.0))]
            rs = np.clip([0.0, 1.0, *rs], 0.0, 1.0)
            males, dominant = split_population(n, rs, alpha)
            expected = [reference_split(n, r, alpha) for r in rs.tolist()]
            assert list(zip(males.tolist(), dominant.tolist())) == expected


class TestMate:
    def test_identical_binary_parents_no_mutation(self):
        parent = np.array([[1.0, 0.0]])
        child = mate(parent, parent, DEFAULTS, np.zeros((1, 2)))
        assert np.array_equal(child, np.array([[1.0, 0.0]]))

    def test_opposite_binary_parents_no_mutation(self):
        fathers = np.array([[1.0, 0.0], [0.0, 1.0]])
        child = mate(fathers, fathers[::-1], DEFAULTS, np.zeros((2, 2)))
        # +-(I0 + C0) * exp(-sqrt(2)), frozen from the reference exponential
        expected = 0.04862334688684284
        assert child == pytest.approx(np.array([[expected, -expected], [-expected, expected]]), abs=1e-15)

    def test_mutation_term_scale(self):
        parent = np.array([[1.0, 1.0]])
        child = mate(parent, parent, DEFAULTS, np.ones((1, 2)))
        # values may leave [0, 1]; the transfer layer handles that downstream
        assert child == pytest.approx(np.array([[3.718281828459045] * 2]), abs=1e-14)

    def test_elementwise_product_identity(self):
        positions = (np.random.default_rng(5).random((20, 6)) < 0.5).astype(float)
        child = mate(positions, positions, DEFAULTS, np.zeros((20, 6)))
        assert np.array_equal(child, positions)

    def test_noise_argument_comes_back_unchanged(self):
        # A window that mates again after an admission reuses the noise it drew.
        fathers = np.arange(35, dtype=float).reshape(5, 7)
        noise = np.random.default_rng(3).uniform(-1.0, 1.0, (5, 7))
        before = noise.tobytes()
        child = mate(fathers, np.ones((5, 7)), DEFAULTS, noise)
        assert noise.tobytes() == before and not np.shares_memory(child, noise)
        assert mate(fathers, np.ones((5, 7)), DEFAULTS, noise).tobytes() == child.tobytes()

    def test_dimension_mismatch(self):
        shapes = [((1, 3), (1, 4), (1, 3)), ((2, 3), (1, 3), (2, 3)), ((3,), (3,), (3,)), ((2, 3), (2, 3), (3, 3))]
        for fathers, mothers, noise in shapes:
            with pytest.raises(ValueError, match="dimension mismatch"):
                mate(np.ones(fathers), np.ones(mothers), DEFAULTS, np.zeros(noise))


def best(population):
    return population[1][0]


class TestRunSeason:
    def _population(self, problem, params, seed=0):
        return initialize_population(problem, params, np.random.default_rng(seed))

    def test_best_member_survives(self):
        params = PfmParams(population_size=10, seed=0)
        problem = sphere_problem(dim=3)
        population = self._population(problem, params)
        assert best(population) == population[1].min()
        out = run_season(population, params, problem, np.random.default_rng(1))
        assert best(out) <= best(population)

    def test_population_size_constant(self):
        params = PfmParams(population_size=30, seed=0)
        problem = sphere_problem(dim=4)
        population = self._population(problem, params)
        for i in range(5):
            population = run_season(population, params, problem, np.random.default_rng(i))
            assert population[0].shape == (30, 4) and population[1].shape == (30,)

    def test_deterministic_given_seed(self):
        params = PfmParams(population_size=12, seed=0)
        problem = sphere_problem(dim=3)
        population = self._population(problem, params)
        out1 = run_season(population, params, problem, np.random.default_rng(9))
        out2 = run_season(population, params, problem, np.random.default_rng(9))
        assert out1[1].tobytes() == out2[1].tobytes()
        assert out1[0].tobytes() == out2[0].tobytes()

    def test_binary_offspring_are_bits(self):
        params = PfmParams(population_size=10, seed=0)
        problem = Problem(4, Binary(), lambda x, cutoff: x.sum(axis=1), sense="max")
        rng = np.random.default_rng(2)
        population = initialize_population(problem, params, rng)
        for _ in range(10):
            population = run_season(population, params, problem, rng)
        assert np.all(np.isin(population[0], (0.0, 1.0)))

    def test_continuous_offspring_stay_in_box(self):
        params = PfmParams(population_size=10, seed=0)
        problem = sphere_problem(dim=3, bound=2.0)
        rng = np.random.default_rng(4)
        population = initialize_population(problem, params, rng)
        for _ in range(10):
            population = run_season(population, params, problem, rng)
        assert np.all(population[0] >= -2.0) and np.all(population[0] <= 2.0)

    @pytest.mark.parametrize("case", ["box", "binary-repair"])
    def test_objective_gets_c_ordered_float64_batches(self, case):
        # The benchmark functions give a row the same bits in any batch only
        # in C order.  At population 7 some seasons take the multi-mate path.
        batches = []

        def spy(x, cutoff):
            batches.append((x.shape[1], x.dtype, x.flags.c_contiguous))
            return x.sum(axis=1)

        if case == "binary-repair":
            problem = Problem(3, Binary(), spy, sense="max", repair=_repair_empty_mask)
        else:
            problem = Problem(3, ContinuousBox(np.full(3, -2.0), np.full(3, 2.0)), spy)
        params = PfmParams(population_size=7, seed=0)
        rng = np.random.default_rng(0)
        population = initialize_population(problem, params, rng)
        for _ in range(20):
            population = run_season(population, params, problem, rng)
        # A box window hands the objective a slice of its newborns per span of
        # seasons; the binary domain, one per season.
        run_season(population, params, problem, rng, seasons=20)
        assert batches == [(3, np.float64, True)] * len(batches)
        assert len(batches) < 41 if case == "box" else len(batches) == 41

    def test_wrong_population_size_rejected(self):
        params = PfmParams(population_size=10, seed=0)
        problem = sphere_problem(dim=2)
        positions, fitness = self._population(problem, params)
        with pytest.raises(ValueError, match="population of size"):
            run_season((positions[:-1], fitness[:-1]), params, problem, np.random.default_rng(0))

    @pytest.mark.parametrize("seasons", [0, True, 2.0])
    def test_season_count_must_be_positive(self, seasons):
        params = PfmParams(population_size=10, seed=0)
        problem = sphere_problem(dim=2)
        with pytest.raises(ValueError, match="seasons must be a positive int"):
            run_season(self._population(problem, params), params, problem, np.random.default_rng(0), seasons=seasons)

    def test_long_call_mates_at_most_a_window_of_rows_per_newborn(self, monkeypatch):
        # Every newborn beats the worst parent, so every season admits and the
        # rest of its window mates again.  A call mated as one window would
        # mate the rest of the call again after every season instead.
        mated = []

        def counting_mate(*args):
            raw = mate(*args)
            mated.append(len(raw))
            return raw

        monkeypatch.setattr(optimizer, "mate", counting_mate)
        box = ContinuousBox(np.full(3, -2.0), np.full(3, 2.0))
        problem = Problem(3, box, lambda x, cutoff: np.full(len(x), 0.0 if cutoff is None else cutoff - 1.0))
        params = PfmParams(population_size=7, seed=0)
        rng = np.random.default_rng(0)
        tally = []
        run_season(initialize_population(problem, params, rng), params, problem, rng, tally, seasons=200)
        newborns = sum(born for born, _, _ in tally)
        assert len(tally) == 200 and all(kept > 0 for _, kept, _ in tally)
        assert sum(mated) <= optimizer._SEASONS_AHEAD * newborns

    def test_long_call_scores_few_rows_ahead(self):
        # On the sphere at population 7 about one season in seven admits a
        # newborn, so spans often end early and discard the rows they scored
        # past the entrant's season.  A span that doubles from 1 after each
        # season without an entrant scores 990 rows for 798 newborns here;
        # spans to the window's end would score 1,660.
        rows = []

        def objective(x, cutoff):
            rows.append(len(x))
            return (x * x).sum(axis=1)

        problem = Problem(3, ContinuousBox(np.full(3, -2.0), np.full(3, 2.0)), objective)
        params = PfmParams(population_size=7, seed=0)
        rng = np.random.default_rng(0)
        tally = []
        run_season(initialize_population(problem, params, rng), params, problem, rng, tally, seasons=200)
        scored = sum(rows[1:])  # after the initial population's call
        newborns = sum(born for born, _, _ in tally)
        assert len(tally) == 200 and sum(kept > 0 for _, kept, _ in tally) >= 20
        assert newborns < scored <= 1.5 * newborns

    def test_non_finite_value_raises_only_where_seasons_one_by_one_score_it(self):
        # A non-finite value in a season up to a span's first entrant raises,
        # naming its row, which the reference's seasons one by one score; in a
        # row that a span scores ahead and then discards, it does not.
        sphere = Problem(5, ContinuousBox(np.full(5, -4.0), np.full(5, 4.0)), lambda x, cutoff: (x * x).sum(axis=1))
        params = PfmParams(population_size=7, seed=0)

        def run(bad=()):
            calls = []

            def objective(x, cutoff):
                calls.append(x.copy())
                return np.where([row.tobytes() in bad for row in x], np.nan, sphere.objective(x, cutoff))

            problem = dataclasses.replace(sphere, objective=objective)
            rng = np.random.default_rng(0)
            out = run_season(initialize_population(problem, params, rng), params, problem, rng, seasons=100)
            return out, calls

        want, spans = run()
        rng = np.random.default_rng(0)
        _, one_by_one, _ = reference_seasons(reference_initialize(sphere, params, rng), params, sphere, rng, 100)
        scored = {row.tobytes() for _, rows, _ in one_by_one for row in rows}
        ahead = [row.tobytes() for rows in spans[1:] for row in rows if row.tobytes() not in scored]
        got, _ = run(set(ahead))
        assert len(ahead) > 0
        assert (got[0].tobytes(), got[1].tobytes()) == (want[0].tobytes(), want[1].tobytes())
        # Of each span that discards rows: its first row and the last one it scores.
        picks = []
        for rows in spans[1:]:
            in_seasons = [row for row in rows if row.tobytes() in scored]
            if len(in_seasons) < len(rows):
                picks += [in_seasons[0], in_seasons[-1]]
        assert len(picks) >= 4
        for row in picks:
            with pytest.raises(EvaluationError) as raised:
                run({row.tobytes()})
            assert str(raised.value) == f"objective returned nan at position {row.tolist()}"

    @staticmethod
    def _entry_season(sense, newborn_values):
        """One season from fitness 0..9 (negated for "max"), newborns valued by ``newborn_values(worst, rows)``.

        Returns the parents, the result, the newborn rows and the tally of the one season.
        """
        sign = 1.0 if sense == "min" else -1.0
        positions = np.random.default_rng(0).uniform(-1.0, 1.0, (10, 3))
        fitness = sign * np.arange(10.0)
        born = []

        def objective(x, cutoff):
            born.append(x.copy())
            return sign * newborn_values(sign * cutoff, len(x))

        problem = Problem(3, ContinuousBox(np.full(3, -1.0), np.full(3, 1.0)), objective, sense=sense)
        tally = []
        out = run_season((positions, fitness), PfmParams(population_size=10), problem, np.random.default_rng(0), tally)
        (season,) = tally
        return (positions, fitness), out, born[0], season

    @pytest.mark.parametrize("sense", ["min", "max"])
    @pytest.mark.parametrize(
        "newborn_values",
        [lambda worst, m: np.full(m, worst), lambda worst, m: worst + np.arange(m) % 2],
        ids=["all-tie", "tie-or-lose"],
    )
    def test_season_without_an_entrant_returns_its_input(self, sense, newborn_values):
        (positions, fitness), out, born, tally = self._entry_season(sense, newborn_values)
        parent_bytes = positions.tobytes(), fitness.tobytes()
        assert out[0] is positions and out[1] is fitness
        assert (out[0].tobytes(), out[1].tobytes()) == parent_bytes
        assert tally == (len(born), 0, fitness[0]) and len(born) > 1

    @pytest.mark.parametrize("sense", ["min", "max"])
    def test_newborn_tying_the_worst_parent_does_not_enter(self, sense):
        # The first newborn beats five parents and takes the worst one's place; the rest tie it and stay out.
        (positions, fitness), out, born, tally = self._entry_season(
            sense, lambda worst, m: np.r_[4.5, np.full(m - 1, worst)]
        )
        sign = 1.0 if sense == "min" else -1.0
        assert out[1].tobytes() == (sign * np.array([0, 1, 2, 3, 4, 4.5, 5, 6, 7, 8])).tobytes()
        assert out[0].tobytes() == np.vstack([positions[:5], born[:1], positions[5:9]]).tobytes()
        assert tally == (len(born), 1, fitness[0]) and len(born) > 1


def reference_split(n, r, alpha):
    """A season's head counts in Python floats, rounding half-up with math.floor."""
    n_males = min(max(math.floor(n * r + 0.5), 1), n - 1)
    return n_males, min(max(math.floor(n_males * alpha + 0.5), 1), n_males)


# Initialization and a window of seasons in per-child Python, drawing in the
# documented order (np.clip, Python's stable sort): the reference that
# initialize_population and run_season must match bit for bit.  The one piece
# not rewritten is the pair attractiveness, taken from the same batched
# `attractiveness` call as `mate`: on
# 2,000 random 30-D pairs a row-wise einsum and a per-row dot product differ in
# the last bit for most pairs, and np.exp and math.exp for a few.
def reference_initialize(problem, params, rng):
    population = []
    shape = (params.population_size, problem.dimension)
    if isinstance(problem.domain, Binary):
        rows = (rng.random(shape) < 0.5).astype(float)
    else:
        rows = rng.uniform(problem.domain.lower, problem.domain.upper, size=shape)
    for position in rows:
        if problem.repair is not None:
            position = problem.repair(position, rng)
        population.append((float(problem.objective(position[None], None)[0]), position))
    return reference_ranked(population, problem.sense, params.population_size)


def reference_ranked(population, sense, n):
    sign = 1.0 if sense == "min" else -1.0
    ranked = sorted(population, key=lambda p: sign * p[0])[:n]
    return np.array([p[1] for p in ranked], dtype=float), np.array([p[0] for p in ranked])


def pair_attractiveness(fathers, mothers, params):
    diff = np.subtract(fathers, mothers, dtype=float)
    return attractiveness(np.sqrt(np.einsum("ij,ij->i", diff, diff)), params)


def reference_mate(father, mother, a, params, rand):
    return father * mother + (father - mother) * a + rand * math.exp(params.gamma1 * params.gamma2)


def reference_adjust(raw, problem, rng):
    if isinstance(problem.domain, Binary):
        position = binarize(raw, rng)
    else:
        position = np.clip(raw, problem.domain.lower, problem.domain.upper)
    if problem.repair is not None:
        position = problem.repair(position, rng)
    return position


def reference_window(population, params, problem, rng, count):
    """``count`` seasons drawn as one window, in the documented order, each partner and
    mate count with its own scalar ``integers`` call; yields the population after each season."""
    n = params.population_size
    lo, hi = params.r_range
    splits = [reference_split(n, rng.uniform(lo, hi), params.dominance_factor) for _ in range(count)]
    by_season = []  # each season's fathers, a pair each
    for n_males, n_dominant in splits:
        # A draw over {1} leaves the generator as it is.
        max_mates = max(1, (n - n_males) // n_dominant)
        mates = [int(rng.integers(1, max_mates + 1)) for _ in range(n_dominant)] + [1] * (n_males - n_dominant)
        by_season.append([rank for rank in range(n_males) for _ in range(mates[rank])])
    pairs = [
        [(f, n_males + int(rng.integers(0, n - n_males))) for f in ranks] for (n_males, _), ranks in zip(splits, by_season)
    ]
    noise = [[rng.uniform(-1.0, 1.0, size=problem.dimension) for _ in season] for season in pairs]
    for season, rands in zip(pairs, noise):
        positions, fitness = population
        fathers, mothers = (list(ranks) for ranks in zip(*season))
        a = pair_attractiveness(positions[fathers], positions[mothers], params)
        raws = [reference_mate(positions[f], positions[m], a[i], params, rands[i]) for i, (f, m) in enumerate(season)]
        pool = list(zip(fitness.tolist(), positions))
        for raw in raws:
            position = reference_adjust(raw, problem, rng)
            pool.append((float(problem.objective(position[None], None)[0]), position))
        population = reference_ranked(pool, problem.sense, n)
        yield population


def season_cases():
    box = ContinuousBox(np.full(5, -4.0), np.full(5, 4.0))
    return {
        "box-min": Problem(5, box, lambda x, cutoff: (x * x).sum(axis=1)),
        "box-max": Problem(5, box, lambda x, cutoff: np.sin(3.0 * x).sum(axis=1), sense="max"),
        # a 3-bit space: the transfer layer often emits the empty mask, which the repair fixes
        "binary-repair": Problem(
            3, Binary(), lambda x, cutoff: x @ [1.0, 2.0, 4.0], sense="max", repair=_repair_empty_mask
        ),
        # most newborns tie with each other and with their parents
        "box-ties": Problem(5, box, lambda x, cutoff: ((x * x).sum(axis=1) > 40.0).astype(float)),
        "box-ties-max": Problem(5, box, lambda x, cutoff: ((x * x).sum(axis=1) < 40.0).astype(float), sense="max"),
    }


def match_spans(calls, seasons, sense):
    """Match one run_season call's objective calls to its seasons scored one by one.

    ``calls`` and ``seasons`` hold a ``(cutoff, rows, values)`` triple per
    objective call.  Each call starts at the season after the last one scored,
    with that season's cutoff, and hands over whole seasons.  Its rows start
    with those of the seasons one by one, up to the first season with an
    entrant; any rows after that were scored ahead, and the merge discards
    them.  Returns the number of rows scored ahead and discarded.
    """
    sizes = [len(rows) for _, rows, _ in seasons]
    season = discarded = 0
    for cutoff, rows, _ in calls:
        assert cutoff == seasons[season][0]
        ends = list(itertools.accumulate(sizes[season:]))
        assert len(rows) in ends
        covered = season + ends.index(len(rows)) + 1
        scored = 0
        while season < covered:
            worst, want, values = seasons[season]
            assert rows[scored : scored + len(want)].tobytes() == want.tobytes()
            scored += len(want)
            season += 1
            if (values < worst).any() if sense == "min" else (values > worst).any():
                break
        discarded += len(rows) - scored
    assert season == len(seasons)
    return discarded


def reference_seasons(population, params, problem, rng, seasons):
    """``seasons`` reference seasons from ``population``, drawn as one run_season call
    draws them: in windows of ``_SEASONS_AHEAD`` on a box domain with no repair hook,
    of one season otherwise.

    Returns the last population, a ``(worst parent's fitness, rows, values)``
    triple per season, the rows it scores one by one, and run_season's tally
    for the seasons: a ``(newborns, kept, best fitness)`` triple per season.
    """
    scored = []

    def record(x, cutoff):
        # The reference scores one row a call.
        values = problem.objective(x, cutoff)
        scored.append((x[0].copy(), values[0]))
        return values

    recorded = dataclasses.replace(problem, objective=record)
    box = isinstance(problem.domain, ContinuousBox) and problem.repair is None
    ahead = optimizer._SEASONS_AHEAD if box else 1
    sign = 1.0 if problem.sense == "min" else -1.0
    n = params.population_size
    one_by_one, tally = [], []
    for first in range(0, seasons, ahead):
        for after in reference_window(population, params, recorded, rng, min(ahead, seasons - first)):
            rows, values = (np.array(part) for part in zip(*scored))
            scored.clear()
            # Parents, then newborns, in a stable sort: the pool positions of the n kept.
            pool = [*population[1].tolist(), *values.tolist()]
            kept = sum(i >= n for i in sorted(range(len(pool)), key=lambda i: sign * pool[i])[:n])
            one_by_one.append((float(population[1][-1]), rows, values))
            tally.append((len(rows), kept, float(after[1][0])))
            population = after
    return population, one_by_one, tally


def windows_match_reference(problem, params, seed, windows=21, seasons=1):
    """Run ``windows`` calls of ``seasons`` seasons against as many reference seasons.

    ``seed`` seeds both generators, or is a generator that the reference gets
    a copy of.  The reference draws a call's seasons in its windows
    (:func:`reference_seasons`).  The populations and generator states must be
    equal before the first call and after each one, and the tally must be the
    reference's.  The objective calls of each call must match the reference
    seasons as :func:`match_spans` checks.  Returns the last population, the
    tally and the number of rows scored ahead and discarded.
    """
    calls = []

    def spy(x, cutoff):
        values = problem.objective(x, cutoff)
        calls.append((cutoff, x.copy(), values))
        return values

    def assert_same(got, got_rng, want, want_rng):
        assert (got[0].tobytes(), got[1].tobytes()) == (want[0].tobytes(), want[1].tobytes())
        # assert_equal, not ==: MT19937 and SFC64 hold arrays in their state dicts.
        np.testing.assert_equal(got_rng.bit_generator.state, want_rng.bit_generator.state)

    spied = dataclasses.replace(problem, objective=spy)
    got_rng = np.random.default_rng(seed)  # a generator comes back as it is
    want_rng = copy.deepcopy(got_rng)
    got = initialize_population(problem, params, got_rng)
    want = reference_initialize(problem, params, want_rng)
    assert_same(got, got_rng, want, want_rng)
    tally, discarded = [], 0
    for _ in range(windows):
        calls.clear()
        got = run_season(got, params, spied, got_rng, tally, seasons=seasons)
        want, one_by_one, want_tally = reference_seasons(want, params, problem, want_rng, seasons)
        assert_same(got, got_rng, want, want_rng)
        assert tally[-seasons:] == want_tally
        discarded += match_spans(calls, one_by_one, problem.sense)
    return got, tally, discarded


@pytest.mark.golden
class TestSeasonMatchesReference:
    @pytest.mark.parametrize("n", [4, 7, 30])
    @pytest.mark.parametrize("case", list(season_cases()))
    def test_twenty_seasons_bit_identical(self, case, n):
        got, _, _ = windows_match_reference(season_cases()[case], PfmParams(population_size=n), n)
        if case.startswith("box-ties"):
            assert len(set(got[1].tolist())) < n

    @pytest.mark.parametrize("case", list(season_cases()))
    def test_dominant_males_take_several_mates(self, case):
        # At dominance 0.3 a season has 4 or 5 dominant males among 12 to 18,
        # so each may take up to 2, 3 or 4 mates, where at the default 0.8
        # every male takes one.  More than 18 newborns a season on average
        # shows that some took several.
        params = PfmParams(population_size=30, dominance_factor=0.3)
        _, tally, _ = windows_match_reference(season_cases()[case], params, 30)
        assert sum(born for born, _, _ in tally) > 18 * 21

    @pytest.mark.parametrize("case", list(season_cases()))
    def test_seasons_compared_take_both_branches(self, case):
        # The 20 seasons that each comparison above checks, at the same sizes and seeds,
        # include seasons that return their input (no newborn enters) and seasons that merge.
        problem = season_cases()[case]
        returned_input = merged = 0
        for n in (4, 7, 30):
            params = PfmParams(population_size=n)
            rng = np.random.default_rng(n)
            population = initialize_population(problem, params, rng)
            for _ in range(20):
                out = run_season(population, params, problem, rng)
                if out[0] is population[0] and out[1] is population[1]:
                    returned_input += 1
                else:
                    merged += 1
                population = out
        assert returned_input > 0 and merged > 0

    @pytest.mark.parametrize("seasons", [3, 16, 40])
    @pytest.mark.parametrize("case", list(season_cases()))
    def test_window_matches_seasons_one_by_one(self, case, seasons):
        # A box window draws all its seasons ahead and mates them together, so
        # a call of 40 seasons runs windows of 16, 16 and 8, and it scores a
        # span of seasons per objective call; binary-repair runs its seasons
        # one at a time.  Either way each call must leave the population, the
        # per-season bests and the generator where as many reference seasons,
        # drawn in the same windows, leave them, and score their rows as the
        # reference scores its seasons one by one (match_spans).  In the
        # box-ties cases newborns enter mid-window, so later seasons mate
        # again; in the other box cases some spans score rows ahead that an
        # entrant discards.  Each population runs at least 21 seasons: a call
        # of 3 discards rows only where its second season admits a newborn
        # and its first does not.
        ahead = optimizer._SEASONS_AHEAD
        entered_mid_window = discarded = 0
        for n in (4, 7, 30):
            _, tally, ahead_rows = windows_match_reference(
                season_cases()[case], PfmParams(population_size=n), n, max(3, 21 // seasons), seasons
            )
            discarded += ahead_rows
            # A call's windows start at its seasons 0, 16, 32, ...
            places = [i % seasons for i in range(len(tally))]
            entered_mid_window += sum(
                kept > 0 for j, (_, kept, _) in zip(places, tally) if j < seasons - 1 and j % ahead < ahead - 1
            )
        if case.startswith("box-ties"):
            assert entered_mid_window > 0
        elif case.startswith("box"):
            assert discarded > 0
        else:
            assert discarded == 0

    def test_mate_matches_reference(self):
        rng = np.random.default_rng(3)
        params = PfmParams(call_intensity=0.3, colorfulness=0.05, gamma1=0.7, gamma2=1.3)
        for d in (1, 2, 5, 30):
            fathers = rng.normal(0.0, 10.0, (50, d))
            mothers = rng.normal(0.0, 10.0, (50, d))
            for p in (params, DEFAULTS):
                got = mate(fathers, mothers, p, np.random.default_rng(d).uniform(-1.0, 1.0, fathers.shape))
                a = pair_attractiveness(fathers, mothers, p)
                want_rng = np.random.default_rng(d)
                rands = want_rng.uniform(-1.0, 1.0, (50, d))
                want = [reference_mate(fathers[i], mothers[i], a[i], p, rands[i]) for i in range(50)]
                assert got.tobytes() == np.array(want).tobytes()
                # With zero mothers and no noise a newborn is A * father, so every bit of A shows.
                zeros = np.zeros_like(fathers)
                got = mate(fathers, zeros, p, zeros)
                assert got.tobytes() == (fathers * pair_attractiveness(fathers, zeros, p)[:, None]).tobytes()

    def test_integer_positions_mate_as_floats(self):
        # a repair hook may hand back integer positions
        fathers = np.array([[3, -1, 2], [0, 5, -2]])
        mothers = np.array([[1, 4, 2], [7, 0, 1]])
        got = mate(fathers, mothers, DEFAULTS, np.random.default_rng(0).uniform(-1.0, 1.0, fathers.shape))
        a = pair_attractiveness(fathers, mothers, DEFAULTS)
        want_rng = np.random.default_rng(0)
        rands = want_rng.uniform(-1.0, 1.0, (2, 3))
        want = [reference_mate(fathers[i], mothers[i], a[i], DEFAULTS, rands[i]) for i in range(2)]
        assert got.dtype == np.float64 and got.tobytes() == np.array(want).tobytes()


def pcg64_carrying_a_half(seed):
    # A scalar integers call takes a word's low half and keeps the high half for the next draw.
    rng = np.random.default_rng(seed)
    rng.integers(0, 10)
    assert rng.bit_generator.state["has_uint32"] == 1
    return rng


@pytest.mark.golden
class TestWindowMatchesReference:
    """A call's windows against :func:`reference_window`, which draws each partner and mate
    count with its own scalar ``integers`` call, down to the whole generator state."""

    @pytest.mark.parametrize(
        "make_rng",
        [
            np.random.default_rng,
            pcg64_carrying_a_half,
            lambda seed: np.random.Generator(np.random.MT19937(seed)),
            lambda seed: np.random.Generator(np.random.SFC64(seed)),
        ],
        ids=["pcg64", "pcg64-carrying-a-half", "mt19937", "sfc64"],
    )
    @pytest.mark.parametrize(
        "fields",
        [
            {"population_size": 4},
            # r near 1 at population 4 leaves one female, and integers draws nothing over one value.
            {"population_size": 4, "r_range": (0.9, 0.95)},
            # At population 6 or 7 some seasons let a dominant male take several mates; at
            # dominance 0.3 every season does, at 7 and at 30.
            {"population_size": 6},
            {"population_size": 7},
            {"population_size": 7, "dominance_factor": 0.3},
            {"population_size": 30},
            {"population_size": 30, "dominance_factor": 0.3},
        ],
        ids=[
            "population-4",
            "population-4-one-female",
            "population-6",
            "population-7",
            "population-7-dominance-0.3",
            "population-30",
            "population-30-dominance-0.3",
        ],
    )
    def test_windows_bit_identical(self, fields, make_rng):
        # Three calls of 40 seasons run windows of 16, 16 and 8.
        params = PfmParams(**fields)
        windows_match_reference(season_cases()["box-min"], params, make_rng(params.population_size), 3, 40)


class TestOptimize:
    def test_sphere_best_never_worsens(self):
        # Elitism alone guarantees this; test_sphere_strictly_improves_at_d30
        # is the check that the search improves on its initial best.
        params = PfmParams(population_size=30, max_iterations=50, seasons_per_iteration=3, seed=0)
        trace = optimize(sphere_problem(dim=2), params)
        bests = trace.best_per_iteration
        assert len(bests) == 50
        assert all(a >= b for a, b in zip(bests, bests[1:]))
        assert bests[-1] <= bests[0]

    def test_trace_holds_python_numbers(self):
        # repr comparisons and results.json read these lists as Python floats and ints.
        trace = optimize(sphere_problem(dim=2), PfmParams(max_iterations=7, seasons_per_iteration=5, seed=0))
        assert {type(v) for v in trace.best_per_iteration} == {float}
        assert {type(v) for v in trace.newborns + trace.survivors} == {int}

    @pytest.mark.xfail(
        strict=True,
        reason="the paper's mating rule stalls: at seed 0 and 200 iterations the 30-D sphere stays at 59604.45, "
        "keeping 0 of 9,040 newborns; even the 2-D one stays at 1073.79, with 0 improving iterations",
    )
    def test_sphere_strictly_improves_at_d30(self):
        trace = optimize(sphere_problem(dim=30), PfmParams(max_iterations=200, seed=0))
        assert trace.best_per_iteration[-1] < trace.best_per_iteration[0]

    @pytest.mark.xfail(
        strict=True,
        reason="the binary rule sets each bit with probability about 0.75: with bits 1-5 of 41 planted, "
        "PFM ends at a mean of 26.3 matching bits against 31.2 for random masks, wins 0 of 10 seeds, "
        "and truncation keeps 220 of 17,959 newborns",
    )
    def test_onemax_beats_random_masks(self):
        # OneMax on bit masks: a mask's fitness is the number of bits that
        # match the planted mask.  The baseline draws as many fair-coin masks
        # as the run evaluated, from its own stream.
        planted = np.zeros(41)
        planted[:5] = 1.0
        wins = 0
        for seed in range(10):
            problem = Problem(
                41,
                Binary(),
                lambda rows, cutoff: (rows == planted).sum(axis=1).astype(float),
                sense="max",
                repair=_repair_empty_mask,
            )
            trace = optimize(problem, PfmParams(max_iterations=40, seed=seed))
            masks = np.random.default_rng((seed, 99)).integers(0, 2, (trace.evaluations, 41))
            wins += trace.best_per_iteration[-1] > (masks == planted).sum(axis=1).max()
        assert wins > 5

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

    @pytest.mark.parametrize("sense", ["min", "max"])
    def test_cutoff_changes_no_answer(self, sense):
        # Every row that cannot beat the cutoff reports the cutoff itself:
        # truncation drops it all the same.
        exact = sphere_problem(dim=3, sense=sense)
        sign = 1.0 if sense == "min" else -1.0
        cutoffs, clipped_rows = [], []

        def clipped(x, cutoff):
            values = exact.objective(x, None)
            cutoffs.append(cutoff)
            if cutoff is None:
                return values
            dropped = sign * values >= sign * cutoff
            clipped_rows.append(int(np.count_nonzero(dropped & (values != cutoff))))
            return np.where(dropped, cutoff, values)

        params = PfmParams(population_size=10, max_iterations=20, seasons_per_iteration=2, seed=3)
        want = optimize(exact, params)
        got = optimize(Problem(3, exact.domain, clipped, sense=sense), params)
        assert cutoffs[0] is None and None not in cutoffs[1:] and sum(clipped_rows) > 0
        assert repr(got.best_per_iteration) == repr(want.best_per_iteration)
        assert got.best_solution.position.tobytes() == want.best_solution.position.tobytes()
        assert got.best_solution.fitness == want.best_solution.fitness
        for got_part, want_part in zip(got.final_population, want.final_population):
            assert got_part.tobytes() == want_part.tobytes()
        assert (got.evaluations, got.newborns, got.survivors) == (want.evaluations, want.newborns, want.survivors)

    def test_counts_objective_calls(self):
        # The reference's seasons one by one score each row once: the initial
        # population, then every newborn.  Spans of seasons add the rows
        # scored ahead and then discarded (match_spans).
        params = PfmParams(population_size=8, max_iterations=10, seasons_per_iteration=2, seed=0)
        sphere = Problem(2, ContinuousBox(np.full(2, -1.0), np.full(2, 1.0)), lambda x, cutoff: (x * x).sum(axis=1))
        calls = []

        def objective(x, cutoff):
            values = sphere.objective(x, cutoff)
            calls.append((cutoff, x.copy(), values))
            return values

        trace = optimize(dataclasses.replace(sphere, objective=objective), params)
        per, total = params.seasons_per_iteration, params.max_iterations * params.seasons_per_iteration
        rng = np.random.default_rng(params.seed)
        want, seasons, tally = reference_seasons(reference_initialize(sphere, params, rng), params, sphere, rng, total)
        rows = sum(len(x) for _, x, _ in calls)
        assert params.population_size + sum(len(x) for _, x, _ in seasons) == trace.evaluations > params.population_size
        discarded = match_spans(calls[1:], seasons, "min")
        assert rows == trace.evaluations + discarded and discarded > 0 and len(calls) < 1 + total
        for got, want_part in zip(trace.final_population, want):
            assert got.tobytes() == want_part.tobytes()
        iterations = [tally[i : i + per] for i in range(0, total, per)]
        assert trace.newborns == [sum(born for born, _, _ in iteration) for iteration in iterations]
        assert trace.survivors == [sum(kept for _, kept, _ in iteration) for iteration in iterations]

    def test_trace_holds_four_fields_and_derives_its_best_and_evaluations(self):
        params = PfmParams(population_size=10, max_iterations=5, seasons_per_iteration=2, seed=4)
        trace = optimize(sphere_problem(dim=3), params)
        names = [f.name for f in dataclasses.fields(RunTrace)]
        assert names == ["best_per_iteration", "final_population", "newborns", "survivors"]
        positions, fitness = trace.final_population
        best = trace.best_solution
        assert best.position.tobytes() == positions[0].tobytes() and best.fitness == fitness[0]
        assert type(best.fitness) is float and not np.shares_memory(best.position, positions)
        best.position[:] = 1e9  # a copy: the final population keeps its row 0
        assert trace.best_solution.position.tobytes() == positions[0].tobytes()
        assert trace.evaluations == params.population_size + sum(trace.newborns)

    def test_newborns_and_survivors_per_iteration(self):
        params = PfmParams(population_size=30, max_iterations=50, seasons_per_iteration=3, seed=0)
        trace = optimize(sphere_problem(dim=2), params)
        assert len(trace.newborns) == len(trace.survivors) == 50
        assert params.population_size + sum(trace.newborns) == trace.evaluations
        assert all(0 <= kept <= born for kept, born in zip(trace.survivors, trace.newborns))
        assert sum(trace.survivors) > 0

    def test_objective_must_return_one_value_per_row(self):
        problem = Problem(2, ContinuousBox(np.full(2, -1.0), np.full(2, 1.0)), lambda x, cutoff: float(np.sum(x * x)))
        with pytest.raises(EvaluationError, match="shape"):
            optimize(problem, PfmParams(population_size=5, max_iterations=2, seed=0))

    def test_binary_initialization_is_bernoulli(self):
        problem = Problem(2000, Binary(), lambda x, cutoff: x.sum(axis=1), sense="max")
        rng = np.random.default_rng(0)
        positions, _ = initialize_population(problem, PfmParams(population_size=4), rng)
        frequency = positions.mean()
        assert frequency == pytest.approx(0.5, abs=0.05)

    def test_non_finite_objective_reported_with_position(self):
        problem = Problem(
            2,
            ContinuousBox(np.full(2, -1.0), np.full(2, 1.0)),
            lambda x, cutoff: np.where(x[:, 0] > 0.5, np.nan, 0.0),
        )
        params = PfmParams(population_size=5, max_iterations=2, seed=0)
        with pytest.raises(EvaluationError, match="position"):
            optimize(problem, params)

    def test_first_non_finite_value_is_named(self):
        values = np.array([0.0, 1.0, np.inf, np.nan, 2.0])
        problem = Problem(2, ContinuousBox(np.full(2, -1.0), np.full(2, 1.0)), lambda x, cutoff: values)
        position = np.random.default_rng(0).uniform(-1.0, 1.0, size=(5, 2))[2]
        with pytest.raises(EvaluationError, match=re.escape(f"returned inf at position {position.tolist()}")):
            initialize_population(problem, PfmParams(population_size=5), np.random.default_rng(0))

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
            {"call_intensity": math.nan},
            {"colorfulness": math.inf},
            {"gamma1": math.inf},
            {"gamma2": math.nan},
            {"r_range": (0.4,)},
            {"r_range": (0.4, 0.5, 0.6)},
            {"r_range": ("0.4", "0.6")},
            {"r_range": (True, 0.6)},
            {"r_range": 0.5},
            {"r_range": "ab"},
            {"dominance_factor": "0.5"},
            {"gamma1": "1"},
            {"call_intensity": True},
            {"dominance_factor": True},
        ],
    )
    def test_invalid_params_rejected(self, bad):
        (name,) = bad
        with pytest.raises(ValueError, match=name):
            PfmParams(**bad)

    def test_r_range_list_stored_as_tuple(self):
        params = PfmParams(r_range=[0.45, 0.55])
        assert params.r_range == (0.45, 0.55) and hash(params) == hash(PfmParams(r_range=(0.45, 0.55)))

    @pytest.mark.parametrize("lower", [[np.nan, 0.0], [-np.inf, 0.0], [0.0, np.inf]])
    def test_non_finite_bounds_rejected(self, lower):
        with pytest.raises(ValueError, match="finite"):
            ContinuousBox(lower, [1.0, 1.0])

    @pytest.mark.parametrize("dimension", [2.5, 2.0, True, np.int64(2)])
    def test_non_int_dimension_rejected(self, dimension):
        with pytest.raises(ValueError, match="dimension must be an int"):
            Problem(dimension, Binary(), lambda x, cutoff: x.sum(axis=1))

    @pytest.mark.parametrize(
        "lower, upper, message",
        [
            ([0.0, 0.0], [1.0], "same length"),
            ([0.0, 1.0], [1.0, 1.0], "strictly below"),
            ([0.0, 2.0], [1.0, 1.0], "strictly below"),
        ],
        ids=["unequal-lengths", "lower-equals-upper", "lower-above-upper"],
    )
    def test_bad_box_rejected(self, lower, upper, message):
        with pytest.raises(ValueError, match=message):
            ContinuousBox(lower, upper)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"dimension": 0}, "dimension must be positive"),
            ({"sense": "best"}, "sense must be 'min' or 'max', got 'best'"),
            ({"dimension": 3}, "bound vectors must match the problem dimension"),
        ],
        ids=["dimension-0", "bad-sense", "bound-length"],
    )
    def test_bad_problem_rejected(self, fields, message):
        box = ContinuousBox(np.full(2, -1.0), np.full(2, 1.0))
        fields = {"dimension": 2, "domain": box, "objective": lambda x, cutoff: x.sum(axis=1), **fields}
        with pytest.raises(ValueError, match=re.escape(message)):
            Problem(**fields)

    def test_default_params_match_published_settings(self):
        p = PfmParams()
        assert p.gamma1 == 1.0 and p.gamma2 == 1.0
        assert p.call_intensity == 0.1 and p.colorfulness == 0.1
        assert p.dominance_factor == 0.8
        assert p.r_range == (0.4, 0.6)
