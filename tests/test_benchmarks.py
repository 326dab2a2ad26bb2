import dataclasses
import hashlib
from fractions import Fraction

import numpy as np
import pytest

from peafowl import benchmarks, optimizer
from peafowl import (
    BENCHMARKS,
    ConfigError,
    PfmParams,
    evaluate_benchmark,
    get_benchmark,
    make_problem,
    optimize,
)

class TestRegistry:
    def test_twenty_three_functions(self):
        assert list(BENCHMARKS) == [f"F{i}" for i in range(1, 24)]
        assert [name for name, bench in BENCHMARKS.items() if bench.noisy] == ["F7"]

    def test_dimensions_and_ranges(self):
        assert all(BENCHMARKS[f"F{i}"].dimension == 30 for i in range(1, 14))
        assert BENCHMARKS["F1"].lower == -100 and BENCHMARKS["F1"].upper == 100
        assert BENCHMARKS["F5"].lower == -5 and BENCHMARKS["F5"].upper == 10
        assert BENCHMARKS["F7"].upper == 1.28
        assert BENCHMARKS["F8"].f_min == -418.9892 * 30
        assert [BENCHMARKS[n].dimension for n in ("F14", "F15", "F19", "F20", "F21")] == [
            2, 4, 3, 6, 4,
        ]

    def test_unknown_function(self):
        with pytest.raises(ConfigError, match="F99"):
            get_benchmark("F99")


class TestReferencePoints:
    # (name, optimum point, expected value); points found by desk search
    # against the classical formulas before the build.
    CASES = [
        ("F1", np.zeros(30), 0.0),
        ("F2", np.zeros(30), 0.0),
        ("F3", np.zeros(30), 0.0),
        ("F4", np.zeros(30), 0.0),
        ("F5", np.ones(30), 0.0),
        ("F6", np.zeros(30), 0.0),
        ("F9", np.zeros(30), 0.0),
        ("F10", np.zeros(30), 0.0),
        ("F11", np.zeros(30), 0.0),
        ("F12", -np.ones(30), 0.0),
        ("F13", np.ones(30), 0.0),
    ]

    @pytest.mark.parametrize("name,point,expected", CASES, ids=[c[0] for c in CASES])
    def test_exact_minima(self, name, point, expected):
        assert evaluate_benchmark(name, point) == pytest.approx(expected, abs=1e-9)

    def test_schwefel_reference_within_half_percent(self):
        value = evaluate_benchmark("F8", np.full(30, 420.9687))
        assert abs(value - (-418.9892 * 30)) <= 0.005 * abs(-418.9892 * 30)

    def test_fixed_dimension_known_points(self):
        assert evaluate_benchmark("F16", [0.08984, -0.71266]) == pytest.approx(-1.0316, abs=1e-3)
        assert evaluate_benchmark("F17", [np.pi, 2.275]) == pytest.approx(0.398, abs=1e-3)
        assert evaluate_benchmark("F18", [0.0, -1.0]) == pytest.approx(3.0, abs=1e-3)

    def test_foxholes_and_shekel_references(self):
        assert evaluate_benchmark("F14", [-32.0, -32.0]) == pytest.approx(0.998, abs=1e-2)
        assert evaluate_benchmark("F21", [4.0, 4.0, 4.0, 4.0]) == pytest.approx(-10.1532, abs=1e-3)
        assert evaluate_benchmark("F22", [4.0, 4.0, 4.0, 4.0]) == pytest.approx(-10.4028, abs=1e-3)
        assert evaluate_benchmark("F23", [4.0, 4.0, 4.0, 4.0]) == pytest.approx(-10.5363, abs=1e-3)
        assert evaluate_benchmark("F19", [0.114614, 0.555649, 0.852547]) == pytest.approx(
            -3.86278, abs=1e-4
        )


class TestValidation:
    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="length 2"):
            evaluate_benchmark("F16", [0.0, 0.0, 0.0])

    def test_fixed_dimension_functions_reject_wrong_inputs(self):
        for name in ("F14", "F15", "F19", "F20", "F21"):
            with pytest.raises(ValueError):
                evaluate_benchmark(name, np.zeros(30))

    def test_out_of_box_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            evaluate_benchmark("F1", np.full(30, 101.0))

    def test_noisy_function_needs_rng(self):
        with pytest.raises(ValueError, match="rng"):
            evaluate_benchmark("F7", np.zeros(30))


class TestProperties:
    def test_sign_flip_symmetry(self):
        rng = np.random.default_rng(0)
        for name in ("F1", "F9", "F10", "F11"):
            bench = BENCHMARKS[name]
            for _ in range(100):
                x = rng.uniform(bench.lower, bench.upper, bench.dimension)
                signs = rng.choice([-1.0, 1.0], bench.dimension)
                assert evaluate_benchmark(name, x) == pytest.approx(
                    evaluate_benchmark(name, x * signs), rel=1e-12, abs=1e-12
                )

    def test_f7_noise_bounded(self):
        rng = np.random.default_rng(1)
        x = np.full(30, 0.5)
        deterministic = float(np.sum(np.arange(1, 31) * x**4))
        for _ in range(1000):
            noise = evaluate_benchmark("F7", x, rng) - deterministic
            assert 0.0 <= noise < 1.0


# The classical foxhole table, one column per foxhole.
FOXHOLES_A = np.array(
    [
        [-32, -16, 0, 16, 32] * 5,
        [-32] * 5 + [-16] * 5 + [0] * 5 + [16] * 5 + [32] * 5,
    ],
    dtype=float,
)


# The per-vector formulas the suite had before it was row-batched, kept as the
# oracle for the row form.  Coefficient tables come from the module.
def _penalty_1d(x, a, k, m):
    out = np.zeros_like(x)
    out[x > a] = k * (x[x > a] - a) ** m
    out[x < -a] = k * (-x[x < -a] - a) ** m
    return float(out.sum())


def _f12_1d(x):
    y = 1.0 + (x + 1.0) / 4.0
    core = (
        10.0 * np.sin(np.pi * y[0]) ** 2
        + ((y[:-1] - 1.0) ** 2 * (1.0 + 10.0 * np.sin(np.pi * y[1:]) ** 2)).sum()
        + (y[-1] - 1.0) ** 2
    )
    return float(np.pi / x.size * core + _penalty_1d(x, 10.0, 100.0, 4))


def _f13_1d(x):
    core = (
        np.sin(3.0 * np.pi * x[0]) ** 2
        + ((x[:-1] - 1.0) ** 2 * (1.0 + np.sin(3.0 * np.pi * x[1:]) ** 2)).sum()
        + (x[-1] - 1.0) ** 2 * (1.0 + np.sin(2.0 * np.pi * x[-1]) ** 2)
    )
    return float(0.1 * core + _penalty_1d(x, 5.0, 100.0, 4))


def _f15_1d(x):
    b = benchmarks._KOWALIK_B
    model = x[0] * (b * b + b * x[1]) / (b * b + b * x[2] + x[3])
    return float(((benchmarks._KOWALIK_A - model) ** 2).sum())


def _f17_1d(x):
    x1, x2 = x
    return float(
        (x2 - 5.1 / (4 * np.pi**2) * x1**2 + 5.0 / np.pi * x1 - 6.0) ** 2
        + 10.0 * (1.0 - 1.0 / (8 * np.pi)) * np.cos(x1)
        + 10.0
    )


def _f18_1d(x):
    x1, x2 = x
    a = 1 + (x1 + x2 + 1) ** 2 * (19 - 14 * x1 + 3 * x1**2 - 14 * x2 + 6 * x1 * x2 + 3 * x2**2)
    b = 30 + (2 * x1 - 3 * x2) ** 2 * (18 - 32 * x1 + 12 * x1**2 + 48 * x2 - 36 * x1 * x2 + 27 * x2**2)
    return float(a * b)


def _hartmann_1d(x, a, p):
    return float(-(benchmarks._HARTMANN_ALPHA * np.exp(-(a * (x[None, :] - p) ** 2).sum(axis=1))).sum())


def _shekel_1d(x, m):
    diff = x[None, :] - benchmarks._SHEKEL_A[:m]
    return float(-(1.0 / ((diff * diff).sum(axis=1) + benchmarks._SHEKEL_C[:m])).sum())


def _f10_1d(x):
    n = x.size
    return float(
        -20.0 * np.exp(-0.2 * np.sqrt((x * x).sum() / n))
        - np.exp(np.cos(2.0 * np.pi * x).sum() / n)
        + 20.0
        + np.e
    )


def _f16_1d(x):
    x1, x2 = x
    return float(4 * x1**2 - 2.1 * x1**4 + x1**6 / 3.0 + x1 * x2 - 4 * x2**2 + 4 * x2**4)


PER_VECTOR = {
    "F1": lambda x: float((x * x).sum()),
    "F2": lambda x: float(np.abs(x).sum() + np.abs(x).prod()),
    "F3": lambda x: float((np.cumsum(x) ** 2).sum()),
    "F4": lambda x: float(np.abs(x).max()),
    "F5": lambda x: float((100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (x[:-1] - 1.0) ** 2).sum()),
    "F6": lambda x: float((np.floor(x + 0.5) ** 2).sum()),
    "F7": lambda x, rng: float((np.arange(1, x.size + 1) * x**4).sum() + rng.random()),
    "F8": lambda x: float((-x * np.sin(np.sqrt(np.abs(x)))).sum()),
    "F9": lambda x: float((x * x - 10.0 * np.cos(2.0 * np.pi * x) + 10.0).sum()),
    "F10": _f10_1d,
    "F11": lambda x: float((x * x).sum() / 4000.0 - np.cos(x / np.sqrt(np.arange(1, x.size + 1))).prod() + 1.0),
    "F12": _f12_1d,
    "F13": _f13_1d,
    "F14": lambda x: float(
        1.0
        / (
            1.0 / 500.0
            + (1.0 / (np.arange(1, 26) + ((x[:, None] - FOXHOLES_A) ** 6).sum(axis=0))).sum()
        )
    ),
    "F15": _f15_1d,
    "F16": _f16_1d,
    "F17": _f17_1d,
    "F18": _f18_1d,
    "F19": lambda x: _hartmann_1d(x, benchmarks._HARTMANN3_A, benchmarks._HARTMANN3_P),
    "F20": lambda x: _hartmann_1d(x, benchmarks._HARTMANN6_A, benchmarks._HARTMANN6_P),
    "F21": lambda x: _shekel_1d(x, 5),
    "F22": lambda x: _shekel_1d(x, 7),
    "F23": lambda x: _shekel_1d(x, 10),
}


class TestRowBatches:
    @pytest.mark.parametrize("name", list(BENCHMARKS))
    def test_row_alone_equals_row_in_batch_and_per_vector_formula(self, name):
        bench = BENCHMARKS[name]
        rows = np.random.default_rng(int(name[1:])).uniform(bench.lower, bench.upper, (45, bench.dimension))
        # F7's noise: one draw per row, from one stream whether the rows come together or alone.
        streams = [(np.random.default_rng(7),) if bench.noisy else () for _ in range(3)]
        batch = bench.fn(rows, *streams[0])
        alone = np.array([bench.fn(row[None], *streams[1])[0] for row in rows])
        assert batch.shape == (45,) and batch.dtype == np.float64
        assert batch.tobytes() == alone.tobytes()
        want = [PER_VECTOR[name](row, *streams[2]) for row in rows]
        np.testing.assert_allclose(batch, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("power, chain, roundings", [(4, benchmarks._pow4, 3), (6, benchmarks._pow6, 5)])
class TestPowers:
    # The chains against the exact power of each double.  Each product is
    # rounded once, by a factor within 1 +- 2**-53, and the square's rounding
    # enters a fourth power twice and a sixth power three times: 3 and 5
    # roundings in all, so at most 3 and 5 ULP.  Seeded values reach 3.35 ULP
    # on the sixth power.
    def test_within_roundings_of_exact_power(self, power, chain, roundings):
        rng = np.random.default_rng(power)
        d = np.concatenate(
            [
                rng.uniform(-100.0, 100.0, 5000),  # every offset the suite takes a power of
                rng.uniform(-1.0, 1.0, 5000) * np.exp2(rng.integers(-30, 31, 5000)),
            ]
        )
        for got, x in zip(chain(d).tolist(), d.tolist()):
            exact = Fraction(x) ** power
            assert abs(Fraction(got) - exact) <= ((1 + Fraction(1, 2**53)) ** roundings - 1) * exact, x

    def test_exact_on_integers(self, power, chain, roundings):
        # Every integer whose sixth power is below 2**53, so every product is a double.
        d = np.arange(-456, 457)
        assert [int(v) for v in chain(d.astype(float))] == [int(i) ** power for i in d]


@pytest.mark.golden
class TestRowValueDigests:
    # The SHA-256 of each function's values on 200 seeded rows, uniform in
    # its box.  They must read the same with NumPy's AVX2 and AVX-512 kernels
    # off, as CI checks; F10, F19 and F20 are left out, because np.exp gives
    # other bits there.
    DIGESTS = {
        "F1": "e14d6a427000a76a0edcf2d1d5f66fafbf0420a8027ab7da14eb8f6ede5bb0ee",
        "F2": "844aa8824ed885c96af7879738bf29254b7fd003c0e9b2a4289b0b436ca1626a",
        "F3": "21953e089fe439b10f0c340fdd0e8f418483a6a52666ba71fab3a7778c062611",
        "F4": "8646ad11ba0f1593b568f3bb492ed298136b142ff0f14da58c237fc2c19c4159",
        "F5": "4d4a4f3525729139b70eadb0be18182c460fd5198b30020c3c6582de0dd3c32b",
        "F6": "f98b1cf4a4da5b92a04ded009719b4ea9fc84e8f83071e0ccbc914753de53cd8",
        "F7": "b23596baf2f5079ff3dd2bf3f8e1eb47f69166370efbf85b264e1fb101876d09",
        "F8": "c8118ed4078397c856ed487ff958c1e86a1d679ea000827224a14fa5fd0525d7",
        "F9": "6ffb9beea69a5633b9f3f44de04b25468b79dd39d27ea7070a92d0543503499e",
        "F11": "f5e8c12624de4d010e2254a74ffaa8723d92b66571f8cae8b31863573efb647d",
        "F12": "1333dd86ae698357dacf8aa883d7f556c2d44abc7e269fb4d08a9169f449e8c9",
        "F13": "891b2611cf443a57b68635e04823b3d172dbde396b1e0665d4ec475ef7f59302",
        "F14": "7bd12cc30e8a26d9e91f02d67b981677f09b50674fafb66fba74d41f3b97abca",
        "F15": "8f7482ee06ebaff3401dfbb41823a9c08646126e5d19bae85bd33b04b0a8b692",
        "F16": "8f7093a65d229f69d955dff1d9a221c8a534416da5f6ef0894fec6df5c02ce29",
        "F17": "6c8331e851ce75c701c62140f3eee4c1cfa1d23a054422426cc14cd768b328fa",
        "F18": "0b0b6ca784459aba55005eda179cd7bf13590a239e241d300cd408df43672117",
        "F21": "5d36a10242e90eb843d4e96141cb57c662e2ac03bfbe2d8cca6d441554232472",
        "F22": "3ce4d8053f7a4c94f4d31579c47fc43c62277488fcbae3afd92f316975ab7faa",
        "F23": "d2b304ab3d7f4b6b56490bfa18bf560ed89cee8b58d2ce143a9a44c7e953fdac",
    }

    @pytest.mark.parametrize("name", list(DIGESTS))
    def test_row_values_match_digest(self, name):
        bench = BENCHMARKS[name]
        rows = np.random.default_rng(int(name[1:])).uniform(bench.lower, bench.upper, (200, bench.dimension))
        values = bench.fn(rows, np.random.default_rng(7)) if bench.noisy else bench.fn(rows)
        assert hashlib.sha256(values.tobytes()).hexdigest() == self.DIGESTS[name]


def sixth(d):
    """d**6 by the chain F14 uses: one square, then the square times its square."""
    d2 = d * d
    return d2 * (d2 * d2)


# F14 as it was before it took the sixth power per grid offset, with one
# power per foxhole coordinate: the oracle that _f14 must match bit for bit.
def f14_oracle(x):
    inner = np.arange(1, 26) + sixth(x[:, :, None] - FOXHOLES_A).sum(axis=1)
    return 1.0 / (1.0 / 500.0 + (1.0 / inner).sum(axis=1))


def f14_batches():
    """Seeded C-ordered batches: uniform in the box, mostly clipped to +-65, and on foxhole centres."""
    rng = np.random.default_rng(14)
    for m in (1, 2, 15, 45, 1000):
        for _ in range(20):
            yield rng.uniform(-65.0, 65.0, (m, 2))
            # about 97% of the coordinates on the bound, as in a campaign's clipped newborns
            yield np.clip(rng.uniform(-2000.0, 2000.0, (m, 2)), -65.0, 65.0)
            yield FOXHOLES_A.T[rng.integers(0, 25, m)]


def assert_matches_f14_oracle(f14):
    for x in f14_batches():
        assert x.flags.c_contiguous and x.dtype == np.float64
        assert f14(x).tobytes() == f14_oracle(x).tobytes(), f"{len(x)} rows"


class TestFoxholes:
    def test_matches_per_foxhole_oracle_bit_for_bit(self):
        assert_matches_f14_oracle(benchmarks._f14)

    def test_oracle_catches_a_term_array_out_of_c_order(self):
        # The same terms, gathered by fancy indexing into a non-C (m, 25)
        # array: its row sum adds them in another order.
        col, row = np.tile(np.arange(5), 5), np.repeat(np.arange(5), 5)

        def strided_f14(x):
            p = sixth(x[:, :, None] - benchmarks._FOXHOLES_GRID)
            terms = p[:, 0, col] + p[:, 1, row]
            assert len(x) == 1 or not terms.flags.c_contiguous
            inner = np.arange(1, 26) + terms
            return 1.0 / (1.0 / 500.0 + (1.0 / inner).sum(axis=1))

        with pytest.raises(AssertionError, match="rows"):
            assert_matches_f14_oracle(strided_f14)


def run_trace_digest(trace):
    positions, fitness = trace.final_population
    counts = np.array([trace.newborns, trace.survivors], dtype=np.int64)
    return hashlib.sha256(positions.tobytes() + fitness.tobytes() + counts.tobytes()).hexdigest()


@pytest.mark.golden
class TestRunTraceDigests:
    # The final population, newborns and survivors of seeded 20-iteration
    # runs.  The bench goldens hold best values only, which a stalled search
    # never changes, so they miss a changed draw; these see it.  At
    # population 6 some seasons let a dominant male take two mates.  F7's
    # objective draws noise per row, so it sees a change to the order of the
    # rows the objective gets; it sees a change to which rows it gets only in
    # a run where a span of seasons discards rows, that is one that admits a
    # newborn.  Its 20-iteration run admits none; its 60-iteration run admits
    # 2.  Five seasons an iteration make iterations end inside a window of
    # seasons mated together.
    CASES = {
        ("F1", 30, 3): "5c2df85c404942404670de822f1ccd205580e52dfcbae11f54b8f9dfa25cf51f",
        ("F10", 30, 3): "0ec416c27a657c9344d1453eb4175a62fa52b0e0defb32c600831b9bcf3046de",
        ("F14", 30, 3): "acc24905be8ea2104e97d993c581342d5d4b698803ca20fa31ec81d74fd629bc",
        ("F14", 6, 3): "2fe0537553ec7d1a213d9f754cf8a0d4eaf9596f15459128af10f4893a485234",
        ("F7", 30, 3): "c53c12e5b023a7ff429ff23eca98ea4de29d2002ddd1a94b49999fbf94843888",
        ("F10", 30, 5): "89cdfa4c428343acfcb4d43d81b870b5af2fa1ee3505164c05ad065e876ddcbb",
        ("F7", 30, 3, 60): "5e5c8be5d8a4ef27e12dd4453b4a71e6b49a02da3f0713fe0e13cb4cb49f62d9",
    }
    # The 20-iteration runs with windows of one season, which draw what a season drew
    # before a box window made each kind of draw in one call.  The F1 and F10
    # digests predate that change, so only the grouping of the draws moved
    # theirs above; the F7 and F14 ones date from when their powers became
    # products of doubles, which changed their objective's bits.
    ONE_SEASON_WINDOWS = {
        ("F1", 30, 3): "651eb4b505c20a60552cac245e0896ec8d2ce6494c27a305ec43f7bd48f3f309",
        ("F10", 30, 3): "576fb69b0c37fe1ddf87157653337d9a554b48566248bb2054e7af90f1ece9a6",
        ("F14", 30, 3): "f8f380b77f5d8da966cce989c0fc92672cff72f78aa064dac627325c590c1fd1",
        ("F14", 6, 3): "a2955af7ee6b11211c3ee52ae4cffa8d49d86a8d4a9b902c20be9b70d97b2eb4",
        ("F7", 30, 3): "a62dfe7d32c911b1e7aa95c07b046dadd3481423a96a0230dc84291cd0a00a91",
        ("F10", 30, 5): "b06cb92db151b0d8f07fa5ad522ed53bfc161e96bd27bc7630f12e935c401559",
    }

    # A key is (function, population, seasons an iteration[, iterations, 20 if left out]).
    @pytest.mark.parametrize(
        "case,one_season_windows",
        [(case, False) for case in CASES] + [(case, True) for case in ONE_SEASON_WINDOWS],
        ids=[
            f"{n}-population-{p}"
            + (f"-seasons-{s}" if s != 3 else "")
            + "".join(f"-iterations-{i}" for i in rest)
            + ("-one-season-windows" if one else "")
            for one, cases in ((False, CASES), (True, ONE_SEASON_WINDOWS))
            for n, p, s, *rest in cases
        ],
    )
    def test_run_trace_is_pinned(self, monkeypatch, case, one_season_windows):
        digests = self.CASES
        if one_season_windows:
            monkeypatch.setattr(optimizer, "_SEASONS_AHEAD", 1)
            digests = self.ONE_SEASON_WINDOWS
        name, population_size, seasons, iterations = (*case, 20)[:4]
        params = PfmParams(population_size, max_iterations=iterations, seasons_per_iteration=seasons, seed=0)
        trace = optimize(make_problem(name, seed=0), params)
        assert run_trace_digest(trace) == digests[case]


def test_f7_problem_continues_its_noise_stream():
    params = PfmParams(max_iterations=5, seed=0)
    first, fresh = (optimize(make_problem("F7", seed=3), params) for _ in range(2))
    assert run_trace_digest(first) == run_trace_digest(fresh)
    reused = make_problem("F7", seed=3)
    assert run_trace_digest(optimize(reused, params)) == run_trace_digest(first)
    assert run_trace_digest(optimize(reused, params)) != run_trace_digest(first)


@pytest.mark.golden
class TestSpanBatchesMatchRowsAlone:
    # A box run scores a span of seasons in one objective call.  Every
    # function must give a row the same bits in that batch as alone: the run
    # must be the one whose objective is called one row at a time.  F7 draws
    # its noise one value per row either way.  Both runs share one process, so
    # this holds in any CPU mode, including the one where runs of F16, F19
    # and F20 give other bits.
    @pytest.mark.parametrize(
        "params",
        [
            PfmParams(population_size=6, max_iterations=30),
            PfmParams(population_size=11, dominance_factor=0.3, seasons_per_iteration=5, max_iterations=20),
            PfmParams(),
        ],
        ids=["population-6", "population-11-dominance-0.3-seasons-5", "defaults"],
    )
    @pytest.mark.parametrize("name", list(BENCHMARKS))
    def test_run_matches_one_row_per_call(self, name, params):
        batches = optimize(make_problem(name, seed=0), params)
        problem = make_problem(name, seed=0)
        alone = dataclasses.replace(
            problem, objective=lambda x, cutoff: np.concatenate([problem.objective(row[None], cutoff) for row in x])
        )
        rows_alone = optimize(alone, params)
        for got, want in zip(batches.final_population, rows_alone.final_population):
            assert got.tobytes() == want.tobytes()
        assert (batches.newborns, batches.survivors) == (rows_alone.newborns, rows_alone.survivors)
        assert repr(batches.best_per_iteration) == repr(rows_alone.best_per_iteration)
