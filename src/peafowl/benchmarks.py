"""Classical 23-function benchmark suite.

F1-F7 are unimodal, F8-F13 multimodal (30 dimensions each) and F14-F23
fixed-dimension multimodal.  Coefficient tables for F14, F15 and F19-F23 are
taken verbatim from the classical evolutionary-programming test suite
(Yao, Liu & Lin, 1999).  Each function maps an ``(m, dimension)`` matrix to
its ``m`` row values; every reduction runs along a row.  For a C-ordered
float64 batch, as ``optimize`` passes, a row's value is bit for bit the same
whatever the rest of its batch.  In another memory order NumPy may sum a row
in another order: 11 of the 23 functions, F1 and F10 among them, give other
bits for a Fortran-ordered copy of 45 rows.  A seeded run gives the same bits
on any runner CPU except on F16, F19 and F20 (NumPy 2.4.6, x86-64): with
NumPy's AVX2 and AVX-512 kernels disabled, ``np.exp`` gives other bits, and
so do the row values of F10, F19 and F20, the final fitness of F19 and F20
runs (not their positions) and, through the optimizer's attractiveness, F16's
runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .optimizer import ContinuousBox, Problem

__all__ = [
    "BenchmarkFunction",
    "BENCHMARKS",
    "get_benchmark",
    "evaluate_benchmark",
    "make_problem",
]


# Powers above 2 are products of doubles, not NumPy's pow: a product is
# correctly rounded on every CPU, while NumPy's AVX-512 pow gives other bits
# than its baseline kernel.  A chain is exact wherever the power is a double,
# as on integer offsets up to 456, so on every F14 coordinate clipped to +-65,
# and otherwise within 3 ULP (fourth) or 5 ULP (sixth) of it, where pow is
# within 1.  Squares stay ``** 2``, which NumPy computes as ``x * x``.
def _pow4(d):
    d2 = d * d
    return d2 * d2


def _pow6(d):
    p = d * d
    p *= p * p
    return p


def _f1(x):
    return (x * x).sum(axis=1)


def _f2(x):
    ax = np.abs(x)
    return ax.sum(axis=1) + ax.prod(axis=1)


def _f3(x):
    return (np.cumsum(x, axis=1) ** 2).sum(axis=1)


def _f4(x):
    return np.abs(x).max(axis=1)


def _f5(x):
    return (100.0 * (x[:, 1:] - x[:, :-1] ** 2) ** 2 + (x[:, :-1] - 1.0) ** 2).sum(axis=1)


def _f6(x):
    return (np.floor(x + 0.5) ** 2).sum(axis=1)


# F7 and F11 weight coordinate i = 1..30; every caller passes 30 coordinates.
_I30 = np.arange(1, 31)
_SQRT_I30 = np.sqrt(_I30)


def _f7(x, rng):
    # One noise draw per row: the same stream as one draw per call on single rows.
    return (_I30 * _pow4(x)).sum(axis=1) + rng.random(len(x))


def _f8(x):
    return (-x * np.sin(np.sqrt(np.abs(x)))).sum(axis=1)


def _f9(x):
    return (x * x - 10.0 * np.cos(2.0 * np.pi * x) + 10.0).sum(axis=1)


def _f10(x):
    n = x.shape[1]
    return (
        -20.0 * np.exp(-0.2 * np.sqrt((x * x).sum(axis=1) / n))
        - np.exp(np.cos(2.0 * np.pi * x).sum(axis=1) / n)
        + 20.0
        + np.e
    )


def _f11(x):
    return (x * x).sum(axis=1) / 4000.0 - np.cos(x / _SQRT_I30).prod(axis=1) + 1.0


def _penalty(x, a, k):
    d = np.maximum(np.abs(x) - a, 0.0)  # |x| - a where |x| > a, else 0
    return (k * _pow4(d)).sum(axis=1)


def _f12(x):
    n = x.shape[1]
    y = 1.0 + (x + 1.0) / 4.0
    core = (
        10.0 * np.sin(np.pi * y[:, 0]) ** 2
        + ((y[:, :-1] - 1.0) ** 2 * (1.0 + 10.0 * np.sin(np.pi * y[:, 1:]) ** 2)).sum(axis=1)
        + (y[:, -1] - 1.0) ** 2
    )
    return np.pi / n * core + _penalty(x, 10.0, 100.0)


def _f13(x):
    core = (
        np.sin(3.0 * np.pi * x[:, 0]) ** 2
        + ((x[:, :-1] - 1.0) ** 2 * (1.0 + np.sin(3.0 * np.pi * x[:, 1:]) ** 2)).sum(axis=1)
        + (x[:, -1] - 1.0) ** 2 * (1.0 + np.sin(2.0 * np.pi * x[:, -1]) ** 2)
    )
    return 0.1 * core + _penalty(x, 5.0, 100.0)


# The 25 foxholes sit on a 5 x 5 grid: foxhole j (from 0) is at
# (_FOXHOLES_GRID[j % 5], _FOXHOLES_GRID[j // 5]).  So a row takes the sixth
# power of its 10 offsets from the grid lines, not of its 50 offsets from the
# foxholes, and each foxhole's term is one addition, as in a two-term row sum.
# The (m, 25) term array must be C-ordered before its row sum: NumPy sums a
# strided row in another order, and the fancy-indexed form
# ``p[:, 0, col] + p[:, 1, row]``, which is not C-ordered, changes the bits on
# 122 of the 300 seeded batches in tests/test_benchmarks.py ``TestFoxholes``.
# The reshape below keeps C order.
_FOXHOLES_GRID = np.array([-32.0, -16.0, 0.0, 16.0, 32.0])
_FOXHOLES_J = np.arange(1, 26).reshape(5, 5)  # row: the x2 offset, column: the x1 offset


def _f14(x):
    p = _pow6(x[:, :, None] - _FOXHOLES_GRID)
    inner = (_FOXHOLES_J + (p[:, 0, None, :] + p[:, 1, :, None])).reshape(len(x), 25)
    return 1.0 / (1.0 / 500.0 + (1.0 / inner).sum(axis=1))


_KOWALIK_A = np.array(
    [0.1957, 0.1947, 0.1735, 0.1600, 0.0844, 0.0627, 0.0456, 0.0342, 0.0323, 0.0235, 0.0246]
)
_KOWALIK_B = 1.0 / np.array([0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0])


def _f15(x):
    b = _KOWALIK_B
    x1, x2, x3, x4 = x.T[:, :, None]
    model = x1 * (b * b + b * x2) / (b * b + b * x3 + x4)
    return ((_KOWALIK_A - model) ** 2).sum(axis=1)


def _f16(x):
    x1, x2 = x.T
    return 4 * x1**2 - 2.1 * _pow4(x1) + _pow6(x1) / 3.0 + x1 * x2 - 4 * x2**2 + 4 * _pow4(x2)


def _f17(x):
    x1, x2 = x.T
    return (
        (x2 - 5.1 / (4 * np.pi**2) * x1**2 + 5.0 / np.pi * x1 - 6.0) ** 2
        + 10.0 * (1.0 - 1.0 / (8 * np.pi)) * np.cos(x1)
        + 10.0
    )


def _f18(x):
    x1, x2 = x.T
    a = 1 + (x1 + x2 + 1) ** 2 * (19 - 14 * x1 + 3 * x1**2 - 14 * x2 + 6 * x1 * x2 + 3 * x2**2)
    b = 30 + (2 * x1 - 3 * x2) ** 2 * (
        18 - 32 * x1 + 12 * x1**2 + 48 * x2 - 36 * x1 * x2 + 27 * x2**2
    )
    return a * b


_HARTMANN_ALPHA = np.array([1.0, 1.2, 3.0, 3.2])
_HARTMANN3_A = np.array([[3, 10, 30], [0.1, 10, 35], [3, 10, 30], [0.1, 10, 35]], dtype=float)
_HARTMANN3_P = np.array(
    [
        [0.3689, 0.1170, 0.2673],
        [0.4699, 0.4387, 0.7470],
        [0.1091, 0.8732, 0.5547],
        [0.03815, 0.5743, 0.8828],
    ]
)
_HARTMANN6_A = np.array(
    [
        [10, 3, 17, 3.5, 1.7, 8],
        [0.05, 10, 17, 0.1, 8, 14],
        [3, 3.5, 1.7, 10, 17, 8],
        [17, 8, 0.05, 10, 0.1, 14],
    ],
    dtype=float,
)
_HARTMANN6_P = 1e-4 * np.array(
    [
        [1312, 1696, 5569, 124, 8283, 5886],
        [2329, 4135, 8307, 3736, 1004, 9991],
        [2348, 1451, 3522, 2883, 3047, 6650],
        [4047, 8828, 8732, 5743, 1091, 381],
    ]
)


def _hartmann(x, a, p):
    inner = (a * (x[:, None, :] - p) ** 2).sum(axis=2)
    return -(_HARTMANN_ALPHA * np.exp(-inner)).sum(axis=1)


def _f19(x):
    return _hartmann(x, _HARTMANN3_A, _HARTMANN3_P)


def _f20(x):
    return _hartmann(x, _HARTMANN6_A, _HARTMANN6_P)


_SHEKEL_A = np.array(
    [
        [4, 4, 4, 4],
        [1, 1, 1, 1],
        [8, 8, 8, 8],
        [6, 6, 6, 6],
        [3, 7, 3, 7],
        [2, 9, 2, 9],
        [5, 5, 3, 3],
        [8, 1, 8, 1],
        [6, 2, 6, 2],
        [7, 3.6, 7, 3.6],
    ],
    dtype=float,
)
_SHEKEL_C = np.array([0.1, 0.2, 0.2, 0.4, 0.4, 0.6, 0.3, 0.7, 0.5, 0.5])


def _shekel(x, m):
    diff = x[:, None, :] - _SHEKEL_A[:m]
    return -(1.0 / ((diff * diff).sum(axis=2) + _SHEKEL_C[:m])).sum(axis=1)


def _f21(x):
    return _shekel(x, 5)


def _f22(x):
    return _shekel(x, 7)


def _f23(x):
    return _shekel(x, 10)


@dataclass(frozen=True)
class BenchmarkFunction:
    dimension: int
    lower: float
    upper: float
    f_min: float
    fn: Callable
    noisy: bool = False


BENCHMARKS: dict[str, BenchmarkFunction] = {
    "F1": BenchmarkFunction(30, -100, 100, 0.0, _f1),
    "F2": BenchmarkFunction(30, -10, 10, 0.0, _f2),
    "F3": BenchmarkFunction(30, -100, 100, 0.0, _f3),
    "F4": BenchmarkFunction(30, -100, 100, 0.0, _f4),
    "F5": BenchmarkFunction(30, -5, 10, 0.0, _f5),
    "F6": BenchmarkFunction(30, -100, 100, 0.0, _f6),
    "F7": BenchmarkFunction(30, -1.28, 1.28, 0.0, _f7, noisy=True),
    "F8": BenchmarkFunction(30, -500, 500, -418.9892 * 30, _f8),
    "F9": BenchmarkFunction(30, -5.12, 5.12, 0.0, _f9),
    "F10": BenchmarkFunction(30, -32, 32, 0.0, _f10),
    "F11": BenchmarkFunction(30, -600, 600, 0.0, _f11),
    "F12": BenchmarkFunction(30, -50, 50, 0.0, _f12),
    "F13": BenchmarkFunction(30, -50, 50, 0.0, _f13),
    "F14": BenchmarkFunction(2, -65, 65, 1.0, _f14),
    "F15": BenchmarkFunction(4, -5, 5, 0.00030, _f15),
    "F16": BenchmarkFunction(2, -5, 5, -1.0316, _f16),
    "F17": BenchmarkFunction(2, -5, 5, 0.398, _f17),
    "F18": BenchmarkFunction(2, -2, 2, 3.0, _f18),
    "F19": BenchmarkFunction(3, 0, 1, -3.86, _f19),
    "F20": BenchmarkFunction(6, 0, 1, -3.32, _f20),
    "F21": BenchmarkFunction(4, 0, 10, -10.1532, _f21),
    "F22": BenchmarkFunction(4, 0, 10, -10.4028, _f22),
    "F23": BenchmarkFunction(4, 0, 10, -10.5363, _f23),
}


def get_benchmark(name: str) -> BenchmarkFunction:
    try:
        return BENCHMARKS[name]
    except KeyError:
        raise ConfigError(f"unknown benchmark function: {name}") from None


def evaluate_benchmark(name: str, x, rng: Optional[np.random.Generator] = None) -> float:
    """Evaluate one benchmark at x, validating dimension and bounds.

    The noisy function F7 requires an explicit generator so that runs stay
    reproducible; all others ignore ``rng``.
    """
    bench = get_benchmark(name)
    x = np.asarray(x, dtype=float)
    if x.shape != (bench.dimension,):
        raise ValueError(
            f"{name} expects a vector of length {bench.dimension}, got shape {x.shape}"
        )
    if np.any(x < bench.lower) or np.any(x > bench.upper):
        raise ValueError(f"{name}: input outside [{bench.lower}, {bench.upper}]")
    if bench.noisy:
        if rng is None:
            raise ValueError(f"{name} is noisy and needs an explicit rng")
        return float(bench.fn(x[None], rng)[0])
    return float(bench.fn(x[None])[0])


def make_problem(name: str, seed: int) -> Problem:
    """Wrap a benchmark as a minimization problem over its box; its objective ignores the cutoff.

    For F7 the additive noise comes from a dedicated stream derived from
    ``seed`` so optimizer draws and noise draws never interleave: one value
    per row handed to it, rows that the run then discards included.  The
    problem owns that stream, so optimizing it again continues the stream
    and gives another run; make one problem per run, as the CLI does, for
    a run reproducible from the two seeds.
    """
    bench = get_benchmark(name)
    box = ContinuousBox(
        lower=np.full(bench.dimension, bench.lower, dtype=float),
        upper=np.full(bench.dimension, bench.upper, dtype=float),
    )
    if bench.noisy:
        noise_rng = np.random.default_rng((seed, 0xF7))
        objective = lambda x, cutoff: bench.fn(x, noise_rng)  # noqa: E731
    else:
        objective = lambda x, cutoff: bench.fn(x)  # noqa: E731
    return Problem(dimension=bench.dimension, domain=box, objective=objective, sense="min")
