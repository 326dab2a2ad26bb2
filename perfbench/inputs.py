"""Seeded synthetic inputs for the benchmark workloads.

Every generator is a pure function of its arguments: the same seed gives the
same arrays and the same CSV bytes.  Nothing here imports peafowl, so the
inputs cannot depend on the code under test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N_FEATURES = 41  # NSL-KDD width
N_INFORMATIVE = 5
# Class centres sit GAP apart on each informative column, with Gaussian noise SIGMA.
GAP = 0.34
SIGMA = 0.11

# Stream ids keep the draws of different inputs independent of each other.
STREAM_INFORMATIVE = 0
STREAM_TRAIN = 1
STREAM_TEST = 2
STREAM_CV = 3
STREAM_FOLDS = 4
STREAM_RANDOM_SEARCH = 6


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def informative_columns(seed: int) -> np.ndarray:
    """Sorted indices of the planted columns; shared by every table of a seed."""
    rng = rng_for(seed, STREAM_INFORMATIVE)
    return np.sort(rng.choice(N_FEATURES, size=N_INFORMATIVE, replace=False))


def planted_table(n_rows: int, seed: int, stream: int, quantum: int = 0):
    """Two balanced classes separated along the informative columns.

    The other columns are uniform noise.  With ``quantum`` > 0 every value is
    rounded to a multiple of 1/quantum; with a power-of-two quantum every
    squared distance is then exact in float64, so distance ties are real ties
    whatever order an implementation sums in.  Returns ``(features, labels)``.
    """
    rng = rng_for(seed, stream)
    labels = rng.permutation(np.repeat([0, 1], [n_rows - n_rows // 2, n_rows // 2]))
    features = rng.random((n_rows, N_FEATURES))
    centers = np.where(labels == 1, 0.5 + GAP / 2, 0.5 - GAP / 2)
    for col in informative_columns(seed):
        features[:, col] = np.clip(centers + rng.normal(0.0, SIGMA, n_rows), 0.0, 1.0)
    if quantum:
        features = np.round(features * quantum) / quantum
    return features, labels


def fold_assignments(n_rows: int, k: int, seed: int) -> np.ndarray:
    """Seeded permutation dealt round-robin into k folds."""
    perm = rng_for(seed, STREAM_FOLDS).permutation(n_rows)
    assignments = np.empty(n_rows, dtype=int)
    assignments[perm] = np.arange(n_rows) % k
    return assignments


# --- NSL-KDD-layout CSV ------------------------------------------------------

CATEGORICAL_COLUMNS = (1, 2, 3)
LABEL_COLUMN = 41
DIFFICULTY_COLUMN = 42
COLUMN_COUNT = 43

PROTOCOLS = ("tcp", "udp", "icmp")
FLAGS = ("SF", "S0", "REJ", "RSTR", "RSTO", "SH", "S1", "S2", "RSTOS0", "S3", "OTH")
# The last four services occur only in test tables: unseen categories encode to 0.
SERVICES = tuple(f"svc{i:02d}" for i in range(70))
TRAIN_SERVICES = 66
LABELS = ("normal", "neptune", "smurf", "satan", "ipsweep", "portsweep", "nmap", "back",
          "teardrop", "warezclient", "pod", "guess_passwd", "buffer_overflow", "warezmaster")
VOCABULARIES = {1: PROTOCOLS, 2: SERVICES, 3: FLAGS}

_BINARY = (6, 11, 13, 14, 20, 21)
_SMALL_COUNTS = (7, 8, 9, 10, 12, 15, 16, 17, 18, 19)
_RATES = tuple(range(24, 32)) + tuple(range(34, 41))
_RATE_TEXT = tuple(f"{k / 100:.2f}" for k in range(101))


def _skewed(rng, n, size, shape=1.3):
    """Category codes in [0, n) with a Zipf-like skew, like real service counts."""
    weights = 1.0 / np.arange(1, n + 1) ** shape
    return rng.choice(n, size=size, p=weights / weights.sum())


@dataclass
class NslTable:
    """Generated values behind one CSV: what every cell means, before encoding."""

    numeric: np.ndarray  # (n, 41) float; categorical columns hold 0
    codes: np.ndarray  # (n, 3) int codes into VOCABULARIES, in CATEGORICAL_COLUMNS order
    label_codes: np.ndarray  # (n,) int codes into LABELS
    difficulty: np.ndarray  # (n,) int

    def csv_text(self) -> str:
        columns = []
        for c in range(N_FEATURES):
            if c in CATEGORICAL_COLUMNS:
                vocab = VOCABULARIES[c]
                codes = self.codes[:, CATEGORICAL_COLUMNS.index(c)].tolist()
                columns.append([vocab[v] for v in codes])
            elif c in _RATES:
                hundredths = np.rint(self.numeric[:, c] * 100).astype(int).tolist()
                columns.append([_RATE_TEXT[v] for v in hundredths])
            else:
                columns.append(list(map(str, self.numeric[:, c].astype(np.int64).tolist())))
        columns.append([LABELS[v] for v in self.label_codes.tolist()])
        columns.append(list(map(str, self.difficulty.tolist())))
        return "\n".join(map(",".join, zip(*columns))) + "\n"


def nsl_table(n_rows: int, seed: int, stream: int, test: bool = False) -> NslTable:
    """NSL-KDD-shaped rows: 3 categorical columns, 38 numeric, label, difficulty.

    Test tables draw from a few services the training tables never contain and
    have heavier byte tails, so the test-time path meets unseen categories and
    values outside the training bounds.
    """
    rng = rng_for(seed, stream)
    numeric = np.zeros((n_rows, N_FEATURES))
    numeric[:, 0] = np.where(rng.random(n_rows) < 0.9, 0, rng.integers(1, 40_000, n_rows))
    tail = 2.4 if test else 2.0
    numeric[:, 4] = np.floor(rng.lognormal(5.0, tail, n_rows))
    numeric[:, 5] = np.floor(rng.lognormal(4.0, tail, n_rows))
    for c in _BINARY:
        numeric[:, c] = rng.random(n_rows) < 0.2
    for c in _SMALL_COUNTS:
        numeric[:, c] = np.minimum(rng.poisson(0.3, n_rows), 30)
    numeric[:, 22] = rng.integers(0, 512, n_rows)
    numeric[:, 23] = rng.integers(0, 512, n_rows)
    numeric[:, 32] = rng.integers(0, 256, n_rows)
    numeric[:, 33] = rng.integers(0, 256, n_rows)
    for c in _RATES:
        numeric[:, c] = rng.integers(0, 101, n_rows) / 100
    n_services = len(SERVICES) if test else TRAIN_SERVICES
    codes = np.column_stack(
        [
            _skewed(rng, len(PROTOCOLS), n_rows, 1.0),
            _skewed(rng, n_services, n_rows),
            _skewed(rng, len(FLAGS), n_rows),
        ]
    )
    normal = rng.random(n_rows) < 0.53
    label_codes = np.where(normal, 0, 1 + _skewed(rng, len(LABELS) - 1, n_rows))
    difficulty = rng.integers(1, 22, n_rows)
    return NslTable(numeric, codes, label_codes, difficulty)
