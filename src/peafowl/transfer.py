"""Tanh transfer layer: maps real-valued coordinates to binary feature bits.

A raw coordinate x is kept with probability S(x) = tanh(|x|), which is even
in x, zero at the origin and saturates towards (but never reaches) 1.
"""

import numpy as np

from .errors import DataError

__all__ = ["transfer_s", "binarize"]

# float64 tanh rounds to exactly 1.0 for |x| >~ 19; keep the open upper bound.
_S_MAX = np.nextafter(1.0, 0.0)


def transfer_s(x):
    """Bit-selection probability tanh(|x|) for a coordinate (scalar or array).

    Always in [0, 1): even in x, 0 only at x = 0, monotone in |x|.
    """
    return np.minimum(np.tanh(np.abs(x)), _S_MAX)


def binarize(raw, rng):
    """Sample a 0/1 vector from a raw position, one uniform draw per dimension.

    Bit d is 1 iff u_d < tanh(|raw_d|) with u_d drawn uniformly from [0, 1),
    so a zero coordinate can never switch its bit on.  Consumes exactly
    len(raw) draws from ``rng``.
    """
    raw = np.asarray(raw, dtype=float)
    if not np.all(np.isfinite(raw)):
        raise DataError("binarize: raw position contains non-finite values")
    u = rng.random(raw.size)
    return (u < transfer_s(raw)).astype(float)
