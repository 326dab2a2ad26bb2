"""Peafowl-mating metaheuristic with a benchmark suite and wrapper feature selection."""

from . import benchmarks, data, errors, metrics, optimizer, selection, transfer
from .benchmarks import *  # noqa: F403
from .data import *  # noqa: F403
from .errors import *  # noqa: F403
from .metrics import *  # noqa: F403
from .optimizer import *  # noqa: F403
from .selection import *  # noqa: F403
from .transfer import *  # noqa: F403

__all__ = [
    name for module in (benchmarks, data, errors, metrics, optimizer, selection, transfer) for name in module.__all__
]

__version__ = "0.1.0"
