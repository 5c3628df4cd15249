"""Subgroup lattices, class posets, breaking points, two-interval covers.

The root holds the queries of README's Library block and the error
classes; everything else is read from its submodule: groups, subgroups,
posets, structure, verify and cli.
"""

from .errors import (
    LatcoverError,
    OrderCapExceeded,
    PrimeNotInOrder,
    SpecInvalid,
    SubgroupCapExceeded,
)
from .posets import breaking_points, two_interval_cover
from .verify import analyze_spec

__version__ = "0.1.0"

__all__ = [
    "analyze_spec",
    "breaking_points",
    "two_interval_cover",
    "LatcoverError",
    "SpecInvalid",
    "OrderCapExceeded",
    "SubgroupCapExceeded",
    "PrimeNotInOrder",
    "__version__",
]
