"""Weighted Triebel-Lizorkin spaces on finite dyadic grids.

Sequence-space norms, Muckenhoupt/inter-level weight-class audits, maximal
operators, band-limited filter transforms, and duality checks, all with exact
grid quadrature and brute-force oracles in the test suite.
"""

__version__ = "0.1.0"

from .dyadic import (
    DyadicCube,
    Grid,
    GridFunction,
    cubes_at_level,
    indicator,
    integrate,
)

__all__ = [
    "DyadicCube",
    "Grid",
    "GridFunction",
    "cubes_at_level",
    "indicator",
    "integrate",
    "__version__",
]
