"""Exact-arithmetic toolkit for degenerate symplectic flag varieties."""

from .charring import (
    weyl_character,
    weyl_dimension,
)
from .fixedpoints import evaluate
from .polytope import (
    dimension,
    graded_character,
    lattice_points,
    polytope_spec,
)
from .rootsys import (
    TypeA,
    TypeC,
    boundary_pairs,
    radical_pairs,
    root_weight,
)

__all__ = [
    "TypeA",
    "TypeC",
    "boundary_pairs",
    "dimension",
    "evaluate",
    "graded_character",
    "lattice_points",
    "polytope_spec",
    "radical_pairs",
    "root_weight",
    "weyl_character",
    "weyl_dimension",
]

__version__ = "0.1.0"
