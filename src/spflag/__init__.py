"""Exact-arithmetic toolkit for degenerate symplectic flag varieties."""

from .charring import (
    LaurentPoly,
    RationalPoint,
    weyl_character,
    weyl_dimension,
)
from .polytope import (
    dimension,
    dyck_paths,
    graded_character,
    lattice_points,
    phi_point_embed,
    polytope_spec,
)
from .rootsys import (
    Root,
    TypeA,
    TypeC,
    boundary_pairs,
    phi_embed,
    positive_roots,
    radical_pairs,
    root_vector_matrix,
    root_weight,
)

__all__ = [
    "LaurentPoly",
    "RationalPoint",
    "Root",
    "TypeA",
    "TypeC",
    "boundary_pairs",
    "dimension",
    "dyck_paths",
    "graded_character",
    "lattice_points",
    "phi_embed",
    "phi_point_embed",
    "polytope_spec",
    "positive_roots",
    "radical_pairs",
    "root_vector_matrix",
    "root_weight",
    "weyl_character",
    "weyl_dimension",
]

__version__ = "0.1.0"
