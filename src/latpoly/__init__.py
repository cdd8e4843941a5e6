"""Exact-arithmetic lattice polytope invariants and Cayley structure."""

__version__ = "0.1.0"

from . import lpx  # noqa: F401  (no runtime caller; the tests' LP oracle, traced by benchmarks/)

from .cayley import (
    CayleyDecomposition,
    LocalsplitReport,
    build,
    build_strict,
    check_localsplit,
    detect,
    generate,
    lattice_point,
    segment,
    width_candidates,
)
from .errors import InvalidPolytope, InvariantViolation, TheoremViolation
from .invariants import (
    InvariantReport,
    classify,
    codegree,
    degree,
    is_q_normal,
    nef_value,
    qcodegree,
)
from .polytope import (
    HPolytope,
    VPolytope,
    VertexData,
    canonicalize,
    facets,
    hpolytope,
    is_smooth,
    lattice_point_count,
    lattice_points,
    normal_fan_equal,
    reduce_vertices,
    shrink,
    vertex_data,
    vertices,
)

__all__ = [
    "CayleyDecomposition",
    "HPolytope",
    "InvalidPolytope",
    "InvariantReport",
    "InvariantViolation",
    "LocalsplitReport",
    "TheoremViolation",
    "VPolytope",
    "VertexData",
    "build",
    "build_strict",
    "canonicalize",
    "check_localsplit",
    "classify",
    "codegree",
    "degree",
    "detect",
    "facets",
    "generate",
    "hpolytope",
    "is_q_normal",
    "is_smooth",
    "lattice_point",
    "lattice_point_count",
    "lattice_points",
    "nef_value",
    "normal_fan_equal",
    "qcodegree",
    "reduce_vertices",
    "segment",
    "shrink",
    "vertex_data",
    "vertices",
    "width_candidates",
]
