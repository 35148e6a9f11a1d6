"""Exact solvers, kernelizations and generators for red-blue covering with lines.

An instance is a universe of blue and red elements, a family of sets (in the
geometric case: maximal collinear subsets of a planar point set), a bound on
how many sets may be chosen, and a bound on how many red elements the chosen
sets may touch.  The question is whether some subfamily covers every blue
element within both bounds.
"""

from .dp import dp_solve
from .fpt import (
    SolveStats,
    solve_bounded_red,
    solve_kl_kr,
    solve_one_blue_special,
    solve_rbsc_kr_two_red,
    solve_two_blue_special,
)
from .geometry import LineEquation, PlanePoint, canonical_line, collinear, intersect, maximal_collinear_family
from .kernel import kernelize_ell, kernelize_kl_kr, kernelize_kl_r
from .model import Instance, Solution, parse_instance, serialize_instance, validate, verify
from .oracle import brute_force_solve, solve_rbsc_by_red_subsets

__all__ = [
    "Instance",
    "LineEquation",
    "PlanePoint",
    "Solution",
    "SolveStats",
    "brute_force_solve",
    "canonical_line",
    "collinear",
    "dp_solve",
    "intersect",
    "kernelize_ell",
    "kernelize_kl_kr",
    "kernelize_kl_r",
    "maximal_collinear_family",
    "parse_instance",
    "serialize_instance",
    "solve_bounded_red",
    "solve_kl_kr",
    "solve_one_blue_special",
    "solve_rbsc_kr_two_red",
    "solve_rbsc_by_red_subsets",
    "solve_two_blue_special",
    "validate",
    "verify",
]
