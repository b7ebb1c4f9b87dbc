"""Intrinsic-volume inequalities for coordinate projections and sections
of convex bodies: exact and quadrature measure backends, an inequality
catalog with oriented-slack reports, extremal-body constructors, numeric
reproductions, and a seeded randomized search harness.
"""

from .bodies import (Ball, Body, DiskHull, NamedBody, VPolytope, Zonotope,
                     as_vpolytope, ball, convex_hull, cross_polytope, cube,
                     k1, k2, minkowski_sum, resolve, scale_body, support,
                     support_many, translate_body)
from .coordops import (EMPTY, g_symmetral, project, project_drop, section,
                       section_drop)
from .errors import (ConvexiqError, DimensionMismatch, InvalidArgument,
                     ParseError, UndefinedValue, UnsupportedMeasure,
                     UnsupportedOperation)
from .explorer import (ReproReport, ReproRow, SearchConfig, SearchResult,
                       chebyshev_sum_check, equatorial_support_ratio,
                       mean_width_ratio, run_repro, search,
                       sine_power_integral, support_ratio_profile)
from .inequalities import (CATALOG, IneqReport, catalog_ids,
                           cross_polytope_from_sections,
                           equality_case_classifier, evaluate,
                           min_mean_width_ratio, mth_lower_constant,
                           segment_from_projections)
from .io import CorpusSpec, dumps_body, generate_corpus, loads_body, read_body, write_body
from .measures import Measured, kappa, vm
from .quadrature import QuadratureEstimate, QuadratureSpec
from .symmetry import SignedPermutation, apply_symmetry, hyperoctahedral_group

__version__ = "0.1.0"

__all__ = [
    "Ball", "Body", "CATALOG", "ConvexiqError", "CorpusSpec",
    "DimensionMismatch", "DiskHull", "EMPTY", "IneqReport",
    "InvalidArgument", "Measured", "NamedBody", "ParseError",
    "QuadratureEstimate", "QuadratureSpec", "ReproReport", "ReproRow",
    "SearchConfig", "SearchResult", "SignedPermutation", "UndefinedValue",
    "UnsupportedMeasure", "UnsupportedOperation", "VPolytope", "Zonotope",
    "apply_symmetry", "as_vpolytope", "ball", "catalog_ids",
    "chebyshev_sum_check", "convex_hull", "cross_polytope",
    "cross_polytope_from_sections", "cube", "dumps_body",
    "equality_case_classifier", "equatorial_support_ratio", "evaluate",
    "g_symmetral", "generate_corpus", "hyperoctahedral_group", "k1", "k2",
    "kappa", "loads_body", "mean_width_ratio",
    "min_mean_width_ratio", "minkowski_sum", "mth_lower_constant",
    "project", "project_drop", "read_body", "resolve",
    "run_repro", "scale_body", "search", "section", "section_drop",
    "segment_from_projections", "sine_power_integral", "support", "support_many", "support_ratio_profile", "translate_body",
    "vm", "write_body",
]
