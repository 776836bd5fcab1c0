"""Exact polyhedral chains over normed coefficient groups.

Chains live in the unit box of R^d (d = 1, 2, 3) as formal sums of oriented
rational simplices, optionally backed by a Kuhn grid complex.  The package
computes boundary, mass, and flat norm (linear programming with an exact
rational referee route), builds controlled-mass cycle extensions, lifts
circle coefficients to real ones with certified mass ratios, and slices
codimension-one boundaries of grid functions exactly.  All certified
comparisons are exact: rational arithmetic plus closed-form square roots.
"""

from .approx import (ApproxError, StageReport, cycle_extension,
                     disjoint_representative, measured_shrink_distance,
                     shrink_toward, singular_translate, telescope)
from .chainfile import (ChainFileError, emit_chain, emit_grid_function,
                        load_chain, load_grid_function, parse_chain,
                        parse_grid_function, save_chain, save_grid_function)
from .chains import ChainError, PolyChain, prism, pushforward, subdivide
from .coarea import (CoareaReport, GridFunction, LevelSlice,
                     function_boundary, level_slices, verify_coarea)
from .flatnorm import CertificateError, FlatWitness, flat_norm, flat_norm_oracle
from .geometry import AffineMap, GeometryError, Simplex
from .grid import GridComplex, GridError, embed_on, grid_complex
from .groups import (CIRCLE, INTEGER, REAL, GroupError, ModPGroup, project,
                     section)
from .lifting import (LiftError, LiftReport, ThresholdProfile, br_correct,
                      fill_boundary, lift_coefficientwise, lift_flat,
                      lift_top_optimal, lift_top_threshold, loop_cancel,
                      project_chain, threshold_profile)
from .radicals import RadicalSum

__version__ = "0.1.0"

__all__ = [
    "ApproxError", "StageReport", "cycle_extension",
    "disjoint_representative", "measured_shrink_distance", "shrink_toward",
    "singular_translate", "telescope",
    "ChainFileError", "emit_chain", "emit_grid_function", "load_chain",
    "load_grid_function", "parse_chain", "parse_grid_function", "save_chain",
    "save_grid_function",
    "ChainError", "PolyChain", "prism", "pushforward", "subdivide",
    "CoareaReport", "GridFunction", "LevelSlice", "function_boundary",
    "level_slices", "verify_coarea",
    "CertificateError", "FlatWitness", "flat_norm", "flat_norm_oracle",
    "AffineMap", "GeometryError", "Simplex",
    "GridComplex", "GridError", "embed_on", "grid_complex",
    "CIRCLE", "INTEGER", "REAL", "GroupError", "ModPGroup", "project",
    "section",
    "LiftError", "LiftReport", "ThresholdProfile", "br_correct",
    "fill_boundary", "lift_coefficientwise", "lift_flat", "lift_top_optimal",
    "lift_top_threshold", "loop_cancel", "project_chain", "threshold_profile",
    "RadicalSum",
    "__version__",
]
