"""Exact disk invariants of Gorenstein semi-Fano toric orbifolds.

The pipeline: a stacky fan with its age-one twisted sectors is reduced, one
basic disk class at a time, to a toric Calabi-Yau chart; hypergeometric-type
correction series on the chart define a mirror coordinate change whose
inverse turns the closed-form chart data into generating functions of disk
invariants.  Everything is computed in exact rational arithmetic.
"""

from .lattice import (
    AmbiguousSolutionError,
    cone_contains,
    hermite_normal_form,
    integer_kernel,
    solve_rational,
)
from .mirror import (
    ChartPipeline,
    ComputationError,
    DiskGeneratingFunction,
    OrderTooLowError,
    PotentialData,
    UnsupportedInsertionsError,
    assemble_potential,
    disk_generating_function,
    extract_invariant,
)
from .oracle import oracle_generating_functions, sector_generating_functions
from .series import SeriesRing, TruncatedSeries, exp_series, log1p, solve_fixed_point
from .stacky import (
    BoxElement,
    DiskClassSymbol,
    FanError,
    StackyFan,
    anticones,
    box_elements,
    fan_sequence,
    gorenstein_check,
    semifano_check,
    validate,
    wall_curve_classes,
)
from .suborbifold import Suborbifold, build_suborbifold

__version__ = "0.1.0"

__all__ = [
    "AmbiguousSolutionError",
    "BoxElement",
    "ChartPipeline",
    "ComputationError",
    "DiskClassSymbol",
    "DiskGeneratingFunction",
    "FanError",
    "OrderTooLowError",
    "PotentialData",
    "SeriesRing",
    "StackyFan",
    "Suborbifold",
    "TruncatedSeries",
    "UnsupportedInsertionsError",
    "anticones",
    "assemble_potential",
    "box_elements",
    "build_suborbifold",
    "cone_contains",
    "disk_generating_function",
    "exp_series",
    "extract_invariant",
    "fan_sequence",
    "gorenstein_check",
    "hermite_normal_form",
    "integer_kernel",
    "log1p",
    "oracle_generating_functions",
    "sector_generating_functions",
    "semifano_check",
    "solve_fixed_point",
    "solve_rational",
    "validate",
    "wall_curve_classes",
]
