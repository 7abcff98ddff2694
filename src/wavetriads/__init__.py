"""Resonant wave triads over finite integer spectral domains.

Enumerates exact and approximate three-wave resonances for several
dispersion relations (exact rational arithmetic on the spherical path),
classifies modes into active/passive/neutral classes, computes discrepancy
lower bounds and experiment-planning quantities.
"""

from .dispersion import (
    BasinGeometry,
    DispersionSpec,
    Frequency,
    LIQUID_PRESETS,
    SpectralDomain,
    WaveVector,
    domain_for,
    eval_frequency,
    rescale_for_basin,
    to_hz,
)
from .errors import DomainError, UsageError, WavetriadsError
from .search import (
    BoundReport,
    DiscrepancyBound,
    Triad,
    discrepancy,
    discrepancy_lower_bound,
    find_exact_triads,
    find_max_discrepancy_triads,
    find_near_triads,
)
from .classify import (
    CascadeStep,
    ModePartition,
    cascade_path,
    class_counts,
    classify_modes,
    minimal_near_resonant,
)
from .experiment import (
    ExperimentPlan,
    GeometrySweepReport,
    geometry_sweep,
    plan_experiment,
    planetary_amplitude_bound,
    steepness_amplitude,
)
from .report import to_json, triads_to_csv

__version__ = "0.1.0"

__all__ = [
    "BasinGeometry", "BoundReport", "CascadeStep", "DiscrepancyBound",
    "DispersionSpec", "DomainError", "ExperimentPlan", "Frequency",
    "GeometrySweepReport", "LIQUID_PRESETS", "ModePartition",
    "SpectralDomain", "Triad", "UsageError", "WaveVector",
    "WavetriadsError", "cascade_path", "class_counts", "classify_modes",
    "discrepancy", "discrepancy_lower_bound", "domain_for",
    "eval_frequency", "find_exact_triads", "find_max_discrepancy_triads",
    "find_near_triads", "geometry_sweep", "minimal_near_resonant",
    "plan_experiment", "planetary_amplitude_bound", "rescale_for_basin",
    "steepness_amplitude", "to_hz", "to_json", "triads_to_csv",
]
