"""Stochastic simulator and analytics for quasicontinuous QND photon-number
measurements of a thermally damped field mode."""

__version__ = "0.1.0"

from .core import (
    BathParams,
    BirthDeathGenerator,
    PopulationVector,
    bath_from_gamma,
    build_generator,
    mean_photon,
    pure_level,
    thermal_populations,
    thermal_tail_mass,
)
from .dynamics import (
    ZenoDomainWarning,
    ZenoReport,
    mean_relaxation,
    propagate,
    survival_exponential,
    survival_product,
    transition_matrix,
    two_level_population,
    zeno_times,
)
from .measurement import (
    ProjectorPartition,
    ZeroProbabilityError,
    luders_collapse,
    outcome_probabilities,
)
from .protocol import Ensemble, MeasurementSchedule, run_ensemble
from .stats import (
    DwellStats,
    FitError,
    FitResult,
    FitWindow,
    SurvivalCurve,
    dwell_statistics,
    estimate_survival,
    fit_decay,
    ks_distance,
    time_average,
)
from .streams import SEED_DERIVATION

__all__ = [
    "BathParams",
    "BirthDeathGenerator",
    "DwellStats",
    "Ensemble",
    "FitError",
    "FitResult",
    "FitWindow",
    "MeasurementSchedule",
    "PopulationVector",
    "ProjectorPartition",
    "SEED_DERIVATION",
    "SurvivalCurve",
    "ZenoDomainWarning",
    "ZenoReport",
    "ZeroProbabilityError",
    "bath_from_gamma",
    "build_generator",
    "dwell_statistics",
    "estimate_survival",
    "fit_decay",
    "ks_distance",
    "luders_collapse",
    "mean_photon",
    "mean_relaxation",
    "outcome_probabilities",
    "propagate",
    "pure_level",
    "run_ensemble",
    "survival_exponential",
    "survival_product",
    "thermal_populations",
    "thermal_tail_mass",
    "time_average",
    "transition_matrix",
    "two_level_population",
    "zeno_times",
]
