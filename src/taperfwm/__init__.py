"""Simulator for delayed-pump intermodal four-wave-mixing photon-pair
sources in width-tapered multimode waveguides."""

__version__ = "0.1.0"

from .config import (
    SourceConfig,
    PumpSpec,
    GeometrySpec,
    DispersionSet,
    MismatchModel,
    NumericsSpec,
    Grid,
    RunParams,
    ValidationReport,
    ConfigWarning,
    table1_config,
    validate_config,
    derive_run_params,
    load_config,
)
from .pumps import PumpTrace, initial_envelopes, propagate_pumps, analytic_pumps
from .jta import (
    JointAmplitude,
    XiProfile,
    SimulationResult,
    evolve_jta,
    jsa_to_jta,
    jta_to_jsa,
    perturbative_oracle,
)
from .metrics import (
    MetricsReport,
    heralded_purity,
    mean_shift,
    arrival_times,
    analytic_arrival_times,
    ec_deviation,
    spectral_cumulative,
    compute_metrics,
)
from .interference import (
    PairStudy,
    DelayLineSpec,
    rhom_visibility,
    hhom_visibility,
    apply_time_shift,
    align_arrival_times,
    evaluate_pair,
    optimize_delays,
    delay_line_requirements,
)
from .analytic import ErfFit, erf_xi_profile, fit_erf
from .simulate import run_source
