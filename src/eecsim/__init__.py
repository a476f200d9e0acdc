"""Spatiotemporal model of parallel task offloading over extreme-edge devices.

Analytic offloading-success probabilities (stochastic-geometry coverage),
absorbing-chain delay and completion analysis, edge/MEC bias optimization,
and an independent Monte Carlo simulator that cross-validates every
analytic quantity.
"""

__version__ = "0.1.0"

from .chain import (
    ChainModel,
    build_baseline,
    build_failure_chain,
    build_level_dependent,
    completion_probability,
    mean_absorption_time,
    worker_idle_probability,
)
from .collab import (
    BiasPoint,
    MecParams,
    bias_sweep,
    combined_delay,
    congested_worker_intensity,
    eec_delay_under_bias,
    mec_delay,
    optimal_bias,
)
from .config import ScenarioConfig, config_hash, load_config, preset, resolve_config
from .coverage import (
    CoverageQuery,
    QuadratureConfig,
    RandomSelection,
    RankedSelection,
    interference_exponent_los,
    interference_exponent_nlos,
    ordered_distance_pdf,
    ranked_success_probabilities,
    success_curves,
    success_probability,
    worker_availability_mass,
)
from .errors import (
    ConfigError,
    ParameterError,
    QuadratureError,
    UnservableError,
)
from .montecarlo import (
    CoverageEstimate,
    DelayEstimate,
    SimConfig,
    default_arena_radius,
    empirical_delay,
    empirical_success_curve,
)
from .params import (
    DeploymentParams,
    RadioParams,
    ReliabilityParams,
    TaskParams,
    alzer_eta,
    db_to_linear,
    directivity_distribution,
)
