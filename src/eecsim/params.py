"""Physical-model parameters and the unit conversions shared by every module.

All user-facing quantities keep the units they are usually quoted in
(dB, dBi, meters, points/m^2).  Derived linear-domain values are read
through properties; downstream formulas never mix domains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError, ParameterError

TWO_PI = 2.0 * math.pi


def db_to_linear(value_db: float) -> float:
    """Convert a decibel quantity to a linear power ratio, 10^(x/10)."""
    if not math.isfinite(value_db):
        raise ParameterError(f"dB value must be finite, got {value_db!r}")
    return 10.0 ** (value_db / 10.0)


def require_finite(params) -> None:
    """Reject a NaN or infinite float in any field of a parameter dataclass.

    JSON scenario files can spell both (``NaN``, ``Infinity``), and range
    checks such as ``x <= 0`` let NaN through.
    """
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ParameterError(f"{f.name} must be finite, got {value!r}")


def alzer_eta(shape: int) -> float:
    """Tail constant N * (N!)^(-1/N) for an integer-shape gamma variate.

    Used to turn the gamma CDF of a Nakagami power gain into an alternating
    sum of exponentials; strictly increasing in the shape.
    """
    if not isinstance(shape, int) or isinstance(shape, bool) or shape < 1:
        raise ParameterError(f"gamma shape must be an integer >= 1, got {shape!r}")
    return shape * math.exp(-math.lgamma(shape + 1) / shape)


@dataclass(frozen=True)
class RadioParams:
    """mmWave channel, antenna, blockage and SINR-threshold parameters.

    dB/dBi fields are stored as given; the matching linear values are
    exposed as attributes computed at construction (``intercept_los``,
    ``main_lobe`` and so on).
    """

    sinr_threshold_db: float
    los_radius_m: float
    pathloss_exp_los: float
    pathloss_exp_nlos: float
    nakagami_los: int
    nakagami_nlos: int
    intercept_los_db: float
    intercept_nlos_db: float
    main_lobe_db: float
    side_lobe_db: float
    beamwidth_rad: float
    noise_normalized_db: float

    def __post_init__(self):
        require_finite(self)
        if self.los_radius_m <= 0:
            raise ParameterError("los_radius_m must be positive")
        if self.pathloss_exp_los < 2 or self.pathloss_exp_nlos < 2:
            raise ParameterError("pathloss exponents must be >= 2")
        for name in ("nakagami_los", "nakagami_nlos"):
            value = getattr(self, name)
            # integer shapes are required by the binomial tail expansion
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ParameterError(f"{name} must be an integer >= 1, got {value!r}")
        if self.main_lobe_db < self.side_lobe_db:
            raise ParameterError("main_lobe_db must be >= side_lobe_db")
        if not 0.0 < self.beamwidth_rad < TWO_PI:
            raise ParameterError("beamwidth_rad must lie in (0, 2*pi)")

    # Linear-domain views, converted on every read.
    @property
    def intercept_los(self) -> float:
        return db_to_linear(self.intercept_los_db)

    @property
    def intercept_nlos(self) -> float:
        return db_to_linear(self.intercept_nlos_db)

    @property
    def main_lobe(self) -> float:
        return db_to_linear(self.main_lobe_db)

    @property
    def side_lobe(self) -> float:
        return db_to_linear(self.side_lobe_db)

    @property
    def noise_normalized(self) -> float:
        return db_to_linear(self.noise_normalized_db)

    @property
    def alzer_los(self) -> float:
        return alzer_eta(self.nakagami_los)


def directivity_distribution(radio: RadioParams) -> list[tuple[float, float]]:
    """Four (gain, probability) pairs of the sectored-antenna alignment model.

    Gains are linear products of the two ends' main/side lobes; probabilities
    come from the beamwidth fraction of a uniformly random alignment and sum
    to one exactly.
    """
    big = radio.main_lobe
    small = radio.side_lobe
    frac = radio.beamwidth_rad / TWO_PI
    pairs = [
        (big * big, frac * frac),
        (big * small, frac * (1.0 - frac)),
        (small * big, (1.0 - frac) * frac),
        (small * small, (1.0 - frac) * (1.0 - frac)),
    ]
    return pairs


@dataclass(frozen=True)
class DeploymentParams:
    """Spatial intensities of workers and requesters (points per m^2)."""

    worker_intensity_per_m2: float
    requester_intensity_per_m2: float

    def __post_init__(self):
        require_finite(self)
        if self.worker_intensity_per_m2 < 0 or self.requester_intensity_per_m2 < 0:
            raise ParameterError("intensities must be nonnegative")

    def mean_los_workers(self, los_radius_m: float) -> float:
        """Expected worker count inside the line-of-sight disk."""
        return math.pi * self.worker_intensity_per_m2 * los_radius_m ** 2


@dataclass(frozen=True)
class TaskParams:
    """Task execution and timing parameters.

    ``task_exec_rate_per_s`` is the whole-task rate on a single worker; one
    of n equal segments therefore executes at rate ``n * task_exec_rate_per_s``.
    The segment count n is not a parameter: each command sweeps it.
    """

    task_exec_rate_per_s: float
    d2d_slot_s: float

    def __post_init__(self):
        require_finite(self)
        if self.task_exec_rate_per_s <= 0:
            raise ParameterError("task_exec_rate_per_s must be positive")
        if self.d2d_slot_s <= 0:
            raise ParameterError("d2d_slot_s must be positive")


@dataclass(frozen=True)
class ReliabilityParams:
    """Worker-failure parameters.

    A worker fails ``reliability_l`` times less often than it completes a
    whole task, so the per-worker failure rate with n segments is
    mu_f / (reliability_l * n).  ``spare_budget`` counts replacement workers
    available beyond the first n; ``None`` means unbounded replacements.
    """

    reliability_l: float
    spare_budget: int | None = None

    def __post_init__(self):
        require_finite(self)
        if self.reliability_l <= 0:
            raise ParameterError("reliability_l must be positive")
        if self.spare_budget is not None:
            if not isinstance(self.spare_budget, int) or isinstance(self.spare_budget, bool) or self.spare_budget < 0:
                raise ParameterError("spare_budget must be None or an integer >= 0")


def from_mapping(cls, data: dict, context: str = ""):
    """Build a parameter dataclass from a JSON-style mapping.

    Unknown keys are rejected so that typos in configuration files fail
    loudly instead of silently falling back to defaults.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{context or cls.__name__}: expected an object, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(
            f"{context or cls.__name__}: unknown key(s) {sorted(unknown)}; known keys are {sorted(known)}")
    try:
        return cls(**data)
    except ParameterError as exc:
        raise ConfigError(f"{context or cls.__name__}: {exc}") from exc
    except TypeError as exc:
        raise ConfigError(f"{context or cls.__name__}: {exc}") from exc
