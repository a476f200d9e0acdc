"""Scenario configuration: the preset, JSON loading and provenance hashing.

A scenario bundles the parameter groups every command needs.  The "table1"
preset covers the default mmWave deployment, so all commands run without a
configuration file; a JSON document may override any subset of fields.
Unknown keys anywhere are an error, which catches typos before they morph
into silently wrong sweeps.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace

from .collab import MecParams
from .errors import ConfigError, ParameterError
from .montecarlo import SimConfig
from .params import DeploymentParams, RadioParams, ReliabilityParams, TaskParams

__all__ = ["ScenarioConfig", "preset", "load_config", "resolve_config", "config_hash"]


@dataclass(frozen=True)
class ScenarioConfig:
    radio: RadioParams
    deploy: DeploymentParams
    task: TaskParams
    reliability: ReliabilityParams
    mec: MecParams
    sim: SimConfig


def preset() -> ScenarioConfig:
    """The table1 scenario: the default mmWave deployment."""
    return ScenarioConfig(
        radio=RadioParams(
            sinr_threshold_db=5.0,
            los_radius_m=100.0,
            pathloss_exp_los=2.0,
            pathloss_exp_nlos=4.0,
            nakagami_los=3,
            nakagami_nlos=2,
            intercept_los_db=-61.4,
            intercept_nlos_db=-72.0,
            main_lobe_db=5.0,
            side_lobe_db=-5.0,
            beamwidth_rad=math.radians(45.0),
            noise_normalized_db=-111.0,
        ),
        deploy=DeploymentParams(
            worker_intensity_per_m2=7e-4,
            requester_intensity_per_m2=1e-4,
        ),
        task=TaskParams(task_exec_rate_per_s=0.02, d2d_slot_s=1.0),
        reliability=ReliabilityParams(reliability_l=3.0, spare_budget=None),
        # one extra uplink attempt on average for the round trip to the server
        mec=MecParams(power_ratio=5.0, mec_task_rate_mu_f=0.02, offload_success_prob=0.5),
        sim=SimConfig(seed=2026, replications=100_000),
    )


_SECTIONS = {
    "radio": RadioParams,
    "deploy": DeploymentParams,
    "task": TaskParams,
    "reliability": ReliabilityParams,
    "mec": MecParams,
    "sim": SimConfig,
}


def resolve_config(document: dict | None = None) -> ScenarioConfig:
    """Apply a JSON-style override document on top of the preset."""
    document = document or {}
    base = preset()
    unknown = set(document) - set(_SECTIONS)
    if unknown:
        raise ConfigError(
            f"unknown configuration section(s) {sorted(unknown)}; "
            f"known sections are {sorted(_SECTIONS)}")
    updates = {}
    for section, cls in _SECTIONS.items():
        if section not in document:
            continue
        merged = asdict(getattr(base, section))
        overrides = document[section]
        if not isinstance(overrides, dict):
            raise ConfigError(f"section {section!r} must be an object")
        bad = set(overrides) - set(merged)
        if bad:
            raise ConfigError(
                f"section {section!r}: unknown key(s) {sorted(bad)}; "
                f"known keys are {sorted(merged)}")
        floats = {f.name for f in fields(cls) if f.type == "float"}
        for key, value in overrides.items():
            if isinstance(value, bool):
                raise ConfigError(f"{section}: {key} must be a number, got {json.dumps(value)}")
            # JSON may spell 300.0 as 300: one float, so one hash and one CSV
            # cell; an integer past the float range is left to the finiteness check
            if key in floats and isinstance(value, int) and abs(value) <= sys.float_info.max:
                value = float(value)
            merged[key] = value
        try:
            updates[section] = cls(**merged)
        except (ParameterError, TypeError) as exc:
            raise ConfigError(f"{section}: {exc}") from exc
    return replace(base, **updates)


def load_config(path: str | None) -> ScenarioConfig:
    """Load a scenario from a UTF-8 JSON file (or just expand the preset)."""
    if path is None:
        return resolve_config()
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ConfigError(f"config {path} must contain a JSON object")
    return resolve_config(document)


def config_hash(config: ScenarioConfig) -> str:
    """Stable short hash of the fully resolved configuration."""
    canonical = json.dumps(asdict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
