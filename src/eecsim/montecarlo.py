"""Independent stochastic oracle for the analytic modules.

Spatial side: one sampler, :func:`_rep_sinr`, draws a Poisson network per
replication and returns the serving link's SINR under sectored-antenna
alignment, blockage and Nakagami fading; :func:`empirical_success_curve`
compares it with every threshold.  Temporal side: :func:`empirical_delay`
simulates trajectories of any :class:`~eecsim.chain.ChainModel` by
exponential races and estimates absorption delay and completion fractions.

Reproducibility contract: every replication draws from its own
counter-based stream derived from (master seed, replication index, purpose),
and aggregation is exact (integer counts, correctly rounded float sums), so
results are bit-identical no matter how replications are chunked across
workers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .chain import FAIL, ChainModel, _Lanes
from .coverage import CoverageQuery, RandomSelection, RankedSelection
from .errors import ParameterError
from .params import DeploymentParams, RadioParams, directivity_distribution, require_finite

__all__ = [
    "SimConfig",
    "CoverageEstimate",
    "DelayEstimate",
    "default_arena_radius",
    "empirical_success_curve",
    "empirical_delay",
]

_MAX_SEED = 2 ** 64 - 1
# stream-purpose tags keep spatial and trajectory draws decorrelated
_PURPOSE_SPATIAL = 1
_PURPOSE_TRAJECTORY = 2
_RESAMPLE_LIMIT = 10_000


@dataclass(frozen=True)
class SimConfig:
    """Replication count, master seed and interference window.

    ``arena_half_width_m`` is the radius of the disk interfering requesters
    are sampled in; ``None`` selects :func:`default_arena_radius`.
    """

    seed: int
    replications: int = 100_000
    arena_half_width_m: float | None = None

    def __post_init__(self):
        require_finite(self)
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not 0 <= self.seed <= _MAX_SEED:
            raise ParameterError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if not isinstance(self.replications, int) or isinstance(self.replications, bool) or self.replications < 1:
            raise ParameterError("replications must be an integer >= 1")
        if self.arena_half_width_m is not None and self.arena_half_width_m <= 0:
            raise ParameterError("arena_half_width_m must be positive")


def default_arena_radius(radio: RadioParams, deploy: DeploymentParams) -> float:
    """Interferer sampling radius.

    At least 10x the LoS radius, extended until the mean NLoS interference
    from beyond the window falls under 1e-4 of the noise floor (capped at
    100x the LoS radius).  Interference that matters comes from inside the
    LoS ball, so the 10x floor dominates in ordinary parameterizations.
    """
    rl = radio.los_radius_m
    floor = 10.0 * rl
    nu_r = deploy.requester_intensity_per_m2
    a_n = radio.pathloss_exp_nlos
    if nu_r <= 0.0 or a_n <= 2.0 or radio.noise_normalized <= 0.0:
        return floor
    mean_gain = sum(g * p for g, p in directivity_distribution(radio))
    # mean NLoS power past D: 2 pi nu_r E[gain] C_N D^(2-a_N) / (a_N - 2)
    budget = 1e-4 * radio.noise_normalized
    coeff = 2.0 * math.pi * nu_r * mean_gain * radio.intercept_nlos / (a_n - 2.0)
    tail_radius = (coeff / budget) ** (1.0 / (a_n - 2.0))
    return min(max(floor, tail_radius), 100.0 * rl)


def _spatial_key(seed: int, replication: int) -> np.ndarray:
    ss = np.random.SeedSequence((seed, replication, _PURPOSE_SPATIAL))
    return ss.generate_state(2, np.uint64)


@dataclass(frozen=True)
class CoverageEstimate:
    estimate: float
    std_error: float
    replications: int
    resampled_realizations: int
    xi_db: float


def _rep_sinr(rng, radio: RadioParams, deploy: DeploymentParams, selection,
              arena: float, gains: np.ndarray, gain_cum: np.ndarray,
              worker_centric: bool):
    """One replication's serving-link SINR, or None if no worker qualifies.

    The typical requester sits at the origin; workers cover the LoS disk
    (the only region a serving link may use) and interfering requesters the
    arena disk.  Only the serving worker's fade and each interferer's fade
    for its blockage class are drawn.  The serving worker is placed on the
    x-axis, which is distribution-preserving because the interferer field is
    isotropic.
    """
    rl = radio.los_radius_m
    mean_workers = deploy.mean_los_workers(rl)
    n_w = rng.poisson(mean_workers) if mean_workers > 0 else 0
    need = 1 if isinstance(selection, RandomSelection) else selection.rank
    if n_w < need:
        return None
    radii2 = rl * rl * rng.random(n_w)
    if isinstance(selection, RandomSelection):
        r0 = math.sqrt(radii2[int(rng.integers(n_w))])
    else:
        k = selection.rank
        r0 = math.sqrt(np.partition(radii2, k - 1)[k - 1])
    h0 = rng.standard_gamma(radio.nakagami_los) / radio.nakagami_los
    aligned = radio.main_lobe * radio.main_lobe
    signal = h0 * aligned * radio.intercept_los * r0 ** (-radio.pathloss_exp_los)

    nu_r = deploy.requester_intensity_per_m2
    n_r = rng.poisson(nu_r * math.pi * arena * arena) if nu_r > 0 else 0
    interference = 0.0
    if n_r:
        u = rng.random(3 * n_r)
        rad2 = (arena * arena) * u[:n_r]
        cos_ang = np.cos((2.0 * math.pi) * u[n_r:2 * n_r])
        u_gain = u[2 * n_r:]
        picks = ((u_gain > gain_cum[0]).astype(np.int64)
                 + (u_gain > gain_cum[1]) + (u_gain > gain_cum[2]))
        link_gains = gains[picks]
        # squared distance to the receiving worker at (r0, 0), law of cosines;
        # clamp the rounding of near-colocated points away from negative
        d2 = np.maximum(rad2 + r0 * r0 - (2.0 * r0) * np.sqrt(rad2) * cos_ang, 0.0)
        # blockage class per interfering link: anchored at the worker by
        # default, at the origin requester when toggled
        los = (d2 if worker_centric else rad2) <= rl * rl
        d2_los = d2[los]
        d2_nlos = d2[~los]
        n_l = radio.nakagami_los
        n_n = radio.nakagami_nlos
        fades_los = rng.standard_gamma(n_l, d2_los.size) / n_l
        fades_nlos = rng.standard_gamma(n_n, d2_nlos.size) / n_n
        interference = float(
            (fades_los * link_gains[los] * radio.intercept_los
             * d2_los ** (-0.5 * radio.pathloss_exp_los)).sum()
            + (fades_nlos * link_gains[~los] * radio.intercept_nlos
               * d2_nlos ** (-0.5 * radio.pathloss_exp_nlos)).sum())
    return signal / (radio.noise_normalized + interference)


def empirical_success_curve(cfg: SimConfig, query: CoverageQuery, xi_db_values,
                            los_classification: str = "worker",
                            chunk_size: int = 4096) -> list[CoverageEstimate]:
    """Estimate offloading success for several SINR thresholds at once.

    One SINR sample per replication is compared against every threshold;
    realizations with too few LoS workers for the selection rule are
    resampled (sequentially within the replication's own stream) and
    counted.  Results do not depend on ``chunk_size``.
    """
    xi_db_values = [float(x) for x in xi_db_values]
    thresholds = np.array([10.0 ** (x / 10.0) for x in xi_db_values])
    radio, deploy, selection = query.radio, query.deploy, query.selection
    if not isinstance(selection, (RandomSelection, RankedSelection)):
        raise ParameterError(f"unsupported selection {selection!r}")
    if los_classification not in ("worker", "requester"):
        raise ParameterError(f"unknown los_classification {los_classification!r}")
    worker_centric = los_classification == "worker"
    arena = (cfg.arena_half_width_m if cfg.arena_half_width_m is not None
             else default_arena_radius(radio, deploy))
    pairs = directivity_distribution(radio)
    gains = np.array([g for g, _ in pairs])
    gain_cum = np.cumsum([p for _, p in pairs])
    counts = np.zeros(len(thresholds), dtype=np.int64)
    resampled = 0
    reps = cfg.replications
    if chunk_size < 1:
        raise ParameterError("chunk_size must be >= 1")
    # one generator for the whole run, rewound to each replication's own
    # stream (Philox keyed by _spatial_key, counter at zero): the same draws
    # as a fresh generator per replication, without building one
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    for start in range(0, reps, chunk_size):
        for rep in range(start, min(start + chunk_size, reps)):
            state["state"]["key"] = _spatial_key(cfg.seed, rep)
            bitgen.state = state
            attempts = 0
            while True:
                sinr = _rep_sinr(rng, radio, deploy, selection, arena,
                                 gains, gain_cum, worker_centric)
                if sinr is not None:
                    break
                attempts += 1
                if attempts >= _RESAMPLE_LIMIT:
                    raise ParameterError(
                        "could not realize a network with enough LoS workers; "
                        "worker intensity is too small for this selection rule")
            resampled += attempts
            counts += sinr > thresholds
    out = []
    for xi_db, count in zip(xi_db_values, counts.tolist()):
        p = count / reps
        se = math.sqrt(p * (1.0 - p) / reps)
        out.append(CoverageEstimate(estimate=p, std_error=se, replications=reps,
                                    resampled_realizations=resampled, xi_db=xi_db))
    return out


@dataclass(frozen=True)
class DelayEstimate:
    mean_delay_s: float
    std_error_s: float
    completion_fraction: float
    replications: int


class _JumpTables:
    """Flattened jump structure of a chain for fast trajectory sampling.

    States get integer ids (``ids`` maps state to id), the start state
    (0, 0, 0) first; each transient state keeps its exit rate and the
    cumulative jump probabilities over the rate vectors of its block
    (:meth:`~eecsim.chain._Lanes.block`), moves in the vectors' order.
    """

    def __init__(self, model: ChainModel):
        n, budget = model.n, model.spare_budget
        levels = range(1 if budget is None else budget + 1)
        states = [(f, c, u) for f in range(n + 1) for c in range(n - f + 1) for u in levels]
        self.ids = ids = {state: i for i, state in
                          enumerate(states + ([] if budget is None else [FAIL]))}
        self.start = 0
        self.total_rate = [0.0] * len(ids)
        self.cum_probs: list[list[float]] = [[] for _ in ids]
        self.targets: list[list[int]] = [[] for _ in ids]
        self.success = {ids[n, 0, u] for u in levels}
        self.absorbing = self.success | {ids[FAIL]} if budget is not None else self.success
        lanes = _Lanes([model])
        for g in range(1, n + 1):
            f = n - g
            for u in levels:
                vectors = [v[:, 0].tolist() for v in lanes.block(g, u)]
                for c in range(g + 1):
                    lands = ((f, c - 1, u if budget is None else u + 1),
                             (f, c + 1, u), (f + 1, c - 1, u), FAIL)
                    moves = [(v[c], ids[target]) for v, target in zip(vectors, lands)
                             if v[c] > 0.0]
                    # accumulate() adds left to right; builtin sum() compensates
                    # on Python >= 3.12, which would move the exit rate by an ulp
                    rate = list(accumulate(r for r, _ in moves))[-1]
                    cum = list(accumulate(r / rate for r, _ in moves))
                    cum[-1] = 1.0
                    i = ids[f, c, u]
                    self.total_rate[i], self.cum_probs[i] = rate, cum
                    self.targets[i] = [j for _, j in moves]


def _trajectory_rng(seed: int, replication: int) -> random.Random:
    ss = np.random.SeedSequence((seed, replication, _PURPOSE_TRAJECTORY))
    words = ss.generate_state(2, np.uint64)
    return random.Random((int(words[0]) << 64) | int(words[1]))


def _run_trajectory(tables: _JumpTables, rng: random.Random) -> tuple[float, bool]:
    """One exponential-race trajectory, absorbed: (delay, completed)."""
    state = tables.start
    t = 0.0
    while state not in tables.absorbing:
        t += rng.expovariate(tables.total_rate[state])
        u = rng.random()
        cum = tables.cum_probs[state]
        # linear scan; fan-out is at most three transitions
        pick = 0
        while cum[pick] < u:
            pick += 1
        state = tables.targets[state][pick]
    return t, state in tables.success


def empirical_delay(cfg: SimConfig, model: ChainModel,
                    chunk_size: int = 4096) -> DelayEstimate:
    """Trajectory-averaged absorption delay and completion fraction.

    Deterministic for a given (seed, replications) pair; the mean is a
    correctly rounded sum of per-replication delays, so execution chunking
    cannot perturb the result.
    """
    if chunk_size < 1:
        raise ParameterError("chunk_size must be >= 1")
    tables = _JumpTables(model)
    reps = cfg.replications
    delays: list[float] = []
    completed = 0
    for start in range(0, reps, chunk_size):
        for rep in range(start, min(start + chunk_size, reps)):
            delay, done = _run_trajectory(tables, _trajectory_rng(cfg.seed, rep))
            delays.append(delay)
            completed += done
    mean = math.fsum(delays) / reps
    if reps > 1:
        var = math.fsum((d - mean) ** 2 for d in delays) / (reps - 1)
        se = math.sqrt(var / reps)
    else:
        se = math.inf
    return DelayEstimate(mean_delay_s=mean, std_error_s=se,
                         completion_fraction=completed / reps, replications=reps)
