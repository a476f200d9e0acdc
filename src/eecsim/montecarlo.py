"""Independent stochastic oracle for the analytic modules.

Spatial side: one sampler, :func:`_rep_sinr`, draws a Poisson network per
replication and returns the serving link's SINR under sectored-antenna
alignment, blockage and Nakagami fading; :func:`empirical_success_curve`
compares it with every threshold.  Temporal side: :func:`empirical_delay`
simulates trajectories of a batch of :class:`~eecsim.chain.ChainModel` by
exponential races and estimates absorption delay and completion fractions.

Reproducibility contract: every replication draws from its own stream,
keyed by numpy's seed-sequence hash of (master seed, replication, purpose),
which :func:`_stream_keys` computes for a chunk at once.  Aggregation is
exact (integer counts, correctly rounded float sums), so results do not
depend on chunking.  The models of one :func:`empirical_delay` call step a
chunk's replications as lockstep numpy lanes over each stream's one shared
prefix, so a model's estimate is the same alone or in any batch.
"""

from __future__ import annotations

import math
import random
from array import array
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
        # a replication index past 32 bits is an entropy word _stream_keys lacks
        if (not isinstance(self.replications, int) or isinstance(self.replications, bool)
                or not 1 <= self.replications <= 2 ** 32):
            raise ParameterError("replications must be an integer from 1 to 2**32")
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


def _hasher(const: int, mult: int):
    """The hashmix of numpy's seed sequence (O'Neill, "Developing a seed_seq
    Alternative", 2015) on uint32 arrays, with its running constant."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & 0xFFFFFFFF
        value = value * const
        return value ^ value >> 16
    return hashmix


def _stream_keys(seed: int, start: int, stop: int, purpose: int) -> np.ndarray:
    """Row i: numpy's seed-sequence ``generate_state(2, np.uint64)`` for the
    entropy (seed, start + i, purpose).  The entropy words (seed words from
    the lowest, replication, purpose) fill the four-word pool, every pool
    word is mixed into every other, and four words are drawn; a replication
    index below 2**32 is one word, so the pool never takes a fifth."""
    reps = np.arange(start, stop, dtype=np.uint32)
    seed_words = [seed >> shift & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)]
    words = [np.full_like(reps, w) for w in seed_words] + [reps, np.full_like(reps, purpose)]
    words += [np.zeros_like(reps)] * (4 - len(words))
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = pool[dst] * 0xCA01F9DD - hashmix(pool[src]) * 0x4973F715
                pool[dst] = mixed ^ mixed >> 16
    draw = _hasher(0x8B51F9DD, 0x58F38DED)
    out = [draw(word).astype(np.uint64) for word in pool]
    return np.stack([out[1] << 32 | out[0], out[3] << 32 | out[2]], axis=1)


@dataclass(frozen=True)
class CoverageEstimate:
    estimate: float
    std_error: float
    resampled_realizations: int


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
    thresholds = np.array([10.0 ** (float(x) / 10.0) for x in xi_db_values])
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
    # stream (Philox keyed by its two 64-bit key words, counter at zero): the
    # same draws as a fresh generator per replication, without building one
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    for start in range(0, reps, chunk_size):
        for key in _stream_keys(cfg.seed, start, min(start + chunk_size, reps), _PURPOSE_SPATIAL):
            state["state"]["key"] = key
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
    for count in counts.tolist():
        p = count / reps
        se = math.sqrt(p * (1.0 - p) / reps)
        out.append(CoverageEstimate(estimate=p, std_error=se, resampled_realizations=resampled))
    return out


@dataclass(frozen=True)
class DelayEstimate:
    mean_delay_s: float
    std_error_s: float
    completion_fraction: float


class _JumpTables:
    """Jump structure of a chain as padded arrays for trajectory sampling.

    States get integer ids (``ids`` maps state to id), the start state
    (0, 0, 0) first.  Row i holds state i's exit rate and, over its at most
    three moves in the order of its block's rate vectors
    (:meth:`~eecsim.chain._Lanes.block`), the cumulative jump probabilities
    and targets, padded with 1 and -1.  Absorbing rows have rate 0.
    """

    def __init__(self, model: ChainModel):
        n, budget = model.n, model.spare_budget
        levels = range(1 if budget is None else budget + 1)
        states = [(f, c, u) for f in range(n + 1) for c in range(n - f + 1) for u in levels]
        self.ids = ids = {state: i for i, state in
                          enumerate(states + ([] if budget is None else [FAIL]))}
        self.rate = np.zeros(len(ids))
        self.cum = np.ones((len(ids), 3))
        self.targets = np.full((len(ids), 3), -1)
        self.success = np.zeros(len(ids), dtype=bool)
        self.success[[ids[n, 0, u] for u in levels]] = True
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
                    self.rate[i] = rate
                    self.cum[i, :len(cum)] = cum
                    self.targets[i, :len(moves)] = [j for _, j in moves]
        # the builders reject zero rates, so every transient state has an exit
        self.absorbing = self.rate == 0.0


def _prefixes(rng: random.Random, keys: np.ndarray, steps: int) -> np.ndarray:
    """The first ``4 * steps`` 32-bit outputs of each key's stream, in order
    (``getrandbits`` packs them little-endian): a step takes two ``random()``
    values of two outputs each.  The key words are one int, high word first."""
    words = np.empty((len(keys), 4 * steps), dtype=np.uint32)
    for row, key in zip(words, keys):
        rng.seed(int(key[0]) << 64 | int(key[1]))
        row[:] = np.frombuffer(rng.getrandbits(128 * steps).to_bytes(16 * steps, "little"),
                               dtype="<u4")
    return words


def _trajectories(table: _JumpTables, words: np.ndarray, rng: random.Random,
                  keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Delays of a chunk's replications, in order of absorption, and the count
    of successes.  The replications step together as lanes: the sojourn is
    drawn as ``expovariate`` does from the step's first uniform, the move is
    the first whose cumulative probability reaches the second, and lanes
    that outrun the prefix ``words`` redraw one twice as long."""
    lanes = rows = np.arange(len(keys))
    state, t = np.zeros_like(lanes), np.zeros(lanes.size)
    delays, successes, step = [], 0, 0
    while lanes.size:
        if 4 * step == words.shape[1]:
            words = _prefixes(rng, keys[lanes], 2 * step)
            rows = np.arange(lanes.size)
        w = words[rows, 4 * step:4 * step + 4]
        # random() as CPython builds it: 27 and 26 bits of two outputs
        u = ((w[:, 0::2] >> 5) * 67108864.0 + (w[:, 1::2] >> 6)) / 9007199254740992.0
        # math.log as expovariate takes it: np.log can differ in the last bit
        logs = np.fromiter(map(math.log, (1.0 - u[:, 0]).tolist()), float, lanes.size)
        t += -logs / table.rate[state]
        state = table.targets[state, np.argmax(table.cum[state] >= u[:, 1:], axis=1)]
        done = table.absorbing[state]
        delays.append(t[done])
        successes += int(np.count_nonzero(table.success[state[done]]))
        live = ~done
        lanes, rows, state, t = lanes[live], rows[live], state[live], t[live]
        step += 1
    return np.concatenate(delays), successes


def empirical_delay(cfg: SimConfig, models: list[ChainModel],
                    chunk_size: int = 4096) -> list[DelayEstimate]:
    """Trajectory-averaged absorption delay and completion fraction, per model.

    Each chunk of ``chunk_size`` replications seeds its streams once, and
    every model replays them.  Each mean is a correctly rounded sum of
    per-replication delays, so neither chunking nor the order in which
    trajectories end can perturb the result.
    """
    if chunk_size < 1:
        raise ParameterError("chunk_size must be >= 1")
    tables = [_JumpTables(model) for model in models]
    reps = cfg.replications
    delays = [array("d") for _ in tables]
    completed = [0] * len(tables)
    rng = random.Random()
    # the shortest trajectory of the largest chain: n allocations, n completions
    steps = 2 * max((model.n for model in models), default=0)
    for start in range(0, reps, chunk_size):
        keys = _stream_keys(cfg.seed, start, min(start + chunk_size, reps), _PURPOSE_TRAJECTORY)
        prefix = _prefixes(rng, keys, steps)
        for m, table in enumerate(tables):
            chunk_delays, done = _trajectories(table, prefix, rng, keys)
            delays[m].frombytes(chunk_delays.tobytes())
            completed[m] += done
    out = []
    for d, done in zip(delays, completed):
        mean = math.fsum(d) / reps
        se = (math.sqrt(math.fsum((x - mean) ** 2 for x in d) / (reps - 1) / reps)
              if reps > 1 else math.inf)
        out.append(DelayEstimate(mean_delay_s=mean, std_error_s=se,
                                 completion_fraction=done / reps))
    return out
