"""Independent stochastic oracle for the analytic modules.

Spatial side: :func:`empirical_success_curve` draws a Poisson network per
replication and compares the serving link's SINR, under sectored-antenna
alignment, blockage and Nakagami fading, with every threshold.  Each
replication draws its counts and uniforms from its own stream; placements,
fades, path loss and interference sums then run over blocks of
replications as arrays (:class:`_Block`).  Temporal side:
:func:`empirical_delay` simulates trajectories of a batch of
:class:`~eecsim.chain.ChainModel` by exponential races and estimates
absorption delay and completion fractions.

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

import numpy as np

from .chain import ChainModel, _Lanes
from .coverage import CoverageQuery, RandomSelection, RankedSelection
from .errors import ParameterError
from .params import DeploymentParams, RadioParams, directivity_distribution, require_int

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
# replications whose stream keys are hashed, and whose trajectories step as
# lanes, together; no result depends on it, and tests patch it to show that
_CHUNK = 4096
# float64 elements of serving uniforms, and of interferer uniforms, that the
# spatial sampler holds at once; this bounds its temporaries, and no result
# depends on it
_BLOCK = 1 << 15


@dataclass(frozen=True)
class SimConfig:
    """Replication count and master seed."""

    seed: int
    replications: int = 100_000

    def __post_init__(self):
        require_int("seed", self.seed, 0, _MAX_SEED)
        # a replication index past 32 bits is an entropy word _stream_keys lacks
        require_int("replications", self.replications, 1, 2 ** 32)


def default_arena_radius(radio: RadioParams, deploy: DeploymentParams) -> float:
    """Interferer sampling radius.

    Every LoS interferer lies within 2x the LoS radius of the requester:
    within the LoS radius of a worker that is itself that close, or of the
    requester when blockage is judged there.  So the window is 2x the LoS
    radius, extended until the mean NLoS interference from beyond it falls
    under 1e-4 of the noise floor (at most 100x the LoS radius, which binds
    for NLoS exponents near 2).
    """
    rl = radio.los_radius_m
    floor = 2.0 * rl
    nu_r = deploy.requester_intensity_per_m2
    a_n = radio.pathloss_exp_nlos
    if nu_r <= 0.0 or a_n <= 2.0:
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


class _Field:
    """The constants of one coverage estimate, read once per call.

    A replication's stream holds, in order: the LoS worker count (redrawn
    while too small for the selection rule), the serving uniforms, the
    interferer count and one row of :attr:`width` uniforms per interferer.
    The serving uniforms are the selection's (one for random selection, k
    for rank k) and then the serving fade's.  The typical requester sits at
    the origin, the serving worker on the x-axis (the interferer field is
    isotropic), and interferers cover the arena disk.
    """

    def __init__(self, query: CoverageQuery, worker_centric: bool):
        radio, deploy, selection = query.radio, query.deploy, query.selection
        self.worker_centric = worker_centric
        self.rank = None if isinstance(selection, RandomSelection) else selection.rank
        self.mean_workers = deploy.mean_los_workers(radio.los_radius_m)
        arena = default_arena_radius(radio, deploy)
        self.mean_interferers = deploy.requester_intensity_per_m2 * math.pi * arena * arena
        self.arena2 = arena * arena
        self.rl2 = radio.los_radius_m ** 2
        pairs = directivity_distribution(radio)
        self.gains = np.array([g for g, _ in pairs])
        self.gain_cum = np.cumsum([p for _, p in pairs])[:3]
        self.shapes = (radio.nakagami_los, radio.nakagami_nlos)
        self.exponents = (-0.5 * radio.pathloss_exp_los, -0.5 * radio.pathloss_exp_nlos)
        self.intercepts = (radio.intercept_los, radio.intercept_nlos)
        self.signal_scale = radio.main_lobe ** 2 * self.intercepts[0]
        self.noise = radio.noise_normalized
        # the LoS workers the rule needs, which is also its selection uniforms
        self.need = self.rank or 1
        self.head_width = self.need + radio.nakagami_los
        # squared radius, angle, alignment gain, then the fade's uniforms
        self.width = 3 + max(self.shapes)

    def counts(self, rng) -> tuple[int, int]:
        """Draw the LoS worker count, redrawing it while the selection rule
        lacks a worker; returns it and the number of redraws."""
        redraws = 0
        n_w = rng.poisson(self.mean_workers)
        while n_w < self.need:
            redraws += 1
            if redraws >= _RESAMPLE_LIMIT:
                raise ParameterError(
                    "could not realize a network with enough LoS workers; "
                    "worker intensity is too small for this selection rule")
            n_w = rng.poisson(self.mean_workers)
        return n_w, redraws

    def serving(self, head: np.ndarray, n_w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Squared serving distance and signal power of each head row.

        Random selection: a uniformly chosen worker of the disk is uniform in
        it.  Rank k: the k-th smallest of n uniforms is 1 - prod_j V_j^(1/(n-j+1))
        over k uniforms V_j (Renyi's representation).  A gamma(m) fade is the
        sum of m unit exponentials -log(1 - U).  Every row sum is a
        left-to-right cumulative sum, so a row's value is its own alone.
        """
        exps = -np.log1p(-head)
        if self.rank is None:
            r0sq = self.rl2 * head[:, 0]
        else:
            spans = n_w[:, None] - np.arange(self.rank)
            r0sq = -self.rl2 * np.expm1(-np.cumsum(exps[:, :self.rank] / spans, axis=1)[:, -1])
        fade = np.cumsum(exps[:, self.need:], axis=1)[:, -1] / self.shapes[0]
        return r0sq, fade * self.signal_scale * r0sq ** self.exponents[0]

    def interference(self, u: np.ndarray, r0sq: np.ndarray) -> np.ndarray:
        """Received power of each interferer row ``u`` at a worker r0sq away.

        Distances run to the receiving worker by the law of cosines, clamped
        at 0 against rounding; the blockage class is judged at the worker or,
        toggled, at the origin requester, and picks the fade's shape and the
        path loss.
        """
        rad2 = self.arena2 * u[:, 0]
        cos_ang = np.cos((2.0 * math.pi) * u[:, 1])
        gain = self.gains[np.searchsorted(self.gain_cum, u[:, 2])]
        d2 = np.maximum(rad2 + r0sq - 2.0 * np.sqrt(r0sq * rad2) * cos_ang, 0.0)
        los = (d2 if self.worker_centric else rad2) <= self.rl2
        fades = np.cumsum(-np.log1p(-u[:, 3:]), axis=1)
        (m_l, m_n), (e_l, e_n), (c_l, c_n) = self.shapes, self.exponents, self.intercepts
        return gain * np.where(los, fades[:, m_l - 1] * (c_l / m_l) * d2 ** e_l,
                               fades[:, m_n - 1] * (c_n / m_n) * d2 ** e_n)


class _Block:
    """Replications in flight: their serving uniforms, up to ``_BLOCK`` elements,
    and their interferer rows, up to ``_BLOCK`` elements, which are evaluated
    and summed whenever the buffer fills.  A row's interference is summed
    left to right in its stream's order, across buffer refills too, so no
    SINR depends on the block a replication falls in."""

    def __init__(self, field: _Field):
        self.field = field
        rows = max(1, _BLOCK // field.head_width)
        self.head = np.empty((rows, field.head_width))
        self.n_w = np.empty(rows, dtype=np.int64)
        self.r0sq, self.signal, self.power = np.empty(rows), np.empty(rows), np.zeros(rows)
        self.u = np.empty((max(1, _BLOCK // field.width), field.width))
        self.owner = np.empty(len(self.u), dtype=np.intp)
        self.rows = self.served = self.used = 0

    def full(self) -> bool:
        return self.rows == len(self.head)

    def add(self, rng, n_w: int) -> None:
        """Draw one replication's serving uniforms, interferer count and rows."""
        row = self.rows
        rng.random(out=self.head[row])
        self.n_w[row] = n_w
        self.rows += 1
        left = rng.poisson(self.field.mean_interferers)
        while left:
            if self.used == len(self.u):
                self._sum_interference()
            take = min(left, len(self.u) - self.used)
            rng.random(out=self.u[self.used:self.used + take])
            self.owner[self.used:self.used + take] = row
            self.used += take
            left -= take

    def _sum_interference(self) -> None:
        lo, hi = self.served, self.rows
        self.r0sq[lo:hi], self.signal[lo:hi] = self.field.serving(self.head[lo:hi],
                                                                  self.n_w[lo:hi])
        self.served = hi
        owner = self.owner[:self.used]
        np.add.at(self.power, owner,
                  self.field.interference(self.u[:self.used], self.r0sq[owner]))
        self.used = 0

    def finish(self) -> np.ndarray:
        """SINRs of the block's replications, in order; empties the block."""
        self._sum_interference()
        rows = self.rows
        sinr = self.signal[:rows] / (self.field.noise + self.power[:rows])
        self.power[:rows] = 0.0
        self.rows = self.served = 0
        return sinr


def _sinrs(field: _Field, keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Serving-link SINR of each keyed replication, and the redraw count.

    One Philox generator is rewound to each replication's stream (keyed by
    its two 64-bit key words, counter at zero): the same draws as a fresh
    generator per replication, without building one.
    """
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    block = _Block(field)
    out, redraws = [], 0
    for key in keys:
        state["state"]["key"] = key
        bitgen.state = state
        n_w, redrawn = field.counts(rng)
        redraws += redrawn
        if block.full():
            out.append(block.finish())
        block.add(rng, n_w)
    out.append(block.finish())
    return np.concatenate(out), redraws


def empirical_success_curve(cfg: SimConfig, query: CoverageQuery, xi_db_values,
                            los_classification: str = "worker") -> list[CoverageEstimate]:
    """Estimate offloading success for several SINR thresholds at once.

    One SINR sample per replication is compared against every threshold;
    realizations with too few LoS workers for the selection rule are
    resampled (sequentially within the replication's own stream) and
    counted.  Results depend on neither ``_CHUNK`` nor ``_BLOCK``.
    """
    thresholds = np.array([10.0 ** (float(x) / 10.0) for x in xi_db_values])
    if not isinstance(query.selection, (RandomSelection, RankedSelection)):
        raise ParameterError(f"unsupported selection {query.selection!r}")
    if los_classification not in ("worker", "requester"):
        raise ParameterError(f"unknown los_classification {los_classification!r}")
    field = _Field(query, los_classification == "worker")
    counts = np.zeros(len(thresholds), dtype=np.int64)
    resampled = 0
    reps = cfg.replications
    for start in range(0, reps, _CHUNK):
        keys = _stream_keys(cfg.seed, start, min(start + _CHUNK, reps), _PURPOSE_SPATIAL)
        sinrs, redraws = _sinrs(field, keys)
        resampled += redraws
        # replications above each threshold: those past its right insertion point
        counts += sinrs.size - np.searchsorted(np.sort(sinrs), thresholds, side="right")
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

    The states (f, c, u) with f + c <= n are numbered in lexicographic
    order, so the start state (0, 0, 0) is 0, and a finite budget's FAIL
    state comes last.  Row i holds state i's exit rate and, over its at
    most three moves of positive rate in the order of the chain's rate
    table (:attr:`~eecsim.chain._Lanes.table`: failure, allocation,
    completion, FAIL), the cumulative jump probabilities and targets,
    padded with 1 and -1.  Absorbing rows have rate 0.
    """

    def __init__(self, model: ChainModel):
        n, budget = model.n, model.spare_budget
        levels = 1 if budget is None else budget + 1
        span = np.arange(n + 1)
        f, c = np.nonzero(span[:, None] + span <= n)
        f, c = f.repeat(levels), c.repeat(levels)
        u = np.tile(np.arange(levels), f.size // levels)
        state = np.arange(f.size)
        size = f.size + (budget is not None)
        self.rate = np.zeros(size)
        self.cum = np.ones((size, 3))
        self.targets = np.full((size, 3), -1)
        self.success = np.zeros(size, dtype=bool)
        self.success[:f.size] = f == n
        # (failure, allocation, completion, FAIL) of every state, and where
        # each lands: (f, c-1, u or u+1), (f, c+1, u), (f+1, c-1, u), FAIL
        moves = _Lanes([model]).table[:4, 1 * (u == levels - 1), 1 * (c < n - f), c, 0].T
        lands = np.stack([state - levels + (budget is not None), state + levels,
                          state + (n - f) * levels, np.full_like(state, f.size)], axis=1)
        # the exit rate summed left to right, as the moves are listed, where
        # a zero rate adds nothing; an absorbing row divides its zeros by 1
        rate = self.rate[:f.size] = moves[:, 0] + moves[:, 1] + moves[:, 2] + moves[:, 3]
        cum = np.cumsum(moves / np.where(rate > 0.0, rate, 1.0)[:, None], axis=1)
        # the moves of positive rate first, in order; the last is forced to 1
        live = np.argsort(moves <= 0.0, axis=1, kind="stable")[:, :3]
        count = np.count_nonzero(moves > 0.0, axis=1)[:, None]
        slot = np.arange(3)
        self.cum[:f.size] = np.where(slot < count - 1, np.take_along_axis(cum, live, 1), 1.0)
        self.targets[:f.size] = np.where(slot < count, np.take_along_axis(lands, live, 1), -1)
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


def empirical_delay(cfg: SimConfig, models: list[ChainModel]) -> list[DelayEstimate]:
    """Trajectory-averaged absorption delay and completion fraction, per model.

    Each chunk of ``_CHUNK`` replications seeds its streams once, and
    every model replays them.  Each mean is a correctly rounded sum of
    per-replication delays, so neither chunking nor the order in which
    trajectories end can perturb the result.
    """
    tables = [_JumpTables(model) for model in models]
    reps = cfg.replications
    delays = [array("d") for _ in tables]
    completed = [0] * len(tables)
    rng = random.Random()
    # the shortest trajectory of the largest chain: n allocations, n completions
    steps = 2 * max((model.n for model in models), default=0)
    for start in range(0, reps, _CHUNK):
        keys = _stream_keys(cfg.seed, start, min(start + _CHUNK, reps), _PURPOSE_TRAJECTORY)
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
