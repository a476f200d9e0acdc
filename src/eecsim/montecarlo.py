"""Independent stochastic oracle for the analytic modules.

Spatial side: :func:`empirical_success_curves` draws a Poisson network per
replication and compares the serving link's SINR, under sectored-antenna
alignment, blockage and Nakagami fading, with every threshold.  Each
replication draws its counts and uniforms from its own stream; placements,
fades, path loss and interference sums then run over blocks of
replications as arrays (:class:`_Block`).  Estimates whose replications
draw the same stream layout (worker and interferer means, selection
uniforms, row widths) share one pass per layout: the per-replication loop
draws each stream once, and every estimate reads the shared rows through
its own serving rule and blockage anchor.  Temporal side:
:func:`empirical_delay` simulates trajectories of a batch of
:class:`~eecsim.chain.ChainModel` by exponential races and estimates
absorption delay and completion fractions, stepping each state (f, c, u) on
the 4 (n + 1) rows of the chain's rate table (:class:`_JumpRows`).

Reproducibility contract: every replication draws from its own Philox
streams, one per purpose.  Philox is counter-based (Salmon et al., SC 2011):
the key is seed + (purpose << 64), and replication r starts at counter
r << 128, so r sits in counter word 2 and the 2**128 blocks below it are
its stream alone.  Both samplers rewind one generator's counter to each
replication in turn (:func:`_streams`).  Aggregation is exact (integer
counts, correctly rounded float sums), so results do not depend on
chunking.  The models of one :func:`empirical_delay` call step a chunk's
replications as lockstep numpy lanes over each stream's one shared prefix,
so a model's estimate is the same alone or in any batch.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .chain import STEPS, ChainModel, _Lanes
from .coverage import CoverageQuery, RandomSelection, RankedSelection
from .errors import ParameterError
from .params import DeploymentParams, RadioParams, directivity_distribution, require_int

__all__ = [
    "SimConfig",
    "CoverageEstimate",
    "DelayEstimate",
    "default_arena_radius",
    "empirical_success_curve",
    "empirical_success_curves",
    "empirical_delay",
]

_MAX_SEED = 2 ** 64 - 1
# stream-purpose tags keep spatial and trajectory draws decorrelated
_PURPOSE_SPATIAL = 1
_PURPOSE_TRAJECTORY = 2
_RESAMPLE_LIMIT = 10_000
# replications whose stream counters are built, and whose trajectories step
# as lanes, together; no result depends on it, and tests patch it to show that
_CHUNK = 4096
# float64 elements of serving, and of interferer, uniforms that the spatial
# sampler holds at once: a bound on its temporaries that no result depends on
_BLOCK = 1 << 15


@dataclass(frozen=True)
class SimConfig:
    """Replication count and master seed."""

    seed: int
    replications: int = 100_000

    def __post_init__(self):
        require_int("seed", self.seed, 0, _MAX_SEED)
        # replication r is counter word 2, so every r below 2**64 has its own
        # stream; the bound is on the run's length, not on the stream layout
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
        # what a replication draws: estimates equal here share their streams
        self.layout = (self.mean_workers, self.need, self.head_width,
                       self.mean_interferers, self.width)

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
    """Replications in flight for fields of one layout: their serving
    uniforms, up to ``_BLOCK`` elements, and their interferer rows, up to
    ``_BLOCK`` elements, which every field evaluates and sums into its own
    powers whenever the buffer fills.  A row's interference is summed left to
    right in its stream's order, across buffer refills too, so no SINR
    depends on the block a replication falls in or on the other fields."""

    def __init__(self, fields: list[_Field]):
        self.fields = fields
        lead = fields[0]
        self.mean_interferers = lead.mean_interferers
        rows = max(1, _BLOCK // lead.head_width)
        self.head = np.empty((rows, lead.head_width))
        self.n_w = np.empty(rows, dtype=np.int64)
        self.r0sq, self.signal = np.empty((2, len(fields), rows))
        self.power = np.zeros((len(fields), rows))
        self.u = np.empty((max(1, _BLOCK // lead.width), lead.width))
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
        left = rng.poisson(self.mean_interferers)
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
        head, n_w = self.head[lo:hi], self.n_w[lo:hi]
        owner, u = self.owner[:self.used], self.u[:self.used]
        for field, r0sq, signal, power in zip(self.fields, self.r0sq, self.signal,
                                              self.power):
            r0sq[lo:hi], signal[lo:hi] = field.serving(head, n_w)
            np.add.at(power, owner, field.interference(u, r0sq[owner]))
        self.served = hi
        self.used = 0

    def finish(self) -> list[np.ndarray]:
        """Each field's SINRs of the block's replications, in order; empties
        the block."""
        self._sum_interference()
        rows = self.rows
        sinrs = [signal[:rows] / (field.noise + power[:rows])
                 for field, signal, power in zip(self.fields, self.signal, self.power)]
        self.power[:, :rows] = 0.0
        self.rows = self.served = 0
        return sinrs


def _streams(seed: int, purpose: int, reps: np.ndarray):
    """One Philox generator keyed by (seed, purpose), rewound in turn to each
    replication's stream (counter rep << 128, no buffered output): the same
    draws as a fresh generator per replication, without building one."""
    bitgen = np.random.Philox(key=seed + (purpose << 64))
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    counters = np.zeros((len(reps), 4), dtype=np.uint64)
    counters[:, 2] = reps
    for counter in counters:
        state["state"]["counter"] = counter
        bitgen.state = state
        yield rng


def _sinrs(fields: list[_Field], seed: int, reps: np.ndarray) -> tuple[np.ndarray, int]:
    """Serving-link SINR of each replication (:func:`_streams`) under each of
    ``fields``, which share one layout, as one row per field; and the
    replications' redraw count."""
    block = _Block(fields)
    out, redraws = [], 0
    for rng in _streams(seed, _PURPOSE_SPATIAL, reps):
        n_w, redrawn = fields[0].counts(rng)
        redraws += redrawn
        if block.full():
            out.append(block.finish())
        block.add(rng, n_w)
    out.append(block.finish())
    return np.concatenate(out, axis=1), redraws


def empirical_success_curves(cfg: SimConfig, samples,
                             xi_db_values) -> list[list[CoverageEstimate]]:
    """Estimate offloading success for several SINR thresholds at once, for
    each ``(query, los_classification)`` pair of ``samples``, in order.

    One SINR sample per replication is compared against every threshold;
    realizations with too few LoS workers for the selection rule are
    resampled (sequentially within the replication's own stream) and
    counted.  Samples whose replications draw the same stream layout share
    one pass over the streams, and so their resample count; each estimate
    is the same as alone.  Results depend on neither ``_CHUNK`` nor
    ``_BLOCK``.
    """
    thresholds = np.array([10.0 ** (float(x) / 10.0) for x in xi_db_values])
    fields = []
    for query, los_classification in samples:
        if not isinstance(query.selection, (RandomSelection, RankedSelection)):
            raise ParameterError(f"unsupported selection {query.selection!r}")
        if los_classification not in ("worker", "requester"):
            raise ParameterError(f"unknown los_classification {los_classification!r}")
        fields.append(_Field(query, los_classification == "worker"))
    layouts: dict[tuple, list[int]] = {}
    for i, field in enumerate(fields):
        layouts.setdefault(field.layout, []).append(i)
    counts = np.zeros((len(fields), len(thresholds)), dtype=np.int64)
    resampled = [0] * len(fields)
    reps = cfg.replications
    for members in layouts.values():
        group = [fields[i] for i in members]
        for start in range(0, reps, _CHUNK):
            sinrs, redraws = _sinrs(group, cfg.seed, np.arange(start, min(start + _CHUNK, reps)))
            for i, row in zip(members, sinrs):
                resampled[i] += redraws
                # replications above each threshold: those past its right insertion point
                counts[i] += row.size - np.searchsorted(np.sort(row), thresholds, side="right")
    out = []
    for sample_counts, redraws in zip(counts.tolist(), resampled):
        ps = [count / reps for count in sample_counts]
        out.append([CoverageEstimate(p, math.sqrt(p * (1.0 - p) / reps), redraws) for p in ps])
    return out


def empirical_success_curve(cfg: SimConfig, query: CoverageQuery, xi_db_values,
                            los_classification: str = "worker") -> list[CoverageEstimate]:
    """:func:`empirical_success_curves` of one query."""
    return empirical_success_curves(cfg, [(query, los_classification)], xi_db_values)[0]


@dataclass(frozen=True)
class DelayEstimate:
    mean_delay_s: float
    std_error_s: float
    completion_fraction: float


class _JumpRows:
    """Jump structure of a chain, one row per row of its rate table
    (:meth:`~eecsim.chain._Lanes.row`), which the row's states share: the
    exit rate (0 if absorbing) and the cumulative jump probabilities of the
    moves (failure, allocation, completion, FAIL), -1 at a rate of 0 and 1
    at the last positive rate.  4 (n + 1) rows, whatever the spare budget."""

    def __init__(self, model: ChainModel):
        lanes = _Lanes([model])
        self.n, self.row = model.n, lanes.row
        moves = lanes.table[:4].reshape(4, -1).T
        # the exit rate summed left to right, as the moves are listed, where
        # a zero rate adds nothing; an absorbing row divides its zeros by 1
        self.rate = moves[:, 0] + moves[:, 1] + moves[:, 2] + moves[:, 3]
        cum = np.cumsum(moves / np.where(self.rate > 0.0, self.rate, 1.0)[:, None], axis=1)
        # the last move of positive rate is forced to 1; one of rate 0 is never taken
        cum[np.arange(len(cum)), 3 - np.argmax(moves[:, ::-1] > 0.0, axis=1)] = 1.0
        self.cum = np.where(moves > 0.0, cum, -1.0)


def _prefixes(seed: int, reps: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``steps`` steps of each replication's trajectory stream:
    step k reads uniforms 2k and 2k + 1.  Returns the sojourns as unit
    exponentials ``-log1p(-U)`` of the first, and the move uniforms, one row
    per replication."""
    u = np.empty((len(reps), steps, 2))
    for row, rng in zip(u, _streams(seed, _PURPOSE_TRAJECTORY, reps)):
        rng.random(out=row)
    return -np.log1p(-u[:, :, 0]), u[:, :, 1]


def _trajectories(jumps: _JumpRows, exps: np.ndarray, moves: np.ndarray,
                  seed: int, reps: np.ndarray) -> tuple[np.ndarray, int]:
    """Delays of a chunk's replications, in order of absorption, and the count
    of successes.  The replications step together as lanes on their states'
    jump rows: the sojourn is the step's exponential over the exit rate, the
    move is the first whose cumulative probability reaches the step's move
    uniform, and it adds its step (:data:`~eecsim.chain.STEPS`) to the state.
    Lanes end at FAIL or f == n; those that outrun the prefix redraw one
    twice as long."""
    df, dc, du = (np.array(d + (0,)) for d in zip(*STEPS))  # FAIL, the last move, ends the lane
    lanes = rows = np.arange(len(reps))
    (f, c, u), t = np.zeros((3, lanes.size), dtype=np.intp), np.zeros(lanes.size)
    delays, successes, step = [], 0, 0
    while lanes.size:
        if step == exps.shape[1]:
            exps, moves = _prefixes(seed, reps[lanes], 2 * step)
            rows = np.arange(lanes.size)
        row = jumps.row(f, c, u)
        t += exps[rows, step] / jumps.rate[row]
        move = np.argmax(jumps.cum[row] >= moves[rows, step, None], 1)
        f, c, u = f + df[move], c + dc[move], u + du[move]
        won = f == jumps.n
        done = won | (move == len(STEPS))
        delays.append(t[done])
        successes += int(np.count_nonzero(won))
        live = ~done
        lanes, rows, t, f, c, u = (a[live] for a in (lanes, rows, t, f, c, u))
        step += 1
    return np.concatenate(delays), successes


def empirical_delay(cfg: SimConfig, models: list[ChainModel]) -> list[DelayEstimate]:
    """Trajectory-averaged absorption delay and completion fraction, per model.

    Each chunk of ``_CHUNK`` replications draws one prefix of its
    trajectory streams (:func:`_streams`), and every model reads it.  Each
    mean is a correctly rounded sum of per-replication delays, so neither
    chunking nor the order in which trajectories end can perturb the result.
    """
    jumps = [_JumpRows(model) for model in models]
    reps = cfg.replications
    delays = [array("d") for _ in jumps]
    completed = [0] * len(jumps)
    # the shortest trajectory of the largest chain: n allocations, n completions
    steps = 2 * max((model.n for model in models), default=0)
    for start in range(0, reps, _CHUNK):
        chunk = np.arange(start, min(start + _CHUNK, reps))
        exps, moves = _prefixes(cfg.seed, chunk, steps)
        for m, rows in enumerate(jumps):
            chunk_delays, done = _trajectories(rows, exps, moves, cfg.seed, chunk)
            delays[m].frombytes(chunk_delays.tobytes())
            completed[m] += done
    out = []
    for d, done in zip(delays, completed):
        mean = math.fsum(d) / reps
        se = (math.sqrt(math.fsum(np.square(np.frombuffer(d) - mean)) / (reps - 1) / reps)
              if reps > 1 else math.inf)
        out.append(DelayEstimate(mean_delay_s=mean, std_error_s=se,
                                 completion_fraction=done / reps))
    return out
