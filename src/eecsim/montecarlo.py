"""Independent stochastic oracle for the analytic modules.

Spatial side: :func:`empirical_success_curves` draws a Poisson network per
replication and compares the serving link's SINR, under sectored-antenna
alignment, blockage and Nakagami fading, with every threshold.  Replications
are drawn a page at a time (:func:`_sinrs`): each kind of draw is one
array-wide call over the page, and placements, fades, path loss and
interference sums run over the page as arrays.  Estimates whose replications
draw the same stream layout (worker and interferer means, selection
uniforms, row widths) share one pass per layout: each page is drawn once,
and every estimate reads the shared rows through its own serving rule and
blockage anchor.  Temporal side: :func:`empirical_delay` simulates
trajectories of a batch of :class:`~eecsim.chain.ChainModel` by exponential
races and estimates absorption delay and completion fractions, stepping each
state (f, c, u) on the 4 (n + 1) rows of the chain's rate table
(:class:`_JumpRows`).

Reproducibility contract: replications come in pages of ``_PAGE``, and each
page draws from its own Philox streams, one per purpose.  Philox is
counter-based (Salmon et al., SC 2011): the key is seed + (purpose << 64),
and page p starts at counter p << 128, so p sits in counter word 2 and the
2**128 blocks below it are its stream alone; block b of its trajectory
steps sits at counter word 3 = b.  So results depend on the seed and the
replication count only.  Aggregation is exact (integer counts, correctly
rounded float sums, interference summed left to right in stream order), so
they do not depend on ``_BLOCK``.  The models of one :func:`empirical_delay`
call step a page's replications as lockstep numpy lanes over one shared
first block, and each model's lanes that outlive a block read the next one
themselves, so a model's estimate is the same alone or in any batch.
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
    "empirical_success_curves",
    "empirical_delay",
]

_MAX_SEED = 2 ** 64 - 1
# stream-purpose tags keep spatial and trajectory draws decorrelated
_PURPOSE_SPATIAL = 1
_PURPOSE_TRAJECTORY = 2
_RESAMPLE_LIMIT = 10_000
# replications drawn, and stepped as trajectory lanes, together: part of the
# stream layout, like the counter words
_PAGE = 4096
# trajectory steps per block of a page's stream: part of the layout too, and
# independent of the chains so that no model's draws depend on its batch
_SPAN = 16
# float64 elements of interferer uniforms that the spatial sampler holds at
# once: a bound on its temporaries that no result depends on
_BLOCK = 1 << 15


@dataclass(frozen=True)
class SimConfig:
    """Replication count and master seed."""

    seed: int
    replications: int = 100_000

    def __post_init__(self):
        require_int("seed", self.seed, 0, _MAX_SEED)
        # a page is counter word 2, so every page below 2**64 has its own
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

    A replication draws: the LoS worker count (redrawn while too small for
    the selection rule), a head row of serving uniforms, the interferer
    count and one row of :attr:`width` uniforms per interferer.  The serving
    uniforms are the selection's (one for random selection, k for rank k)
    and then the serving fade's.  The typical requester sits at the origin,
    the serving worker on the x-axis (the interferer field is isotropic),
    and interferers cover the arena disk.
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

    def workers(self, rng, size: int) -> tuple[np.ndarray, int]:
        """Draw ``size`` LoS worker counts, redrawing the rows too small for
        the selection rule as one vector, in row order, until none is;
        returns them and the number of redraws."""
        n_w = rng.poisson(self.mean_workers, size)
        redraws = 0
        for _ in range(_RESAMPLE_LIMIT):
            short = np.flatnonzero(n_w < self.need)
            if not short.size:
                return n_w, redraws
            redraws += short.size
            n_w[short] = rng.poisson(self.mean_workers, short.size)
        raise ParameterError(
            "could not realize a network with enough LoS workers; "
            "worker intensity is too small for this selection rule")

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


def _rng(seed: int, purpose: int, page: int, block: int = 0) -> np.random.Generator:
    """A fresh generator on a page's stream for ``purpose``: Philox keyed by
    seed + (purpose << 64), the page in counter word 2 and the trajectory
    block in word 3."""
    return np.random.Generator(np.random.Philox(key=seed + (purpose << 64),
                                                counter=[0, 0, page, block]))


def _sinrs(fields: list[_Field], seed: int, page: int,
           size: int) -> tuple[np.ndarray, int]:
    """Serving-link SINR of a page's first ``size`` replications under each of
    ``fields``, which share one layout, as one row per field; and the page's
    redraw count.

    The page's stream holds, in order: its worker counts (:meth:`_Field.workers`),
    its serving uniforms, its interferer counts and its interferer rows in
    replication order.  The rows are read in slices of ``_BLOCK`` elements,
    each row's owner found from the cumulative counts, and summed into its
    owner's power left to right in stream order, so no SINR depends on the
    slicing or on the other fields.
    """
    lead = fields[0]
    rng = _rng(seed, _PURPOSE_SPATIAL, page)
    n_w, redraws = lead.workers(rng, size)
    head = rng.random((size, lead.head_width))
    ends = np.cumsum(rng.poisson(lead.mean_interferers, size))
    served = [field.serving(head, n_w) for field in fields]
    power = np.zeros((len(fields), size))
    rows, total = max(1, _BLOCK // lead.width), int(ends[-1])
    for lo in range(0, total, rows):
        u = rng.random((min(rows, total - lo), lead.width))
        owner = np.searchsorted(ends, np.arange(lo, lo + len(u)), side="right")
        for field, (r0sq, _), acc in zip(fields, served, power):
            np.add.at(acc, owner, field.interference(u, r0sq[owner]))
    return np.array([signal / (field.noise + acc)
                     for field, (_, signal), acc in zip(fields, served, power)]), redraws


def _pages(reps: int):
    """Each page's index and its number of the ``reps`` replications."""
    return ((page, min(_PAGE, reps - page * _PAGE)) for page in range(-(-reps // _PAGE)))


def empirical_success_curves(cfg: SimConfig, samples,
                             xi_db_values) -> list[list[CoverageEstimate]]:
    """Estimate offloading success for several SINR thresholds at once, for
    each ``(query, los_classification)`` pair of ``samples``, in order.

    One SINR sample per replication is compared against every threshold;
    realizations with too few LoS workers for the selection rule are
    resampled (within their page's stream) and counted.  Samples whose
    replications draw the same stream layout share one pass over the pages,
    and so their resample count; each estimate is the same as alone.
    Results do not depend on ``_BLOCK``.
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
        for page, size in _pages(reps):
            sinrs, redraws = _sinrs(group, cfg.seed, page, size)
            for i, row in zip(members, sinrs):
                resampled[i] += redraws
                # replications above each threshold: those past its right insertion point
                counts[i] += row.size - np.searchsorted(np.sort(row), thresholds, side="right")
    out = []
    for sample_counts, redraws in zip(counts.tolist(), resampled):
        ps = [count / reps for count in sample_counts]
        out.append([CoverageEstimate(p, math.sqrt(p * (1.0 - p) / reps), redraws) for p in ps])
    return out


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


def _steps(seed: int, page: int, block: int, lanes: int) -> tuple[np.ndarray, np.ndarray]:
    """Trajectory block ``block`` of a page: ``_SPAN`` steps per lane, one
    row per lane, where step k reads uniforms 2k and 2k + 1.  Returns the
    sojourns as unit exponentials ``-log1p(-U)`` of the first, and the move
    uniforms."""
    u = _rng(seed, _PURPOSE_TRAJECTORY, page, block).random((lanes, _SPAN, 2))
    # sojourns in place and the moves copied out: a block keeps no more
    # memory than its own uniforms
    exps = np.negative(u[:, :, 0])
    np.negative(np.log1p(exps, out=exps), out=exps)
    return exps, u[:, :, 1].copy()


def _trajectories(jumps: _JumpRows, first: tuple[np.ndarray, np.ndarray],
                  seed: int, page: int) -> tuple[np.ndarray, int]:
    """Delays of a page's replications, in order of absorption, and the count
    of successes.  The replications step together as lanes on their states'
    jump rows: the sojourn is the step's exponential over the exit rate, the
    move is the first whose cumulative probability reaches the step's move
    uniform, and it adds its step (:data:`~eecsim.chain.STEPS`) to the state.
    Lanes end at FAIL or f == n.  They read the page's ``first`` block, and
    those alive at a block's end read the next block, one row per live lane
    in lane order, so the draws depend on this model's lanes alone."""
    df, dc, du = (np.array(d + (0,)) for d in zip(*STEPS))  # FAIL, the last move, ends the lane
    exps, moves = first
    rows = np.arange(len(exps))
    (f, c, u), t = np.zeros((3, rows.size), dtype=np.intp), np.zeros(rows.size)
    delays, successes, step = [], 0, 0
    while rows.size:
        k = step % _SPAN
        if step and not k:
            exps, moves = _steps(seed, page, step // _SPAN, rows.size)
            rows = np.arange(rows.size)
        row = jumps.row(f, c, u)
        t += exps[rows, k] / jumps.rate[row]
        move = np.argmax(jumps.cum[row] >= moves[rows, k, None], 1)
        f, c, u = f + df[move], c + dc[move], u + du[move]
        won = f == jumps.n
        done = won | (move == len(STEPS))
        delays.append(t[done])
        successes += int(np.count_nonzero(won))
        live = ~done
        rows, t, f, c, u = (a[live] for a in (rows, t, f, c, u))
        step += 1
    return np.concatenate(delays), successes


def empirical_delay(cfg: SimConfig, models: list[ChainModel]) -> list[DelayEstimate]:
    """Trajectory-averaged absorption delay and completion fraction, per model.

    Each page draws the first block of its trajectory steps once, and every
    model reads it (:func:`_trajectories`).  Each mean is a correctly rounded
    sum of per-replication delays, so the order in which trajectories end
    cannot perturb the result.
    """
    jumps = [_JumpRows(model) for model in models]
    reps = cfg.replications
    delays = [array("d") for _ in jumps]
    completed = [0] * len(jumps)
    for page, size in _pages(reps):
        first = _steps(cfg.seed, page, 0, size)
        for m, rows in enumerate(jumps):
            page_delays, done = _trajectories(rows, first, cfg.seed, page)
            delays[m].frombytes(page_delays.tobytes())
            completed[m] += done
    out = []
    for d, done in zip(delays, completed):
        mean = math.fsum(d) / reps
        se = (math.sqrt(math.fsum(np.square(np.frombuffer(d) - mean)) / (reps - 1) / reps)
              if reps > 1 else math.inf)
        out.append(DelayEstimate(mean_delay_s=mean, std_error_s=se,
                                 completion_fraction=done / reps))
    return out
