"""Absorbing-chain models of sequential offloading plus parallel execution.

The task state is the pair (finished, computing): how many workers have
completed their segment and how many are executing one.  Transitions are

* allocation  (f, c) -> (f, c+1)   at the level's offloading rate,
* completion  (f, c) -> (f+1, c-1) at c * segment_exec_rate,
* failure     (f, c) -> (f, c-1)   at c * failure_rate_per_worker.

The per-segment execution rate is n * mu_f: splitting a task into n pieces
makes each piece n times faster on average.  The chain absorbs at (n, 0).
With a finite spare budget the state carries a cumulative failure counter
u, a failure moves (f, c, u) -> (f, c-1, u+1), and a failure past the
budget drops into a distinct FAIL absorbing state.

Allocation rates are indexed by the number of workers currently computing:
the next allocation from (f, c) uses ``offload_rates[c]``, so a replacement
after a failure re-uses the vacated slot's rate rather than a fresh rank.

With g = n - f segments left, the states (f, c, u), c = 0..g, form block
(g, u).  :attr:`_Lanes.table` states the rules once, as one array of rates
``table[move, at_budget, can_allocate, c, lane]`` over the moves (failure,
allocation, completion, FAIL, exit-rate denominator); a move that does not
exist has rate 0.  The solvers here read it, and so does the trajectory
simulator, at each state's row (:meth:`_Lanes.row`) and with each move's
step (:data:`STEPS`), keeping nothing per state.

Neither f nor u ever decreases, and the mean time to absorption and the
probability of absorbing at (n, 0) solve one linear system each, so
:func:`solve_chains` solves both together, vectorized over every model of a
group and with no matrix formed.  The second moment of the absorption time
is one more right-hand side of the same system: with N the inverse of the
transient generator's negative, m2 = 2 N m1 (Neuts 1981), that is
q(x) m2(x) = 2 m1(x) + sum_y rate(x, y) m2(y), and it is solved only when
the variance is asked for.  Without failure moves inside a level (a
finite spare budget, or no failures), state (g, u, c) reads only
(g, u, c+1), (g-1, u, c-1) and (g, u+1, c-1), which all lie on the
hyperplane tau - 1 of tau = 2g - c + 2(budget - u).  The solver steps tau
from 1 to 2n + 2 budget and solves each hyperplane in one vector step.
With unlimited spares and failures, a failure c -> c-1 stays inside the
level, so each level g is a true tridiagonal system in c; those models
take a Thomas sweep over c, level by level, at O(n^2) vector operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .params import MAX_GRID_POINTS, require_int, require_spare_budget

__all__ = [
    "ChainModel",
    "require_state_count",
    "build_baseline",
    "build_level_dependent",
    "build_failure_chain",
    "solve_chains",
    "mean_absorption_time",
    "worker_idle_probability",
]

@dataclass(frozen=True)
class ChainModel:
    """Parameters of one absorbing-chain variant.

    ``spare_budget`` is None for unlimited replacements (no FAIL state) or
    the number of failures the task survives.
    """

    n: int
    offload_rates: tuple[float, ...]
    segment_exec_rate: float
    failure_rate_per_worker: float
    spare_budget: int | None


def _model(n, rates, mu_f, gamma_n, spare_budget) -> ChainModel:
    return ChainModel(
        n=n,
        offload_rates=tuple(float(r) for r in rates),
        segment_exec_rate=float(n * mu_f),
        failure_rate_per_worker=float(gamma_n),
        spare_budget=spare_budget,
    )


def _validate_rates(rates, n):
    if len(rates) != n:
        raise ParameterError(f"need exactly {n} offloading rates, got {len(rates)}")
    for r in rates:
        if not (r > 0 and math.isfinite(r)):
            raise ParameterError(f"offloading rates must be positive and finite, got {r!r}")


def build_baseline(n: int, lambda_h: float, mu_f: float) -> ChainModel:
    """Chain with one common offloading rate (random worker selection)."""
    _check_n_mu(n, mu_f)
    if not (lambda_h > 0 and math.isfinite(lambda_h)):
        raise ParameterError("lambda_h must be positive and finite")
    return _model(n, [lambda_h] * n, mu_f, 0.0, None)


def build_level_dependent(n: int, lambda_list, mu_f: float) -> ChainModel:
    """Chain whose allocation rate depends on the slot being filled.

    ``lambda_list[k-1]`` is the offloading rate toward the k-th selected
    worker (typically the rank-k success probability over the slot time).
    """
    _check_n_mu(n, mu_f)
    _validate_rates(lambda_list, n)
    return _model(n, lambda_list, mu_f, 0.0, None)


def build_failure_chain(n: int, lambda_list, mu_f: float, l: float,
                        spare_budget: int | None = None) -> ChainModel:
    """Level-dependent chain with worker failures.

    Each computing worker fails at rate mu_f / (l * n); its segment returns
    to the unallocated pool.  With ``spare_budget=None`` replacements are
    unlimited; with a finite budget, exceeding it absorbs into FAIL.
    """
    _check_n_mu(n, mu_f, spare_budget)
    _validate_rates(lambda_list, n)
    if not (l > 0 and math.isfinite(l)):
        raise ParameterError("reliability parameter l must be positive and finite")
    return _model(n, lambda_list, mu_f, mu_f / (l * n), spare_budget)


def require_state_count(n: int, spare_budget: int | None = None) -> None:
    """Reject n < 1, a malformed spare budget, and a chain of more than
    ``MAX_GRID_POINTS`` states, (n + 1)(n + 2)/2 (budget + 1) with the
    factor 1 for unlimited spares, so n alone tops out at 1412."""
    require_int("segment count n", n, 1)
    require_spare_budget(spare_budget)
    states = (n + 1) * (n + 2) // 2 * (1 if spare_budget is None else spare_budget + 1)
    if states > MAX_GRID_POINTS:
        raise ParameterError(f"n = {n} with spare_budget {spare_budget} gives {states} "
                             f"chain states, more than {MAX_GRID_POINTS}")


def _check_n_mu(n, mu_f, spare_budget=None):
    require_state_count(n, spare_budget)
    if not (mu_f > 0 and math.isfinite(mu_f)):
        raise ParameterError("mu_f must be positive and finite")


class _Lanes:
    """Models of one spare budget as numpy lanes, sorted by n, largest first;
    ``order[lane]`` is the lane's index in the list given.

    ``table[move, at_budget, can_allocate, c, lane]`` is the rate of a move
    (failure, allocation, completion, FAIL, exit-rate denominator) from row
    c = 0..n_max, and 0 where the move does not exist.  ``at_budget`` is
    [u == budget], where a failure is fatal; with no budget both halves
    agree.  ``can_allocate`` is [c < g]: allocation from row c is at
    ``offload_rates[c]`` in every level g, and nothing is left to allocate
    at c = g.  The denominator is allocation + (failure + completion + FAIL).
    """

    def __init__(self, models):
        self.order = sorted(range(len(models)), key=lambda i: -models[i].n)
        ordered = [models[i] for i in self.order]
        self.budget = ordered[0].spare_budget
        self.n = np.array([m.n for m in ordered])
        c = np.arange(self.n[0] + 1.0)[:, None]
        alloc = np.zeros((c.size, len(ordered)))
        for lane, m in enumerate(ordered):
            alloc[:m.n, lane] = m.offload_rates
        complete = c * np.array([m.segment_exec_rate for m in ordered])
        failure = c * np.array([m.failure_rate_per_worker for m in ordered])
        none = np.zeros_like(failure)
        fatal = (failure, none) if self.budget is None else (none, failure)
        self.table = np.empty((5, 2, 2) + failure.shape)
        for at_budget, (down, to_fail) in enumerate([(failure, none), fatal]):
            for can_allocate, up in enumerate((none, alloc)):
                self.table[:, at_budget, can_allocate] = (
                    down, up, complete, to_fail, up + (down + complete + to_fail))

    def row(self, f, c, u):
        """Row (2 [u == budget] + [f + c < n]) (n + 1) + c of the table reshaped
        to (5, -1, lanes): the rates of state (f, c, u) in the lanes of n
        segments, the most.  Without a budget the budget test never holds."""
        budget = -1 if self.budget is None else self.budget
        n = int(self.n[0])
        return (2 * (u == budget) + (f + c < n)) * (n + 1) + c

    def active(self, g: int) -> int:
        """Number of lanes with at least g segments: a prefix of the lanes."""
        return int(np.count_nonzero(self.n >= g))


# the (f, c, u) step of the moves failure, allocation and completion; the
# last move of the table, FAIL, absorbs, and so does f == n
STEPS = ((0, -1, 1), (0, 1, 0), (1, -1, 0))


def _wavefront(lanes: _Lanes, moments: int) -> np.ndarray:
    """Mean time to absorption and probability of absorbing at (n, 0) from
    the start state (0, 0, 0), per lane, and with ``moments`` 3 the second
    moment of the time too, for lanes whose failures never stay in a level:
    a finite spare budget, or no failures at all.

    State (g, u, c) then reads only (g, u, c+1), (g-1, u, c-1) and
    (g, u+1, c-1), which all lie on the hyperplane tau - 1 of
    tau = 2g - c + 2(top - u), so step tau solves its whole hyperplane at
    once (Lamport's hyperplane method).
    """
    top = 0 if lanes.budget is None else lanes.budget
    n_max, width = int(lanes.n[0]), lanes.n.size
    table = lanes.table.reshape(5, -1, width)
    u_all, g_all = np.arange(top + 1)[:, None], np.arange(n_max + 1)
    level = 2 * (g_all + top - u_all)
    # x[tau % 2, :, u, g, lane] holds (time, success[, second moment]) of the
    # state of hyperplane tau in block (g, u); c is implied by tau.  Column
    # g = 0 is where completion from g = 1 is absorbed, at success; row
    # u = top + 1 is zeros, read only by the zero failure rate at the budget.
    # Any other entry a state reads off its hyperplane is stale but finite,
    # and a structural zero rate multiplies it to exactly 0: allocation at
    # c = g, completion and failure at c = 0.
    x = np.zeros((2, moments, top + 2, n_max + 1, width))
    x[:, 1, :top + 1, 0] = 1.0
    # adds 1 to the time and nothing to the other right-hand sides
    one = np.array([1.0, 0.0, 0.0][:moments])[:, None, None, None]
    for tau in range(1, 2 * (n_max + top) + 1):
        # the window of blocks holding every state with 0 <= c <= g
        half = -(-tau // 2)
        u_lo, u_hi = max(0, top - (tau - 1) // 2), min(top, top + n_max - half)
        g_lo, g_hi = max(1, half - top), min(n_max, tau)
        k = lanes.active(g_lo)
        us, gs = slice(u_lo, u_hi + 1), slice(g_lo, g_hi + 1)
        c = level[us, gs] - tau
        # a block with no state on this hyperplane reads a clipped row c: its
        # entry is stale, but its denominator is a positive rate
        clipped = np.minimum(np.maximum(c, 0), n_max)
        rows = lanes.row(n_max - g_all[gs], clipped, u_all[us])
        failure, alloc, complete, _, denom = table[:, rows, :k]
        prev, cur = x[(tau - 1) % 2], x[tau % 2]
        # where the moves land: allocation, completion, failure
        after = prev[:, us, gs, :k]
        done = prev[:, us, g_lo - 1:g_hi, :k]
        failed = prev[:, u_lo + 1:u_hi + 2, gs, :k]
        # the Thomas sweep's arithmetic with no in-level move, in its order
        rhs = one + failure * failed + complete * done
        cur[:, us, gs, :k] = (rhs + alloc * after) / denom
        if moments == 3:
            # the second moment's right-hand side 2 m1 reads the time just solved
            cur[2, us, gs, :k] += 2.0 * cur[0, us, gs, :k] / denom
    # a lane's start state (n, 0, 0) lies on hyperplane 2(n + top), even
    return x[0][:, 0, lanes.n, np.arange(width)]


def _sweep(rhs, level, down, up, out):
    """Solve one level's tridiagonal system for every right-hand side of
    ``rhs`` (rows c first), forward then back, into ``out``; ``rhs`` is
    overwritten by its eliminated form."""
    y = np.zeros(rhs.shape[1:])
    for c in range(rhs.shape[0]):
        rhs[c] += down[c] * y
        y = rhs[c] / level[c]
    x = np.zeros_like(y)
    for c in range(rhs.shape[0] - 1, -1, -1):
        x = out[c] = (rhs[c] + up[c] * x) / level[c]


def _thomas(lanes: _Lanes, moments: int) -> np.ndarray:
    """Mean time to absorption and probability of absorbing at (n, 0) from
    the start state (0, 0, 0), per lane, and with ``moments`` 3 the second
    moment of the time too, for unlimited-spare lanes with failures: a
    failure c -> c-1 stays in the level, so each level g is one tridiagonal
    system in c, solved by a Thomas sweep.

    Row c reads  q x[c] - down x[c-1] - up x[c+1] = rhs[c],
    q = up + down + complete;  eliminating x[c-1] leaves
    denom x[c] - up x[c+1] = rhs'[c].  h is the share of denom[c] not owed
    to up, so denom = up + complete + down h[c-1] is a sum of rates, never a
    difference that could cancel.  The rates of row c < g are the same in
    every level, so the elimination runs once over c = 0..n_max and every
    level reads its denominators; at row c = g, which cannot allocate, the
    denominator is ``leave`` alone.  The second moment's right-hand side
    2 m1 needs the level's times first, so it takes a second sweep.
    """
    down, up, complete, _, _ = lanes.table[:, 0, 1]
    leave, denom = np.empty((2,) + up.shape)
    h = np.zeros(lanes.n.size)
    for c in range(up.shape[0]):
        leave[c] = complete[c] + down[c] * h
        denom[c] = up[c] + leave[c]
        h = leave[c] / denom[c]
    start = np.empty((moments, lanes.n.size))
    for g in range(1, int(lanes.n[0]) + 1):
        k = lanes.active(g)
        level = denom[:g + 1, :k].copy()
        level[g] = leave[g, :k]
        rates = (level, down[:g + 1, :k], up[:g + 1, :k])
        # the values where completion lands, in the row c it leaves from;
        # completion from level g = 1 is absorbed, at success
        done = np.zeros((g + 1, moments, k))
        if g == 1:
            done[1:, 1] = 1.0
        else:
            done[1:] = solved[:, :, :k]
        rhs = complete[:g + 1, None, :k] * done
        rhs[:, 0] += 1.0
        solved = np.empty((g + 1, moments, k))
        _sweep(rhs[:, :2], *rates, solved[:, :2])
        if moments == 3:
            _sweep(2.0 * solved[:, 0] + rhs[:, 2], *rates, solved[:, 2])
        ending = slice(lanes.active(g + 1), k)
        start[:, ending] = solved[0, :, ending]
    return start


def solve_chains(models, variances: bool = False) -> tuple[list[float], ...]:
    """Mean absorption time and completion probability of every model, and
    with ``variances`` the variance of the absorption time as a third list.

    Models are solved in groups of one spare budget: one wavefront solve in
    tau order for each group whose failures never stay in a level (a finite
    budget, or no failures), and one Thomas sweep over the levels for the
    unlimited-spare models with failures, whose in-level failure moves make
    each level a tridiagonal system.  Every value is bitwise the one the
    model gets solved alone, and the times and completion probabilities are
    bitwise the same with or without ``variances``.  The variance is the
    second moment, solved as one more right-hand side, less the squared
    mean, clipped at 0.  The completion probability is clipped to [0, 1] and
    is 1 up to rounding with unlimited spares.
    """
    models = list(models)
    moments = 3 if variances else 2
    solved = np.empty((moments, len(models)))
    groups: dict = {}
    for i, model in enumerate(models):
        in_level = model.spare_budget is None and model.failure_rate_per_worker > 0.0
        groups.setdefault((model.spare_budget, in_level), []).append(i)
    for (_, in_level), members in groups.items():
        lanes = _Lanes([models[i] for i in members])
        solved[:, np.array(members)[lanes.order]] = (
            _thomas if in_level else _wavefront)(lanes, moments)
    times, success = solved[:2].tolist()
    completions = [min(max(p, 0.0), 1.0) for p in success]
    if not variances:
        return times, completions
    return times, completions, [max(m2 - t * t, 0.0) for t, m2 in zip(times, solved[2].tolist())]


def mean_absorption_time(model: ChainModel) -> float:
    """Expected time from the empty state (nothing finished, nothing
    allocated) to absorption, at (n, 0) or in FAIL."""
    return solve_chains([model])[0][0]


def worker_idle_probability(mu_f: float, nu_r: float, nu_w: float) -> float:
    """Stationary idle probability of the two-state worker cycle.

    Equals mu_f / (mu_f + nu_r / nu_w); the segment count cancels because
    finer segmentation makes assignment more frequent and service faster in
    the same proportion.
    """
    if nu_w <= 0:
        raise ParameterError("nu_w must be positive")
    if mu_f <= 0:
        raise ParameterError("mu_f must be positive")
    if nu_r < 0:
        raise ParameterError("nu_r must be nonnegative")
    return mu_f / (mu_f + nu_r / nu_w)
