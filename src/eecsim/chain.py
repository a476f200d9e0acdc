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
(g, u).  :meth:`_Lanes.block` is the one enumeration of the rules: it
returns a block's rate vectors over c (failure, allocation, completion,
FAIL), and the solver here and the trajectory simulator both read it.

Neither f nor u ever decreases, so :func:`solve_chains` solves the blocks
for g = 1, 2, ... and, inside a level, from u = budget down to 0.  Inside a
block the only moves are allocation c -> c+1 and, with unlimited spares,
failure c -> c-1; every other move leads to a block already solved or to
absorption.  Each block is one tridiagonal system in c, solved by a Thomas
sweep whose two right-hand sides give the mean time to absorption and the
probability of absorbing at (n, 0).  The sweep is vectorized over every
model of one spare budget; a model reads the blocks with g <= n.  The cost
is O(n^2 (budget + 1)) vector operations and no matrix is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .params import require_int, require_spare_budget

__all__ = [
    "FAIL",
    "ChainModel",
    "build_baseline",
    "build_level_dependent",
    "build_failure_chain",
    "solve_chains",
    "mean_absorption_time",
    "completion_probability",
    "worker_idle_probability",
]

# sentinel label for the budget-exhausted absorbing state
FAIL = "FAIL"


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
    _check_n_mu(n, mu_f)
    _validate_rates(lambda_list, n)
    if not (l > 0 and math.isfinite(l)):
        raise ParameterError("reliability parameter l must be positive and finite")
    require_spare_budget(spare_budget)
    return _model(n, lambda_list, mu_f, mu_f / (l * n), spare_budget)


def _check_n_mu(n, mu_f):
    require_int("segment count n", n, 1)
    if not (mu_f > 0 and math.isfinite(mu_f)):
        raise ParameterError("mu_f must be positive and finite")


class _Lanes:
    """Models of one spare budget as numpy lanes, sorted by n, largest first;
    ``order[lane]`` is the lane's index in the list given."""

    def __init__(self, models):
        self.order = sorted(range(len(models)), key=lambda i: -models[i].n)
        ordered = [models[i] for i in self.order]
        self.budget = ordered[0].spare_budget
        self.n = np.array([m.n for m in ordered])
        self.rates = np.zeros((len(ordered), ordered[0].n))
        for lane, m in enumerate(ordered):
            self.rates[lane, :m.n] = m.offload_rates
        self.exec_rate = np.array([m.segment_exec_rate for m in ordered])
        self.failure_rate = np.array([m.failure_rate_per_worker for m in ordered])

    def active(self, g: int) -> int:
        """Number of lanes with at least g segments: a prefix of the lanes."""
        return int(np.count_nonzero(self.n >= g))

    def block(self, g: int, u: int):
        """Rate vectors (failure, allocation, completion, FAIL) of block (g, u).

        Each has shape (g + 1, lanes with n >= g), row c, and is zero where
        the move does not exist.  The simulator picks a move by one uniform
        draw against the cumulative rates in this order, so the order must
        stay fixed.
        """
        k = self.active(g)
        c = np.arange(g + 1.0)[:, None]
        alloc = np.zeros((g + 1, k))
        alloc[:g] = self.rates[:k, :g].T
        complete = c * self.exec_rate[:k]
        failure = c * self.failure_rate[:k]
        none = np.zeros_like(failure)
        if self.budget is not None and u == self.budget:
            return none, alloc, complete, failure
        return failure, alloc, complete, none


def _sweep(lanes: _Lanes) -> tuple[np.ndarray, np.ndarray]:
    """Mean time to absorption and probability of absorbing at (n, 0) from
    the start state (0, 0, 0), per lane."""
    top = 0 if lanes.budget is None else lanes.budget
    time = np.empty(lanes.n.size)
    success = np.empty(lanes.n.size)
    for g in range(1, int(lanes.n[0]) + 1):
        k = lanes.active(g)
        cur_t = np.zeros((top + 1, g + 1, k))
        cur_s = np.zeros((top + 1, g + 1, k))
        for u in range(top, -1, -1):
            failure, alloc, complete, to_fail = lanes.block(g, u)
            if lanes.budget is None:
                down, failure = failure, np.zeros_like(failure)
            else:
                down = np.zeros_like(failure)
            # values where the moves out of the block land, in the row c
            # they leave from; completion from level g = 1 is absorbed
            t_done, s_done, t_fail, s_fail = np.zeros((4, g + 1, k))
            if g == 1:
                s_done[1:] = 1.0
            else:
                t_done[1:], s_done[1:] = prev_t[u, :, :k], prev_s[u, :, :k]
            if u < top:
                t_fail[1:], s_fail[1:] = cur_t[u + 1, :g], cur_s[u + 1, :g]
            rhs_t = 1.0 + failure * t_fail + complete * t_done
            rhs_s = failure * s_fail + complete * s_done
            out = failure + complete + to_fail
            # Thomas sweep over c.  Row c reads
            #   q x[c] - down x[c-1] - up x[c+1] = rhs[c],  q = up + down + out;
            # eliminating x[c-1] leaves denom x[c] - up x[c+1] = rhs'[c].
            # h is the share of denom[c] not owed to up, so
            # denom = up + out + down h[c-1] is a sum of rates, never a
            # difference that could cancel.
            denom = np.empty((g + 1, k))
            h = y = z = np.zeros(k)
            for c in range(g + 1):
                leave = out[c] + down[c] * h
                denom[c] = alloc[c] + leave
                rhs_t[c] += down[c] * y
                rhs_s[c] += down[c] * z
                h, y, z = leave / denom[c], rhs_t[c] / denom[c], rhs_s[c] / denom[c]
            t = s = np.zeros(k)
            for c in range(g, -1, -1):
                t = cur_t[u, c] = (rhs_t[c] + alloc[c] * t) / denom[c]
                s = cur_s[u, c] = (rhs_s[c] + alloc[c] * s) / denom[c]
        ending = slice(lanes.active(g + 1), k)
        time[ending] = cur_t[0, 0, ending]
        success[ending] = cur_s[0, 0, ending]
        prev_t, prev_s = cur_t, cur_s
    return time, success


def solve_chains(models) -> tuple[list[float], list[float]]:
    """Mean absorption time and completion probability of every model.

    One backward sweep per spare budget present; every value is bitwise the
    one the model gets solved alone.  The completion probability is clipped
    to [0, 1] and is 1 up to rounding with unlimited spares.
    """
    models = list(models)
    times = [0.0] * len(models)
    completions = [0.0] * len(models)
    groups: dict = {}
    for i, model in enumerate(models):
        groups.setdefault(model.spare_budget, []).append(i)
    for members in groups.values():
        lanes = _Lanes([models[i] for i in members])
        time, success = _sweep(lanes)
        for lane, j in enumerate(lanes.order):
            times[members[j]] = float(time[lane])
            completions[members[j]] = min(max(float(success[lane]), 0.0), 1.0)
    return times, completions


def mean_absorption_time(model: ChainModel) -> float:
    """Expected time from the empty state (nothing finished, nothing
    allocated) to absorption, at (n, 0) or in FAIL."""
    return solve_chains([model])[0][0]


def completion_probability(model: ChainModel) -> float:
    """Probability of absorbing in the success state rather than FAIL.

    Only defined for models with a finite spare budget, which have both a
    success and a FAIL absorbing state.
    """
    if model.spare_budget is None:
        raise ParameterError(
            "completion_probability needs a model with a finite spare_budget")
    return solve_chains([model])[1][0]


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
