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

:func:`transitions` is the one enumeration of these rules; the solver here
and the trajectory simulator both read it.  Neither f nor u ever decreases,
so the solver walks the (f, u) blocks backward, from f = n-1 down to 0 and
from u = budget down to 0.  Inside a block the only moves are allocation
c -> c+1 and, with unlimited spares, failure c -> c-1; every other move
leads to a block already solved or to absorption.  Each block is therefore
one tridiagonal system in c, solved by a single Thomas sweep whose two
right-hand sides give the mean time to absorption and the probability of
absorbing at (n, 0).  The cost is O(n^2 (budget + 1)) and no matrix is
formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError

__all__ = [
    "FAIL",
    "ChainModel",
    "build_baseline",
    "build_level_dependent",
    "build_failure_chain",
    "transitions",
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
    if spare_budget is not None:
        if not isinstance(spare_budget, int) or isinstance(spare_budget, bool) or spare_budget < 0:
            raise ParameterError("spare_budget must be None or an integer >= 0")
    return _model(n, lambda_list, mu_f, mu_f / (l * n), spare_budget)


def _check_n_mu(n, mu_f):
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParameterError(f"segment count n must be an integer >= 1, got {n!r}")
    if not (mu_f > 0 and math.isfinite(mu_f)):
        raise ParameterError("mu_f must be positive and finite")


def transitions(model: ChainModel, state) -> list[tuple[float, object]]:
    """(rate, target) pairs out of the transient state (f, c, u).

    u counts failures so far and stays 0 with unlimited spares; a target is
    another (f, c, u) state or FAIL.  The builders' input checks make every
    rate positive, so every transient state has an exit and reaches
    absorption.

    The order is failure within the budget, allocation, completion, FAIL,
    and it must stay fixed: the trajectory simulator picks a target by one
    uniform draw against the cumulative rates in this order, so any other
    order changes every simulated stream.
    """
    f, c, u = state
    budget = model.spare_budget
    out = []
    fail_rate = c * model.failure_rate_per_worker
    if fail_rate > 0.0 and budget is None:
        out.append((fail_rate, (f, c - 1, u)))
    elif fail_rate > 0.0 and u < budget:
        out.append((fail_rate, (f, c - 1, u + 1)))
    if f + c < model.n:
        out.append((model.offload_rates[c], (f, c + 1, u)))
    if c > 0:
        out.append((c * model.segment_exec_rate, (f + 1, c - 1, u)))
    if fail_rate > 0.0 and budget is not None and u == budget:
        out.append((fail_rate, FAIL))
    return out


def _solve(model: ChainModel) -> tuple[float, float]:
    """Mean time to absorption and probability of absorbing at (n, 0),
    both from the empty start state (0, 0, 0)."""
    n = model.n
    top = 0 if model.spare_budget is None else model.spare_budget
    solved: dict = {}

    def value(target):
        if target == FAIL:
            return 0.0, 0.0
        if target[0] == n:
            return 0.0, 1.0
        return solved[target]

    for f in range(n - 1, -1, -1):
        for u in range(top, -1, -1):
            # Thomas sweep over c.  Row c reads
            #   q x[c] - down x[c-1] - up x[c+1] = rhs[c],  q = up + down + out;
            # eliminating x[c-1] leaves denom x[c] - up x[c+1] = rhs'[c].
            # h[c] is the share of denom[c] not owed to up, so
            # denom = up + out + down h[c-1] is a sum of rates, never a
            # difference that could cancel.
            rows = []
            h = y = z = 0.0
            for c in range(n - f + 1):
                up = down = out = 0.0
                rhs_t, rhs_s = 1.0, 0.0
                for rate, target in transitions(model, (f, c, u)):
                    if target == (f, c + 1, u):
                        up = rate
                    elif target == (f, c - 1, u):
                        down = rate
                    else:
                        t, s = value(target)
                        out += rate
                        rhs_t += rate * t
                        rhs_s += rate * s
                leave = out + down * h
                denom = up + leave
                rhs_t += down * y
                rhs_s += down * z
                h, y, z = leave / denom, rhs_t / denom, rhs_s / denom
                rows.append((up, denom, rhs_t, rhs_s))
            t = s = 0.0
            for c in range(n - f, -1, -1):
                up, denom, rhs_t, rhs_s = rows[c]
                t = (rhs_t + up * t) / denom
                s = (rhs_s + up * s) / denom
                solved[f, c, u] = (t, s)
    return solved[0, 0, 0]


def mean_absorption_time(model: ChainModel) -> float:
    """Expected time from the empty state (nothing finished, nothing
    allocated) to absorption, at (n, 0) or in FAIL."""
    return _solve(model)[0]


def completion_probability(model: ChainModel) -> float:
    """Probability of absorbing in the success state rather than FAIL.

    Only defined for models with a finite spare budget, which have both a
    success and a FAIL absorbing state.
    """
    if model.spare_budget is None:
        raise ParameterError(
            "completion_probability needs a model with a finite spare_budget")
    return min(max(_solve(model)[1], 0.0), 1.0)


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
