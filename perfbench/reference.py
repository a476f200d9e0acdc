"""Reference values computed apart from the program's own solvers.

Everything here is rebuilt from the model as documented (README and the
``eecsim.chain`` module docstring), with algorithms the program does not
use, so that a wrong answer in the program cannot be repeated here:

* unlimited spares: the finished count f never decreases, so mean delays
  are solved backward over f, one small linear system per f-level;
* finite spare budget: every transition raises 3f + c + 2u, so the chain
  is acyclic and first-step analysis in that order is exact;
* completion with a finite budget: each started segment either finishes
  or fails, so the task succeeds iff n finishes come before b + 1
  failures, a negative-binomial sum;
* the MEC delay and the congested worker intensity: closed forms.
"""

from __future__ import annotations

import math

import numpy as np


def mean_delay_unlimited(n: int, rates, mu_f: float, gamma_n: float = 0.0) -> float:
    """Mean time from (0, 0) to (n, 0) with unlimited replacements.

    From (f, c): allocation to (f, c+1) at ``rates[c]`` while f + c < n,
    completion to (f+1, c-1) at c * n * mu_f, failure to (f, c-1) at
    c * gamma_n.
    """
    mu_seg = n * mu_f
    upper = np.zeros(1)  # remaining time on level f + 1, indexed by c
    for f in range(n - 1, -1, -1):
        size = n - f + 1
        a = np.zeros((size, size))
        b = np.ones(size)
        for c in range(size):
            alloc = rates[c] if f + c < n else 0.0
            done = c * mu_seg
            fail = c * gamma_n
            a[c, c] = alloc + done + fail
            if alloc:
                a[c, c + 1] = -alloc
            if c:
                a[c, c - 1] = -fail
                b[c] += done * upper[c - 1]
        upper = np.linalg.solve(a, b)
    return float(upper[0])


def budget_chain(n: int, rates, mu_f: float, gamma_n: float, budget: int):
    """(mean delay, completion probability) with at most ``budget`` spares.

    The state is (f, c, u) with u failures so far; a failure with u equal
    to the budget ends the task in FAIL.
    """
    mu_seg = n * mu_f
    # time[f][u][c] and win[f][u][c]; f = n is success with c = 0
    time = [[[0.0] * (n - f + 2) for _ in range(budget + 2)] for f in range(n + 1)]
    win = [[[0.0] * (n - f + 2) for _ in range(budget + 2)] for f in range(n + 1)]
    for u in range(budget + 1):
        win[n][u][0] = 1.0
    for f in range(n - 1, -1, -1):
        for u in range(budget, -1, -1):
            for c in range(n - f, -1, -1):
                alloc = rates[c] if f + c < n else 0.0
                done = c * mu_seg
                fail = c * gamma_n
                t = 1.0 + alloc * time[f][u][c + 1]
                w = alloc * win[f][u][c + 1]
                if c:
                    t += done * time[f + 1][u][c - 1] + fail * time[f][u + 1][c - 1]
                    w += done * win[f + 1][u][c - 1] + fail * win[f][u + 1][c - 1]
                total = alloc + done + fail
                time[f][u][c] = t / total
                win[f][u][c] = w / total
    return time[0][0][0], win[0][0][0]


def completion_closed_form(n: int, l: float, budget: int) -> float:
    """P(n segment completions before budget + 1 failures).

    A computing worker finishes at n * mu_f and fails at mu_f / (l * n),
    so each started segment finishes with p = n^2 l / (n^2 l + 1).
    """
    p = n * n * l / (n * n * l + 1.0)
    return math.fsum(math.comb(n - 1 + j, j) * p ** n * (1.0 - p) ** j
                     for j in range(budget + 1))


def mec_delay(alpha: float, scenario) -> float:
    """Uplink slots plus processor-shared service for the MEC tier."""
    mec, radio = scenario.mec, scenario.radio
    load = (1.0 - alpha) * scenario.deploy.requester_intensity_per_m2 \
        * math.pi * radio.los_radius_m ** 2
    uplink = scenario.task.d2d_slot_s / mec.offload_success_prob
    return uplink + (1.0 + load) / (mec.power_ratio * mec.mec_task_rate_mu_f)


def idle_worker_intensity(alpha: float, deploy, mu_f: float) -> float:
    """Idle workers per m^2 when a share alpha of requesters uses the edge.

    A worker alternates between idle (left at rate alpha nu_r / nu_w) and
    busy (left at rate mu_f); the idle share is mu_f / (mu_f + alpha nu_r / nu_w).
    """
    nu_w = deploy.worker_intensity_per_m2
    if nu_w == 0.0:
        return 0.0
    load = alpha * deploy.requester_intensity_per_m2 / nu_w
    return nu_w * mu_f / (mu_f + load)


def usable_prefix(rates) -> int:
    """Number of leading strictly positive rates (deep ranks may underflow)."""
    for i, rate in enumerate(rates):
        if rate <= 0.0:
            return i
    return len(rates)
