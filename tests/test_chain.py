import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eecsim import montecarlo
from eecsim.chain import (
    STEPS,
    _Lanes,
    build_baseline,
    build_failure_chain,
    build_level_dependent,
    mean_absorption_time,
    solve_chains,
    worker_idle_probability,
)
from eecsim.errors import ParameterError
from eecsim.montecarlo import _JumpRows
from eecsim.params import MAX_GRID_POINTS

# label of the budget-exhausted absorbing state
FAIL = "FAIL"


def closed_form_completion(n, l):
    return (n * n * l / (n * n * l + 1.0)) ** n


def dense_oracle(model):
    """Mean absorption time, success probability and variance of the
    absorption time from (0, 0), by dense linear solves on a rate matrix Q
    assembled here from the rules in the ``eecsim.chain`` docstring,
    independently of its rate table: -Q_TT m = 1,
    -Q_TT rho = (rates into the success states) and -Q_TT m2 = 2 m, the
    variance being m2 - m^2."""
    n, budget = model.n, model.spare_budget
    mu_seg, gamma = model.segment_exec_rate, model.failure_rate_per_worker
    failure_counts = range(1 if budget is None else budget + 1)
    transient = [(f, c, u) for f in range(n) for c in range(n - f + 1)
                 for u in failure_counts]
    index = {s: i for i, s in enumerate(transient)}
    Q = np.zeros((len(transient), len(transient)))
    into_success = np.zeros(len(transient))
    for (f, c, u), i in index.items():
        moves = []
        if f + c < n:
            moves.append((model.offload_rates[c], (f, c + 1, u)))
        if c > 0:
            moves.append((c * mu_seg, (f + 1, c - 1, u)))
        if c > 0 and gamma > 0.0:
            if budget is None:
                moves.append((c * gamma, (f, c - 1, u)))
            elif u < budget:
                moves.append((c * gamma, (f, c - 1, u + 1)))
            else:
                moves.append((c * gamma, None))  # into FAIL
        for rate, target in moves:
            Q[i, i] -= rate
            if target in index:
                Q[i, index[target]] += rate
            elif target is not None:
                into_success[i] += rate
    # each row divided by its exit rate (the jump-chain form (I - P) x = b):
    # unscaled, rates spread over decades cost up to 6e-12 relative error
    exit_rates = -np.diag(Q)
    A = -Q / exit_rates[:, None]
    time = np.linalg.solve(A, 1.0 / exit_rates)
    success = np.linalg.solve(A, into_success / exit_rates)
    second = np.linalg.solve(A, 2.0 * time / exit_rates)
    return time[0], success[0], second[0] - time[0] ** 2


def table_block(lanes, g, u):
    """Rate vectors (failure, allocation, completion, FAIL) of block (g, u),
    each over rows c = 0..g and the lanes with n >= g, cut from the rate
    table: at the budget a failure is fatal, and at c = g nothing is left
    to allocate."""
    top = 0 if lanes.budget is None else lanes.budget
    c = np.arange(g + 1)
    return lanes.table[:4, int(u == top), 1 * (c < g), c, :lanes.active(g)]


def thomas_sweep_ref(lanes):
    """Mean time to absorption and probability of absorbing at (n, 0) from
    (0, 0, 0), per lane of one spare budget, block by block: every block
    (g, u) for g = 1, 2, ... and, inside a level, u from the budget down, by
    a Thomas sweep over c whose two right-hand sides give the time and the
    success probability.  ``solve_chains`` visits the states in another
    order with the same arithmetic per state, so the two match bit for bit."""
    top = 0 if lanes.budget is None else lanes.budget
    time = np.empty(lanes.n.size)
    success = np.empty(lanes.n.size)
    for g in range(1, int(lanes.n[0]) + 1):
        k = lanes.active(g)
        cur_t = np.zeros((top + 1, g + 1, k))
        cur_s = np.zeros((top + 1, g + 1, k))
        for u in range(top, -1, -1):
            failure, alloc, complete, to_fail = table_block(lanes, g, u)
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
            # row c reads q x[c] - down x[c-1] - up x[c+1] = rhs[c]
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


def reference_solve(models):
    """``solve_chains`` by :func:`thomas_sweep_ref`: one sweep per spare
    budget, completion probabilities clipped to [0, 1]."""
    times = [0.0] * len(models)
    completions = [0.0] * len(models)
    groups = {}
    for i, model in enumerate(models):
        groups.setdefault(model.spare_budget, []).append(i)
    for members in groups.values():
        lanes = _Lanes([models[i] for i in members])
        time, success = thomas_sweep_ref(lanes)
        for lane, j in enumerate(lanes.order):
            times[members[j]] = float(time[lane])
            completions[members[j]] = min(max(float(success[lane]), 0.0), 1.0)
    return times, completions


def block(model, g, u=0):
    """Block (g, u) of one model, as lists over c = 0..g:
    (failure, allocation, completion, FAIL)."""
    return [v[:, 0].tolist() for v in table_block(_Lanes([model]), g, u)]


def state_ids(model):
    """{state label: its row of the simulator's jump rows} over the states
    (f, c, u) with f + c <= n in lexicographic order, u up to a finite budget
    and 0 with unlimited spares, then FAIL, which has no row (None), when
    the budget is finite."""
    n, budget = model.n, model.spare_budget
    levels = range(1 if budget is None else budget + 1)
    row = _JumpRows(model).row
    ids = {(f, c, u): int(row(f, c, u))
           for f in range(n + 1) for c in range(n - f + 1) for u in levels}
    return ids if budget is None else {**ids, FAIL: None}


def land(model, state, move):
    """Where a move of the rate table takes a state: FAIL, the table's last
    move, or the state plus the move's step.  With unlimited spares the
    label keeps u = 0, as no row reads it."""
    if move == len(STEPS):
        return FAIL
    f, c, u = (a + b for a, b in zip(state, STEPS[move]))
    return f, c, u if model.spare_budget is not None else 0


def state_jumps(model):
    """{state label: (jump probabilities {target state: p}, exit rate)} of
    every state but FAIL, read from the simulator's jump rows (the embedded
    chain it runs on): a state's row gives its rate and moves, and each
    move's step where it lands."""
    jumps = _JumpRows(model)
    out = {}
    for state, i in state_ids(model).items():
        if i is None:
            continue
        moves = np.flatnonzero(jumps.cum[i] >= 0.0)
        probs = np.diff([0.0] + jumps.cum[i, moves].tolist())
        out[state] = ({land(model, state, m): float(p) for m, p in zip(moves, probs)},
                      float(jumps.rate[i]))
    return out


def jump_row(model, state):
    """Jump probabilities {target state: p} and exit rate at one state."""
    return state_jumps(model)[state]


def absorbing_states(model):
    """The labels of the states without an exit: FAIL, and those whose jump
    row has rate 0."""
    jumps = state_jumps(model)
    return {s for s in state_ids(model) if s not in jumps or jumps[s][1] == 0.0}


def rule_moves(model, state):
    """{target state: rate} of the moves of positive rate out of one state,
    by the rules in the ``eecsim.chain`` docstring."""
    f, c, u = state
    n, budget = model.n, model.spare_budget
    gamma = model.failure_rate_per_worker
    fatal = budget is not None and u == budget
    moves = {(f, c - 1, u if budget is None else u + 1): 0.0 if fatal else c * gamma,
             (f, c + 1, u): model.offload_rates[c] if f + c < n else 0.0,
             (f + 1, c - 1, u): c * model.segment_exec_rate,
             FAIL: c * gamma if fatal else 0.0}
    return {target: r for target, r in moves.items() if r > 0.0}


def jump_tables_ref(model):
    """The simulator's jump rows built from the rules in the ``eecsim.chain``
    docstring, one row at a time.  Row (2 a + b) (n + 1) + c holds the
    states with c computing, at the budget (a = 1) or not, and with a
    segment left to allocate (b = 1) or not: the exit rate and the
    cumulative probabilities of its moves failure, allocation, completion,
    FAIL, summed left to right over the moves of positive rate, the last
    forced to 1, and -1 at a move of rate 0.  Rows b = 1, c = n hold no
    state.  Returns (rate, cum)."""
    n, budget = model.n, model.spare_budget
    mu_seg, gamma = model.segment_exec_rate, model.failure_rate_per_worker
    rate = np.zeros(4 * (n + 1))
    cum = np.full((rate.size, 4), -1.0)
    for i, (at_budget, can_allocate, c) in enumerate(
            product((False, True), (False, True), range(n + 1))):
        fatal = budget is not None and at_budget
        rates = [0.0 if fatal else c * gamma,
                 model.offload_rates[c] if can_allocate and c < n else 0.0,
                 c * mu_seg,
                 c * gamma if fatal else 0.0]
        moves = [(r, m) for m, r in enumerate(rates) if r > 0.0]
        if not moves:
            continue
        total = running = 0.0
        for r, _ in moves:
            total += r
        for r, m in moves:
            running += r / total
            cum[i, m] = running
        cum[i, moves[-1][1]] = 1.0
        rate[i] = total
    return rate, cum


class TestStateSpace:
    def test_smallest_chain(self):
        model = build_baseline(1, 1.0, 0.02)
        # block g = 1 holds (0, 0) and (0, 1): allocate, then complete
        failure, alloc, complete, to_fail = block(model, 1)
        assert alloc == [1.0, 0.0]
        assert complete == [0.0, pytest.approx(0.02)]
        assert failure == to_fail == [0.0, 0.0]
        # (1, 0) is in no block: absorbing, without exits
        assert absorbing_states(model) == {(1, 0, 0)}
        assert _JumpRows(model).cum[state_ids(model)[1, 0, 0]].tolist() == [-1.0] * 4

    def test_exit_rate_interior_state(self):
        model = build_baseline(2, 0.9, 0.02)
        mu_seg = 2 * 0.02
        # state (0, 1) is row c = 1 of block g = 2
        exit_rate = sum(v[1] for v in block(model, 2))
        assert exit_rate == pytest.approx(0.9 + mu_seg, abs=1e-14)

    def test_rejects_zero_segments(self):
        with pytest.raises(ParameterError):
            build_baseline(0, 1.0, 0.02)


class TestLevelDependent:
    def test_equal_rates_match_baseline(self):
        base = build_baseline(4, 0.8, 0.05)
        level = build_level_dependent(4, [0.8] * 4, 0.05)
        assert base == level

    def test_decreasing_rates_slow_the_chain(self):
        lam = [2.0, 1.0, 0.5]
        level = mean_absorption_time(build_level_dependent(3, lam, 0.1))
        best = mean_absorption_time(build_baseline(3, lam[0], 0.1))
        assert level >= best

    def test_wrong_rate_count_rejected(self):
        with pytest.raises(ParameterError):
            build_level_dependent(3, [1.0, 2.0], 0.1)

    def test_allocation_rank_follows_computing_count(self):
        # the next allocation re-uses the rank after a slot frees up: from
        # (finished=1, computing=0) the chain allocates at the first rate,
        # not the second
        lam = [2.0, 0.5]
        model = build_level_dependent(2, lam, 0.1)
        assert block(model, 1)[1] == [lam[0], 0.0]  # from (1, 0) and (1, 1)
        assert block(model, 2)[1] == [lam[0], lam[1], 0.0]  # from (0, c)
        probs, _ = jump_row(model, (1, 0, 0))
        assert probs == {(1, 1, 0): 1.0}


class TestFailureChain:
    def test_infinite_reliability_degenerates(self):
        lam = [1.5, 1.0, 0.7]
        level = build_level_dependent(3, lam, 0.04)
        failing = build_failure_chain(3, lam, 0.04, l=1e15)
        assert mean_absorption_time(failing) == pytest.approx(
            mean_absorption_time(level), rel=1e-12)

    def test_single_segment_first_step_oracle(self):
        # with one segment and unlimited spares: absorb after the executing
        # worker finally beats its failure clock
        lam, mu_f, l = 0.7, 0.05, 2.0
        gamma = mu_f / l
        model = build_failure_chain(1, [lam], mu_f, l)
        got = mean_absorption_time(model)
        want = 1.0 / lam + (1.0 + gamma / lam) / mu_f
        assert got == pytest.approx(want, rel=1e-12)

    def test_failure_delays_dominate_no_failure(self):
        for n in range(1, 11):
            for l in (1.0, 2.0, 5.0):
                lam = [1.0] * n
                plain = mean_absorption_time(build_level_dependent(n, lam, 0.02))
                failing = mean_absorption_time(build_failure_chain(n, lam, 0.02, l))
                assert failing >= plain

    def test_budget_state_space(self):
        model = build_failure_chain(2, [1.0, 1.0], 0.02, 1.0, spare_budget=1)
        jumps = _JumpRows(model)
        # 6 plain states x 2 budget levels + FAIL, all reachable from the
        # start, on 4 (n + 1) jump rows
        ids = state_ids(model)
        assert len(ids) == 13 and jumps.rate.size == 12
        assert FAIL in ids
        # the start state reads row c = 0 of the half below the budget that
        # can allocate: (2 * 0 + 1) (n + 1) + 0
        assert ids[0, 0, 0] == 3
        assert absorbing_states(model) == {(2, 0, 0), (2, 0, 1), FAIL}
        gamma = 0.02 / 2.0
        # inside the budget a failure is counted; at the budget it is fatal
        assert block(model, 2, u=0) == [[0.0, gamma, 2 * gamma], [1.0, 1.0, 0.0],
                                        [0.0, 2 * 0.02, 4 * 0.02], [0.0, 0.0, 0.0]]
        assert block(model, 2, u=1) == [[0.0, 0.0, 0.0], [1.0, 1.0, 0.0],
                                        [0.0, 2 * 0.02, 4 * 0.02], [0.0, gamma, 2 * gamma]]
        probs, rate = jump_row(model, (0, 1, 1))
        assert set(probs) == {(0, 2, 1), (1, 0, 1), FAIL}
        assert rate == 1.0 + 2 * 0.02 + gamma
        probs, _ = jump_row(model, (0, 1, 0))
        assert set(probs) == {(0, 0, 1), (0, 2, 0), (1, 0, 0)}


class TestEmbedded:
    """Jump probabilities of the simulator's embedded chain."""

    def test_rows_sum_to_one(self):
        model = build_failure_chain(3, [1.0, 0.8, 0.6], 0.03, 2.0, spare_budget=1)
        jumps = _JumpRows(model)
        for rate, cum in zip(jumps.rate.tolist(), jumps.cum.tolist()):
            live = [p for p in cum if p != -1.0]
            if rate == 0.0:
                assert live == []
                continue
            assert live[-1] == 1.0
            assert all(b > a for a, b in zip([0.0] + live, live))

    def test_fully_allocated_state_must_complete(self):
        model = build_baseline(3, 1.0, 0.02)
        probs, _ = jump_row(model, (0, 3, 0))
        assert probs == {(1, 2, 0): 1.0}

    def test_symmetric_race(self):
        mu_f = 0.02
        model = build_baseline(2, 2 * mu_f, mu_f)  # lambda equals mu_seg
        probs, _ = jump_row(model, (0, 1, 0))
        assert probs[0, 2, 0] == pytest.approx(0.5)
        assert probs[1, 0, 0] == pytest.approx(0.5)

    def test_zero_exit_transient_detected(self):
        # a transient state without exit needs a zero rate, which the
        # builders reject before any solve or simulation can see it
        with pytest.raises(ParameterError):
            build_baseline(1, 0.0, 0.02)
        with pytest.raises(ParameterError):
            build_level_dependent(2, [1.0, 0.0], 0.02)
        with pytest.raises(ParameterError):
            build_failure_chain(2, [1.0, 1.0], 0.0, 1.0)


class TestSojourn:
    """Exit rates of the simulator's embedded chain (mean sojourn 1/rate)."""

    def test_initial_state(self):
        model = build_level_dependent(3, [0.5, 1.0, 2.0], 0.02)
        _, rate = jump_row(model, (0, 0, 0))
        assert 1.0 / rate == pytest.approx(2.0)

    def test_fully_allocated_state(self):
        n, mu_f = 4, 0.02
        model = build_baseline(n, 1.0, mu_f)
        _, rate = jump_row(model, (0, n, 0))
        mu_seg = n * mu_f
        assert 1.0 / rate == pytest.approx(1.0 / (n * mu_seg))

    def test_failure_chain_exit_rates(self):
        n, mu_f, l = 3, 0.02, 2.0
        lam = [1.0, 0.8, 0.6]
        model = build_failure_chain(n, lam, mu_f, l)
        gamma_n = mu_f / (l * n)
        mu_seg = n * mu_f
        _, rate = jump_row(model, (0, 1, 0))
        assert 1.0 / rate == pytest.approx(1.0 / (lam[1] + mu_seg + gamma_n), rel=1e-12)

    def test_absorbing_sojourn_is_zero(self):
        model = build_baseline(2, 1.0, 0.02)
        jumps = _JumpRows(model)
        # f == n: the simulator ends the trajectory there, as a success
        assert (2, 0, 0) in absorbing_states(model) and jumps.n == 2
        assert jumps.rate[state_ids(model)[2, 0, 0]] == 0.0


class TestMeanAbsorption:
    def test_single_segment_closed_form(self):
        got = mean_absorption_time(build_baseline(1, 1.0, 0.02))
        assert got == pytest.approx(51.0, abs=1e-9)

    def test_two_segment_hand_value(self):
        # first-step analysis with lambda=1, mu_seg=0.04:
        # t(0,2) = 1/0.08 + 1/0.04 = 37.5, t(1,0) = 1 + 1/0.04 = 26,
        # t(0,1) = (1 + 1*37.5 + 0.04*26) / 1.04, total = 1 + t(0,1)
        got = mean_absorption_time(build_baseline(2, 1.0, 0.02))
        want = 1.0 + (1.0 + 37.5 + 0.04 * 26.0) / 1.04
        assert got == pytest.approx(want, abs=1e-9)
        assert round(got, 4) == 39.0192

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_instant_allocation_limit(self, n):
        # with instant offloading the delay is the max of n parallel
        # exponentials at the segment rate
        mu_f = 0.02
        got = mean_absorption_time(build_baseline(n, 1e6, mu_f))
        want = sum(1.0 / i for i in range(1, n + 1)) / (n * mu_f)
        assert got == pytest.approx(want, rel=1e-3)

    def test_monotone_in_rates(self):
        delays_lam = [mean_absorption_time(build_baseline(4, lam, 0.02))
                      for lam in (0.25, 0.5, 1.0, 2.0)]
        assert all(b < a for a, b in zip(delays_lam, delays_lam[1:]))
        delays_mu = [mean_absorption_time(build_baseline(4, 1.0, mu))
                     for mu in (0.01, 0.02, 0.05, 0.1)]
        assert all(b < a for a, b in zip(delays_mu, delays_mu[1:]))

    def test_agrees_with_generator_route(self):
        model = build_failure_chain(4, [1.3, 1.0, 0.8, 0.6], 0.03, 2.0)
        want, _, _ = dense_oracle(model)
        assert mean_absorption_time(model) == pytest.approx(want, rel=1e-12)

    def test_unreachable_absorption_detected(self):
        # absorption is unreachable only if some rate is zero or not finite,
        # which the builders reject
        with pytest.raises(ParameterError):
            build_baseline(1, math.inf, 0.02)
        with pytest.raises(ParameterError):
            build_level_dependent(1, [math.nan], 0.02)
        with pytest.raises(ParameterError):
            build_failure_chain(1, [1.0], 0.02, math.inf)


def completion(model):
    """Completion probability of one model, from :func:`solve_chains`."""
    return solve_chains([model])[1][0]


class TestCompletionProbability:
    @pytest.mark.parametrize("l", [1.0, 2.0, 5.0])
    def test_matches_closed_form(self, l):
        for n in range(1, 19):
            model = build_failure_chain(n, [0.9] * n, 0.02, l, spare_budget=0)
            got = completion(model)
            assert got == pytest.approx(closed_form_completion(n, l), abs=1e-12)

    def test_reference_points(self):
        anchors = [(1, 1.0, 0.5), (2, 1.0, 0.64), (3, 1.0, 0.729),
                   (4, 1.0, 0.7847), (1, 2.0, 0.6667), (1, 5.0, 0.8333)]
        for n, l, want in anchors:
            model = build_failure_chain(n, [1.0] * n, 0.02, l, spare_budget=0)
            assert completion(model) == pytest.approx(want, abs=1e-3)

    def test_monotone_in_reliability_and_budget(self):
        by_l = [completion(
            build_failure_chain(3, [1.0] * 3, 0.02, l, spare_budget=0))
            for l in (0.5, 1.0, 2.0, 5.0)]
        assert all(b >= a for a, b in zip(by_l, by_l[1:]))
        by_budget = [completion(
            build_failure_chain(3, [1.0] * 3, 0.02, 1.0, spare_budget=b))
            for b in (0, 1, 2, 5)]
        assert all(b >= a for a, b in zip(by_budget, by_budget[1:]))

    def test_requires_finite_budget(self):
        # a completion below 1 needs a FAIL state: with unlimited spares every
        # failure is replaced and the task always completes
        unlimited, finite = (build_failure_chain(2, [1.0, 1.0], 0.02, 1.0, spare_budget=b)
                             for b in (None, 0))
        assert completion(unlimited) == pytest.approx(1.0, abs=1e-12)
        assert completion(finite) < 0.99

    def test_agrees_with_rate_matrix_route(self):
        model = build_failure_chain(3, [1.1, 0.9, 0.7], 0.04, 1.5, spare_budget=1)
        want_time, want_success, _ = dense_oracle(model)
        assert completion(model) == pytest.approx(want_success, abs=1e-12)
        assert mean_absorption_time(model) == pytest.approx(want_time, rel=1e-12)

    def test_independent_of_offload_rates(self):
        # allocation always eventually succeeds, so only the per-segment
        # race between completion and failure matters
        slow = build_failure_chain(3, [0.01, 0.02, 0.03], 0.02, 1.0, spare_budget=0)
        fast = build_failure_chain(3, [5.0, 4.0, 3.0], 0.02, 1.0, spare_budget=0)
        assert completion(slow) == pytest.approx(
            completion(fast), abs=1e-12)


@st.composite
def chains(draw, n_max=12):
    """Chain parameters across the model's range: rates over five decades,
    reliability l from 0.1 to 100 or no failures at all (l = None),
    unlimited or finite spare budgets."""
    n = draw(st.integers(1, n_max))
    decades = st.floats(-3.0, 2.0)
    rates = [10.0 ** draw(decades) for _ in range(n)]
    mu_f = 10.0 ** draw(decades)
    l = draw(st.none() | st.floats(-1.0, 2.0).map(lambda e: 10.0 ** e))
    budget = None if l is None else draw(st.none() | st.integers(0, 10))
    return n, rates, mu_f, l, budget


def chain(n, rates, mu_f, l, budget):
    if l is None:
        return build_level_dependent(n, rates, mu_f)
    return build_failure_chain(n, rates, mu_f, l, spare_budget=budget)


class TestAgainstDenseOracle:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.lists(chains(), min_size=1, max_size=6), st.floats(1.5, 10.0))
    def test_level_solver_properties(self, batch, scale):
        # one call solves the batch, its scaled copies and its models with
        # one more spare, mixing every n and budget
        models = [chain(*params) for params in batch]
        # every rate (offloading, execution, failure) scaled up together
        faster = [chain(n, [scale * r for r in rates], scale * mu_f, l, budget)
                  for n, rates, mu_f, l, budget in batch]
        more_spares = [chain(n, rates, mu_f, l, budget + 1)
                       for n, rates, mu_f, l, budget in batch if budget is not None]
        every = models + faster + more_spares
        times, completions, variances = solve_chains(every, variances=True)
        # the second moment leaves the time and success arithmetic alone
        assert (times, completions) == solve_chains(every)  # bitwise
        spare = iter(completions[2 * len(models):])
        for i, model in enumerate(models):
            want_time, want_success, want_variance = dense_oracle(model)
            assert times[i] == mean_absorption_time(model)  # bitwise
            assert times[i] == pytest.approx(want_time, rel=1e-12)
            assert variances[i] == solve_chains([model], variances=True)[2][0]  # bitwise
            assert variances[i] == pytest.approx(want_variance, rel=1e-12)
            assert times[len(models) + i] <= times[i]
            if model.spare_budget is None:
                continue
            assert completions[i] == completion(model)  # bitwise
            assert completions[i] == pytest.approx(want_success, abs=1e-12)
            assert 0.0 <= completions[i] <= 1.0
            assert next(spare) >= completions[i]

    def test_empty_batch(self):
        assert solve_chains([]) == ([], [])
        assert solve_chains([], variances=True) == ([], [], [])


def ranked_rates(n):
    """Offloading rates falling with rank, as the rank success
    probabilities over the slot time do."""
    return [0.9 * 0.95 ** k for k in range(n)]


class TestAgainstThomasReference:
    """``solve_chains`` against the block-by-block Thomas sweep: equal
    bitwise (==), not to a tolerance."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.lists(chains(n_max=40), min_size=1, max_size=8))
    def test_mixed_batches(self, batch):
        # every solver group in one call: no failures, unlimited spares with
        # failures, and spare budgets 0 to 10
        models = [chain(*params) for params in batch]
        assert solve_chains(models) == reference_solve(models)

    def test_delay_variants(self):
        # random, ordered and ordered+failure (unlimited spares), n = 1..50
        mu_f, l = 0.02, 3.0
        models = [m for n in range(1, 51) for m in (
            build_baseline(n, 0.6, mu_f),
            build_level_dependent(n, ranked_rates(n), mu_f),
            build_failure_chain(n, ranked_rates(n), mu_f, l))]
        assert solve_chains(models) == reference_solve(models)

    @pytest.mark.parametrize("budget", [0, 2, 4])
    def test_spare_budgets(self, budget):
        models = [build_failure_chain(n, ranked_rates(n), 0.02, l, spare_budget=budget)
                  for n in range(1, 23) for l in (0.8, 3.0, 7.5)]
        assert solve_chains(models) == reference_solve(models)


class TestAgainstJumpReference:
    """The simulator's jump rows against :func:`jump_tables_ref`: every
    array equal.  Each state's row and the moves' steps then take it where
    the rules say."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(chains())
    def test_tables_match(self, params):
        model = chain(*params)
        jumps = _JumpRows(model)
        rate, cum = jump_tables_ref(model)
        assert np.array_equal(jumps.rate, rate)
        assert np.array_equal(jumps.cum, cum)
        for state, (probs, exit_rate) in state_jumps(model).items():
            want = rule_moves(model, state)
            assert probs == pytest.approx({t: r / exit_rate for t, r in want.items()},
                                          rel=1e-14)
            assert exit_rate == pytest.approx(math.fsum(want.values()), rel=1e-15)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(chains())
    def test_move_thresholds_pick_the_cumulative_move(self, params):
        # the simulator's move, the count of a row's thresholds below the
        # move uniform m, against the first move whose cumulative probability
        # reaches m, on every row with a move: at m = 0, at each cumulative
        # entry (every threshold is one) and at its neighbours either side,
        # as far as they lie in [0, 1]
        jumps = _JumpRows(chain(*params))
        assert len(jumps.thresholds) == 3
        assert all(bound.flags.c_contiguous for bound in jumps.thresholds)
        for row in np.flatnonzero(jumps.rate > 0.0):
            cum = jumps.cum[row]
            ms = {0.0}
            for t in cum.tolist():
                ms |= {t, float(np.nextafter(t, -np.inf)), float(np.nextafter(t, np.inf))}
            ms = np.array(sorted(m for m in ms if 0.0 <= m <= 1.0))
            rows = np.full(ms.size, row)
            moves = montecarlo._below((bound[rows] for bound in jumps.thresholds), ms)
            assert moves.tolist() == [int(np.argmax(cum >= m)) for m in ms]

    @pytest.mark.parametrize("budget", [2000, 15000])
    def test_simulation_memory_does_not_grow_with_the_budget(self, budget):
        # numpy reports its buffers to tracemalloc; the simulator keeps
        # 4 (n + 1) jump rows and its lanes, so nothing it holds grows with
        # the chain's 990,067 states at budget 15000
        model = build_failure_chain(10, [0.9] * 10, 0.02, 1.0, spare_budget=budget)
        cfg = montecarlo.SimConfig(seed=1, replications=20)
        montecarlo.empirical_delay(cfg, [model])
        tracemalloc.start()
        try:
            montecarlo.empirical_delay(cfg, [model])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestHugeSpareBudget:
    def test_rejected_before_any_solve(self):
        with pytest.raises(ParameterError, match="spare_budget"):
            build_failure_chain(22, [1.0] * 22, 0.02, 1.0, spare_budget=10 ** 9)

    def test_limit_counts_every_state(self):
        # n = 1 has 3 (f, c) pairs, each at budget + 1 failure counts
        largest = MAX_GRID_POINTS // 3 - 1
        build_failure_chain(1, [1.0], 0.02, 1.0, spare_budget=largest)
        with pytest.raises(ParameterError):
            build_failure_chain(1, [1.0], 0.02, 1.0, spare_budget=largest + 1)


class TestHugeSegmentCount:
    @pytest.mark.parametrize("build", [
        lambda n: build_baseline(n, 1.0, 0.02),
        lambda n: build_level_dependent(n, [1.0] * n, 0.02),
        lambda n: build_failure_chain(n, [1.0] * n, 0.02, 1.0),
    ], ids=["baseline", "level_dependent", "failure"])
    def test_limit_counts_every_state(self, build):
        # (n + 1)(n + 2)/2 states: 998,991 at n = 1412, 1,000,405 at 1413
        build(1412)
        with pytest.raises(ParameterError, match="chain states"):
            build(1413)


class TestWorkerIdle:
    def test_no_demand(self):
        assert worker_idle_probability(0.02, 0.0, 7e-4) == 1.0

    def test_reference_value(self):
        assert worker_idle_probability(0.02, 1e-4, 7e-4) == pytest.approx(0.12281, abs=1e-5)

    def test_matches_stationary_solve(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            mu_f = float(rng.uniform(0.001, 1.0))
            nu_r = float(rng.uniform(0.0, 1e-3))
            nu_w = float(rng.uniform(1e-5, 1e-2))
            for n in (1, 3, 9):
                up, down = n * nu_r / nu_w, n * mu_f
                # pi Q = 0 with normalization, solved directly
                pi = np.linalg.solve(np.array([[-up, down], [1.0, 1.0]]),
                                     np.array([0.0, 1.0]))
                assert worker_idle_probability(mu_f, nu_r, nu_w) == pytest.approx(
                    pi[0], abs=1e-12)

    def test_rejects_zero_worker_intensity(self):
        with pytest.raises(ParameterError):
            worker_idle_probability(0.02, 1e-4, 0.0)
