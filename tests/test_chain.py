import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eecsim.chain import (
    FAIL,
    _Lanes,
    build_baseline,
    build_failure_chain,
    build_level_dependent,
    completion_probability,
    mean_absorption_time,
    solve_chains,
    worker_idle_probability,
)
from eecsim.errors import ParameterError
from eecsim.montecarlo import _JumpTables


def closed_form_completion(n, l):
    return (n * n * l / (n * n * l + 1.0)) ** n


def dense_oracle(model):
    """Mean absorption time and success probability from (0, 0), by dense
    linear solves on a rate matrix Q assembled here from the rules in the
    ``eecsim.chain`` docstring, independently of its block enumeration:
    -Q_TT m = 1 and -Q_TT rho = (rates into the success states)."""
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
    return time[0], success[0]


def block(model, g, u=0):
    """Block (g, u) of one model, as lists over c = 0..g:
    (failure, allocation, completion, FAIL)."""
    return [v[:, 0].tolist() for v in _Lanes([model]).block(g, u)]


def jump_row(model, state):
    """Jump probabilities {target state: p} and exit rate at one state of
    the simulator's jump tables (the embedded chain it runs on)."""
    tables = _JumpTables(model)
    states = {i: s for s, i in tables.ids.items()}
    i = tables.ids[state]
    targets = tables.targets[i][tables.targets[i] >= 0].tolist()
    probs = np.diff([0.0] + tables.cum[i, :len(targets)].tolist())
    return ({states[j]: float(p) for j, p in zip(targets, probs)},
            float(tables.rate[i]))


def absorbing_states(tables):
    """The labels of the states the jump tables mark absorbing."""
    return {s for s, i in tables.ids.items() if tables.absorbing[i]}


class TestStateSpace:
    def test_smallest_chain(self):
        model = build_baseline(1, 1.0, 0.02)
        # block g = 1 holds (0, 0) and (0, 1): allocate, then complete
        failure, alloc, complete, to_fail = block(model, 1)
        assert alloc == [1.0, 0.0]
        assert complete == [0.0, pytest.approx(0.02)]
        assert failure == to_fail == [0.0, 0.0]
        # (1, 0) is in no block: absorbing, without exits
        tables = _JumpTables(model)
        assert absorbing_states(tables) == {(1, 0, 0)}
        assert tables.targets[tables.ids[1, 0, 0]].tolist() == [-1, -1, -1]

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
        tables = _JumpTables(model)
        # 6 plain states x 2 budget levels + FAIL, all reachable from the start
        assert len(tables.ids) == 13
        assert FAIL in tables.ids
        assert tables.ids[0, 0, 0] == 0
        assert absorbing_states(tables) == {(2, 0, 0), (2, 0, 1), FAIL}
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
        tables = _JumpTables(model)
        for i, (cum, targets) in enumerate(zip(tables.cum.tolist(), tables.targets.tolist())):
            moves = sum(j >= 0 for j in targets)
            if tables.absorbing[i]:
                assert moves == 0 and tables.rate[i] == 0.0
                continue
            assert targets[moves:] == [-1] * (3 - moves)
            assert cum[moves - 1:] == [1.0] * (4 - moves)
            assert all(b > a for a, b in zip([0.0] + cum[:moves], cum[:moves]))

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
        tables = _JumpTables(model)
        i = tables.ids[2, 0, 0]
        assert tables.absorbing[i] and tables.success[i]
        assert tables.rate[i] == 0.0


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
        want, _ = dense_oracle(model)
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


class TestCompletionProbability:
    @pytest.mark.parametrize("l", [1.0, 2.0, 5.0])
    def test_matches_closed_form(self, l):
        for n in range(1, 19):
            model = build_failure_chain(n, [0.9] * n, 0.02, l, spare_budget=0)
            got = completion_probability(model)
            assert got == pytest.approx(closed_form_completion(n, l), abs=1e-12)

    def test_reference_points(self):
        anchors = [(1, 1.0, 0.5), (2, 1.0, 0.64), (3, 1.0, 0.729),
                   (4, 1.0, 0.7847), (1, 2.0, 0.6667), (1, 5.0, 0.8333)]
        for n, l, want in anchors:
            model = build_failure_chain(n, [1.0] * n, 0.02, l, spare_budget=0)
            assert completion_probability(model) == pytest.approx(want, abs=1e-3)

    def test_monotone_in_reliability_and_budget(self):
        by_l = [completion_probability(
            build_failure_chain(3, [1.0] * 3, 0.02, l, spare_budget=0))
            for l in (0.5, 1.0, 2.0, 5.0)]
        assert all(b >= a for a, b in zip(by_l, by_l[1:]))
        by_budget = [completion_probability(
            build_failure_chain(3, [1.0] * 3, 0.02, 1.0, spare_budget=b))
            for b in (0, 1, 2, 5)]
        assert all(b >= a for a, b in zip(by_budget, by_budget[1:]))

    def test_requires_finite_budget(self):
        model = build_failure_chain(2, [1.0, 1.0], 0.02, 1.0)
        with pytest.raises(ParameterError):
            completion_probability(model)

    def test_agrees_with_rate_matrix_route(self):
        model = build_failure_chain(3, [1.1, 0.9, 0.7], 0.04, 1.5, spare_budget=1)
        want_time, want_success = dense_oracle(model)
        assert completion_probability(model) == pytest.approx(want_success, abs=1e-12)
        assert mean_absorption_time(model) == pytest.approx(want_time, rel=1e-12)

    def test_independent_of_offload_rates(self):
        # allocation always eventually succeeds, so only the per-segment
        # race between completion and failure matters
        slow = build_failure_chain(3, [0.01, 0.02, 0.03], 0.02, 1.0, spare_budget=0)
        fast = build_failure_chain(3, [5.0, 4.0, 3.0], 0.02, 1.0, spare_budget=0)
        assert completion_probability(slow) == pytest.approx(
            completion_probability(fast), abs=1e-12)


@st.composite
def chains(draw):
    """Chain parameters across the model's range: rates over five decades,
    reliability l from 0.1 to 100 or no failures at all (l = None),
    unlimited or finite spare budgets."""
    n = draw(st.integers(1, 12))
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
        times, completions = solve_chains(models + faster + more_spares)
        spare = iter(completions[2 * len(models):])
        for i, model in enumerate(models):
            want_time, want_success = dense_oracle(model)
            assert times[i] == mean_absorption_time(model)  # bitwise
            assert times[i] == pytest.approx(want_time, rel=1e-12)
            assert times[len(models) + i] <= times[i]
            if model.spare_budget is None:
                continue
            assert completions[i] == completion_probability(model)  # bitwise
            assert completions[i] == pytest.approx(want_success, abs=1e-12)
            assert 0.0 <= completions[i] <= 1.0
            assert next(spare) >= completions[i]

    def test_empty_batch(self):
        assert solve_chains([]) == ([], [])


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
