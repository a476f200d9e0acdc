import math
from dataclasses import replace

import numpy as np
import pytest

from eecsim.chain import build_baseline, build_failure_chain, mean_absorption_time
from eecsim.coverage import (
    CoverageQuery,
    RandomSelection,
    RankedSelection,
    success_probability_random,
)
from eecsim.errors import ParameterError
from eecsim.montecarlo import (
    SimConfig,
    default_arena_radius,
    empirical_delay,
    empirical_success_curve,
    empirical_success_probability,
    link_sinr,
    sample_network,
    simulate_task_trajectory,
)
from eecsim.params import DeploymentParams

# the coverage analysis carries a small gamma-tail approximation bias on
# top of the binomial noise
COVERAGE_BIAS_ALLOWANCE = 0.02


class TestSampling:
    def test_same_seed_same_realization(self, radio, deploy):
        a = sample_network(123, deploy, radio)
        b = sample_network(123, deploy, radio)
        assert np.array_equal(a.worker_points, b.worker_points)
        assert np.array_equal(a.requester_points, b.requester_points)
        assert np.array_equal(a.interferer_gains, b.interferer_gains)

    def test_different_seed_differs(self, radio, deploy):
        a = sample_network(123, deploy, radio)
        b = sample_network(124, deploy, radio)
        assert len(a.worker_points) != len(b.worker_points) or not np.array_equal(
            a.worker_points, b.worker_points)

    def test_zero_worker_intensity(self, radio):
        real = sample_network(5, DeploymentParams(0.0, 1e-4), radio)
        assert len(real.worker_points) == 0

    def test_mean_worker_count(self, radio, deploy):
        v = deploy.mean_los_workers(radio.los_radius_m)
        counts = [len(sample_network(seed, deploy, radio, arena_radius_m=150.0).worker_points)
                  for seed in range(10_000)]
        sigma = math.sqrt(v / len(counts))
        assert np.mean(counts) == pytest.approx(v, abs=3 * sigma)

    def test_workers_inside_los_disk(self, radio, deploy):
        real = sample_network(9, deploy, radio)
        radii = np.hypot(real.worker_points[:, 0], real.worker_points[:, 1])
        assert np.all(radii <= radio.los_radius_m)

    def test_arena_default(self, radio, deploy):
        assert default_arena_radius(radio, deploy) == 10 * radio.los_radius_m


class TestLinkSinr:
    def test_deterministic_limit_without_interference(self, radio):
        # nearly deterministic fading, no interferers: SINR is the mean SNR
        quiet = replace(radio, nakagami_los=1000)
        deploy = DeploymentParams(7e-4, 0.0)
        real = sample_network(3, deploy, quiet)
        idx = 0
        r0 = float(np.hypot(*real.worker_points[idx]))
        want = (quiet.main_lobe ** 2 * quiet.intercept_los
                * r0 ** (-quiet.pathloss_exp_los) / quiet.noise_normalized)
        got = link_sinr(real, idx, quiet)
        assert got == pytest.approx(want, rel=0.15)

    def test_interference_lowers_sinr(self, radio, deploy):
        real = sample_network(3, deploy, radio)
        quiet = replace(real, requester_points=np.empty((0, 2)),
                        interferer_gains=np.empty(0),
                        interferer_fades_los=np.empty(0),
                        interferer_fades_nlos=np.empty(0))
        assert link_sinr(real, 0, radio) < link_sinr(quiet, 0, radio)

    def test_rejects_worker_outside_los(self, radio, deploy):
        real = sample_network(3, deploy, radio)
        moved = replace(real, worker_points=np.array([[500.0, 0.0]]))
        with pytest.raises(ParameterError):
            link_sinr(moved, 0, radio)

    def test_classification_toggle_changes_result(self, radio, deploy):
        real = sample_network(17, deploy, radio)
        worker = link_sinr(real, 0, radio, los_classification="worker")
        requester = link_sinr(real, 0, radio, los_classification="requester")
        assert worker != requester  # same draws, different blockage anchors


class TestEmpiricalCoverage:
    def test_reproducible_and_chunk_invariant(self, radio, deploy):
        query = CoverageQuery(radio, deploy, RandomSelection())
        runs = [empirical_success_curve(SimConfig(seed=7, replications=500), query,
                                        [5.0], chunk_size=chunk)[0]
                for chunk in (1, 64, 500)]
        assert runs[0].estimate == runs[1].estimate == runs[2].estimate

    def test_matches_analysis_random(self, radio, deploy):
        query = CoverageQuery(radio, deploy, RandomSelection())
        est = empirical_success_probability(SimConfig(seed=11, replications=20_000), query)
        analytic = success_probability_random(query)
        assert abs(est.estimate - analytic) <= 3 * est.std_error + COVERAGE_BIAS_ALLOWANCE

    def test_threshold_zero_limit(self, radio, deploy):
        query = CoverageQuery(radio, deploy, RandomSelection())
        est = empirical_success_curve(SimConfig(seed=11, replications=2000), query, [-60.0])[0]
        assert est.estimate > 0.999

    def test_interference_monotone_in_intensity(self, radio):
        cfg = SimConfig(seed=21, replications=15_000)
        est = []
        for nu_r in (1e-4, 2e-4):
            query = CoverageQuery(radio, DeploymentParams(7e-4, nu_r), RandomSelection())
            est.append(empirical_success_probability(cfg, query).estimate)
        assert est[1] <= est[0]

    def test_ranked_selection_beats_random(self, radio, deploy):
        cfg = SimConfig(seed=31, replications=15_000)
        random_est = empirical_success_probability(
            cfg, CoverageQuery(radio, deploy, RandomSelection()))
        nearest_est = empirical_success_probability(
            cfg, CoverageQuery(radio, deploy, RankedSelection(1)))
        assert nearest_est.estimate > random_est.estimate

    def test_fast_path_matches_reference_pipeline(self, radio, deploy):
        # the estimator's trimmed draw path against the sample_network plus
        # link_sinr reference, as two independent estimates of the same
        # probability (nearest-worker selection needs no extra draws)
        reps = 15_000
        threshold = radio.sinr_threshold
        hits = 0
        for rep in range(reps):
            real = sample_network(rep, deploy, radio)
            d2 = np.einsum("ij,ij->i", real.worker_points, real.worker_points)
            nearest = int(np.argmin(d2))
            hits += link_sinr(real, nearest, radio) > threshold
        reference = hits / reps
        query = CoverageQuery(radio, deploy, RankedSelection(1))
        est = empirical_success_probability(SimConfig(seed=77, replications=reps), query)
        combined_se = math.sqrt(est.std_error ** 2 + reference * (1 - reference) / reps)
        assert abs(est.estimate - reference) <= 3 * combined_se

    def test_resampling_counted_for_sparse_workers(self, radio):
        sparse = DeploymentParams(2e-5, 0.0)  # V ~ 0.63, empty disks are common
        query = CoverageQuery(radio, sparse, RandomSelection())
        est = empirical_success_probability(SimConfig(seed=3, replications=300), query)
        assert est.resampled_realizations > 0

    def test_hopeless_selection_raises(self, radio):
        none = DeploymentParams(0.0, 0.0)
        query = CoverageQuery(radio, none, RandomSelection())
        with pytest.raises(ParameterError):
            empirical_success_probability(SimConfig(seed=3, replications=2), query)


class TestTrajectories:
    def test_deterministic(self):
        model = build_baseline(3, 1.0, 0.02)
        a = simulate_task_trajectory(99, model)
        b = simulate_task_trajectory(99, model)
        assert a == b

    def test_instant_allocation_single_segment(self):
        model = build_baseline(1, 1e9, 0.02)
        est = empirical_delay(SimConfig(seed=5, replications=10_000), model)
        assert abs(est.mean_delay_s - 50.0) <= 3 * est.std_error_s

    def test_matches_absorption_analysis(self):
        model = build_baseline(4, 0.75, 0.02)
        est = empirical_delay(SimConfig(seed=6, replications=20_000), model)
        analytic = mean_absorption_time(model)
        assert abs(est.mean_delay_s - analytic) <= 3 * est.std_error_s

    def test_level_dependent_against_simulation(self):
        from eecsim.chain import build_level_dependent
        model = build_level_dependent(3, [2.0, 1.0, 0.5], 0.1)
        est = empirical_delay(SimConfig(seed=8, replications=20_000), model)
        analytic = mean_absorption_time(model)
        assert abs(est.mean_delay_s - analytic) <= 3 * est.std_error_s

    def test_completion_fraction_under_failures(self):
        model = build_failure_chain(2, [0.9, 0.9], 0.02, 1.0, spare_budget=0)
        est = empirical_delay(SimConfig(seed=10, replications=20_000), model)
        se = math.sqrt(0.64 * 0.36 / est.replications)
        assert abs(est.completion_fraction - 0.64) <= 3 * se

    def test_budget_chain_delay_matches_analysis(self):
        model = build_failure_chain(2, [0.9, 0.7], 0.05, 1.0, spare_budget=1)
        est = empirical_delay(SimConfig(seed=14, replications=20_000), model)
        analytic = mean_absorption_time(model)
        assert abs(est.mean_delay_s - analytic) <= 3 * est.std_error_s
        assert 0.0 < est.completion_fraction < 1.0

    def test_no_failures_always_complete(self):
        model = build_baseline(2, 1.0, 0.02)
        est = empirical_delay(SimConfig(seed=12, replications=500), model)
        assert est.completion_fraction == 1.0

    def test_reproducible_and_chunk_invariant(self):
        model = build_baseline(2, 1.0, 0.02)
        runs = [empirical_delay(SimConfig(seed=13, replications=400), model,
                                chunk_size=chunk)
                for chunk in (1, 37, 400)]
        assert runs[0] == runs[1] == runs[2]
