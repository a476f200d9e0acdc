from dataclasses import replace

import numpy as np
import pytest

from eecsim.chain import build_level_dependent, mean_absorption_time
from eecsim.collab import (
    MecParams,
    alpha_grid,
    best_segmentation,
    bias_sweep,
    congested_worker_intensity,
    mec_delay,
)
from eecsim.coverage import ServingDensity, success_table
from eecsim.errors import ParameterError, UnservableError
from eecsim.params import DeploymentParams


@pytest.fixture(scope="module")
def mec(scenario):
    return scenario.mec


def optimal_bias(step, radio, deploy, task, mec, n_max=50):
    """Grid argmin of the blended objective; min() keeps the first of equal
    values, so ties go to the smaller alpha."""
    return min(bias_sweep(alpha_grid(step), radio, deploy, task, mec, n_max=n_max),
               key=lambda p: p.tau_alpha_s)


class TestCongestedIntensity:
    def test_idle_at_zero_bias(self, deploy, task):
        got = congested_worker_intensity(0.0, deploy, task.task_exec_rate_per_s)
        assert got == deploy.worker_intensity_per_m2

    def test_full_bias_value(self, deploy, task):
        got = congested_worker_intensity(1.0, deploy, task.task_exec_rate_per_s)
        assert got == pytest.approx(8.597e-5, abs=1e-8)

    def test_strictly_decreasing(self, deploy, task):
        values = [congested_worker_intensity(a, deploy, task.task_exec_rate_per_s)
                  for a in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_rejects_out_of_range(self, deploy, task):
        with pytest.raises(ParameterError):
            congested_worker_intensity(1.5, deploy, task.task_exec_rate_per_s)


class TestMecDelay:
    def test_zero_load_reference(self, task, radio):
        mec = MecParams(power_ratio=5.0, mec_task_rate_mu_f=0.007, offload_success_prob=1.0)
        assert mec_delay(mec, task, radio, 0.0) == pytest.approx(29.57, abs=0.1)

    def test_power_ratio_halves_computation(self, task, radio):
        slow = MecParams(power_ratio=5.0, mec_task_rate_mu_f=0.007)
        fast = replace(slow, power_ratio=10.0)
        uplink = task.d2d_slot_s / slow.offload_success_prob
        assert (mec_delay(fast, task, radio, 1e-4) - uplink) == pytest.approx(
            (mec_delay(slow, task, radio, 1e-4) - uplink) / 2.0, rel=1e-12)

    def test_linear_in_load(self, task, radio):
        base = MecParams(power_ratio=5.0, mec_task_rate_mu_f=0.02)
        d0, d1, d2 = (mec_delay(base, task, radio, nu_r) for nu_r in (0.0, 1e-4, 2e-4))
        assert (d2 - d1) == pytest.approx(d1 - d0, rel=1e-12)


def edge_delays(alphas, radio, deploy, task, n_max):
    """Edge-tier (delay, optimal n) at each bias value, from one sweep."""
    mec = MecParams(power_ratio=5.0, mec_task_rate_mu_f=0.02)
    return [(p.tau_eec_s, p.eec_optimal_n)
            for p in bias_sweep(alphas, radio, deploy, task, mec, n_max=n_max)]


class TestEdgeDelayUnderBias:
    def test_small_bias_approaches_uncongested(self, radio, deploy, task):
        (at_zero, _), (nearly, _) = edge_delays([0.0, 1e-6], radio, deploy, task, 12)
        assert nearly == pytest.approx(at_zero, rel=1e-4)

    def test_nondecreasing_in_bias(self, radio, deploy, task):
        values = [d for d, _ in edge_delays([0.0, 0.25, 0.5, 0.75, 1.0],
                                            radio, deploy, task, 12)]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_worker_scarcity_raises_delay_and_shrinks_n(self, radio, deploy, task):
        [full] = edge_delays([1.0], radio, deploy, task, 20)
        [quartered] = edge_delays(
            [1.0], radio,
            replace(deploy, worker_intensity_per_m2=deploy.worker_intensity_per_m2 / 4),
            task, 20)
        assert quartered[0] > full[0]
        assert quartered[1] <= full[1]

    def test_unservable_deployment(self, radio, task):
        empty = DeploymentParams(1e-15, 1e-4)
        with pytest.raises(UnservableError):
            edge_delays([1.0], radio, empty, task, 5)

    def test_sweep_matches_one_alpha_at_a_time(self, radio, deploy, task, mec):
        alphas = [0.0, 0.3, 1.0]
        points = bias_sweep(alphas, radio, deploy, task, mec, n_max=12)
        for alpha, point in zip(alphas, points):
            [alone] = bias_sweep([alpha], radio, deploy, task, mec, n_max=12)
            assert point == alone

    def test_first_unservable_alpha_is_reported(self, radio, deploy, task, mec):
        # mean LoS worker mass about 3e-6 at alpha = 0, idle workers vanish
        # under any edge load: alpha = 0.1 is the first that cannot serve
        sparse = replace(deploy, worker_intensity_per_m2=1e-10)
        with pytest.raises(UnservableError) as info:
            bias_sweep(alpha_grid(0.1), radio, sparse, task, mec, n_max=8)
        assert info.value.diagnostic["alpha"] == 0.1
        assert info.value.diagnostic["mean_los_workers"] < 1e-6


class TestBestSegmentation:
    def test_first_minimum_over_usable_counts(self):
        rates = np.array([2.0, 1.0, 0.5, 0.0, 0.3])
        other = np.array([0.4, 0.9])
        best = best_segmentation([rates, other], [0.1, 0.5])
        assert [len(row) for row in best] == [2, 2]
        # the search stops at the first zero rate
        for vector, counts, row in zip((rates, other), ((1, 2, 3), (1, 2)), best):
            for mu_f, (best_n, delays) in zip([0.1, 0.5], row):
                assert delays == tuple(mean_absorption_time(
                    build_level_dependent(n, vector[:n].tolist(), mu_f)) for n in counts)
                assert best_n == delays.index(min(delays)) + 1

    def test_matches_edge_operating_point(self, radio, deploy, task, mec):
        # the sweep's edge side is this search over the congested rank rates
        alpha, mu_f = 0.5, task.task_exec_rate_per_s
        congested = DeploymentParams(congested_worker_intensity(alpha, deploy, mu_f),
                                     alpha * deploy.requester_intensity_per_m2)
        [[ps]] = success_table(radio, [ServingDensity(congested, range(1, 13))],
                               [radio.sinr_threshold_db])
        [[(best_n, delays)]] = best_segmentation([ps / task.d2d_slot_s], [mu_f])
        [point] = bias_sweep([alpha], radio, deploy, task, mec, n_max=12)
        assert (point.eec_optimal_n, point.tau_eec_s) == (best_n, delays[best_n - 1])
        assert point.tau_eec_s == min(delays)

    def test_no_servable_rate(self):
        with pytest.raises(UnservableError) as info:
            best_segmentation([np.ones(3), np.zeros(3), np.zeros(2)], [0.02],
                              [{"nu_w_per_m2": 1.0}, {"nu_w_per_m2": 0.0}, {"nu_w_per_m2": -1}])
        # the first vector that cannot serve, before anything is solved
        assert info.value.diagnostic == {"nu_w_per_m2": 0.0}


class TestCombinedObjective:
    def test_endpoints(self, radio, deploy, task, mec):
        # the blend weights the edge delay by alpha and the MEC delay by the rest
        for p in bias_sweep([0.0, 0.3, 1.0], radio, deploy, task, mec, n_max=8):
            assert p.tau_alpha_s == p.alpha * p.tau_eec_s + (1.0 - p.alpha) * p.tau_mec_s

    def test_endpoints_match_pure_systems(self, radio, deploy, task, mec):
        points = bias_sweep([0.0, 1.0], radio, deploy, task, mec, n_max=10)
        assert points[0].tau_alpha_s == points[0].tau_mec_s
        assert points[1].tau_alpha_s == points[1].tau_eec_s

    def test_single_point_sweep(self, radio, deploy, task, mec):
        points = bias_sweep([0.5], radio, deploy, task, mec, n_max=10)
        assert len(points) == 1
        best = min(points, key=lambda p: p.tau_alpha_s)
        assert best.alpha == 0.5

    def test_mec_load_scales_with_remaining_fraction(self, radio, deploy, task, mec):
        points = bias_sweep([0.0, 0.5, 1.0], radio, deploy, task, mec, n_max=8)
        mec_delays = [p.tau_mec_s for p in points]
        # linearly decreasing as load shifts to the edge tier
        assert mec_delays[0] > mec_delays[1] > mec_delays[2]
        assert (mec_delays[0] - mec_delays[1]) == pytest.approx(
            mec_delays[1] - mec_delays[2], rel=1e-9)


class TestOptimalBias:
    def test_shifts_with_requester_intensity(self, radio, deploy, task, mec):
        low = optimal_bias(0.25, radio,
                           replace(deploy, requester_intensity_per_m2=0.25e-4),
                           task, mec, n_max=12)
        base = optimal_bias(0.25, radio, deploy, task, mec, n_max=12)
        high = optimal_bias(0.25, radio,
                            replace(deploy, requester_intensity_per_m2=4e-4),
                            task, mec, n_max=12)
        assert low.alpha <= base.alpha <= high.alpha

    def test_shifts_with_worker_intensity(self, radio, deploy, task, mec):
        base = optimal_bias(0.25, radio, deploy, task, mec, n_max=12)
        scarce = optimal_bias(0.25, radio,
                              replace(deploy, worker_intensity_per_m2=7e-4 / 4),
                              task, mec, n_max=12)
        assert scarce.alpha <= base.alpha

    def test_rejects_bad_step(self, radio, deploy, task, mec):
        with pytest.raises(ParameterError):
            optimal_bias(0.0, radio, deploy, task, mec)
