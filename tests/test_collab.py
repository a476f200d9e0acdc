from dataclasses import replace

import numpy as np
import pytest

from eecsim.chain import build_level_dependent, mean_absorption_time
from eecsim.collab import (
    MecParams,
    alpha_grid,
    best_segmentation,
    bias_sweep,
    combined_delay,
    congested_worker_intensity,
    eec_delay_under_bias,
    mec_delay,
    optimal_bias,
)
from eecsim.errors import ParameterError, UnservableError
from eecsim.params import DeploymentParams


@pytest.fixture(scope="module")
def mec(scenario):
    return scenario.mec


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
        mec = MecParams(power_ratio=5.0, mec_task_rate_mu_f=0.007,
                        concurrent_requester_intensity=0.0, offload_success_prob=1.0)
        assert mec_delay(mec, task, radio) == pytest.approx(29.57, abs=0.1)

    def test_power_ratio_halves_computation(self, task, radio):
        slow = MecParams(power_ratio=5.0, mec_task_rate_mu_f=0.007,
                         concurrent_requester_intensity=1e-4)
        fast = replace(slow, power_ratio=10.0)
        uplink = task.d2d_slot_s / slow.offload_success_prob
        assert (mec_delay(fast, task, radio) - uplink) == pytest.approx(
            (mec_delay(slow, task, radio) - uplink) / 2.0, rel=1e-12)

    def test_linear_in_load(self, task, radio):
        base = MecParams(power_ratio=5.0, mec_task_rate_mu_f=0.02)
        d0 = mec_delay(base, task, radio)
        d1 = mec_delay(replace(base, concurrent_requester_intensity=1e-4), task, radio)
        d2 = mec_delay(replace(base, concurrent_requester_intensity=2e-4), task, radio)
        assert (d2 - d1) == pytest.approx(d1 - d0, rel=1e-12)


class TestEdgeDelayUnderBias:
    def test_small_bias_approaches_uncongested(self, radio, deploy, task):
        at_zero = eec_delay_under_bias(0.0, radio, deploy, task, n_max=12)
        nearly = eec_delay_under_bias(1e-6, radio, deploy, task, n_max=12)
        assert nearly.delay_s == pytest.approx(at_zero.delay_s, rel=1e-4)

    def test_nondecreasing_in_bias(self, radio, deploy, task):
        values = [eec_delay_under_bias(a, radio, deploy, task, n_max=12).delay_s
                  for a in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_worker_scarcity_raises_delay_and_shrinks_n(self, radio, deploy, task):
        full = eec_delay_under_bias(1.0, radio, deploy, task, n_max=20)
        quartered = eec_delay_under_bias(
            1.0, radio,
            replace(deploy, worker_intensity_per_m2=deploy.worker_intensity_per_m2 / 4),
            task, n_max=20)
        assert quartered.delay_s > full.delay_s
        assert quartered.optimal_n <= full.optimal_n

    def test_unservable_deployment(self, radio, task):
        empty = DeploymentParams(1e-15, 1e-4)
        with pytest.raises(UnservableError):
            eec_delay_under_bias(1.0, radio, empty, task, n_max=5)

    def test_sweep_matches_one_alpha_at_a_time(self, radio, deploy, task, mec):
        alphas = [0.0, 0.3, 1.0]
        points = bias_sweep(alphas, radio, deploy, task, mec, n_max=12)
        for alpha, point in zip(alphas, points):
            alone = eec_delay_under_bias(alpha, radio, deploy, task, n_max=12)
            assert (point.tau_eec_s, point.eec_optimal_n) == (alone.delay_s, alone.optimal_n)

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

    def test_matches_edge_operating_point(self, radio, deploy, task):
        point = eec_delay_under_bias(0.5, radio, deploy, task, n_max=12)
        assert point.per_n_delay_s[point.optimal_n - 1] == point.delay_s == min(point.per_n_delay_s)

    def test_no_servable_rate(self):
        with pytest.raises(UnservableError) as info:
            best_segmentation([np.ones(3), np.zeros(3), np.zeros(2)], [0.02],
                              [{"nu_w_per_m2": 1.0}, {"nu_w_per_m2": 0.0}, {"nu_w_per_m2": -1}])
        # the first vector that cannot serve, before anything is solved
        assert info.value.diagnostic == {"nu_w_per_m2": 0.0}


class TestCombinedObjective:
    def test_endpoints(self):
        assert combined_delay(0.0, 100.0, 40.0) == 40.0
        assert combined_delay(1.0, 100.0, 40.0) == 100.0

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
