import math

import pytest

from eecsim.chain import build_failure_chain, build_level_dependent
from eecsim.config import resolve_config
from eecsim.errors import ConfigError, ParameterError
from eecsim.params import (
    DeploymentParams,
    RadioParams,
    ReliabilityParams,
    TaskParams,
    alzer_eta,
    db_to_linear,
    directivity_distribution,
    require_int,
)


def make_radio(**overrides):
    fields = dict(
        sinr_threshold_db=5.0, los_radius_m=100.0, pathloss_exp_los=2.0,
        pathloss_exp_nlos=4.0, nakagami_los=3, nakagami_nlos=2,
        intercept_los_db=-61.4, intercept_nlos_db=-72.0, main_lobe_db=5.0,
        side_lobe_db=-5.0, beamwidth_rad=math.radians(45.0),
        noise_normalized_db=-111.0)
    fields.update(overrides)
    return RadioParams(**fields)


class TestDbToLinear:
    def test_identity(self):
        assert db_to_linear(0.0) == 1.0

    def test_ten_db(self):
        assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)

    def test_los_intercept(self):
        assert db_to_linear(-61.4) == pytest.approx(7.2444e-7, rel=1e-4)

    def test_rejects_nan(self):
        with pytest.raises(ParameterError):
            db_to_linear(float("nan"))


class TestAlzerEta:
    def test_shape_one(self):
        assert alzer_eta(1) == 1.0

    def test_shape_two(self):
        assert alzer_eta(2) == pytest.approx(2.0 / math.sqrt(2.0), rel=1e-12)

    def test_shape_three(self):
        assert alzer_eta(3) == pytest.approx(3.0 * 6.0 ** (-1.0 / 3.0), rel=1e-12)

    def test_strictly_increasing(self):
        values = [alzer_eta(n) for n in range(1, 11)]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True])
    def test_rejects_bad_shape(self, bad):
        with pytest.raises(ParameterError):
            alzer_eta(bad)


class TestDirectivity:
    def test_degenerate_pattern(self):
        radio = make_radio(main_lobe_db=2.0, side_lobe_db=2.0)
        gains = [g for g, _ in directivity_distribution(radio)]
        assert all(g == pytest.approx(gains[0], rel=1e-14) for g in gains)

    def test_table_gains(self):
        gains = [g for g, _ in directivity_distribution(make_radio())]
        assert gains == pytest.approx([10.0, 1.0, 1.0, 0.1], rel=1e-12)

    def test_table_probabilities(self):
        probs = [p for _, p in directivity_distribution(make_radio())]
        assert probs == pytest.approx([1 / 64, 7 / 64, 7 / 64, 49 / 64], abs=1e-15)

    @pytest.mark.parametrize("theta_deg", [1.0, 45.0, 123.4, 359.0])
    def test_probabilities_sum_to_one(self, theta_deg):
        radio = make_radio(beamwidth_rad=math.radians(theta_deg))
        assert sum(p for _, p in directivity_distribution(radio)) == pytest.approx(1.0, abs=1e-12)

    def test_gain_ordering_symmetric_lobes(self):
        pairs = directivity_distribution(make_radio())
        a1, a2, a3, a4 = (g for g, _ in pairs)
        assert a1 >= a2 == a3 >= a4


class TestValidation:
    def test_radio_linear_views(self):
        radio = make_radio()
        assert radio.noise_normalized == pytest.approx(10 ** (-11.1), rel=1e-12)
        assert radio.main_lobe == pytest.approx(10 ** 0.5, rel=1e-12)

    @pytest.mark.parametrize("overrides", [
        {"los_radius_m": 0.0},
        {"pathloss_exp_los": 1.5},
        {"nakagami_los": 0},
        {"nakagami_nlos": 2.5},
        {"main_lobe_db": -6.0},  # below the side lobe
        {"beamwidth_rad": 7.0},
        {"noise_normalized_db": float("inf")},
    ])
    def test_radio_invariants(self, overrides):
        with pytest.raises(ParameterError):
            make_radio(**overrides)

    def test_deploy_rejects_negative(self):
        with pytest.raises(ParameterError):
            DeploymentParams(-1e-4, 1e-4)

    def test_mean_los_workers(self):
        deploy = DeploymentParams(7e-4, 1e-4)
        assert deploy.mean_los_workers(100.0) == pytest.approx(7 * math.pi, rel=1e-12)

    def test_task_segment_rate(self):
        # one of n equal segments executes at n * mu_f; the chains apply it
        task = TaskParams(task_exec_rate_per_s=0.02, d2d_slot_s=1.0)
        model = build_level_dependent(4, [1.0] * 4, task.task_exec_rate_per_s)
        assert model.segment_exec_rate == pytest.approx(0.08)

    @pytest.mark.parametrize("kwargs", [
        dict(task_exec_rate_per_s=0.0, d2d_slot_s=1.0),
        dict(task_exec_rate_per_s=-0.02, d2d_slot_s=1.0),
        dict(task_exec_rate_per_s=0.02, d2d_slot_s=0.0),
        dict(task_exec_rate_per_s=0.02, d2d_slot_s=-1.0),
    ])
    def test_task_invariants(self, kwargs):
        with pytest.raises(ParameterError):
            TaskParams(**kwargs)

    def test_reliability_rates(self):
        # a worker fails at mu_f / (l * n); the failure chain applies it
        rel = ReliabilityParams(reliability_l=3.0, spare_budget=2)
        model = build_failure_chain(5, [1.0] * 5, 0.02, rel.reliability_l, rel.spare_budget)
        assert model.failure_rate_per_worker == pytest.approx(0.02 / 15.0)

    @pytest.mark.parametrize("kwargs", [
        dict(reliability_l=0.0),
        dict(reliability_l=1.0, spare_budget=-1),
        dict(reliability_l=1.0, spare_budget=1.5),
    ])
    def test_reliability_invariants(self, kwargs):
        with pytest.raises(ParameterError):
            ReliabilityParams(**kwargs)


class TestRequireInt:
    @pytest.mark.parametrize("value", [0, 5, True, 2.0, "2", None])
    def test_rejects(self, value):
        with pytest.raises(ParameterError, match="^n must be an integer from 1 to 4$"):
            require_int("n", value, 1, 4)

    def test_accepts_the_bounds(self):
        require_int("n", 1, 1, 4)
        require_int("n", 4, 1, 4)
        require_int("n", 10 ** 400, 1)

    def test_power_of_two_bound_message(self):
        with pytest.raises(ParameterError, match="^k must be an integer from 0 to 2\\*\\*40$"):
            require_int("k", -1, 0, 2 ** 40)


class TestMappingLoad:
    """A JSON-style override section builds its parameter dataclass."""

    def test_round_trip(self):
        deploy = resolve_config({"deploy": {
            "worker_intensity_per_m2": 7e-4,
            "requester_intensity_per_m2": 1e-4,
        }}).deploy
        assert deploy == DeploymentParams(7e-4, 1e-4)

    def test_unknown_key_is_error(self):
        with pytest.raises(ConfigError, match="unknown key"):
            resolve_config({"deploy": {
                "worker_intensity_per_m2": 7e-4,
                "requester_intensity_per_m2": 1e-4,
                "worker_intensty_per_m2": 3e-4,
            }})

    def test_invariant_violation_reported_as_config_error(self):
        with pytest.raises(ConfigError, match="^task: task_exec_rate_per_s must be positive$"):
            resolve_config({"task": {"task_exec_rate_per_s": 0.0}})
        # a wrongly typed value fails its comparison with a TypeError
        with pytest.raises(ConfigError, match="^radio: "):
            resolve_config({"radio": {"los_radius_m": "far"}})
