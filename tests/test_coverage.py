import contextlib
import io
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from eecsim import coverage
from eecsim.cli import main
from eecsim.coverage import (
    CoverageQuery,
    QuadratureConfig,
    RandomSelection,
    RankedSelection,
    ServingDensity,
    interference_exponent_los,
    interference_exponent_nlos,
    ordered_distance_pdf,
    ranked_success_probabilities,
    success_curves,
    success_probability,
    success_table,
    worker_availability_mass,
)
from eecsim.errors import ParameterError, QuadratureError
from eecsim.params import DeploymentParams, alzer_eta, db_to_linear, directivity_distribution

# Reference success probabilities for the default deployment, used as
# validated anchors (tolerance 5e-3).
RANDOM_ANCHORS = {
    (100.0, -10.0): 0.9892,
    (100.0, 0.0): 0.8989,
    (100.0, 5.0): 0.7538,
    (300.0, 0.0): 0.2710,
}
RANKED1_ANCHORS = {
    (100.0, 5.0): 0.9688,
    (300.0, 10.0): 0.8595,
}


def riemann_w(j, r0, radio, nu_r, panels=1_000_000):
    """Midpoint-rule oracle for the LoS interference exponent."""
    eta = alzer_eta(radio.nakagami_los)
    aligned = radio.main_lobe * radio.main_lobe
    xi = radio.sinr_threshold
    n_l = radio.nakagami_los
    rl = radio.los_radius_m
    x = (np.arange(panels) + 0.5) * (rl / panels)
    total = 0.0
    for gain, prob in directivity_distribution(radio):
        c = eta * (gain / aligned) * j * xi / n_l
        integrand = (1.0 - (1.0 + c * (r0 / x) ** radio.pathloss_exp_los) ** (-n_l)) * x
        total += prob * integrand.sum() * (rl / panels)
    return 2.0 * math.pi * nu_r * total


def riemann_z(j, r0, radio, nu_r, panels=3_000_000, span=3000.0):
    """Midpoint-rule oracle for the NLoS exponent, truncated at span * R_L."""
    eta = alzer_eta(radio.nakagami_los)
    aligned = radio.main_lobe * radio.main_lobe
    xi = radio.sinr_threshold
    n_n = radio.nakagami_nlos
    rl = radio.los_radius_m
    hi = span * rl
    x = rl + (np.arange(panels) + 0.5) * ((hi - rl) / panels)
    total = 0.0
    for gain, prob in directivity_distribution(radio):
        c = (eta * (gain / aligned) * j * xi * radio.intercept_nlos
             * r0 ** radio.pathloss_exp_los / (radio.intercept_los * n_n))
        integrand = (1.0 - (1.0 + c * x ** (-radio.pathloss_exp_nlos)) ** (-n_n)) * x
        total += prob * integrand.sum() * ((hi - rl) / panels)
    return 2.0 * math.pi * nu_r * total


class TestInterferenceExponents:
    def test_w_zero_without_interferers(self, radio):
        q = CoverageQuery(radio, DeploymentParams(7e-4, 0.0))
        assert interference_exponent_los(1, 50.0, q) == 0.0
        assert interference_exponent_nlos(1, 50.0, q) == 0.0

    def test_w_vanishes_with_threshold(self, radio, deploy):
        # threshold -> 0+ in the linear domain
        q = CoverageQuery(replace(radio, sinr_threshold_db=-300.0), deploy)
        assert interference_exponent_los(1, 50.0, q) < 1e-25
        assert interference_exponent_nlos(1, 50.0, q) < 1e-25

    def test_w_against_riemann_oracle(self, radio, deploy):
        q = CoverageQuery(radio, deploy)
        got = interference_exponent_los(1, 50.0, q)
        want = riemann_w(1, 50.0, radio, deploy.requester_intensity_per_m2)
        assert got == pytest.approx(want, rel=1e-6)

    def test_z_against_riemann_oracle(self, radio, deploy):
        q = CoverageQuery(radio, deploy)
        got = interference_exponent_nlos(1, 50.0, q)
        want = riemann_z(1, 50.0, radio, deploy.requester_intensity_per_m2)
        assert got == pytest.approx(want, rel=1e-6)

    def test_nlos_integrand_decay_per_decade(self, radio):
        # the kernel of the improper integral decays like x^(1 - alpha_N),
        # which is what makes the inverse-map substitution well behaved
        eta = alzer_eta(radio.nakagami_los)
        xi = radio.sinr_threshold
        n_n = radio.nakagami_nlos
        rl = radio.los_radius_m

        def integrand(x):
            c = (eta * 1.0 * xi * radio.intercept_nlos * 50.0 ** 2
                 / (radio.intercept_los * n_n))
            return (1.0 - (1.0 + c * x ** (-radio.pathloss_exp_nlos)) ** (-n_n)) * x

        ratio = integrand(10.0 * rl) / integrand(rl)
        expected = 10.0 ** (1.0 - radio.pathloss_exp_nlos)
        assert ratio == pytest.approx(expected, rel=0.01)

    def test_domain_checks(self, radio, deploy):
        q = CoverageQuery(radio, deploy)
        with pytest.raises(ParameterError):
            interference_exponent_los(0, 50.0, q)
        with pytest.raises(ParameterError):
            interference_exponent_los(1, 0.0, q)
        with pytest.raises(ParameterError):
            interference_exponent_los(1, radio.los_radius_m * 2, q)

    def test_nlos_divergent_exponent_rejected(self, radio, deploy):
        q = CoverageQuery(replace(radio, pathloss_exp_nlos=2.0), deploy)
        with pytest.raises(QuadratureError):
            interference_exponent_nlos(1, 50.0, q)


class TestSuccessProbability:
    @pytest.mark.parametrize("rl,xi", sorted(RANDOM_ANCHORS))
    def test_random_anchors(self, radio, deploy, rl, xi):
        q = CoverageQuery(replace(radio, los_radius_m=rl, sinr_threshold_db=xi), deploy)
        assert success_probability(q) == pytest.approx(RANDOM_ANCHORS[(rl, xi)], abs=5e-3)

    @pytest.mark.parametrize("rl,xi", sorted(RANKED1_ANCHORS))
    def test_ranked_anchors(self, radio, deploy, rl, xi):
        q = CoverageQuery(replace(radio, los_radius_m=rl, sinr_threshold_db=xi),
                          deploy, RankedSelection(1))
        assert ranked_success_probabilities(q, (1,))[0] == pytest.approx(
            RANKED1_ANCHORS[(rl, xi)], abs=5e-3)

    def test_monotone_in_threshold(self, radio, deploy):
        values = []
        for xi in range(-20, 16):
            q = CoverageQuery(replace(radio, sinr_threshold_db=float(xi)), deploy)
            p = success_probability(q)
            assert 0.0 <= p <= 1.0
            values.append(p)
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_monotone_in_interferer_intensity(self, radio):
        values = []
        for nu_r in (0.0, 1e-5, 1e-4, 1e-3):
            q = CoverageQuery(radio, DeploymentParams(7e-4, nu_r))
            values.append(success_probability(q))
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_ranked_decreasing_in_rank(self, radio, deploy):
        q = CoverageQuery(radio, deploy, RankedSelection(1))
        ps = ranked_success_probabilities(q, range(1, 11))
        assert np.all(np.diff(ps) <= 1e-12)
        assert np.all((ps >= 0) & (ps <= 1))

    def test_tolerance_self_consistency(self, radio, deploy):
        q = CoverageQuery(radio, deploy)
        p_coarse = success_probability(q, QuadratureConfig(rel_tol=1e-6))
        p_fine = success_probability(q, QuadratureConfig(rel_tol=5e-7))
        assert abs(p_fine - p_coarse) < 1e-6 * abs(p_coarse)

    def test_unknown_selection_rejected(self, radio, deploy):
        q = CoverageQuery(radio, deploy, "nearest")
        with pytest.raises(ParameterError):
            success_probability(q)


class TestOrderedDistance:
    def test_zero_at_origin_for_higher_ranks(self, deploy):
        assert ordered_distance_pdf(2, 0.0, deploy, 100.0) == 0.0
        assert ordered_distance_pdf(5, 0.0, deploy, 100.0) == 0.0

    def test_first_rank_mass(self, deploy):
        rl = 100.0
        v = deploy.mean_los_workers(rl)
        r, w = np.polynomial.legendre.leggauss(400)
        r = 0.5 * rl * (r + 1.0)
        w = 0.5 * rl * w
        mass = float((ordered_distance_pdf(1, r, deploy, rl) * w).sum())
        assert mass == pytest.approx(1.0 - math.exp(-v), rel=1e-9)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_rank_k_mass_is_poisson_tail(self, deploy, k):
        rl = 100.0
        v = deploy.mean_los_workers(rl)  # 7 * pi
        r, w = np.polynomial.legendre.leggauss(800)
        r = 0.5 * rl * (r + 1.0)
        w = 0.5 * rl * w
        mass = float((ordered_distance_pdf(k, r, deploy, rl) * w).sum())
        tail = 1.0 - sum(math.exp(-v) * v ** j / math.factorial(j) for j in range(k))
        assert mass == pytest.approx(tail, abs=1e-6)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_rank_k_mass_sparse_deployment(self, k):
        # small mean worker count keeps the tails well away from one
        deploy = DeploymentParams(1e-4, 0.0)
        rl = 100.0
        v = deploy.mean_los_workers(rl)
        r, w = np.polynomial.legendre.leggauss(800)
        r = 0.5 * rl * (r + 1.0)
        w = 0.5 * rl * w
        mass = float((ordered_distance_pdf(k, r, deploy, rl) * w).sum())
        tail = 1.0 - sum(math.exp(-v) * v ** j / math.factorial(j) for j in range(k))
        assert mass == pytest.approx(tail, rel=1e-9)

    def test_rejects_bad_rank(self, deploy):
        with pytest.raises(ParameterError):
            ordered_distance_pdf(0, 10.0, deploy, 100.0)


class TestAvailabilityMass:
    def test_saturates(self, deploy):
        huge = DeploymentParams(1.0, 0.0)  # V = pi * 1e4
        assert worker_availability_mass(1, huge, 100.0) == pytest.approx(1.0)

    def test_first_worker(self, deploy):
        v = deploy.mean_los_workers(100.0)
        got = worker_availability_mass(1, deploy, 100.0)
        assert got == pytest.approx(1.0 - math.exp(-v), abs=1e-12)

    def test_deep_rank_tail(self, deploy):
        # frozen from the direct-summation oracle at V = 7 * pi
        v = deploy.mean_los_workers(100.0)
        tail = 1.0 - sum(math.exp(-v) * v ** j / math.factorial(j) for j in range(30))
        got = worker_availability_mass(30, deploy, 100.0)
        assert got == pytest.approx(tail, abs=1e-12)
        assert got == pytest.approx(0.05998, abs=5e-5)


def per_quantity(radio, density, xi_db, cfg):
    """One quantity refined on its own: the doubling rule on the kernel, no sharing.

    Returns the clipped value (a float for random selection, an array over
    the ranks otherwise) or raises QuadratureError at ``cfg.max_nodes``.
    """
    rl = radio.los_radius_m
    nu_r = density.deploy.requester_intensity_per_m2
    xi = db_to_linear(xi_db)

    def value(n):
        r0, w0 = coverage._gauss_nodes(n, 0.0, rl)
        kern = coverage._kernel(r0, radio, nu_r, xi, 2 * n)
        if density.ranks is None:
            return float((kern * (2.0 * r0 / rl ** 2) * w0).sum())
        dens = np.stack([ordered_distance_pdf(k, r0, density.deploy, rl)
                         for k in density.ranks])
        return dens @ (kern * w0)

    n = cfg.start_nodes
    prev = value(n)
    change = math.inf
    while n < cfg.max_nodes:
        n *= 2
        cur = value(n)
        change = float(np.max(np.abs(cur - prev)))
        if change <= cfg.rel_tol * float(np.max(np.abs(cur))) + cfg.abs_tol:
            return np.clip(cur, 0.0, 1.0)
        prev = cur
    raise QuadratureError("per-quantity refinement did not converge", achieved=change)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Serving-distance counts of every kernel evaluation, in call order."""
    calls = []
    original = coverage._kernel

    def counting(r0, *args):
        calls.append(r0.size)
        return original(r0, *args)

    monkeypatch.setattr(coverage, "_kernel", counting)
    return calls


_selection = st.one_of(st.just(RandomSelection()),
                       st.builds(RankedSelection, st.integers(1, 8)))


class TestEngine:
    # max_nodes=512 keeps every example cheap; examples that need more nodes
    # must then fail the same way in both routes
    @settings(max_examples=40, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(xis=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=3),
           rl=st.floats(10.0, 1000.0),
           log_nu_w=st.floats(-6.0, -2.0),
           log_nu_r=st.floats(-6.0, -2.0),
           selections=st.lists(_selection, min_size=1, max_size=4),
           block=st.integers(1, 8))
    def test_batch_matches_per_quantity_loop(self, radio, xis, rl, log_nu_w, log_nu_r,
                                             selections, block):
        cfg = QuadratureConfig(max_nodes=512)
        radio = replace(radio, los_radius_m=rl)
        deploy = DeploymentParams(10.0 ** log_nu_w, 10.0 ** log_nu_r)
        densities = [ServingDensity(deploy) if isinstance(s, RandomSelection)
                     else ServingDensity(deploy, (s.rank,)) for s in selections]
        densities.append(ServingDensity(deploy, range(1, block + 1)))
        try:
            want = [[per_quantity(radio, d, xi, cfg) for xi in xis] for d in densities]
        except QuadratureError:
            with pytest.raises(QuadratureError):
                success_table(radio, densities, xis, cfg)
            return
        got = success_table(radio, densities, xis, cfg)
        for got_row, want_row in zip(got, want):
            for g, w in zip(got_row, want_row):
                np.testing.assert_allclose(g, w, rtol=1e-12, atol=0.0)
        curves = success_curves(radio, deploy, selections, xis, cfg)
        scalars = [[float(np.ravel(p)[0]) for p in row] for row in got[:-1]]
        assert curves.tolist() == scalars

    @pytest.mark.parametrize("argv,calls", [
        # 36 thresholds, each converged at 64 -> 128 nodes for all four
        # selections: one kernel per threshold and node count
        (["coverage", "--selection", "random", "--selection", "ranked:1",
          "--selection", "ranked:2", "--selection", "ranked:4"], 72),
        # the random rate and the rank vector share one threshold
        (["delay", "--n", "1:12:1", "--variant", "random", "--variant", "ordered",
          "--variant", "ordered+failure"], 2),
        # the kernel does not depend on the worker intensity
        (["contour", "--nu-w", "1e-4,3e-4,7e-4", "--mu-f", "0.02"], 2),
    ])
    def test_one_kernel_per_threshold_and_node_count(self, kernel_calls, argv, calls):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert len(kernel_calls) == calls
        assert sorted(set(kernel_calls)) == [64, 128]

    def test_divergent_regime_fails_typed(self, radio, deploy):
        q = CoverageQuery(replace(radio, pathloss_exp_nlos=2.2), deploy)
        with pytest.raises(QuadratureError) as info:
            success_probability(q, QuadratureConfig(max_nodes=256))
        assert info.value.achieved is not None and math.isfinite(info.value.achieved)

    def test_kernel_rows_in_bounded_blocks(self, radio, deploy):
        r0, _ = coverage._gauss_nodes(2048, 0.0, radio.los_radius_m)
        args = (radio, deploy.requester_intensity_per_m2, radio.sinr_threshold, 4096)
        # build the cached inner nodes first: only the kernel's own
        # temporaries count against the bound
        coverage._gauss_nodes(4096, 0.0, 1.0)
        tracemalloc.start()
        try:
            whole = coverage._kernel(r0, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (2048 x 4096) float64 temporary alone would be 64 MiB
        assert peak < 4 * 2 ** 20
        # chunks that straddle the row blocks: no row depends on its neighbours
        step = 99
        chunks = [coverage._kernel(r0[lo:lo + step], *args) for lo in range(0, r0.size, step)]
        assert np.array_equal(whole, np.concatenate(chunks))

    def test_densities_must_share_requester_intensity(self, radio, deploy):
        other = replace(deploy, requester_intensity_per_m2=2 * deploy.requester_intensity_per_m2)
        with pytest.raises(ParameterError):
            success_table(radio, [ServingDensity(deploy), ServingDensity(other)], [5.0])

    @pytest.mark.parametrize("ranks", [(), (0,), (1, 2.0)])
    def test_bad_rank_blocks_rejected(self, deploy, ranks):
        with pytest.raises(ParameterError):
            ServingDensity(deploy, ranks)
