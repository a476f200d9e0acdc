import contextlib
import io
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from eecsim import coverage
from eecsim.cli import main
from eecsim.coverage import (
    CoverageQuery,
    RandomSelection,
    RankedSelection,
    ServingDensity,
    ranked_success_probabilities,
    success_curves,
    success_probability,
    success_table,
)
from eecsim.errors import ParameterError, QuadratureError
from eecsim.params import DeploymentParams, alzer_eta, db_to_linear, directivity_distribution
from exact_coverage import exact_success

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
    xi = db_to_linear(radio.sinr_threshold_db)
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
    xi = db_to_linear(radio.sinr_threshold_db)
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


def exponents(radio, nu_r, r0=50.0):
    """W_1 and Z_1 at one serving distance from the engine's inner rules,
    refined by its node-doubling loop."""
    xi = db_to_linear(radio.sinr_threshold_db)

    def evaluate(n, pending):
        w, z = coverage._wz_exponents(np.array([r0]), radio, nu_r, xi, n)
        return {"W": float(w[0, 0]), "Z": float(z[0, 0])}

    done = coverage._refine(evaluate, ["W", "Z"], "exponents")
    return done["W"], done["Z"]


class TestInterferenceExponents:
    def test_w_zero_without_interferers(self, radio):
        w, z = exponents(radio, 0.0)
        assert w == z == 0.0

    def test_w_vanishes_with_threshold(self, radio, deploy):
        # threshold -> 0+ in the linear domain
        w, z = exponents(replace(radio, sinr_threshold_db=-300.0),
                            deploy.requester_intensity_per_m2)
        assert w < 1e-25
        assert z < 1e-25

    def test_w_against_riemann_oracle(self, radio, deploy):
        w, _ = exponents(radio, deploy.requester_intensity_per_m2)
        want = riemann_w(1, 50.0, radio, deploy.requester_intensity_per_m2)
        assert w == pytest.approx(want, rel=1e-6)

    def test_z_against_riemann_oracle(self, radio, deploy):
        _, z = exponents(radio, deploy.requester_intensity_per_m2)
        want = riemann_z(1, 50.0, radio, deploy.requester_intensity_per_m2)
        assert z == pytest.approx(want, rel=1e-6)

    def test_nlos_integrand_decay_per_decade(self, radio):
        # the kernel of the improper integral decays like x^(1 - alpha_N),
        # which is what makes the inverse-map substitution well behaved
        eta = alzer_eta(radio.nakagami_los)
        xi = db_to_linear(radio.sinr_threshold_db)
        n_n = radio.nakagami_nlos
        rl = radio.los_radius_m

        def integrand(x):
            c = (eta * 1.0 * xi * radio.intercept_nlos * 50.0 ** 2
                 / (radio.intercept_los * n_n))
            return (1.0 - (1.0 + c * x ** (-radio.pathloss_exp_nlos)) ** (-n_n)) * x

        ratio = integrand(10.0 * rl) / integrand(rl)
        expected = 10.0 ** (1.0 - radio.pathloss_exp_nlos)
        assert ratio == pytest.approx(expected, rel=0.01)

    def test_nlos_divergent_exponent_rejected(self, radio, deploy):
        divergent = replace(radio, pathloss_exp_nlos=2.0)
        with pytest.raises(QuadratureError) as info:
            success_table(divergent, [ServingDensity(deploy)], [5.0])
        assert info.value.achieved is None


def wz_exponents_ref(r0, radio, nu_r, xi, n_inner,
                     complement=lambda y, m: 1.0 - y ** (-m)):
    """The package's W_j and Z_j with each fade complement 1 - y**(-m)
    taken from ``complement(y, m)``; by default numpy's general power, the
    reference for the integer-shape kernel."""
    n_l = radio.nakagami_los
    n_n = radio.nakagami_nlos
    a_l = radio.pathloss_exp_los
    a_n = radio.pathloss_exp_nlos
    rl = radio.los_radius_m
    eta = radio.alzer_los
    aligned = radio.main_lobe * radio.main_lobe

    W = np.zeros((n_l, r0.size))
    Z = np.zeros((n_l, r0.size))
    if nu_r == 0.0 or xi == 0.0:
        return W, Z

    pairs = directivity_distribution(radio)
    x, wx = coverage._gauss_nodes(n_inner, 0.0, rl)
    t, wt = coverage._gauss_nodes(n_inner, 0.0, 1.0)
    t_pow = (t ** a_n) / rl ** a_n
    wt_t3 = wt / t ** 3
    x_wx = x * wx
    ratio_cn = radio.intercept_nlos / radio.intercept_los
    pre = 2.0 * math.pi * nu_r

    ratio_pow = (r0[:, None] / x[None, :]) ** a_l
    r0_pow = r0 ** a_l
    for j in range(1, n_l + 1):
        w_acc = np.zeros(r0.size)
        z_acc = np.zeros(r0.size)
        for gain, prob in pairs:
            abar = gain / aligned
            c_los = eta * abar * j * xi / n_l
            w_comp = complement(1.0 + c_los * ratio_pow, n_l)
            c_nlos = eta * abar * j * xi * ratio_cn / n_n
            arg = c_nlos * r0_pow[:, None] * t_pow[None, :]
            z_comp = complement(1.0 + arg, n_n)
            w_acc += prob * (w_comp * x_wx).sum(axis=1)
            z_acc += prob * rl * rl * (z_comp * wt_t3).sum(axis=1)
        W[j - 1] = pre * w_acc
        Z[j - 1] = pre * z_acc
    return W, Z


def assert_kernel_matches_power_form(radio, nu_r, xi, n_inner, rel=1e-13):
    """W, Z and the kernel at 64 serving distances agree with the power-form
    reference to ``rel``, up to the rounding of the fades themselves.

    A fade complement 1 - y**(-m) from m - 1 products and a reciprocal
    differs from one pow call by at most (m + 2) eps, and not at all where
    y rounds to 1.  Where y is close to 1 that is most of the value, lost to
    cancellation in both forms; with the 1/t^3 weights of Z near t = 0 it
    can reach 1e-9 of Z when alpha_N is close to 2.  Returns every array.
    """
    r0, _ = coverage._gauss_nodes(64, 0.0, radio.los_radius_m)
    W, Z = coverage._wz_exponents(r0, radio, nu_r, xi, n_inner)
    kern = coverage._kernel(r0, radio, nu_r, xi, n_inner)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coverage, "_wz_exponents", wz_exponents_ref)
        W_ref, Z_ref = wz_exponents_ref(r0, radio, nu_r, xi, n_inner)
        kern_ref = coverage._kernel(r0, radio, nu_r, xi, n_inner)
    eps = np.finfo(float).eps
    W_tol, Z_tol = wz_exponents_ref(r0, radio, nu_r, xi, n_inner,
                                    lambda y, m: (m + 2) * eps * (y > 1.0))
    assert np.all(np.abs(W - W_ref) <= rel * W_ref + W_tol)
    assert np.all(np.abs(Z - Z_ref) <= rel * Z_ref + Z_tol)
    # each term C(m, j) exp(-E_j) of the alternating sum moves by at most its
    # size times the change in E_j; leaving out the noise term only enlarges it
    m_l = radio.nakagami_los
    coef = np.array([math.comb(m_l, j) for j in range(1, m_l + 1)])[:, None]
    exponent = W_ref + Z_ref
    bound = coef * np.exp(-exponent) * (rel * (1.0 + exponent) + W_tol + Z_tol)
    assert np.all(np.abs(kern - kern_ref) <= bound.sum(axis=0))
    return W, Z, kern, W_ref, Z_ref, kern_ref


def fade_sums_ref(u, c, m, weights):
    """The fade row sums with y**m built from a copy of y and m - 1
    multiplications, the form the kernel's squaring first step replaces."""
    y = u * c + 1.0
    out = y.copy()
    with np.errstate(over="ignore"):
        for _ in range(m - 1):
            out *= y
    return np.einsum("ij,j->i", 1.0 - 1.0 / out, weights)


class TestIntegerShapeKernel:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_fade_sums_bitwise(self, m):
        # row scales from 1e-3 to 1e120, so the largest rows overflow y**m
        rng = np.random.default_rng(m)
        u = rng.random((40, 97)) * np.logspace(-3, 120, 40)[:, None]
        c = rng.random(97) * 3.0
        weights = rng.random(97)
        y, out = np.empty_like(u), np.empty_like(u)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = coverage._fade_sums(u, c, m, weights, y, out)
        assert np.array_equal(got, fade_sums_ref(u, c, m, weights))

    @settings(max_examples=60, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(m_l=st.integers(1, 6), m_n=st.integers(1, 6),
           a_l=st.floats(2.0, 4.0), a_n=st.floats(2.1, 6.0),
           xi_db=st.floats(-30.0, 40.0),
           nu_r=st.one_of(st.just(0.0), st.floats(1e-6, 1e-2)),
           n_inner=st.integers(64, 512))
    def test_matches_power_form(self, radio, m_l, m_n, a_l, a_n, xi_db, nu_r, n_inner):
        radio = replace(radio, nakagami_los=m_l, nakagami_nlos=m_n,
                        pathloss_exp_los=a_l, pathloss_exp_nlos=a_n)
        assert_kernel_matches_power_form(radio, nu_r, db_to_linear(xi_db), n_inner)

    def test_overflowing_fades_are_finite(self, radio, deploy):
        # at the innermost LoS node y = 1 + c u is so large that y**10
        # overflows: 1 / inf = 0 is the true limit of the fade
        radio = replace(radio, nakagami_los=10, nakagami_nlos=10, pathloss_exp_los=4.0)
        xi = db_to_linear(40.0)
        r0, _ = coverage._gauss_nodes(64, 0.0, radio.los_radius_m)
        x, _ = coverage._gauss_nodes(4096, 0.0, radio.los_radius_m)
        y_max = radio.alzer_los * xi * (r0[-1] / x[0]) ** 4.0
        assert 10 * math.log10(y_max) > math.log10(np.finfo(float).max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = assert_kernel_matches_power_form(
                radio, deploy.requester_intensity_per_m2, xi, 4096)
        assert all(np.all(np.isfinite(a)) for a in got)


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

    def test_tolerance_self_consistency(self, radio, deploy, monkeypatch):
        q = CoverageQuery(radio, deploy)
        monkeypatch.setattr(coverage, "_REL_TOL", 1e-6)
        p_coarse = success_probability(q)
        monkeypatch.setattr(coverage, "_REL_TOL", 5e-7)
        p_fine = success_probability(q)
        assert abs(p_fine - p_coarse) < 1e-6 * abs(p_coarse)

    def test_unknown_selection_rejected(self, radio, deploy):
        q = CoverageQuery(radio, deploy, "nearest")
        with pytest.raises(ParameterError):
            success_probability(q)


class TestExactOracle:
    """The exact integer-shape oracle that criterion 3 checks the simulator
    against (tests/exact_coverage.py)."""

    @pytest.mark.parametrize("selection,rl,xi,want", [
        (RandomSelection(), 300.0, 0.0, 0.24548),
        (RandomSelection(), 100.0, 10.0, 0.50951),
        (RankedSelection(1), 100.0, 10.0, 0.90674),
    ], ids=["random-300-0", "random-100-10", "ranked1-100-10"])
    def test_reference_values(self, radio, deploy, selection, rl, xi, want):
        # values from an independent implementation, to 5 digits
        got = exact_success(replace(radio, los_radius_m=rl), deploy, selection, xi)
        assert got == pytest.approx(want, abs=5e-6)

    @pytest.mark.parametrize("selection,rl,xi", [
        (RandomSelection(), 100.0, 10.0), (RankedSelection(1), 300.0, 0.0),
    ], ids=["random-100-10", "ranked1-300-0"])
    def test_rayleigh_serving_fade_matches_the_kernel(self, radio, deploy, selection, rl, xi):
        # with a unit serving shape the tail constant is 1 and the expansion
        # is exact, so the package's kernel and the oracle must agree
        rayleigh = replace(radio, los_radius_m=rl, nakagami_los=1, sinr_threshold_db=xi)
        want = success_probability(CoverageQuery(rayleigh, deploy, selection))
        assert exact_success(rayleigh, deploy, selection, xi) == pytest.approx(want, abs=1e-7)


def rank_density(k, r, deploy, rl):
    """The package's unnormalized rank-k serving density at r."""
    return coverage._rank_densities((k,), np.asarray(r, dtype=float), deploy, rl)[0]


def rank_density_ref(k, r, v, rl):
    """The rank-k serving density for one rank at a time, in log space: the
    reference for the rank-block evaluation."""
    if v == 0.0:
        return np.zeros_like(r)
    cdf = r ** 2 / rl ** 2
    with np.errstate(divide="ignore"):
        log_pdf = np.where(r > 0, np.log(2.0 * r / rl ** 2), -np.inf)
        log_cdf = np.where(cdf > 0, np.log(cdf), -np.inf)
    log_fk = (k * math.log(v) - v - math.lgamma(k) + log_pdf
              + (k - 1) * log_cdf - v * (cdf - 1.0))
    return np.where(np.isfinite(log_fk), np.exp(log_fk), 0.0)


class TestOrderedDistance:
    def test_zero_at_origin_for_higher_ranks(self, deploy):
        assert rank_density(2, 0.0, deploy, 100.0) == 0.0
        assert rank_density(5, 0.0, deploy, 100.0) == 0.0

    def test_first_rank_mass(self, deploy):
        rl = 100.0
        v = deploy.mean_los_workers(rl)
        r, w = np.polynomial.legendre.leggauss(400)
        r = 0.5 * rl * (r + 1.0)
        w = 0.5 * rl * w
        mass = float((rank_density(1, r, deploy, rl) * w).sum())
        assert mass == pytest.approx(1.0 - math.exp(-v), rel=1e-9)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_rank_k_mass_is_poisson_tail(self, deploy, k):
        rl = 100.0
        v = deploy.mean_los_workers(rl)  # 7 * pi
        r, w = np.polynomial.legendre.leggauss(800)
        r = 0.5 * rl * (r + 1.0)
        w = 0.5 * rl * w
        mass = float((rank_density(k, r, deploy, rl) * w).sum())
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
        mass = float((rank_density(k, r, deploy, rl) * w).sum())
        tail = 1.0 - sum(math.exp(-v) * v ** j / math.factorial(j) for j in range(k))
        assert mass == pytest.approx(tail, rel=1e-9)

    @pytest.mark.parametrize("nodes", [64, 128, 256, 512])
    @pytest.mark.parametrize("worker_intensity", [7e-4, 2e-5, 0.0])  # table1, V < 1, V = 0
    def test_rank_block_matches_per_rank_densities(self, nodes, worker_intensity):
        deploy = DeploymentParams(worker_intensity, 1e-4)
        rl = 100.0
        r0, _ = coverage._gauss_nodes(nodes, 0.0, rl)
        ranks = tuple(range(1, 61))
        table = ServingDensity(deploy, ranks)._weights(r0, rl)
        assert np.array_equal(table, np.stack([rank_density(k, r0, deploy, rl)
                                               for k in ranks]))
        # the same bits as the density evaluated one rank at a time
        v = deploy.mean_los_workers(rl)
        assert np.array_equal(table, np.stack([rank_density_ref(k, r0, v, rl) for k in ranks]))


def rank_mass(k, deploy, rl=100.0, nodes=800):
    """Total mass of the rank-k density by Gauss-Legendre quadrature."""
    r, w = np.polynomial.legendre.leggauss(nodes)
    return float((rank_density(k, 0.5 * rl * (r + 1.0), deploy, rl)
                  * (0.5 * rl * w)).sum())


def poisson_tail(k, v):
    """P(N >= k) for a Poisson count of mean v, by direct summation."""
    return 1.0 - sum(math.exp(-v) * v ** j / math.factorial(j) for j in range(k))


class TestAvailabilityMass:
    """The rank-k density integrates to the probability that at least k
    LoS workers exist."""

    def test_saturates(self):
        huge = DeploymentParams(1.0, 0.0)  # V = pi * 1e4
        assert rank_mass(1, huge) == pytest.approx(1.0, rel=1e-9)

    def test_first_worker(self, deploy):
        v = deploy.mean_los_workers(100.0)
        assert rank_mass(1, deploy) == pytest.approx(1.0 - math.exp(-v), abs=1e-12)

    def test_deep_rank_tail(self, deploy):
        v = deploy.mean_los_workers(100.0)  # 7 * pi
        got = rank_mass(30, deploy)
        assert got == pytest.approx(poisson_tail(30, v), abs=1e-12)
        assert got == pytest.approx(0.05998, abs=5e-5)


def per_quantity(radio, density, xi_db):
    """One quantity refined on its own: the doubling rule on the kernel, no sharing.

    Returns the clipped value (a float for random selection, an array over
    the ranks otherwise) or raises QuadratureError past the engine's node
    cap, read from its constants at call time.
    """
    rl = radio.los_radius_m
    nu_r = density.deploy.requester_intensity_per_m2
    xi = db_to_linear(xi_db)

    def value(n):
        r0, w0 = coverage._gauss_nodes(n, 0.0, rl)
        kern = coverage._kernel(r0, radio, nu_r, xi, 2 * n)
        if density.ranks is None:
            return float((kern * (2.0 * r0 / rl ** 2) * w0).sum())
        v = density.deploy.mean_los_workers(rl)
        dens = np.stack([rank_density_ref(k, r0, v, rl) for k in density.ranks])
        return dens @ (kern * w0)

    n = coverage._START_NODES
    prev = value(n)
    change = math.inf
    while n < coverage._MAX_NODES:
        n *= 2
        cur = value(n)
        change = float(np.max(np.abs(cur - prev)))
        if change <= coverage._REL_TOL * float(np.max(np.abs(cur))) + coverage._ABS_TOL:
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
    # a 512-node cap keeps every example cheap; examples that need more nodes
    # must then fail the same way in both routes
    @settings(max_examples=40, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(xis=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=3),
           rl=st.floats(10.0, 1000.0),
           log_nu_w=st.floats(-6.0, -2.0),
           log_nu_rs=st.lists(st.floats(-6.0, -2.0), min_size=1, max_size=3),
           selections=st.lists(_selection, min_size=1, max_size=4),
           block=st.integers(1, 8))
    def test_batch_matches_per_quantity_loop(self, radio, xis, rl, log_nu_w, log_nu_rs,
                                             selections, block):
        # a function-scoped fixture cannot span examples: patch per example
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(coverage, "_MAX_NODES", 512)
            radio = replace(radio, los_radius_m=rl)
            deploys = [DeploymentParams(10.0 ** log_nu_w, 10.0 ** e) for e in log_nu_rs]
            # every selection and the rank block at each requester intensity
            densities = [density for deploy in deploys for density in
                         [ServingDensity(deploy) if isinstance(s, RandomSelection)
                          else ServingDensity(deploy, (s.rank,)) for s in selections]
                         + [ServingDensity(deploy, range(1, block + 1))]]
            try:
                want = [[per_quantity(radio, d, xi) for xi in xis] for d in densities]
            except QuadratureError:
                with pytest.raises(QuadratureError):
                    success_table(radio, densities, xis)
                return
            got = success_table(radio, densities, xis)
            for got_row, want_row in zip(got, want):
                for g, w in zip(got_row, want_row):
                    np.testing.assert_allclose(g, w, rtol=1e-12, atol=0.0)
            curves = success_curves(radio, deploys[0], selections, xis)
            scalars = [[float(np.ravel(p)[0]) for p in row] for row in got[:len(selections)]]
            assert curves.tolist() == scalars

    def test_mixed_intensities_match_separate_tables(self, radio, deploy):
        deploys = [replace(deploy, requester_intensity_per_m2=nu)
                   for nu in (0.0, 1e-5, 1e-4, 4e-4)]
        densities = [d for dep in deploys
                     for d in (ServingDensity(dep), ServingDensity(dep, range(1, 6)))]
        xis = [-5.0, 5.0, 12.0]
        mixed = success_table(radio, densities, xis)
        for i in range(len(deploys)):
            alone = success_table(radio, densities[2 * i:2 * i + 2], xis)
            assert mixed[2 * i][:] == alone[0]  # floats, bitwise
            for got, want in zip(mixed[2 * i + 1], alone[1]):
                assert np.array_equal(got, want)

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
        # one kernel per requester intensity: alpha = 0, 0.5 and 1
        (["bias", "--alpha-step", "0.5", "--n-max", "8"], 6),
    ])
    def test_one_kernel_per_threshold_and_node_count(self, kernel_calls, argv, calls):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert len(kernel_calls) == calls
        assert sorted(set(kernel_calls)) == [64, 128]

    def test_divergent_regime_fails_typed(self, radio, deploy, monkeypatch):
        q = CoverageQuery(replace(radio, pathloss_exp_nlos=2.2), deploy)
        monkeypatch.setattr(coverage, "_MAX_NODES", 256)
        with pytest.raises(QuadratureError) as info:
            success_probability(q)
        assert info.value.achieved is not None and math.isfinite(info.value.achieved)

    def test_kernel_rows_in_bounded_blocks(self, radio, deploy):
        r0, _ = coverage._gauss_nodes(2048, 0.0, radio.los_radius_m)
        args = (radio, deploy.requester_intensity_per_m2,
                db_to_linear(radio.sinr_threshold_db), 4096)
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

    @pytest.mark.parametrize("ranks", [(), (0,), (1, 2.0)])
    def test_bad_rank_blocks_rejected(self, deploy, ranks):
        with pytest.raises(ParameterError):
            ServingDensity(deploy, ranks)
