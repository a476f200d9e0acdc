"""Exact integer-shape success probability: a test oracle on scipy quadrature.

The package's kernel uses the Alzer-type gamma-tail expansion (Bai and
Heath, IEEE TWC 2015), which reads high.  With an integer serving shape m
the exact value is a finite sum.  With s = m xi r0^alpha_L / (C_L M^2) and
the Laplace transform L(s) = exp(f(s)), f(s) = -s sigma^2 - Phi(s), of the
noise plus interference,

    P(SINR > xi | r0) = sum_{k<m} (-s)^k / k! L^(k)(s),
    L^(k) = L B_k(f', ..., f^(k)),

with B_k the complete Bell polynomials.  Phi is the Laplace exponent of the
interferer field, 2 pi nu_r sum_g p_g int (1 - (1 + s a)^(-m_I)) x dx with
a = g C x^(-alpha) / m_I over the LoS disk and the NLoS plane beyond it,
and its derivatives are the integrand differentiated under the integral.
Everything is scaled by powers of s (B_k is homogeneous of degree k), so
the inner integrals are of order one.  Shares no code with the package's
kernel: adaptive scipy quadrature throughout, nested over r0.
"""

import math

import numpy as np
from scipy import integrate

from eecsim.coverage import RandomSelection
from eecsim.params import db_to_linear, directivity_distribution


def _rising(m, j):
    out = 1
    for i in range(j):
        out *= m + i
    return out


def _scaled_phi(s, radio, nu_r, order):
    """s^j Phi^(j)(s) for j = 0..order."""
    m_l, m_n = radio.nakagami_los, radio.nakagami_nlos
    c_l, c_n = db_to_linear(radio.intercept_los_db), db_to_linear(radio.intercept_nlos_db)
    pairs = directivity_distribution(radio)

    def term(b, m, j):
        # s^j d^j/ds^j [1 - (1 + s a)^(-m)] at b = s a
        if j == 0:
            return -math.expm1(-m * math.log1p(b))
        return -(-1) ** j * _rising(m, j) * b ** j * (1.0 + b) ** (-m - j)

    def integrand(c, alpha, m):
        def f(x):
            return np.array([x * sum(p * term(s * g * c * x ** (-alpha) / m, m, j)
                                     for g, p in pairs) for j in range(order + 1)])
        return f

    rl = radio.los_radius_m
    los, _ = integrate.quad_vec(integrand(c_l, radio.pathloss_exp_los, m_l), 0.0, rl,
                                epsabs=0.0, epsrel=1e-11, norm="max")
    nlos, _ = integrate.quad_vec(integrand(c_n, radio.pathloss_exp_nlos, m_n), rl, math.inf,
                                 epsabs=0.0, epsrel=1e-11, norm="max")
    return [2.0 * math.pi * nu_r * (a + b) for a, b in zip(los, nlos)]


def conditional_success(r0, radio, nu_r, xi):
    """P(SINR > xi | serving distance r0), xi linear."""
    m = radio.nakagami_los
    if r0 == 0.0:
        return 1.0
    scale = db_to_linear(radio.intercept_los_db) * db_to_linear(radio.main_lobe_db) ** 2
    s = m * xi * r0 ** radio.pathloss_exp_los / scale
    noise = s * db_to_linear(radio.noise_normalized_db)
    phi = _scaled_phi(s, radio, nu_r, m - 1) if nu_r > 0.0 else [0.0] * m
    # scaled derivatives s^j f^(j) = -s^j Phi^(j), and s f' carries -s sigma^2
    scaled_f = [-p for p in phi]
    if m > 1:
        scaled_f[1] -= noise
    bell = [1.0]
    for k in range(1, m):
        bell.append(sum(math.comb(k - 1, i) * scaled_f[i + 1] * bell[k - 1 - i]
                        for i in range(k)))
    total = sum((-1) ** k / math.factorial(k) * bell[k] for k in range(m))
    return math.exp(-noise - phi[0]) * total


def serving_density(selection, deploy, rl):
    """Density of the serving distance on [0, rl]; rank k is unnormalized
    (its mass is the probability that at least k workers exist)."""
    if isinstance(selection, RandomSelection):
        return lambda r: 2.0 * r / rl ** 2
    k = selection.rank
    v = math.pi * deploy.worker_intensity_per_m2 * rl ** 2

    def density(r):
        frac = r * r / rl ** 2
        return ((v * frac) ** (k - 1) / math.factorial(k - 1) * v * 2.0 * r / rl ** 2
                * math.exp(-v * frac))
    return density


def exact_success(radio, deploy, selection, xi_db):
    """Success probability at threshold ``xi_db`` with the exact serving tail."""
    xi = db_to_linear(xi_db)
    nu_r = deploy.requester_intensity_per_m2
    density = serving_density(selection, deploy, radio.los_radius_m)
    value, _ = integrate.quad(lambda r: conditional_success(r, radio, nu_r, xi) * density(r),
                              0.0, radio.los_radius_m, epsabs=1e-10, epsrel=1e-9, limit=200)
    return value
