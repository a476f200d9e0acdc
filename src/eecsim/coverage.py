"""Analytic D2D offloading success probabilities: one quadrature engine.

The success probability of delivering one task segment over a mmWave D2D
link is an average, over the serving distance r0, of one success kernel:
an alternating binomial sum over the gamma-tail expansion of the serving
fade (Bai and Heath, IEEE TWC 2015) built from three exponents:

* a noise exponent proportional to r0^alpha_L * sigma^2,
* ``W_j``: the line-of-sight interference exponent (interferers closer than
  the LoS radius to the receiving worker),
* ``Z_j``: the non-line-of-sight interference exponent (interferers beyond
  the LoS radius), evaluated over (R_L, inf) through the substitution
  x = R_L / t which removes the truncation error.

The kernel depends on the threshold, the radio and the requester intensity,
but not on the selection rule, the rank or the worker intensity.  Selection
rules differ only in the serving-distance density (:class:`ServingDensity`)
averaged against it: random selection uses the uniform-in-disk density
2 r0 / R_L^2; rank-k selection uses the k-th nearest-point density of the
worker process, kept unnormalized so that its total mass equals the
probability that at least k LoS workers exist.

Every probability comes from one engine, :func:`success_table`.  Its single
node-doubling loop (:func:`_refine`) evaluates the kernel once per
(threshold, requester intensity, node count) and averages it against every
density at that intensity still refining at that threshold.  Each quantity
(one probability, or one block of ranks judged as a vector) stops at the
first doubling where its value changed by at most
_REL_TOL * max|value| + _ABS_TOL, so batching changes no output.  The
single-query functions are thin wrappers over the engine.

Everything here is a pure function of value inputs and is safe to evaluate
concurrently across grid points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from math import comb, lgamma

import numpy as np

from .errors import ParameterError, QuadratureError
from .params import (DeploymentParams, RadioParams, db_to_linear, directivity_distribution,
                     require_int)

__all__ = [
    "RandomSelection",
    "RankedSelection",
    "CoverageQuery",
    "success_curves",
    "success_probability",
    "ranked_success_probabilities",
]


@dataclass(frozen=True)
class RandomSelection:
    """Serve a uniformly random LoS worker."""


@dataclass(frozen=True)
class RankedSelection:
    """Serve the rank-th nearest LoS worker (rank >= 1)."""

    rank: int

    def __post_init__(self):
        require_int("rank", self.rank, 1)


@dataclass(frozen=True)
class CoverageQuery:
    radio: RadioParams
    deploy: DeploymentParams
    selection: RandomSelection | RankedSelection = RandomSelection()


# node counts double from _START_NODES until two successive refinements
# agree to _REL_TOL/_ABS_TOL; a quantity still refining at _MAX_NODES raises
# QuadratureError.  _refine reads them at each call, so a test may patch them
_REL_TOL = 1e-8
_ABS_TOL = 1e-12
_START_NODES = 64
_MAX_NODES = 4096

# float64 elements per (serving distances x inner nodes) temporary of the
# nested quadrature: 128 KiB, small enough to stay in cache at any node count
_BLOCK_ELEMENTS = 16384

_leggauss_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_nodes(n: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    if n not in _leggauss_cache:
        _leggauss_cache[n] = np.polynomial.legendre.leggauss(n)
    x, w = _leggauss_cache[n]
    half = 0.5 * (hi - lo)
    return half * x + 0.5 * (hi + lo), half * w


def _check_nlos_exponent(radio: RadioParams):
    # the NLoS exponent integral over (R_L, inf) diverges at alpha_N <= 2
    if radio.pathloss_exp_nlos <= 2.0:
        raise QuadratureError(
            "NLoS interference integral diverges for pathloss_exp_nlos <= 2", achieved=None)


def _fade_sums(u: np.ndarray, c: float | np.ndarray, m: int, weights: np.ndarray,
               y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row sums of (1 - (1 + c u)**(-m)) * weights, worked in the buffers y and
    out: y**m by m - 1 multiplications, whose overflow gives the true limit 1."""
    np.multiply(u, c, out=y)
    y += 1.0
    with np.errstate(over="ignore"):
        if m == 1:
            np.copyto(out, y)
        else:
            np.multiply(y, y, out=out)
        for _ in range(m - 2):
            out *= y
    np.divide(1.0, out, out=out)
    np.subtract(1.0, out, out=out)
    return np.einsum("ij,j->i", out, weights)


def _wz_exponents(r0: np.ndarray, radio: RadioParams, nu_r: float,
                  xi: float, n_inner: int) -> tuple[np.ndarray, np.ndarray]:
    """W_j(r0) and Z_j(r0) for j = 1..N_L, shape (N_L, len(r0)).

    xi is the linear SINR threshold.  The alignment-gain average runs over
    the four sectored-antenna outcomes; gains are normalized by the aligned
    product M_r * M_w.  Serving distances are taken in blocks of about
    ``_BLOCK_ELEMENTS / n_inner`` rows; einsum row sums, unlike BLAS ones, do
    not depend on the block a row falls in.
    """
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
    x, wx = _gauss_nodes(n_inner, 0.0, rl)
    t, wt = _gauss_nodes(n_inner, 0.0, 1.0)
    t_pow = (t ** a_n) / rl ** a_n
    wt_t3 = wt / t ** 3
    x_wx = x * wx
    ratio_cn = radio.intercept_nlos / radio.intercept_los
    pre = 2.0 * math.pi * nu_r

    height = max(1, _BLOCK_ELEMENTS // n_inner)
    for lo in range(0, r0.size, height):
        rows = r0[lo:lo + height]
        block = slice(lo, lo + rows.size)
        ratio_pow = (rows[:, None] / x[None, :]) ** a_l      # (rows, nx)
        r0_pow = rows[:, None] ** a_l
        y, buf = np.empty_like(ratio_pow), np.empty_like(ratio_pow)
        for j in range(1, n_l + 1):
            sums = {}  # the two mixed alignments share one gain
            for gain, prob in pairs:
                if gain not in sums:
                    c = eta * (gain / aligned) * j * xi
                    sums[gain] = (_fade_sums(ratio_pow, c / n_l, n_l, x_wx, y, buf),
                                  _fade_sums(t_pow, c * ratio_cn / n_n * r0_pow, n_n, wt_t3, y, buf))
                w_sum, z_sum = sums[gain]
                W[j - 1, block] += prob * w_sum
                Z[j - 1, block] += prob * rl * rl * z_sum
    return pre * W, pre * Z


def _kernel(r0: np.ndarray, radio: RadioParams, nu_r: float,
            xi: float, n_inner: int) -> np.ndarray:
    """Success kernel at serving distances r0 (linear threshold xi).

    Alternating binomial sum over the gamma-tail expansion of the serving
    fade.  The tail constant enters the interference exponents only; the
    noise exponent uses the bare threshold.
    """
    n_l = radio.nakagami_los
    W, Z = _wz_exponents(r0, radio, nu_r, xi, n_inner)
    noise_scale = xi * radio.noise_normalized / (
        radio.intercept_los * radio.main_lobe * radio.main_lobe)
    r0_pow = r0 ** radio.pathloss_exp_los
    out = np.zeros(r0.size)
    for j in range(1, n_l + 1):
        exponent = -j * noise_scale * r0_pow - W[j - 1] - Z[j - 1]
        out += (-1.0) ** (j + 1) * comb(n_l, j) * np.exp(exponent)
    return out


def _refine(evaluate, keys, what: str) -> dict:
    """The one node-doubling loop: refine every keyed quantity to tolerance.

    ``evaluate(n, pending)`` returns ``{key: value}`` at ``n`` nodes for the
    keys still refining, given in their original order; a value is a float
    or an array.  A key stops at the first doubling where
    max|cur - prev| <= _REL_TOL * max|cur| + _ABS_TOL and keeps that value,
    so refining it alongside others changes nothing.  QuadratureError reports
    the largest last change among keys still refining at ``_MAX_NODES``.
    """
    pending = list(keys)
    prev, change, done = {}, {}, {}
    n = _START_NODES
    while pending:
        for key, cur in evaluate(n, pending).items():
            if key in prev:
                change[key] = float(np.max(np.abs(cur - prev[key])))
                if change[key] <= _REL_TOL * float(np.max(np.abs(cur))) + _ABS_TOL:
                    done[key] = cur
            prev[key] = cur
        pending = [key for key in pending if key not in done]
        if pending and n >= _MAX_NODES:
            achieved = max(change.get(key, math.inf) for key in pending)
            raise QuadratureError(
                f"{what}: quadrature did not converge below rel_tol={_REL_TOL} "
                f"(last refinement changed by {achieved:.3e})",
                achieved=achieved)
        n *= 2
    return done


def _rank_densities(ks, r: np.ndarray, deploy: DeploymentParams, rl: float) -> np.ndarray:
    """Unnormalized density of the k-th nearest worker distance at r, one row
    per rank k of ``ks``; unchecked.

    Evaluates V^k e^{-V} f(r) F(r)^{k-1} / (k-1)! * e^{-V (F(r) - 1)} with
    f(r) = 2r/R_L^2, F(r) = r^2/R_L^2 and V the mean LoS worker count.  Its
    integral over [0, R_L] is the probability that at least k workers exist.
    Computed in log space to stay finite for large V and k.
    """
    v = deploy.mean_los_workers(rl)
    if v == 0.0:
        return np.zeros((len(ks),) + r.shape)
    cdf = r ** 2 / rl ** 2
    with np.errstate(divide="ignore"):
        log_pdf = np.where(r > 0, np.log(2.0 * r / rl ** 2), -np.inf)
        log_cdf = np.where(cdf > 0, np.log(cdf), -np.inf)
    head = np.add.outer([k * math.log(v) - v - lgamma(k) for k in ks], log_pdf)
    log_fk = head + np.multiply.outer(np.subtract(ks, 1), log_cdf) - v * (cdf - 1.0)
    # k >= 2 vanishes at r = 0; exp(-inf) already gives 0, guard 0 * inf
    return np.where(np.isfinite(log_fk), np.exp(log_fk), 0.0)


@dataclass(frozen=True)
class ServingDensity:
    """Serving-distance density that the success kernel is averaged against.

    ``ranks=None`` is random selection, the uniform-in-disk density.
    Otherwise the density holds one unnormalized k-th nearest-worker density
    per rank, over the worker process of ``deploy``, and its ranks refine
    together as one vector.
    """

    deploy: DeploymentParams
    ranks: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.ranks is None:
            return
        ranks = tuple(self.ranks)
        if not ranks:
            raise ParameterError("ranks must not be empty")
        for k in ranks:
            require_int("rank", k, 1)
        object.__setattr__(self, "ranks", ranks)

    def _weights(self, r0: np.ndarray, rl: float) -> np.ndarray:
        if self.ranks is None:
            return 2.0 * r0 / rl ** 2
        return _rank_densities(self.ranks, r0, self.deploy, rl)

    def _average(self, weights: np.ndarray, kern: np.ndarray, w0: np.ndarray):
        if self.ranks is None:
            return float((kern * weights * w0).sum())
        return weights @ (kern * w0)


def success_table(radio: RadioParams, densities, xi_db_values) -> list[list]:
    """Success probabilities for every density at every threshold (dB).

    Returns ``table[d][t]``, clipped to [0, 1]: a float for random selection,
    an array over the ranks otherwise; ``radio.sinr_threshold_db`` is not
    used.  The kernel is evaluated once per threshold, requester intensity
    and node count, and shared by every density at that intensity.
    """
    densities = list(densities)
    xis = [db_to_linear(xi_db) for xi_db in xi_db_values]
    keys = [(t, d) for t in range(len(xis)) for d in range(len(densities))]
    if keys:  # an empty table is not an error, even for a divergent radio
        _check_nlos_exponent(radio)
    rl = radio.los_radius_m

    def evaluate(n, pending):
        r0, w0 = _gauss_nodes(n, 0.0, rl)
        weights, values = {}, {}
        for t, keys in groupby(pending, key=lambda key: key[0]):
            kernels = {}
            for _, d in keys:
                nu_r = densities[d].deploy.requester_intensity_per_m2
                if nu_r not in kernels:
                    kernels[nu_r] = _kernel(r0, radio, nu_r, xis[t], 2 * n)
                if d not in weights:
                    weights[d] = densities[d]._weights(r0, rl)
                values[t, d] = densities[d]._average(weights[d], kernels[nu_r], w0)
        return values

    done = _refine(evaluate, keys, "success probability")
    table = []
    for d, density in enumerate(densities):
        row = [np.clip(done[t, d], 0.0, 1.0) for t in range(len(xis))]
        table.append([float(p) for p in row] if density.ranks is None else row)
    return table


def success_curves(radio: RadioParams, deploy: DeploymentParams, selections,
                   xi_db_values) -> np.ndarray:
    """Success probability per selection rule (rows) and threshold in dB (columns).

    Rank-k entries are unnormalized: each includes the probability that at
    least k workers exist.
    """
    densities = []
    for selection in selections:
        if isinstance(selection, RandomSelection):
            densities.append(ServingDensity(deploy))
        elif isinstance(selection, RankedSelection):
            densities.append(ServingDensity(deploy, (selection.rank,)))
        else:
            raise ParameterError(f"unknown selection rule {selection!r}")
    xi_db_values = list(xi_db_values)
    table = success_table(radio, densities, xi_db_values)
    out = np.empty((len(densities), len(xi_db_values)))
    for d, row in enumerate(table):
        out[d] = [p if densities[d].ranks is None else p[0] for p in row]
    return out


def success_probability(q: CoverageQuery) -> float:
    """Success probability under the query's selection rule and threshold."""
    return float(success_curves(q.radio, q.deploy, [q.selection],
                                [q.radio.sinr_threshold_db])[0, 0])


def ranked_success_probabilities(q: CoverageQuery, ks) -> np.ndarray:
    """Success probabilities for several ranks at once, refined as one vector.

    The query's own selection is not used; ``ks`` lists the ranks.  Values
    are unnormalized, as in :func:`success_curves`.
    """
    density = ServingDensity(q.deploy, ks)
    return success_table(q.radio, [density], [q.radio.sinr_threshold_db])[0][0]
