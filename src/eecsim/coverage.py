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
(threshold, node count) and averages it against every density still
refining at that threshold.  Each quantity (one probability, or one block
of ranks judged as a vector) stops at the first doubling where its value
changed by at most rel_tol * max|value| + abs_tol, so batching changes no
output.  The single-query functions are thin wrappers over the engine.

Everything here is a pure function of value inputs and is safe to evaluate
concurrently across grid points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from math import comb, lgamma

import numpy as np
from scipy import special

from .errors import ParameterError, QuadratureError
from .params import DeploymentParams, RadioParams, db_to_linear, directivity_distribution

__all__ = [
    "RandomSelection",
    "RankedSelection",
    "CoverageQuery",
    "QuadratureConfig",
    "interference_exponent_los",
    "interference_exponent_nlos",
    "success_curves",
    "success_probability",
    "ranked_success_probabilities",
    "ordered_distance_pdf",
    "worker_availability_mass",
]


@dataclass(frozen=True)
class RandomSelection:
    """Serve a uniformly random LoS worker."""


@dataclass(frozen=True)
class RankedSelection:
    """Serve the rank-th nearest LoS worker (rank >= 1)."""

    rank: int

    def __post_init__(self):
        if not isinstance(self.rank, int) or isinstance(self.rank, bool) or self.rank < 1:
            raise ParameterError(f"rank must be an integer >= 1, got {self.rank!r}")


@dataclass(frozen=True)
class CoverageQuery:
    radio: RadioParams
    deploy: DeploymentParams
    selection: RandomSelection | RankedSelection = RandomSelection()


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for the nested quadrature.

    Node counts double from ``start_nodes`` until two successive refinements
    agree to ``rel_tol``/``abs_tol``; exceeding ``max_nodes`` raises
    QuadratureError.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    start_nodes: int = 64
    max_nodes: int = 4096

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ParameterError("quadrature tolerances must be positive")
        if self.start_nodes < 4 or self.max_nodes < self.start_nodes:
            raise ParameterError("node counts must satisfy 4 <= start_nodes <= max_nodes")


_DEFAULT_QUAD = QuadratureConfig()

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


def _wz_exponents(r0: np.ndarray, radio: RadioParams, nu_r: float,
                  xi: float, n_inner: int) -> tuple[np.ndarray, np.ndarray]:
    """W_j(r0) and Z_j(r0) for j = 1..N_L, shape (N_L, len(r0)).

    xi is the linear SINR threshold.  The alignment-gain average runs over
    the four sectored-antenna outcomes; gains are normalized by the aligned
    product M_r * M_w.  Serving distances are taken in blocks of about
    ``_BLOCK_ELEMENTS / n_inner`` rows; each row's sums do not depend on the
    block it falls in.
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
        r0_pow = rows ** a_l
        for j in range(1, n_l + 1):
            w_acc = np.zeros(rows.size)
            z_acc = np.zeros(rows.size)
            sums = {}  # the two mixed alignments share one gain
            for gain, prob in pairs:
                if gain not in sums:
                    abar = gain / aligned
                    c_los = eta * abar * j * xi / n_l
                    w_fade = (1.0 + c_los * ratio_pow) ** (-n_l)
                    c_nlos = eta * abar * j * xi * ratio_cn / n_n
                    arg = c_nlos * r0_pow[:, None] * t_pow[None, :]
                    z_fade = (1.0 + arg) ** (-n_n)
                    sums[gain] = (((1.0 - w_fade) * x_wx).sum(axis=1),
                                  ((1.0 - z_fade) * wt_t3).sum(axis=1))
                w_sum, z_sum = sums[gain]
                w_acc += prob * w_sum
                z_acc += prob * rl * rl * z_sum
            W[j - 1, block] = pre * w_acc
            Z[j - 1, block] = pre * z_acc
    return W, Z


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


def _refine(evaluate, keys, cfg: QuadratureConfig, what: str) -> dict:
    """The one node-doubling loop: refine every keyed quantity to tolerance.

    ``evaluate(n, pending)`` returns ``{key: value}`` at ``n`` nodes for the
    keys still refining, given in their original order; a value is a float
    or an array.  A key stops at the first doubling where
    max|cur - prev| <= rel_tol * max|cur| + abs_tol and keeps that value, so
    refining it alongside others changes nothing.  QuadratureError reports
    the largest last change among keys still refining at ``max_nodes``.
    """
    pending = list(keys)
    prev, change, done = {}, {}, {}
    n = cfg.start_nodes
    while pending:
        for key, cur in evaluate(n, pending).items():
            if key in prev:
                change[key] = float(np.max(np.abs(cur - prev[key])))
                if change[key] <= cfg.rel_tol * float(np.max(np.abs(cur))) + cfg.abs_tol:
                    done[key] = cur
            prev[key] = cur
        pending = [key for key in pending if key not in done]
        if pending and n >= cfg.max_nodes:
            achieved = max(change.get(key, math.inf) for key in pending)
            raise QuadratureError(
                f"{what}: quadrature did not converge below rel_tol={cfg.rel_tol} "
                f"(last refinement changed by {achieved:.3e})",
                achieved=achieved)
        n *= 2
    return done


def _exponent(which: int, j: int, r0: float, q: CoverageQuery,
              cfg: QuadratureConfig, what: str) -> float:
    def evaluate(n, pending):
        exponents = _wz_exponents(np.array([r0], float), q.radio,
                                  q.deploy.requester_intensity_per_m2,
                                  q.radio.sinr_threshold, n)
        return {what: float(exponents[which][j - 1, 0])}

    return _refine(evaluate, [what], cfg, what)[what]


def interference_exponent_los(j: int, r0: float, q: CoverageQuery,
                              cfg: QuadratureConfig = _DEFAULT_QUAD) -> float:
    """LoS interference exponent W_j at serving distance r0."""
    _validate_j_r0(j, r0, q.radio)
    return _exponent(0, j, r0, q, cfg, "W_j")


def interference_exponent_nlos(j: int, r0: float, q: CoverageQuery,
                               cfg: QuadratureConfig = _DEFAULT_QUAD) -> float:
    """NLoS interference exponent Z_j at serving distance r0."""
    _validate_j_r0(j, r0, q.radio)
    _check_nlos_exponent(q.radio)
    return _exponent(1, j, r0, q, cfg, "Z_j")


def _validate_j_r0(j: int, r0: float, radio: RadioParams):
    if not isinstance(j, int) or isinstance(j, bool) or not 1 <= j <= radio.nakagami_los:
        raise ParameterError(f"j must be an integer in 1..{radio.nakagami_los}, got {j!r}")
    if not 0.0 < r0 <= radio.los_radius_m:
        raise ParameterError(f"r0 must lie in (0, {radio.los_radius_m}], got {r0!r}")


def ordered_distance_pdf(k: int, r, deploy: DeploymentParams,
                         los_radius_m: float):
    """Unnormalized density of the k-th nearest worker distance.

    Evaluates V^k e^{-V} f(r) F(r)^{k-1} / (k-1)! * e^{-V (F(r) - 1)} with
    f(r) = 2r/R_L^2, F(r) = r^2/R_L^2 and V the mean LoS worker count.  Its
    integral over [0, R_L] is the probability that at least k workers exist.
    Accepts scalar or array r; computed in log space to stay finite for
    large V and k.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ParameterError(f"k must be an integer >= 1, got {k!r}")
    if los_radius_m <= 0:
        raise ParameterError("los_radius_m must be positive")
    r_arr = np.asarray(r, dtype=float)
    if np.any((r_arr < 0) | (r_arr > los_radius_m)):
        raise ParameterError("r must lie in [0, los_radius_m]")
    v = deploy.mean_los_workers(los_radius_m)
    if v == 0.0:
        return np.zeros_like(r_arr) if r_arr.ndim else 0.0
    cdf = r_arr ** 2 / los_radius_m ** 2
    with np.errstate(divide="ignore"):
        log_pdf = np.where(r_arr > 0, np.log(2.0 * r_arr / los_radius_m ** 2), -np.inf)
        log_cdf = np.where(cdf > 0, np.log(cdf), -np.inf)
    log_fk = (k * math.log(v) - v - lgamma(k) + log_pdf
              + (k - 1) * log_cdf - v * (cdf - 1.0))
    out = np.exp(log_fk)
    # k >= 2 vanishes at r = 0; exp(-inf) already gives 0, guard 0 * inf
    out = np.where(np.isfinite(log_fk), out, 0.0)
    return out if r_arr.ndim else float(out)


def worker_availability_mass(k: int, deploy: DeploymentParams,
                             los_radius_m: float) -> float:
    """Probability that at least k LoS workers exist (Poisson tail)."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ParameterError(f"k must be an integer >= 1, got {k!r}")
    v = deploy.mean_los_workers(los_radius_m)
    # regularized lower incomplete gamma equals the Poisson upper tail
    return float(special.gammainc(k, v))


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
            if not isinstance(k, int) or isinstance(k, bool) or k < 1:
                raise ParameterError(f"ranks must be integers >= 1, got {k!r}")
        object.__setattr__(self, "ranks", ranks)

    def _weights(self, r0: np.ndarray, rl: float) -> np.ndarray:
        if self.ranks is None:
            return 2.0 * r0 / rl ** 2
        return np.stack([ordered_distance_pdf(k, r0, self.deploy, rl) for k in self.ranks])

    def _average(self, weights: np.ndarray, kern: np.ndarray, w0: np.ndarray):
        if self.ranks is None:
            return float((kern * weights * w0).sum())
        return weights @ (kern * w0)


def success_table(radio: RadioParams, densities, xi_db_values,
                  cfg: QuadratureConfig = _DEFAULT_QUAD) -> list[list]:
    """Success probabilities for every density at every threshold (dB).

    Returns ``table[d][t]``, clipped to [0, 1]: a float for random selection,
    an array over the ranks otherwise; ``radio.sinr_threshold_db`` is not
    used.  The kernel is evaluated once per threshold and node count for all
    densities, so they must share one requester intensity.
    """
    densities = list(densities)
    xis = [db_to_linear(xi_db) for xi_db in xi_db_values]
    requester = {d.deploy.requester_intensity_per_m2 for d in densities}
    if len(requester) > 1:
        raise ParameterError("densities in one table must share the requester intensity")
    keys = [(t, d) for t in range(len(xis)) for d in range(len(densities))]
    if keys:  # an empty table is not an error, even for a divergent radio
        _check_nlos_exponent(radio)
    nu_r = requester.pop() if requester else 0.0
    rl = radio.los_radius_m

    def evaluate(n, pending):
        r0, w0 = _gauss_nodes(n, 0.0, rl)
        weights, values = {}, {}
        for t, keys in groupby(pending, key=lambda key: key[0]):
            kern = _kernel(r0, radio, nu_r, xis[t], 2 * n)
            for _, d in keys:
                if d not in weights:
                    weights[d] = densities[d]._weights(r0, rl)
                values[t, d] = densities[d]._average(weights[d], kern, w0)
        return values

    done = _refine(evaluate, keys, cfg, "success probability")
    table = []
    for d, density in enumerate(densities):
        row = [np.clip(done[t, d], 0.0, 1.0) for t in range(len(xis))]
        table.append([float(p) for p in row] if density.ranks is None else row)
    return table


def success_curves(radio: RadioParams, deploy: DeploymentParams, selections,
                   xi_db_values, cfg: QuadratureConfig = _DEFAULT_QUAD) -> np.ndarray:
    """Success probability per selection rule (rows) and threshold in dB (columns).

    Rank-k entries are unnormalized: each includes the probability that at
    least k workers exist.  Divide by :func:`worker_availability_mass` for the
    conditional success probability.
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
    table = success_table(radio, densities, xi_db_values, cfg)
    out = np.empty((len(densities), len(xi_db_values)))
    for d, row in enumerate(table):
        out[d] = [p if densities[d].ranks is None else p[0] for p in row]
    return out


def success_probability(q: CoverageQuery, cfg: QuadratureConfig = _DEFAULT_QUAD) -> float:
    """Success probability under the query's selection rule and threshold."""
    return float(success_curves(q.radio, q.deploy, [q.selection],
                                [q.radio.sinr_threshold_db], cfg)[0, 0])


def ranked_success_probabilities(q: CoverageQuery, ks,
                                 cfg: QuadratureConfig = _DEFAULT_QUAD) -> np.ndarray:
    """Success probabilities for several ranks at once, refined as one vector.

    The query's own selection is not used; ``ks`` lists the ranks.  Values
    are unnormalized, as in :func:`success_curves`.
    """
    density = ServingDensity(q.deploy, ks)
    return success_table(q.radio, [density], [q.radio.sinr_threshold_db], cfg)[0][0]
