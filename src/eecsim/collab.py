"""Edge/MEC collaboration: congestion, the blended objective and bias search.

A bias factor alpha in [0, 1] routes that fraction of requesters to the
edge-device tier; the rest offload to the MEC server.  Routing more load to
the edge both thins the idle-worker pool (through the two-state worker
cycle) and raises D2D interference, so the edge delay grows with alpha
while the MEC delay shrinks.  The blended objective

    tau(alpha) = alpha * tau_edge(alpha) + (1 - alpha) * tau_mec(alpha)

is minimized over an alpha grid; ties break toward smaller alpha (less
edge load).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice

from .chain import build_level_dependent, solve_chains, worker_idle_probability
from .coverage import ServingDensity, success_table
from .errors import ParameterError, UnservableError
from .params import DeploymentParams, RadioParams, TaskParams, require_finite

__all__ = [
    "MecParams",
    "BiasPoint",
    "EecOperatingPoint",
    "congested_worker_intensity",
    "eec_delay_under_bias",
    "mec_delay",
    "combined_delay",
    "bias_sweep",
    "optimal_bias",
    "alpha_grid",
    "usable_segment_count",
    "best_segmentation",
]

# below this mean LoS worker count the edge tier is treated as unservable
MIN_WORKER_MASS = 1e-6


@dataclass(frozen=True)
class MecParams:
    """MEC-side model inputs.

    The server executes whole tasks at ``power_ratio`` times the device
    rate ``mec_task_rate_mu_f``; processor sharing across the expected
    concurrent load stretches the computation time linearly.
    ``offload_success_prob`` is the per-attempt success of the uplink,
    so one transmission slot costs ``d2d_slot / offload_success_prob``.
    """

    power_ratio: float
    mec_task_rate_mu_f: float
    concurrent_requester_intensity: float = 0.0
    offload_success_prob: float = 1.0

    def __post_init__(self):
        require_finite(self)
        if self.power_ratio <= 0:
            raise ParameterError("power_ratio must be positive")
        if self.mec_task_rate_mu_f <= 0:
            raise ParameterError("mec_task_rate_mu_f must be positive")
        if self.concurrent_requester_intensity < 0:
            raise ParameterError("concurrent_requester_intensity must be nonnegative")
        if not 0.0 < self.offload_success_prob <= 1.0:
            raise ParameterError("offload_success_prob must lie in (0, 1]")


@dataclass(frozen=True)
class BiasPoint:
    alpha: float
    tau_eec_s: float
    tau_mec_s: float
    tau_alpha_s: float
    eec_optimal_n: int


@dataclass(frozen=True)
class EecOperatingPoint:
    """Edge-tier delay at one bias value, with the context that produced it."""

    delay_s: float
    optimal_n: int
    idle_worker_intensity: float
    mean_los_workers: float
    per_n_delay_s: tuple[float, ...]


def usable_segment_count(rates, diagnostic: dict | None = None) -> int:
    """Number of leading positive level rates: the largest n searchable.

    Deep ranks can underflow to zero success mass, so the segment-count
    search stops at the first zero rate.  When even the nearest worker's
    rate is zero the edge tier cannot serve at all: UnservableError.
    """
    usable = next((i for i, rate in enumerate(rates) if rate <= 0.0), len(rates))
    if usable == 0:
        raise UnservableError(
            "success probability of even the nearest worker is zero",
            diagnostic=diagnostic)
    return usable


def best_segmentation(rate_vectors, mu_f_values, diagnostics: list | None = None
                      ) -> list[list[tuple[int, tuple[float, ...]]]]:
    """Optimal segment count and the mean delay for every searchable count.

    Returns ``best[v][m] = (optimal n, delays for n = 1..usable)`` for rate
    vector v and ``mu_f_values[m]``.  Every vector's :func:`usable_segment_count`
    is checked, in order, before one :func:`~eecsim.chain.solve_chains` call
    solves every chain.  The optimum is the first minimizing n.
    """
    rate_vectors = list(rate_vectors)
    mu_f_values = list(mu_f_values)
    diagnostics = diagnostics or [None] * len(rate_vectors)
    usable = [usable_segment_count(rates, diagnostic)
              for rates, diagnostic in zip(rate_vectors, diagnostics)]
    models = [build_level_dependent(n, rates[:n].tolist(), mu_f)
              for rates, top in zip(rate_vectors, usable) for mu_f in mu_f_values
              for n in range(1, top + 1)]
    delays = iter(solve_chains(models)[0])
    best = []
    for top in usable:
        row = []
        for _ in mu_f_values:
            per_n = tuple(islice(delays, top))
            row.append((per_n.index(min(per_n)) + 1, per_n))
        best.append(row)
    return best


def alpha_grid(step: float) -> list[float]:
    """Bias values 0, step, 2 step, ... up to and always including 1."""
    if not 0.0 < step <= 1.0:
        raise ParameterError(f"alpha grid step must lie in (0, 1], got {step!r}")
    steps = int(round(1.0 / step))
    alphas = [round(min(i * step, 1.0), 12) for i in range(steps + 1)]
    if alphas[-1] != 1.0:
        alphas.append(1.0)
    return alphas


def congested_worker_intensity(alpha: float, deploy: DeploymentParams,
                               mu_f: float) -> float:
    """Idle-worker intensity once a fraction alpha of requesters use the edge."""
    _check_alpha(alpha)
    nu_w = deploy.worker_intensity_per_m2
    if nu_w == 0.0:
        return 0.0
    idle = worker_idle_probability(mu_f, alpha * deploy.requester_intensity_per_m2, nu_w)
    return idle * nu_w


def _edge_points(alphas, radio: RadioParams, deploy: DeploymentParams, task: TaskParams,
                 n_max: int) -> list[EecOperatingPoint]:
    """Best edge-tier delay under the congestion seen at each bias alpha.

    The idle-worker intensity replaces the raw worker intensity in the
    ordered-selection success probabilities, interference comes from the
    alpha-fraction of requesters only, and the delay is minimized over the
    segmentation count n = 1..n_max using the level-dependent chain.  Every
    alpha shares one engine call and one chain solve; the first alpha that
    cannot be served raises its UnservableError.
    """
    if n_max < 1:
        raise ParameterError("n_max must be >= 1")
    mu_f = task.task_exec_rate_per_s
    effective, context, unservable = [], [], None
    for alpha in alphas:
        _check_alpha(alpha)
        idle_intensity = congested_worker_intensity(alpha, deploy, mu_f)
        deploy_here = DeploymentParams(
            worker_intensity_per_m2=idle_intensity,
            requester_intensity_per_m2=alpha * deploy.requester_intensity_per_m2,
        )
        mass = deploy_here.mean_los_workers(radio.los_radius_m)
        if mass < MIN_WORKER_MASS:
            unservable = UnservableError(
                "no line-of-sight worker mass under this bias",
                diagnostic={"alpha": alpha, "idle_worker_intensity": idle_intensity,
                            "mean_los_workers": mass})
            break
        effective.append(ServingDensity(deploy_here, range(1, n_max + 1)))
        context.append((alpha, idle_intensity, mass))
    table = success_table(radio, effective, [radio.sinr_threshold_db])
    best = best_segmentation([row[0] / task.d2d_slot_s for row in table], [mu_f],
                             [{"alpha": alpha, "mean_los_workers": mass}
                              for alpha, _, mass in context])
    if unservable is not None:
        raise unservable
    return [EecOperatingPoint(delay_s=delays[best_n - 1], optimal_n=best_n,
                              idle_worker_intensity=idle_intensity, mean_los_workers=mass,
                              per_n_delay_s=delays)
            for (_, idle_intensity, mass), [(best_n, delays)] in zip(context, best)]


def eec_delay_under_bias(alpha: float, radio: RadioParams, deploy: DeploymentParams,
                         task: TaskParams, n_max: int = 50) -> EecOperatingPoint:
    """Best edge-tier delay at one bias value (see :func:`bias_sweep`)."""
    return _edge_points([alpha], radio, deploy, task, n_max)[0]


def mec_delay(mec: MecParams, task: TaskParams, radio: RadioParams) -> float:
    """Average MEC response delay: uplink plus processor-shared computation.

    The expected concurrent load is the mean number of competing requesters
    in the LoS disk, and computation time scales with (1 + load).
    """
    load = mec.concurrent_requester_intensity * math.pi * radio.los_radius_m ** 2
    uplink = task.d2d_slot_s / mec.offload_success_prob
    return uplink + (1.0 + load) / (mec.power_ratio * mec.mec_task_rate_mu_f)


def combined_delay(alpha: float, eec_delay_s: float, mec_delay_s: float) -> float:
    """Blend the two tiers' delays with the bias weight."""
    _check_alpha(alpha)
    return alpha * eec_delay_s + (1.0 - alpha) * mec_delay_s


def bias_sweep(alphas, radio: RadioParams, deploy: DeploymentParams, task: TaskParams,
               mec: MecParams, n_max: int = 50) -> list[BiasPoint]:
    """Evaluate the blended objective on a grid of bias values.

    At each alpha the MEC load is the (1 - alpha) fraction of the deployment
    requester intensity; the edge side re-optimizes its segmentation count
    under the congestion of that alpha.  Every alpha's edge delays come from
    one coverage-engine call and one chain solve.
    """
    alphas = list(alphas)
    points = []
    for alpha, edge in zip(alphas, _edge_points(alphas, radio, deploy, task, n_max)):
        mec_here = replace(mec, concurrent_requester_intensity=(
            (1.0 - alpha) * deploy.requester_intensity_per_m2))
        tau_mec = mec_delay(mec_here, task, radio)
        points.append(BiasPoint(
            alpha=float(alpha),
            tau_eec_s=edge.delay_s,
            tau_mec_s=tau_mec,
            tau_alpha_s=combined_delay(alpha, edge.delay_s, tau_mec),
            eec_optimal_n=edge.optimal_n,
        ))
    return points


def optimal_bias(grid_step: float, radio: RadioParams, deploy: DeploymentParams,
                 task: TaskParams, mec: MecParams, n_max: int = 50) -> BiasPoint:
    """Grid argmin of the blended objective; ties go to the smaller alpha."""
    points = bias_sweep(alpha_grid(grid_step), radio, deploy, task, mec, n_max=n_max)
    best = points[0]
    for p in points[1:]:
        if p.tau_alpha_s < best.tau_alpha_s:
            best = p
    return best


def _check_alpha(alpha: float):
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha must lie in [0, 1], got {alpha!r}")
