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
from dataclasses import dataclass
from itertools import islice

from .chain import (build_level_dependent, require_state_count, solve_chains,
                    worker_idle_probability)
from .coverage import ServingDensity, success_table
from .errors import ParameterError, UnservableError
from .params import MAX_GRID_POINTS, DeploymentParams, RadioParams, TaskParams, require_finite

__all__ = [
    "MecParams",
    "BiasPoint",
    "congested_worker_intensity",
    "mec_delay",
    "bias_sweep",
    "alpha_grid",
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
    offload_success_prob: float = 1.0

    def __post_init__(self):
        require_finite(self)
        if self.power_ratio <= 0:
            raise ParameterError("power_ratio must be positive")
        if self.mec_task_rate_mu_f <= 0:
            raise ParameterError("mec_task_rate_mu_f must be positive")
        if not 0.0 < self.offload_success_prob <= 1.0:
            raise ParameterError("offload_success_prob must lie in (0, 1]")


@dataclass(frozen=True)
class BiasPoint:
    alpha: float
    tau_eec_s: float
    tau_mec_s: float
    tau_alpha_s: float
    eec_optimal_n: int


def best_segmentation(rate_vectors, mu_f_values, diagnostics: list | None = None
                      ) -> list[list[tuple[int, tuple[float, ...]]]]:
    """Optimal segment count and the mean delay for every searchable count.

    Returns ``best[v][m] = (optimal n, delays for n = 1..usable)`` for rate
    vector v and ``mu_f_values[m]``.  Deep ranks can underflow to zero
    success mass, so a vector's search stops before its first zero rate;
    every vector is checked, in order, before one
    :func:`~eecsim.chain.solve_chains` call solves every chain.  A vector
    whose nearest-worker rate is already zero cannot serve at all: an
    UnservableError carrying its entry of ``diagnostics``.  The optimum is
    the first minimizing n.
    """
    rate_vectors = list(rate_vectors)
    mu_f_values = list(mu_f_values)
    diagnostics = diagnostics or [None] * len(rate_vectors)
    usable = []
    for rates, diagnostic in zip(rate_vectors, diagnostics):
        top = next((i for i, rate in enumerate(rates) if rate <= 0.0), len(rates))
        if top == 0:
            raise UnservableError(
                "success probability of even the nearest worker is zero",
                diagnostic=diagnostic)
        usable.append(top)
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
    if not 1.0 / step < MAX_GRID_POINTS:
        raise ParameterError(
            f"alpha grid step {step!r} gives more than {MAX_GRID_POINTS} points")
    steps = int(round(1.0 / step))
    alphas = [round(min(i * step, 1.0), 12) for i in range(steps + 1)]
    if alphas[-1] != 1.0:
        alphas.append(1.0)
    return alphas


def congested_worker_intensity(alpha: float, deploy: DeploymentParams,
                               mu_f: float) -> float:
    """Idle-worker intensity once a fraction alpha of requesters use the edge."""
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha must lie in [0, 1], got {alpha!r}")
    nu_w = deploy.worker_intensity_per_m2
    if nu_w == 0.0:
        return 0.0
    idle = worker_idle_probability(mu_f, alpha * deploy.requester_intensity_per_m2, nu_w)
    return idle * nu_w


def mec_delay(mec: MecParams, task: TaskParams, radio: RadioParams,
              requester_intensity_per_m2: float) -> float:
    """Average MEC response delay: uplink plus processor-shared computation.

    The expected concurrent load is the mean number of server-bound
    requesters, at intensity ``requester_intensity_per_m2``, in the LoS
    disk; computation time scales with (1 + load).
    """
    load = requester_intensity_per_m2 * math.pi * radio.los_radius_m ** 2
    uplink = task.d2d_slot_s / mec.offload_success_prob
    return uplink + (1.0 + load) / (mec.power_ratio * mec.mec_task_rate_mu_f)


def bias_sweep(alphas, radio: RadioParams, deploy: DeploymentParams, task: TaskParams,
               mec: MecParams, n_max: int = 50) -> list[BiasPoint]:
    """Evaluate the blended objective on a grid of bias values.

    At each alpha the edge tier serves the alpha-fraction of requesters: the
    idle-worker intensity replaces the raw worker intensity in the
    ordered-selection success probabilities, interference comes from that
    fraction only, and the delay is minimized over the segmentation count
    n = 1..n_max using the level-dependent chain.  The MEC load is the
    remaining (1 - alpha) fraction.  Every alpha shares one coverage-engine
    call and one chain solve; the first alpha that cannot be served raises
    its UnservableError.
    """
    require_state_count(n_max)
    alphas = list(alphas)
    mu_f = task.task_exec_rate_per_s
    nu_r = deploy.requester_intensity_per_m2
    densities, diagnostics, unservable = [], [], None
    for alpha in alphas:
        idle_intensity = congested_worker_intensity(alpha, deploy, mu_f)
        deploy_here = DeploymentParams(worker_intensity_per_m2=idle_intensity,
                                       requester_intensity_per_m2=alpha * nu_r)
        mass = deploy_here.mean_los_workers(radio.los_radius_m)
        if mass < MIN_WORKER_MASS:
            unservable = UnservableError(
                "no line-of-sight worker mass under this bias",
                diagnostic={"alpha": alpha, "idle_worker_intensity": idle_intensity,
                            "mean_los_workers": mass})
            break
        densities.append(ServingDensity(deploy_here, range(1, n_max + 1)))
        diagnostics.append({"alpha": alpha, "mean_los_workers": mass})
    table = success_table(radio, densities, [radio.sinr_threshold_db])
    best = best_segmentation([row[0] / task.d2d_slot_s for row in table], [mu_f],
                             diagnostics)
    if unservable is not None:
        raise unservable
    points = []
    for alpha, [(best_n, delays)] in zip(alphas, best):
        tau_eec = delays[best_n - 1]
        tau_mec = mec_delay(mec, task, radio, (1.0 - alpha) * nu_r)
        points.append(BiasPoint(
            alpha=float(alpha),
            tau_eec_s=tau_eec,
            tau_mec_s=tau_mec,
            tau_alpha_s=alpha * tau_eec + (1.0 - alpha) * tau_mec,
            eec_optimal_n=best_n,
        ))
    return points

