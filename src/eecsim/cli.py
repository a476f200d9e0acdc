"""Command-line front end: sweeps, optimal-segmentation search and validation.

Every command resolves a scenario (preset plus optional JSON overrides),
evaluates its sweep and writes one CSV: ``#``-prefixed metadata lines, then
a header, then data rows (RFC 4180 quoting).  Output files are written
atomically and never appended to.  Exit codes: 0 success, 1 validation
failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import math
import io
import os
import sys
import tempfile
from dataclasses import replace
from itertools import product

import numpy as np

from . import __version__
from .chain import (
    build_baseline,
    build_failure_chain,
    build_level_dependent,
    mean_absorption_time,  # noqa: F401 -- the benchmark's tracer wraps this name
    require_state_count,
    solve_chains,
    worker_idle_probability,
)
from .collab import alpha_grid, best_segmentation, bias_sweep
from .config import ScenarioConfig, config_hash, load_config
from .coverage import (
    CoverageQuery,
    RandomSelection,
    RankedSelection,
    ServingDensity,
    success_curves,
    success_table,
)
from .errors import ConfigError, ParameterError, QuadratureError, UnservableError
from .montecarlo import SimConfig, empirical_delay, empirical_success_curves
from .params import MAX_GRID_POINTS

BIAS_SCENARIOS = ("base", "low_mu_f", "low_nu_w", "low_nu_r", "high_nu_r")


def _parse_grid(text: str) -> list[float]:
    """Parse "start:stop:step" (inclusive) or a comma-separated list."""
    text = text.strip()
    if not text:
        return []
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid {text!r} must be start:stop:step or a comma list")
        start, stop, step = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, stop, step))):
            raise ConfigError(f"grid {text!r} needs a finite start, stop and step")
        if step <= 0:
            raise ConfigError("grid step must be positive")
        if stop < start:
            raise ConfigError(f"grid {text!r} has its stop below its start")
        # a finite start, stop and step can still overflow the point count
        if not (stop - start) / step < MAX_GRID_POINTS:
            raise ConfigError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
        count = int(round((stop - start) / step))
        values = [start + i * step for i in range(count + 1)]
        return [v for v in values if v <= stop + 1e-9]
    return [float(p) for p in text.split(",") if p.strip()]


def _parse_int_grid(text: str) -> list[int]:
    values = _parse_grid(text)
    out = []
    for v in values:
        if not math.isfinite(v) or abs(v - round(v)) > 1e-9:
            raise ConfigError(f"expected integers in grid, got {v}")
        out.append(int(round(v)))
    return out


def _parse_selection(text: str):
    if text == "random":
        return RandomSelection()
    if text.startswith("ranked:"):
        try:
            return RankedSelection(int(text.split(":", 1)[1]))
        except (ValueError, ParameterError) as exc:
            raise ConfigError(f"bad selection {text!r}: {exc}") from exc
    raise ConfigError(f"selection must be 'random' or 'ranked:K', got {text!r}")


def _selection_name(selection) -> str:
    return "random" if isinstance(selection, RandomSelection) else f"ranked:{selection.rank}"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _write_csv(out_path: str | None, metadata: list[tuple[str, object]],
               header: list[str], rows: list[list]):
    """Emit metadata comments, header, then rows; atomic when writing a file."""
    buffer = io.StringIO()
    for key, value in metadata:
        buffer.write(f"# {key}: {_fmt(value)}\r\n")
    writer = csv.writer(buffer, quoting=csv.QUOTE_MINIMAL)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(cell) for cell in row])
    payload = buffer.getvalue()
    if out_path is None:
        sys.stdout.write(payload)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(payload)
        os.replace(tmp_path, out_path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _base_metadata(command: str, config: ScenarioConfig,
                   sim: SimConfig | None = None) -> list[tuple[str, object]]:
    meta = [
        ("tool", f"eecsim {__version__}"),
        ("command", command),
        ("config_hash", config_hash(config)),
    ]
    return meta if sim is None else meta + [("seed", sim.seed)]


def _scenario_overrides(config: ScenarioConfig, scenario: str) -> ScenarioConfig:
    """Apply a named bias-study perturbation to the resolved scenario."""
    deploy, task, mec = config.deploy, config.task, config.mec
    if scenario == "low_mu_f":
        task = replace(task, task_exec_rate_per_s=0.002)
        mec = replace(mec, mec_task_rate_mu_f=0.002)
    elif scenario == "low_nu_w":
        deploy = replace(deploy, worker_intensity_per_m2=deploy.worker_intensity_per_m2 / 4)
    elif scenario == "low_nu_r":
        deploy = replace(deploy, requester_intensity_per_m2=deploy.requester_intensity_per_m2 / 4)
    elif scenario == "high_nu_r":
        deploy = replace(deploy, requester_intensity_per_m2=deploy.requester_intensity_per_m2 * 4)
    elif scenario != "base":
        raise ConfigError(f"unknown scenario {scenario!r}; choose from {BIAS_SCENARIOS}")
    return replace(config, deploy=deploy, task=task, mec=mec)


def _success(config: ScenarioConfig, densities) -> list:
    """Success probability of each density at the scenario threshold.

    One engine call, so the kernel is shared by every density; divide by
    the D2D slot for offloading rates.
    """
    table = success_table(config.radio, densities, [config.radio.sinr_threshold_db])
    return [row[0] for row in table]


def _require_nonzero_ranks(rates: np.ndarray) -> None:
    """Reject rank rates that underflow to zero, before any chain is built:
    a deep rank's success probability can round to 0 (from rank 386 at the
    table1 preset), and no chain allocates at a zero rate."""
    zero = np.flatnonzero(rates <= 0.0)
    if zero.size:
        raise UnservableError(f"the rank-{zero[0] + 1} success probability underflows "
                              f"to 0: at most n = {zero[0]} segments can be served")


def _delay_model(config: ScenarioConfig, variant: str, n: int, lam: float | None,
                 rates: np.ndarray | None):
    mu_f = config.task.task_exec_rate_per_s
    if variant == "random":
        return build_baseline(n, lam, mu_f)
    if variant == "ordered":
        return build_level_dependent(n, rates[:n].tolist(), mu_f)
    if variant == "ordered+failure":
        return build_failure_chain(n, rates[:n].tolist(), mu_f,
                                   config.reliability.reliability_l,
                                   config.reliability.spare_budget)
    raise ConfigError(f"unknown variant {variant!r}")


def cmd_coverage(config: ScenarioConfig, sim: SimConfig, args) -> int:
    xi_grid = _parse_grid(args.xi)
    selections = [_parse_selection(s) for s in (args.selection or ["random"])]
    if args.rl is not None:
        # the metadata hashes the scenario evaluated, override included
        config = replace(config, radio=replace(config.radio, los_radius_m=args.rl))
    radio = config.radio
    rows = []
    header = ["selection", "los_radius_m", "xi_db", "success_probability"]
    if args.simulate:
        header += ["simulated", "std_error", "resampled"]
    analytic = success_curves(radio, config.deploy, selections, xi_grid)
    if args.simulate and xi_grid:
        # selections that draw the same streams share one sampling pass
        sims = empirical_success_curves(
            sim, [(CoverageQuery(radio, config.deploy, selection), "worker")
                  for selection in selections], xi_grid)
    for s, selection in enumerate(selections):
        for i, xi in enumerate(xi_grid):
            row = [_selection_name(selection), radio.los_radius_m, xi, analytic[s, i]]
            if args.simulate:
                est = sims[s][i]
                row += [est.estimate, est.std_error, est.resampled_realizations]
            rows.append(row)
    meta = _base_metadata("coverage", config, sim)
    _write_csv(args.out, meta, header, rows)
    return 0


def cmd_delay(config: ScenarioConfig, sim: SimConfig, args) -> int:
    n_grid = sorted(set(_parse_int_grid(args.n)))
    if any(n < 1 for n in n_grid):
        raise ConfigError("segment counts must be >= 1")
    variants = args.variant or ["ordered"]
    lam = rates = None
    if n_grid:
        failing = "ordered+failure" in variants
        require_state_count(n_grid[-1], config.reliability.spare_budget if failing else None)
        # the random rate and the rank rates share the threshold: one call
        want_random = "random" in variants
        if want_random and config.deploy.mean_los_workers(config.radio.los_radius_m) == 0.0:
            # the random-selection rate is conditioned on a LoS worker existing
            raise UnservableError("no LoS workers (worker_intensity_per_m2 is 0): random "
                                  "selection has no worker to offload to")
        want_ranked = any(v != "random" for v in variants)
        densities = ([ServingDensity(config.deploy)] if want_random else []) + (
            [ServingDensity(config.deploy, range(1, max(n_grid) + 1))] if want_ranked else [])
        found = [p / config.task.d2d_slot_s for p in _success(config, densities)]
        lam = found[0] if want_random else None
        rates = found[-1] if want_ranked else None
        if want_ranked:
            _require_nonzero_ranks(rates)
    header = ["variant", "n", "mean_delay_s", "is_optimal"]
    if args.simulate:
        header += ["simulated_mean_s", "std_error_s", "completion_fraction"]
    models = [_delay_model(config, variant, n, lam, rates)
              for variant in variants for n in n_grid]
    delays = solve_chains(models)[0]
    if args.simulate:
        sims = empirical_delay(sim, models)
    rows = []
    for v, variant in enumerate(variants):
        block = delays[v * len(n_grid):(v + 1) * len(n_grid)]
        best = block.index(min(block)) if block else -1
        for i, n in enumerate(n_grid):
            row = [variant, n, block[i], i == best]
            if args.simulate:
                est = sims[v * len(n_grid) + i]
                row += [est.mean_delay_s, est.std_error_s, est.completion_fraction]
            rows.append(row)
    meta = _base_metadata("delay", config, sim)
    _write_csv(args.out, meta, header, rows)
    return 0


def cmd_completion(config: ScenarioConfig, sim: SimConfig, args) -> int:
    n_grid = sorted(set(_parse_int_grid(args.n)))
    l_values = _parse_grid(args.l)
    budget = config.reliability.spare_budget
    if budget is None:
        budget = 0  # completion is only informative with a finite budget
    header = ["reliability_l", "n", "spare_budget", "completion_probability"]
    if args.simulate:
        header += ["simulated_fraction", "std_error"]
    rows = []
    if n_grid:
        require_state_count(n_grid[-1], budget)
        ranked = ServingDensity(config.deploy, range(1, max(n_grid) + 1))
        rates = _success(config, [ranked])[0] / config.task.d2d_slot_s
        _require_nonzero_ranks(rates)
        cells = list(product(l_values, n_grid))
        models = [build_failure_chain(n, rates[:n].tolist(), config.task.task_exec_rate_per_s,
                                      l, spare_budget=budget) for l, n in cells]
        if args.simulate:
            sims = empirical_delay(sim, models)
        for i, ((l, n), analytic) in enumerate(zip(cells, solve_chains(models)[1])):
            row = [l, n, budget, analytic]
            if args.simulate:
                se = (analytic * (1.0 - analytic) / sim.replications) ** 0.5
                row += [sims[i].completion_fraction, se]
            rows.append(row)
    meta = _base_metadata("completion", config, sim)
    _write_csv(args.out, meta, header, rows)
    return 0


def cmd_contour(config: ScenarioConfig, args) -> int:
    nu_w_grid = _parse_grid(args.nu_w)
    mu_f_grid = _parse_grid(args.mu_f)
    rows = []
    require_state_count(args.n_max)
    # the kernel does not depend on the worker intensity: one call for the grid
    densities = [ServingDensity(replace(config.deploy, worker_intensity_per_m2=nu_w),
                                range(1, args.n_max + 1)) for nu_w in nu_w_grid]
    rate_vectors = [ps / config.task.d2d_slot_s for ps in _success(config, densities)]
    best = best_segmentation(rate_vectors, mu_f_grid,
                             [{"nu_w_per_m2": nu_w} for nu_w in nu_w_grid])
    for nu_w, per_mu_f in zip(nu_w_grid, best):
        for mu_f, (best_n, delays) in zip(mu_f_grid, per_mu_f):
            rows.append([nu_w, mu_f, best_n, delays[best_n - 1]])
    meta = _base_metadata("contour", config)
    _write_csv(args.out, meta, ["nu_w_per_m2", "mu_f_per_s", "optimal_n",
                                "mean_delay_s"], rows)
    return 0


def cmd_bias(config: ScenarioConfig, args) -> int:
    scenario = _scenario_overrides(config, args.scenario)
    points = bias_sweep(alpha_grid(args.alpha_step), scenario.radio, scenario.deploy,
                        scenario.task, scenario.mec, n_max=args.n_max)
    alpha_star = min(points, key=lambda p: p.tau_alpha_s).alpha
    meta = _base_metadata("bias", config)
    meta += [("scenario", args.scenario), ("alpha_star", alpha_star),
             ("eec_n_reoptimized_per_alpha", True)]
    rows = [[p.alpha, p.tau_eec_s, p.tau_mec_s, p.tau_alpha_s, p.eec_optimal_n,
             p.alpha == alpha_star] for p in points]
    _write_csv(args.out, meta, ["alpha", "tau_eec_s", "tau_mec_s", "tau_alpha_s",
                                "eec_optimal_n", "is_optimal"], rows)
    return 0


def _validate_rows(config: ScenarioConfig, sim: SimConfig):
    """All analytic-versus-simulation checks; returns (rows, all_pass)."""
    reps = sim.replications
    if reps < 2:
        # every 3-sigma row leans on a sample mean being near normal, which
        # the mean of one draw is not
        raise ConfigError(f"validate needs at least 2 replications, got {reps}")
    rows = []

    def add(check, analytic, simulated, std_error, tolerance, extra=""):
        gap = abs(simulated - analytic)
        ok = gap <= tolerance
        rows.append([check, analytic, simulated, std_error, gap, tolerance,
                     "pass" if ok else "fail", extra])
        return ok

    all_ok = True

    # every analytic success probability below, from one engine call
    n_values = (1, 2, 4, 6)
    p_random, p_nearest, p_levels = _success(config, [
        ServingDensity(config.deploy), ServingDensity(config.deploy, (1,)),
        ServingDensity(config.deploy, range(1, max(n_values) + 1))])

    # coverage, both selection rules, and the requester-anchored side of the
    # blockage-classification toggle, at the scenario threshold: all three
    # draw the same streams, so they share one sampling pass
    random_q, nearest_q = (CoverageQuery(config.radio, config.deploy, selection)
                           for selection in (RandomSelection(), RankedSelection(1)))
    worker_c, nearest_c, req_c = (ests[0] for ests in empirical_success_curves(
        sim, [(random_q, "worker"), (nearest_q, "worker"), (random_q, "requester")],
        [config.radio.sinr_threshold_db]))
    # the test standard error comes from the analytic probability (known-null
    # test), which stays positive even when a tiny sample is all successes
    for selection, analytic, est in ((random_q.selection, p_random, worker_c),
                                     (nearest_q.selection, float(p_nearest[0]), nearest_c)):
        null_se = math.sqrt(analytic * (1.0 - analytic) / reps)
        tol = 3.0 * null_se + 0.02
        all_ok &= add(f"coverage/{_selection_name(selection)}", analytic,
                      est.estimate, null_se, tol)

    # blockage-classification toggle: informational gap, always reported; the
    # worker-anchored side is the random-selection estimate above
    rows.append(["coverage/classification_toggle_gap", worker_c.estimate, req_c.estimate,
                 req_c.std_error, abs(worker_c.estimate - req_c.estimate), "", "info", ""])

    # every chain below, delays and completion, from one solve
    l = config.reliability.reliability_l
    mu_f = config.task.task_exec_rate_per_s
    lam = p_random / config.task.d2d_slot_s
    rates = p_levels / config.task.d2d_slot_s
    delay_cells = list(product(("random", "ordered", "ordered+failure"), n_values))
    completion_ns = (1, 2, 3)
    models = [_delay_model(config, variant, n, lam, rates) for variant, n in delay_cells]
    models += [build_failure_chain(n, rates[:n].tolist(), mu_f, l, spare_budget=0)
               for n in completion_ns]
    times, completions, variances = solve_chains(models, variances=True)
    sims = empirical_delay(sim, models)

    # known-null test: the standard error of the mean delay comes from the
    # chain's analytic variance, not from the sample
    for (variant, n), est, analytic, var in zip(delay_cells, sims, times, variances):
        se = math.sqrt(var / reps)
        all_ok &= add(f"delay/{variant}/n={n}", analytic, est.mean_delay_s, se, 3.0 * se)

    # completion probability against the no-spare closed form and simulation
    for n, est, analytic in zip(completion_ns, sims[len(delay_cells):],
                                completions[len(delay_cells):]):
        closed = (n * n * l / (n * n * l + 1.0)) ** n
        all_ok &= add(f"completion/closed_form/n={n}", closed, analytic, 0.0, 1e-12)
        se = (analytic * (1 - analytic) / reps) ** 0.5
        all_ok &= add(f"completion/simulated/n={n}", analytic,
                      est.completion_fraction, se, 3.0 * se + 1e-9)

    # worker idle probability against a direct stationary solve
    nu_r = config.deploy.requester_intensity_per_m2
    nu_w = config.deploy.worker_intensity_per_m2
    analytic = worker_idle_probability(mu_f, nu_r, nu_w)
    a, b = nu_r / nu_w, mu_f
    stationary = np.linalg.solve(np.array([[-a, b], [1.0, 1.0]]),
                                 np.array([0.0, 1.0]))[0]
    all_ok &= add("worker_idle/stationary_solve", stationary, analytic, 0.0, 1e-12)
    return rows, all_ok


def cmd_validate(config: ScenarioConfig, sim: SimConfig, args) -> int:
    rows, all_ok = _validate_rows(config, sim)
    meta = _base_metadata("validate", config, sim)
    meta += [("replications", sim.replications), ("result", "pass" if all_ok else "fail")]
    _write_csv(args.out, meta, ["check", "analytic", "simulated", "std_error",
                                "gap", "tolerance", "status", "note"], rows)
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eecsim",
        description="Edge-offloading model sweeps: coverage, delay, completion, "
                    "segmentation contours, bias optimization and validation.")
    parser.add_argument("--version", action="version", version=f"eecsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, samples=False):
        p.add_argument("--config", help="JSON scenario overrides")
        if samples:
            p.add_argument("--seed", type=int, default=None,
                           help="simulation seed (default: scenario sim.seed)")
            p.add_argument("--reps", type=int, default=None,
                           help="simulation replications (default: scenario sim.replications)")
        p.add_argument("--out", help="output CSV path (default: stdout)")

    p = sub.add_parser("coverage", help="offloading success probability vs SINR threshold")
    common(p, samples=True)
    p.add_argument("--xi", default="-20:15:1", help="threshold grid in dB")
    p.add_argument("--selection", action="append",
                   help="random or ranked:K (repeatable; default random)")
    p.add_argument("--rl", type=float, default=None, help="override LoS radius (m)")
    p.add_argument("--simulate", action="store_true", help="add Monte Carlo columns")

    p = sub.add_parser("delay", help="mean task response delay vs segment count")
    common(p, samples=True)
    p.add_argument("--n", default="1:12:1", help="segment-count grid")
    p.add_argument("--variant", action="append",
                   choices=["random", "ordered", "ordered+failure"],
                   help="chain variant (repeatable; default ordered)")
    p.add_argument("--simulate", action="store_true", help="add Monte Carlo columns")

    p = sub.add_parser("completion", help="task completion probability vs n and l")
    common(p, samples=True)
    p.add_argument("--n", default="1:18:1", help="segment-count grid")
    p.add_argument("--l", default="1,2,5", help="reliability parameter list")
    p.add_argument("--simulate", action="store_true", help="add Monte Carlo columns")

    p = sub.add_parser("contour", help="optimal segment count over (nu_w, mu_f)")
    common(p)
    p.add_argument("--nu-w", required=True, help="worker intensity grid (1/m^2)")
    p.add_argument("--mu-f", required=True, help="execution rate grid (1/s)")
    p.add_argument("--n-max", type=int, default=50, help="largest n searched")

    p = sub.add_parser("bias", help="edge/MEC bias sweep and optimum")
    common(p)
    p.add_argument("--alpha-step", type=float, default=0.1, help="bias grid step")
    p.add_argument("--scenario", default="base", choices=BIAS_SCENARIOS,
                   help="named perturbation of the scenario")
    p.add_argument("--n-max", type=int, default=50, help="largest n searched")

    p = sub.add_parser("validate", help="analytic-versus-simulation check suite")
    common(p, samples=True)
    return parser


# the commands that take --seed and --reps, and those that sample nothing
_SAMPLING = {
    "coverage": cmd_coverage,
    "delay": cmd_delay,
    "completion": cmd_completion,
    "validate": cmd_validate,
}
_ANALYTIC = {
    "contour": cmd_contour,
    "bias": cmd_bias,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command in _ANALYTIC:
            return _ANALYTIC[args.command](config, args)
        # checked here, so a bad flag fails whether or not the command samples
        flags = {"seed": args.seed, "replications": args.reps}
        sim = replace(config.sim, **{key: v for key, v in flags.items() if v is not None})
        return _SAMPLING[args.command](config, sim, args)
    except (ConfigError, ParameterError, QuadratureError, UnservableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
