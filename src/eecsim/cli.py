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
from .montecarlo import SimConfig, empirical_delay, empirical_success_curve

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
        if step <= 0:
            raise ConfigError("grid step must be positive")
        count = int(round((stop - start) / step))
        values = [start + i * step for i in range(count + 1)]
        return [v for v in values if v <= stop + 1e-9]
    return [float(p) for p in text.split(",") if p.strip()]


def _parse_int_grid(text: str) -> list[int]:
    values = _parse_grid(text)
    out = []
    for v in values:
        if abs(v - round(v)) > 1e-9:
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


def _base_metadata(command: str, config: ScenarioConfig, seed: int) -> list[tuple[str, object]]:
    return [
        ("tool", f"eecsim {__version__}"),
        ("command", command),
        ("config_hash", config_hash(config)),
        ("seed", seed),
    ]


def _scenario_overrides(config: ScenarioConfig, scenario: str) -> ScenarioConfig:
    """Apply a named bias-study perturbation to the resolved scenario."""
    deploy, task, mec = config.deploy, config.task, config.mec
    if scenario == "base":
        pass
    elif scenario == "low_mu_f":
        task = replace(task, task_exec_rate_per_s=0.002)
        mec = replace(mec, mec_task_rate_mu_f=0.002)
    elif scenario == "low_nu_w":
        deploy = replace(deploy, worker_intensity_per_m2=deploy.worker_intensity_per_m2 / 4)
    elif scenario == "low_nu_r":
        deploy = replace(deploy, requester_intensity_per_m2=deploy.requester_intensity_per_m2 / 4)
    elif scenario == "high_nu_r":
        deploy = replace(deploy, requester_intensity_per_m2=deploy.requester_intensity_per_m2 * 4)
    else:
        raise ConfigError(f"unknown scenario {scenario!r}; choose from {BIAS_SCENARIOS}")
    return replace(config, deploy=deploy, task=task, mec=mec)


def _success(config: ScenarioConfig, densities) -> list:
    """Success probability of each density at the scenario threshold.

    One engine call, so the kernel is shared by every density; divide by
    the D2D slot for offloading rates.
    """
    table = success_table(config.radio, densities, [config.radio.sinr_threshold_db])
    return [row[0] for row in table]


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


def cmd_coverage(config: ScenarioConfig, args) -> int:
    xi_grid = _parse_grid(args.xi)
    selections = [_parse_selection(s) for s in (args.selection or ["random"])]
    radio = config.radio if args.rl is None else replace(config.radio, los_radius_m=args.rl)
    rows = []
    header = ["selection", "los_radius_m", "xi_db", "success_probability"]
    if args.simulate:
        header += ["simulated", "std_error", "resampled"]
    analytic = success_curves(radio, config.deploy, selections, xi_grid)
    for s, selection in enumerate(selections):
        sim = None
        if args.simulate and xi_grid:
            cfg = SimConfig(seed=args.seed, replications=args.reps,
                            arena_half_width_m=config.sim.arena_half_width_m)
            sim = empirical_success_curve(
                cfg, CoverageQuery(radio, config.deploy, selection), xi_grid)
        for i, xi in enumerate(xi_grid):
            row = [_selection_name(selection), radio.los_radius_m, xi, analytic[s, i]]
            if args.simulate:
                row += [sim[i].estimate, sim[i].std_error, sim[i].resampled_realizations]
            rows.append(row)
    meta = _base_metadata("coverage", config, args.seed)
    _write_csv(args.out, meta, header, rows)
    return 0


def cmd_delay(config: ScenarioConfig, args) -> int:
    n_grid = sorted(set(_parse_int_grid(args.n)))
    if any(n < 1 for n in n_grid):
        raise ConfigError("segment counts must be >= 1")
    variants = args.variant or ["ordered"]
    lam = rates = None
    if n_grid:
        # the random rate and the rank rates share the threshold: one call
        want_random = "random" in variants
        want_ranked = any(v != "random" for v in variants)
        densities = ([ServingDensity(config.deploy)] if want_random else []) + (
            [ServingDensity(config.deploy, range(1, max(n_grid) + 1))] if want_ranked else [])
        found = [p / config.task.d2d_slot_s for p in _success(config, densities)]
        lam = found[0] if want_random else None
        rates = found[-1] if want_ranked else None
    header = ["variant", "n", "mean_delay_s", "is_optimal"]
    if args.simulate:
        header += ["simulated_mean_s", "std_error_s", "completion_fraction"]
    models = [_delay_model(config, variant, n, lam, rates)
              for variant in variants for n in n_grid]
    delays = solve_chains(models)[0]
    rows = []
    for v, variant in enumerate(variants):
        block = delays[v * len(n_grid):(v + 1) * len(n_grid)]
        best = block.index(min(block)) if block else -1
        for i, n in enumerate(n_grid):
            row = [variant, n, block[i], i == best]
            if args.simulate:
                est = empirical_delay(SimConfig(seed=args.seed, replications=args.reps),
                                      models[v * len(n_grid) + i])
                row += [est.mean_delay_s, est.std_error_s, est.completion_fraction]
            rows.append(row)
    meta = _base_metadata("delay", config, args.seed)
    _write_csv(args.out, meta, header, rows)
    return 0


def cmd_completion(config: ScenarioConfig, args) -> int:
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
        ranked = ServingDensity(config.deploy, range(1, max(n_grid) + 1))
        rates = _success(config, [ranked])[0] / config.task.d2d_slot_s
        cells = list(product(l_values, n_grid))
        models = [build_failure_chain(n, rates[:n].tolist(), config.task.task_exec_rate_per_s,
                                      l, spare_budget=budget) for l, n in cells]
        for (l, n), model, analytic in zip(cells, models, solve_chains(models)[1]):
            row = [l, n, budget, analytic]
            if args.simulate:
                est = empirical_delay(SimConfig(seed=args.seed, replications=args.reps), model)
                se = (analytic * (1.0 - analytic) / args.reps) ** 0.5
                row += [est.completion_fraction, se]
            rows.append(row)
    meta = _base_metadata("completion", config, args.seed)
    _write_csv(args.out, meta, header, rows)
    return 0


def cmd_contour(config: ScenarioConfig, args) -> int:
    nu_w_grid = _parse_grid(args.nu_w)
    mu_f_grid = _parse_grid(args.mu_f)
    rows = []
    # the kernel does not depend on the worker intensity: one call for the grid
    densities = [ServingDensity(replace(config.deploy, worker_intensity_per_m2=nu_w),
                                range(1, args.n_max + 1)) for nu_w in nu_w_grid]
    rate_vectors = [ps / config.task.d2d_slot_s for ps in _success(config, densities)]
    best = best_segmentation(rate_vectors, mu_f_grid,
                             [{"nu_w_per_m2": nu_w} for nu_w in nu_w_grid])
    for nu_w, per_mu_f in zip(nu_w_grid, best):
        for mu_f, (best_n, delays) in zip(mu_f_grid, per_mu_f):
            rows.append([nu_w, mu_f, best_n, delays[best_n - 1]])
    meta = _base_metadata("contour", config, args.seed)
    _write_csv(args.out, meta, ["nu_w_per_m2", "mu_f_per_s", "optimal_n",
                                "mean_delay_s"], rows)
    return 0


def cmd_bias(config: ScenarioConfig, args) -> int:
    scenario = _scenario_overrides(config, args.scenario)
    points = bias_sweep(alpha_grid(args.alpha_step), scenario.radio, scenario.deploy,
                        scenario.task, scenario.mec, n_max=args.n_max)
    alpha_star = min(points, key=lambda p: p.tau_alpha_s).alpha
    meta = _base_metadata("bias", config, args.seed)
    meta += [("scenario", args.scenario), ("alpha_star", alpha_star),
             ("eec_n_reoptimized_per_alpha", True)]
    rows = [[p.alpha, p.tau_eec_s, p.tau_mec_s, p.tau_alpha_s, p.eec_optimal_n,
             p.alpha == alpha_star] for p in points]
    _write_csv(args.out, meta, ["alpha", "tau_eec_s", "tau_mec_s", "tau_alpha_s",
                                "eec_optimal_n", "is_optimal"], rows)
    return 0


# B_2k / (2k (2k - 1)), k = 1..5: the Stirling series of log Gamma, whose
# next term is below 1e-17 from x = 20 on
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0)


def _stirling_remainder(x: float) -> float:
    """log Gamma(x) - (x - 1/2) log x + x - log(2 pi) / 2, for x >= 20."""
    inv2 = 1.0 / (x * x)
    total = 0.0
    for c in reversed(_STIRLING):
        total = total * inv2 + c
    return total / x


def _t_tail_fraction(df: int, t2: float) -> float:
    """G in P(T > t) = t f(t) / (df G), for Student's T with density f.

    1 / G is the incomplete-beta continued fraction of
    P(T > t) = I_x(a, 1/2) / 2, a = df / 2, x = df / (df + t^2):
    G = 1 + d_1 / (1 + d_2 / (1 + ...)), evaluated as its odd part
    (1 + d_1) - d_1 d_2 / ((1 + d_2 + d_3) - d_3 d_4 / (...)) by Lentz's
    method.  Each 1 + d_{2m+1} is summed from positive terms, with 1 - x
    read as y = t^2 / (df + t^2): forming 1 - x would lose log10(df)
    digits as x -> 1.
    """
    a, b = 0.5 * df, 0.5
    x, y = df / (df + t2), t2 / (df + t2)

    def odd(m):  # d_{2m+1} and 1 + d_{2m+1}
        den = (a + 2 * m) * (a + 2 * m + 1)
        return (-(a + m) * (a + b + m) * x / den,
                (a * (2 * m + 1 - b) + m * (3 * m + 2 - b) + (a + m) * (a + b + m) * y) / den)

    d_prev, g = odd(0)
    c, d = g, 0.0
    for m in range(1, 200):
        d_even = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d_odd, one_plus_odd = odd(m)
        num, den = -d_prev * d_even, one_plus_odd + d_even
        d = 1.0 / (den + num * d)
        c = den + num / c
        g *= c * d
        if abs(c * d - 1.0) < 1e-15:
            return g
        d_prev = d_odd
    raise ArithmeticError(f"t tail fraction did not converge at df={df}")


def _t_upper_quantile(df: int, q: float) -> float:
    """The t with P(T > t) = q for Student's T on ``df`` degrees of freedom.

    Meant for small tails: at validate's q = 0.00135 (t >= 3) the fraction
    converges in under 25 steps, and larger q need more.  Newton's method
    runs on log P(T > t) as a function of s = log t, whose slope is -df G
    (see :func:`_t_tail_fraction`).  The tail is close to a power of t for
    small df and to a Gaussian for large df, and a start at t = 3
    converges in a few steps for both.
    """
    a = 0.5 * df
    if a < 20.0:
        # log(Gamma(a + 1/2) / (Gamma(a) sqrt(df pi))), the density's scale
        log_scale = math.lgamma(a + 0.5) - math.lgamma(a) - 0.5 * math.log(df * math.pi)
    else:
        # the same from Stirling's series: the two lgamma values would cancel
        # to 8 digits at df = 10^7
        log_scale = (a * math.log1p(0.5 / a) - 0.5 - 0.5 * math.log(2.0 * math.pi)
                     + _stirling_remainder(a + 0.5) - _stirling_remainder(a))
    s = math.log(3.0)
    for _ in range(50):
        t2 = math.exp(2.0 * s)
        g = _t_tail_fraction(df, t2)
        log_tail = s + log_scale - (a + 0.5) * math.log1p(t2 / df) - math.log(df * g)
        step = (log_tail - math.log(q)) / (df * g)
        s += step
        if abs(step) < 1e-12:
            return math.exp(s)
    raise ArithmeticError(f"t quantile did not converge at df={df}")


def _validate_rows(config: ScenarioConfig, seed: int, reps: int, chunk: int):
    """All analytic-versus-simulation checks; returns (rows, all_pass)."""
    rows = []

    def add(check, analytic, simulated, std_error, tolerance, extra=""):
        gap = abs(simulated - analytic)
        ok = gap <= tolerance
        rows.append([check, analytic, simulated, std_error, gap, tolerance,
                     "pass" if ok else "fail", extra])
        return ok

    all_ok = True
    sim_cfg = SimConfig(seed=seed, replications=reps,
                        arena_half_width_m=config.sim.arena_half_width_m)
    # small-sample mean checks need the 3-sigma-equivalent t quantile, since
    # the standard error is itself estimated from the replications
    t_factor = _t_upper_quantile(reps - 1, 0.00135) if reps > 1 else math.inf

    # every analytic success probability below, from one engine call
    n_values = (1, 2, 4, 6)
    p_random, p_nearest, p_levels = _success(config, [
        ServingDensity(config.deploy), ServingDensity(config.deploy, (1,)),
        ServingDensity(config.deploy, range(1, max(n_values) + 1))])

    # coverage, both selection rules, at the scenario threshold; the test
    # standard error comes from the analytic probability (known-null test),
    # which stays positive even when a tiny sample is all successes
    estimates = []
    for selection, analytic in ((RandomSelection(), p_random),
                                (RankedSelection(1), float(p_nearest[0]))):
        query = CoverageQuery(config.radio, config.deploy, selection)
        est = empirical_success_curve(sim_cfg, query, [config.radio.sinr_threshold_db],
                                      chunk_size=chunk)[0]
        estimates.append(est)
        null_se = math.sqrt(analytic * (1.0 - analytic) / reps)
        tol = 3.0 * null_se + 0.02
        all_ok &= add(f"coverage/{_selection_name(selection)}", analytic,
                      est.estimate, null_se, tol)

    # blockage-classification toggle: informational gap, always reported; the
    # worker-anchored side is the random-selection estimate above
    worker_c = estimates[0]
    query = CoverageQuery(config.radio, config.deploy, RandomSelection())
    req_c = empirical_success_curve(sim_cfg, query, [config.radio.sinr_threshold_db],
                                    los_classification="requester", chunk_size=chunk)[0]
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
    times, completions = solve_chains(models)

    for (variant, n), model, analytic in zip(delay_cells, models, times):
        est = empirical_delay(sim_cfg, model, chunk_size=chunk)
        all_ok &= add(f"delay/{variant}/n={n}", analytic, est.mean_delay_s,
                      est.std_error_s, t_factor * est.std_error_s)

    # completion probability against the no-spare closed form and simulation
    for n, model, analytic in zip(completion_ns, models[len(delay_cells):],
                                  completions[len(delay_cells):]):
        closed = (n * n * l / (n * n * l + 1.0)) ** n
        all_ok &= add(f"completion/closed_form/n={n}", closed, analytic, 0.0, 1e-12)
        est = empirical_delay(sim_cfg, model, chunk_size=chunk)
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


def cmd_validate(config: ScenarioConfig, args) -> int:
    rows, all_ok = _validate_rows(config, args.seed, args.reps, args.chunk)
    meta = _base_metadata("validate", config, args.seed)
    meta += [("replications", args.reps), ("result", "pass" if all_ok else "fail")]
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

    def common(p):
        p.add_argument("--config", help="JSON scenario overrides")
        p.add_argument("--preset", default="table1", help="base preset name")
        p.add_argument("--seed", type=int, default=None,
                       help="simulation seed (default: scenario sim.seed)")
        p.add_argument("--reps", type=int, default=None,
                       help="simulation replications (default: scenario sim.replications)")
        p.add_argument("--out", help="output CSV path (default: stdout)")

    p = sub.add_parser("coverage", help="offloading success probability vs SINR threshold")
    common(p)
    p.add_argument("--xi", default="-20:15:1", help="threshold grid in dB")
    p.add_argument("--selection", action="append",
                   help="random or ranked:K (repeatable; default random)")
    p.add_argument("--rl", type=float, default=None, help="override LoS radius (m)")
    p.add_argument("--simulate", action="store_true", help="add Monte Carlo columns")

    p = sub.add_parser("delay", help="mean task response delay vs segment count")
    common(p)
    p.add_argument("--n", default="1:12:1", help="segment-count grid")
    p.add_argument("--variant", action="append",
                   choices=["random", "ordered", "ordered+failure"],
                   help="chain variant (repeatable; default ordered)")
    p.add_argument("--simulate", action="store_true", help="add Monte Carlo columns")

    p = sub.add_parser("completion", help="task completion probability vs n and l")
    common(p)
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
    common(p)
    p.add_argument("--chunk", type=int, default=4096,
                   help="internal replication chunk width (results do not depend on it)")
    return parser


_COMMANDS = {
    "coverage": cmd_coverage,
    "delay": cmd_delay,
    "completion": cmd_completion,
    "contour": cmd_contour,
    "bias": cmd_bias,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, args.preset)
        if args.seed is None:
            args.seed = config.sim.seed
        if getattr(args, "reps", None) is None:
            args.reps = config.sim.replications
        return _COMMANDS[args.command](config, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParameterError, QuadratureError, UnservableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
