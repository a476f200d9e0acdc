"""Checks of the program's CSV outputs against independently computed values.

Each checker takes a parsed :class:`Table` and the expectations the
workload computed before timing, and returns a list of problems; an empty
list means the output passed.  No checker compares against a stored copy
of an earlier output.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import reference

# the program's quadrature stops once refinements agree to 1e-8 relative
QUADRATURE_SLACK = 1e-8
# two exact solves of the same chain by different algorithms
SOLVE_RTOL = 1e-9
# arithmetic identities evaluated by the program and here in another order
IDENTITY_RTOL = 1e-12
COMPLETION_ATOL = 1e-12


@dataclass
class Table:
    meta: dict[str, str]
    header: list[str]
    rows: list[dict[str, str]]


def read_table(text: str) -> Table:
    """Split an eecsim CSV into its ``# key: value`` lines, header and rows."""
    lines = text.splitlines()
    meta = {}
    while lines and lines[0].startswith("# "):
        key, _, value = lines.pop(0)[2:].partition(": ")
        meta[key] = value
    records = list(csv.reader(io.StringIO("\n".join(lines))))
    if not records:
        return Table(meta, [], [])
    header = records[0]
    return Table(meta, header, [dict(zip(header, r)) for r in records[1:]])


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want)


def _header(table: Table, expected: list[str]) -> list[str]:
    if table.header != expected:
        return [f"header {table.header} != {expected}"]
    return []


def _keys(table: Table, key, expected: set) -> list[str]:
    seen = [key(r) for r in table.rows]
    if len(seen) != len(set(seen)) or set(seen) != expected:
        missing = sorted(expected - set(seen), key=repr)[:3]
        extra = sorted(set(seen) - expected, key=repr)[:3]
        return [f"rows do not cover the requested grid once each "
                f"(missing {missing}, unexpected {extra}, {len(seen)} rows)"]
    return []


def check_coverage(table: Table, los_radius_m: float, xis: list[float],
                   selections: list[str], anchors: list[dict]) -> list[str]:
    """Range, monotonicity in the threshold, rank order and paper anchors."""
    problems = _header(table, ["selection", "los_radius_m", "xi_db", "success_probability"])
    if problems:
        return problems
    problems = _keys(table, lambda r: (r["selection"], float(r["xi_db"])),
                     {(s, x) for s in selections for x in xis})
    if problems:
        return problems
    value = {(r["selection"], float(r["xi_db"])): float(r["success_probability"])
             for r in table.rows}
    for r in table.rows:
        if float(r["los_radius_m"]) != los_radius_m:
            problems.append(f"los_radius_m {r['los_radius_m']} != {los_radius_m}")
            break
    for key, v in value.items():
        if not 0.0 <= v <= 1.0:
            problems.append(f"{key}: {v} outside [0, 1]")
    grid = sorted(xis)
    for s in selections:
        for lo, hi in zip(grid, grid[1:]):
            if value[s, hi] > value[s, lo] + QUADRATURE_SLACK:
                problems.append(f"{s}: rises from {value[s, lo]} at {lo} dB "
                                f"to {value[s, hi]} at {hi} dB")
    order = [s for s in ("ranked:1", "ranked:2", "ranked:4") if s in selections]
    pairs = list(zip(order, order[1:]))
    if "random" in selections and "ranked:1" in selections:
        pairs.append(("ranked:1", "random"))
    for better, worse in pairs:
        for x in grid:
            if value[better, x] < value[worse, x] - QUADRATURE_SLACK:
                problems.append(f"{better} {value[better, x]} < {worse} "
                                f"{value[worse, x]} at {x} dB")
    for anchor in anchors:
        key = (anchor["selection"], anchor["xi_db"])
        if anchor["los_radius_m"] != los_radius_m or key not in value:
            continue
        if abs(value[key] - anchor["value"]) > anchor["tolerance"]:
            problems.append(f"anchor {key} at R_L={los_radius_m}: {value[key]} vs "
                            f"{anchor['value']} +- {anchor['tolerance']}")
    return problems


def check_delay(table: Table, expected: dict[tuple[str, int], float], mu_f: float,
                first_rates: dict[str, float]) -> list[str]:
    """Mean delays against the reference solve, plus their structure.

    ``expected`` maps (variant, n) to the reference delay; ``first_rates``
    gives the first allocation rate of each variant whose n = 1 delay is
    the closed form 1 / lambda_1 + 1 / mu_f.
    """
    problems = _header(table, ["variant", "n", "mean_delay_s", "is_optimal"])
    if problems:
        return problems
    problems = _keys(table, lambda r: (r["variant"], int(r["n"])), set(expected))
    if problems:
        return problems
    got = {(r["variant"], int(r["n"])): float(r["mean_delay_s"]) for r in table.rows}
    for key, want in expected.items():
        if not _close(got[key], want, SOLVE_RTOL):
            problems.append(f"{key}: delay {got[key]} vs reference {want}")
    for variant, rate in first_rates.items():
        if (variant, 1) in got and not _close(got[variant, 1], 1.0 / rate + 1.0 / mu_f,
                                              SOLVE_RTOL):
            problems.append(f"{variant} n=1: {got[variant, 1]} != 1/lambda_1 + 1/mu_f")
    ns = sorted({n for _, n in expected})
    for n in ns:
        if ("ordered", n) in got and ("random", n) in got \
                and got["ordered", n] > got["random", n]:
            problems.append(f"n={n}: ordered {got['ordered', n]} > random {got['random', n]}")
        if ("ordered", n) in got and ("ordered+failure", n) in got \
                and got["ordered+failure", n] < got["ordered", n]:
            problems.append(f"n={n}: ordered+failure {got['ordered+failure', n]} "
                            f"< ordered {got['ordered', n]}")
    for variant in {v for v, _ in expected}:
        rows = [r for r in table.rows if r["variant"] == variant]
        best = min(rows, key=lambda r: (float(r["mean_delay_s"]), int(r["n"])))
        flagged = [r["n"] for r in rows if r["is_optimal"] == "true"]
        if flagged != [best["n"]]:
            problems.append(f"{variant}: is_optimal on n={flagged}, minimum at n={best['n']}")
    return problems


def check_completion(table: Table, ns: list[int], ls: list[float],
                     budget: int) -> list[str]:
    """Completion probabilities against the negative-binomial closed form."""
    problems = _header(table, ["reliability_l", "n", "spare_budget",
                               "completion_probability"])
    if problems:
        return problems
    problems = _keys(table, lambda r: (float(r["reliability_l"]), int(r["n"])),
                     {(l, n) for l in ls for n in ns})
    if problems:
        return problems
    for r in table.rows:
        l, n = float(r["reliability_l"]), int(r["n"])
        if int(r["spare_budget"]) != budget:
            problems.append(f"(l={l}, n={n}): spare_budget {r['spare_budget']} != {budget}")
        got = float(r["completion_probability"])
        want = reference.completion_closed_form(n, l, budget)
        if abs(got - want) > COMPLETION_ATOL:
            problems.append(f"(l={l}, n={n}, b={budget}): {got} vs closed form {want}")
    return problems


def _argmin_ok(n: int, delays: list[float]) -> bool:
    return 1 <= n <= len(delays) and delays[n - 1] <= min(delays) * (1.0 + SOLVE_RTOL)


def check_contour(table: Table, expected: dict[tuple[float, float], list[float]]) -> list[str]:
    """Optimal n is the argmin of the reference delays over n = 1..usable."""
    problems = _header(table, ["nu_w_per_m2", "mu_f_per_s", "optimal_n", "mean_delay_s"])
    if problems:
        return problems
    problems = _keys(table, lambda r: (float(r["nu_w_per_m2"]), float(r["mu_f_per_s"])),
                     set(expected))
    if problems:
        return problems
    for r in table.rows:
        key = (float(r["nu_w_per_m2"]), float(r["mu_f_per_s"]))
        delays = expected[key]
        n = int(r["optimal_n"])
        if not _argmin_ok(n, delays):
            problems.append(f"{key}: optimal_n {n} is not the reference argmin "
                            f"{delays.index(min(delays)) + 1}")
        if not _close(float(r["mean_delay_s"]), min(delays), SOLVE_RTOL):
            problems.append(f"{key}: delay {r['mean_delay_s']} vs reference {min(delays)}")
    return problems


def check_bias(table: Table, scenario, eec: dict[float, list[float]]) -> list[str]:
    """Blend identity, MEC closed form, edge optimum and alpha_star.

    ``eec`` maps each alpha to the reference edge delays over n = 1..usable
    at that alpha's congested rates.
    """
    problems = _header(table, ["alpha", "tau_eec_s", "tau_mec_s", "tau_alpha_s",
                               "eec_optimal_n", "is_optimal"])
    if problems:
        return problems
    problems = _keys(table, lambda r: float(r["alpha"]), set(eec))
    if problems:
        return problems
    taus = []
    for r in table.rows:
        alpha = float(r["alpha"])
        t_eec, t_mec, t_alpha = (float(r[k]) for k in ("tau_eec_s", "tau_mec_s", "tau_alpha_s"))
        mec = reference.mec_delay(alpha, scenario)
        if not _close(t_mec, mec, IDENTITY_RTOL):
            problems.append(f"alpha={alpha}: tau_mec {t_mec} vs closed form {mec}")
        blend = alpha * t_eec + (1.0 - alpha) * t_mec
        if not _close(t_alpha, blend, IDENTITY_RTOL):
            problems.append(f"alpha={alpha}: tau_alpha {t_alpha} != blend {blend}")
        delays = eec[alpha]
        if not _close(t_eec, min(delays), SOLVE_RTOL):
            problems.append(f"alpha={alpha}: tau_eec {t_eec} vs reference {min(delays)}")
        if not _argmin_ok(int(r["eec_optimal_n"]), delays):
            problems.append(f"alpha={alpha}: eec_optimal_n {r['eec_optimal_n']} is not "
                            f"the reference argmin")
        taus.append((t_alpha, alpha))
    star = min(taus)[1]
    if float(table.meta.get("alpha_star", "nan")) != star:
        problems.append(f"alpha_star {table.meta.get('alpha_star')} != smallest minimizer {star}")
    flagged = [float(r["alpha"]) for r in table.rows if r["is_optimal"] == "true"]
    if flagged != [star]:
        problems.append(f"is_optimal on {flagged}, expected [{star}]")
    return problems


def check_validate(table: Table, reps: int, reliability_l: float,
                   anchors: dict[str, float], delays: dict[str, float]) -> list[str]:
    """Every check passes; simulation agrees with closed forms and anchors.

    ``anchors`` maps each coverage check name to the paper's value at the
    preset threshold; ``delays`` maps each delay check name to the
    reference mean delay.
    """
    problems = _header(table, ["check", "analytic", "simulated", "std_error", "gap",
                               "tolerance", "status", "note"])
    if problems:
        return problems
    if table.meta.get("result") != "pass":
        problems.append(f"result {table.meta.get('result')!r} != 'pass'")
    if int(table.meta.get("replications", -1)) != reps:
        problems.append(f"replications {table.meta.get('replications')} != {reps}")
    rows = {r["check"]: r for r in table.rows}
    for r in table.rows:
        if r["status"] not in ("pass", "info"):
            problems.append(f"{r['check']}: status {r['status']}")
    completion = [name for name in rows if name.startswith("completion/simulated/n=")]
    needed = list(anchors) + list(delays)
    missing = [name for name in needed if name not in rows]
    if missing or not completion:
        return problems + [f"missing checks {missing or ['completion/simulated']}"]
    for name in completion:
        n = int(name.rsplit("=", 1)[1])
        p = reference.completion_closed_form(n, reliability_l, 0)
        sigma = math.sqrt(p * (1.0 - p) / reps)
        got = float(rows[name]["simulated"])
        if abs(got - p) > 3.0 * sigma:
            problems.append(f"{name}: simulated {got} not within 3 sigma of {p}")
    for name, anchor in anchors.items():
        sigma = math.sqrt(anchor * (1.0 - anchor) / reps)
        got = float(rows[name]["simulated"])
        if abs(got - anchor) > 3.0 * sigma + 0.02:
            problems.append(f"{name}: simulated {got} not within 3 sigma + 0.02 "
                            f"of anchor {anchor}")
    for name, want in delays.items():
        got = float(rows[name]["analytic"])
        if not _close(got, want, SOLVE_RTOL):
            problems.append(f"{name}: analytic {got} vs reference {want}")
    return problems
