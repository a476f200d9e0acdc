"""The four workloads: eecsim subcommand sequences and their expected outputs.

Each workload function turns a seed into inputs (argument lists and scenario files),
computes what the outputs must satisfy before anything is timed, and
returns a :class:`Plan`.  ``tiny`` shrinks every grid so the benchmark's
own tests can run each workload in seconds.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

from eecsim.config import resolve_config
from eecsim.coverage import (
    CoverageQuery,
    RandomSelection,
    RankedSelection,
    ranked_success_probabilities,
    success_probability,
)
from eecsim.params import DeploymentParams

import checks
import reference

HERE = os.path.dirname(os.path.abspath(__file__))
VARIANTS = ("random", "ordered", "ordered+failure")
SELECTIONS = ["random", "ranked:1", "ranked:2", "ranked:4"]
# validate's checks are 3-sigma tests, each with a small false-alarm rate
# per seed; these seeds pass at the replication counts used here, so that
# no run's failure share depends on which seed it was given
VALIDATE_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8, 2026)


@dataclass
class Operation:
    name: str
    argv: list[str]
    check: Callable[[checks.Table], list[str]]


@dataclass
class Plan:
    operations: list[Operation]
    configs: list[str | None]  # scenario files that set-up resolves; None = preset


def load_anchors() -> list[dict]:
    with open(os.path.join(HERE, "anchors.json"), encoding="utf-8") as handle:
        data = json.load(handle)
    return [{**a, "tolerance": data["tolerance"]} for a in data["coverage"]]


def _write_config(workdir: str, name: str, document: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return path


def _grid(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _ranked_rates(scenario, deploy, n_max: int) -> list[float]:
    """Rank-k offloading rates, k = 1..n_max, as the program derives them."""
    query = CoverageQuery(scenario.radio, deploy, RankedSelection(1))
    ps = ranked_success_probabilities(query, range(1, n_max + 1))
    return (ps / scenario.task.d2d_slot_s).tolist()


def _random_rate(scenario) -> float:
    query = CoverageQuery(scenario.radio, scenario.deploy, RandomSelection())
    return success_probability(query) / scenario.task.d2d_slot_s


def _unlimited_delays(rates: list[float], mu_f: float) -> list[float]:
    """Reference delays for n = 1..(usable rates) on the level-dependent chain."""
    usable = reference.usable_prefix(rates)
    return [reference.mean_delay_unlimited(n, rates[:n], mu_f) for n in range(1, usable + 1)]


def _variant_delays(scenario, ns, lam: float, rates: list[float]) -> dict:
    mu_f = scenario.task.task_exec_rate_per_s
    l = scenario.reliability.reliability_l
    out = {}
    for n in ns:
        out["random", n] = reference.mean_delay_unlimited(n, [lam] * n, mu_f)
        out["ordered", n] = reference.mean_delay_unlimited(n, rates[:n], mu_f)
        out["ordered+failure", n] = reference.mean_delay_unlimited(
            n, rates[:n], mu_f, mu_f / (l * n))
    return out


def _jittered(rng: random.Random) -> dict:
    """Scenario overrides that change outputs but not the amount of work."""
    return {
        "task": {"task_exec_rate_per_s": round(0.02 * rng.uniform(0.8, 1.25), 6)},
        "reliability": {"reliability_l": round(rng.uniform(2.0, 5.0), 4)},
        "mec": {"power_ratio": round(rng.uniform(4.0, 6.0), 4)},
    }


def coverage_curves(seed: int, workdir: str, tiny: bool = False) -> Plan:
    """Analytic coverage on a fine threshold grid, four selections, two radii."""
    rng = random.Random(seed)
    step = 5.0 if tiny else 1.0
    shift = round(rng.uniform(0.0, step), 3)
    xis = sorted({round(-20.0 + shift + step * i, 6) for i in range(int(35.0 / step))}
                 | {-10.0, 0.0, 5.0, 10.0})
    anchors = load_anchors()
    ops = []
    for rl in (100.0, 300.0):
        argv = ["coverage", "--xi=" + _grid(xis), "--rl", repr(rl)]
        for selection in SELECTIONS:
            argv += ["--selection", selection]
        ops.append(Operation(f"coverage_rl{int(rl)}", argv,
                             partial(checks.check_coverage, los_radius_m=rl, xis=xis,
                                     selections=SELECTIONS, anchors=anchors)))
    return Plan(ops, [None])


def segmentation(seed: int, workdir: str, tiny: bool = False) -> Plan:
    """Unlimited-spare chains: delay over n, a contour grid and a bias sweep."""
    rng = random.Random(seed)
    document = _jittered(rng)
    path = _write_config(workdir, "segmentation.json", document)
    scenario = resolve_config(document)
    n_max, contour_n_max, alpha_step = (6, 5, 1.0) if tiny else (50, 30, 0.5)
    mu_f = scenario.task.task_exec_rate_per_s
    nu_w0 = scenario.deploy.worker_intensity_per_m2

    rates = _ranked_rates(scenario, scenario.deploy, n_max)
    lam = _random_rate(scenario)
    ns = list(range(1, n_max + 1))
    delay_argv = ["delay", "--n", f"1:{n_max}:1", "--config", path]
    for variant in VARIANTS:
        delay_argv += ["--variant", variant]
    delay_check = partial(checks.check_delay,
                          expected=_variant_delays(scenario, ns, lam, rates), mu_f=mu_f,
                          first_rates={"random": lam, "ordered": rates[0]})

    nu_ws = [round(nu_w0 * rng.uniform(0.35, 0.5), 10), round(nu_w0 * rng.uniform(0.9, 1.1), 10)]
    mu_fs = [round(rng.uniform(0.008, 0.012), 6), round(rng.uniform(0.04, 0.06), 6)]
    contour = {}
    for nu_w in nu_ws:
        deploy = DeploymentParams(nu_w, scenario.deploy.requester_intensity_per_m2)
        level = _ranked_rates(scenario, deploy, contour_n_max)
        for mu in mu_fs:
            contour[nu_w, mu] = _unlimited_delays(level, mu)
    contour_argv = ["contour", "--nu-w", _grid(nu_ws), "--mu-f", _grid(mu_fs),
                    "--n-max", str(contour_n_max), "--config", path]

    steps = round(1.0 / alpha_step)
    eec = {}
    for i in range(steps + 1):
        alpha = i * alpha_step
        deploy = DeploymentParams(
            reference.idle_worker_intensity(alpha, scenario.deploy, mu_f),
            alpha * scenario.deploy.requester_intensity_per_m2)
        eec[alpha] = _unlimited_delays(_ranked_rates(scenario, deploy, n_max), mu_f)
    bias_argv = ["bias", "--alpha-step", repr(alpha_step), "--n-max", str(n_max),
                 "--config", path]
    return Plan([
        Operation("delay", delay_argv, delay_check),
        Operation("contour", contour_argv, partial(checks.check_contour, expected=contour)),
        Operation("bias", bias_argv, partial(checks.check_bias, scenario=scenario, eec=eec)),
    ], [path])


def reliability(seed: int, workdir: str, tiny: bool = False) -> Plan:
    """Finite spare budgets: completion over (n, l) and budgeted delays."""
    rng = random.Random(seed)
    document = _jittered(rng)
    ls = [round(rng.uniform(0.5, 1.5), 4), round(rng.uniform(2.0, 4.0), 4),
          round(rng.uniform(5.0, 10.0), 4)]
    n_max, budgets, delay_budget = (4, (0, 2), 2) if tiny else (22, (0, 2, 4), 2)
    ns = list(range(1, n_max + 1))
    ops, configs = [], []
    for budget in budgets:
        document["reliability"]["spare_budget"] = budget
        path = _write_config(workdir, f"budget{budget}.json", document)
        configs.append(path)
        ops.append(Operation(
            f"completion_b{budget}",
            ["completion", "--n", f"1:{n_max}:1", "--l", _grid(ls), "--config", path],
            partial(checks.check_completion, ns=ns, ls=ls, budget=budget)))
    document["reliability"]["spare_budget"] = delay_budget
    scenario = resolve_config(document)
    mu_f = scenario.task.task_exec_rate_per_s
    l = scenario.reliability.reliability_l
    rates = _ranked_rates(scenario, scenario.deploy, n_max)
    expected = {("ordered+failure", n): reference.budget_chain(
        n, rates[:n], mu_f, mu_f / (l * n), delay_budget)[0] for n in ns}
    path = os.path.join(workdir, f"budget{delay_budget}.json")
    ops.append(Operation(
        f"delay_b{delay_budget}",
        ["delay", "--variant", "ordered+failure", "--n", f"1:{n_max}:1", "--config", path],
        partial(checks.check_delay, expected=expected, mu_f=mu_f, first_rates={})))
    return Plan(ops, configs)


def validation(seed: int, workdir: str, tiny: bool = False) -> Plan:
    """The validate suite at a fixed replication count."""
    scenario = resolve_config(None)
    reps = 400 if tiny else 2500
    validate_seed = VALIDATE_SEEDS[seed % len(VALIDATE_SEEDS)]
    radio = scenario.radio
    anchors = {f"coverage/{a['selection']}": a["value"] for a in load_anchors()
               if a["los_radius_m"] == radio.los_radius_m
               and a["xi_db"] == radio.sinr_threshold_db}
    rates = _ranked_rates(scenario, scenario.deploy, 6)
    expected = _variant_delays(scenario, (1, 2, 4, 6), _random_rate(scenario), rates)
    delays = {f"delay/{variant}/n={n}": value for (variant, n), value in expected.items()}
    argv = ["validate", "--reps", str(reps), "--seed", str(validate_seed)]
    return Plan([Operation("validate", argv, partial(
        checks.check_validate, reps=reps, reliability_l=scenario.reliability.reliability_l,
        anchors=anchors, delays=delays))], [None])


WORKLOADS = {
    "coverage_curves": coverage_curves,
    "segmentation": segmentation,
    "reliability": reliability,
    "validation": validation,
}
