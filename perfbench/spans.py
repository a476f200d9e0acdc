"""In-memory spans around the program's layers, and the per-layer metrics.

The program has no spans of its own yet, so the traced run wraps each
layer's public functions under the names that the calling modules
(``cli``, ``collab``, ``coverage``) look them up by, and restores them
afterwards.  Counts come from call arguments and public return values only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from contextlib import contextmanager


class Tracer:
    """Records spans (name, start, end, parent, counts) in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "start": self.clock(), "end": None,
                  "parent": self._open[-1] if self._open else None, "counts": {}}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = self.clock()
            self._open.pop()

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            for i, record in enumerate(self.spans):
                handle.write(json.dumps({"id": i, **record}) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread and nest, so children never overlap.
    """
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def chain_states(n: int, spare_budget) -> int:
    """State count of an n-segment chain: (f, c) pairs, times (u + 1) and
    a FAIL state when the spare budget is finite."""
    plain = (n + 1) * (n + 2) // 2
    return plain if spare_budget is None else plain * (spare_budget + 1) + 1


def _points(args, result):
    return {"points": len(result)}


def _built(args, result):
    return {"states": chain_states(args["n"], args.get("spare_budget"))}


def _solved(args, result):
    model = args["model"]
    return {"states": chain_states(model.n, model.spare_budget)}


def _sampled(args, result):
    return {"reps": args["cfg"].replications,
            "resampled": result[0].resampled_realizations if result else 0}


def _trajectories(args, result):
    return {"reps": args["cfg"].replications}


def _alphas(args, result):
    return {"alphas": len(args["alphas"])}


# (calling module, attribute, span name, counts from (arguments, result))
HOOKS = [
    ("eecsim.cli", "load_config", "config.load", None),
    ("eecsim.cli", "success_probability", "coverage.success_probability",
     lambda args, result: {"points": 1}),
    ("eecsim.cli", "ranked_success_probabilities",
     "coverage.ranked_success_probabilities", _points),
    ("eecsim.collab", "ranked_success_probabilities",
     "coverage.ranked_success_probabilities", _points),
    ("eecsim.coverage", "ranked_success_probabilities",
     "coverage.ranked_success_probabilities", _points),
    ("eecsim.cli", "build_baseline", "chain.build", _built),
    ("eecsim.cli", "build_level_dependent", "chain.build", _built),
    ("eecsim.cli", "build_failure_chain", "chain.build", _built),
    ("eecsim.collab", "build_level_dependent", "chain.build", _built),
    ("eecsim.cli", "mean_absorption_time", "chain.solve", _solved),
    ("eecsim.cli", "completion_probability", "chain.solve", _solved),
    ("eecsim.collab", "mean_absorption_time", "chain.solve", _solved),
    ("eecsim.cli", "empirical_success_curve", "montecarlo.coverage", _sampled),
    ("eecsim.cli", "empirical_delay", "montecarlo.trajectory", _trajectories),
    ("eecsim.cli", "bias_sweep", "collab.bias_sweep", _alphas),
]


def _wrap(tracer: Tracer, name: str, original, counter):
    signature = inspect.signature(original)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        with tracer.span(name) as record:
            result = original(*args, **kwargs)
        if counter is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            record["counts"] = counter(bound.arguments, result)
        return result

    return traced


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every hooked function for the duration of the block.

    A hook whose attribute the program no longer has is skipped, so its
    metrics read zero rather than the traced run failing.
    """
    saved = []
    try:
        for module_name, attr, name, counter in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, name, original, counter))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# name -> (unit, better); the traced run prints exactly these
PER_LAYER = {
    "config.load.calls": ("count", "lower"),
    "config.load.self_s": ("s", "lower"),
    "coverage.calls": ("count", "lower"),
    "coverage.points": ("count", "higher"),
    "coverage.self_s": ("s", "lower"),
    "coverage.ms_per_point": ("ms", "lower"),
    "coverage.success_probability.calls": ("count", "lower"),
    "coverage.ranked_success_probabilities.calls": ("count", "lower"),
    "chain.build.calls": ("count", "lower"),
    "chain.build.states": ("count", "lower"),
    "chain.build.max_states": ("count", "lower"),
    "chain.build.self_s": ("s", "lower"),
    "chain.build.us_per_state": ("us", "lower"),
    "chain.solve.calls": ("count", "lower"),
    "chain.solve.states": ("count", "lower"),
    "chain.solve.self_s": ("s", "lower"),
    "chain.solve.ms_per_call": ("ms", "lower"),
    "montecarlo.coverage.reps": ("count", "higher"),
    "montecarlo.coverage.resampled": ("count", "lower"),
    "montecarlo.coverage.self_s": ("s", "lower"),
    "montecarlo.coverage.us_per_rep": ("us", "lower"),
    "montecarlo.trajectory.reps": ("count", "higher"),
    "montecarlo.trajectory.self_s": ("s", "lower"),
    "montecarlo.trajectory.us_per_rep": ("us", "lower"),
    "collab.alphas": ("count", "higher"),
    "collab.self_s": ("s", "lower"),
    "collab.ms_per_alpha": ("ms", "lower"),
    "cli.commands": ("count", "higher"),
    "cli.self_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict], rounds: int, overhead_s: float) -> dict[str, float]:
    """Per-layer totals from ``rounds`` traced rounds, reported per round."""
    selfs = self_times(spans)

    def layer(span):
        return span["name"].split(".", 1)[0]

    def total(key, names):
        return sum(s["counts"].get(key, 0) for s in spans if s["name"] in names)

    def count(names):
        return sum(1 for s in spans if s["name"] in names)

    def busy(prefix):
        return sum(t for s, t in zip(spans, selfs) if s["name"].startswith(prefix))

    outer = [s for s in spans if layer(s) == "coverage"
             and (s["parent"] is None or layer(spans[s["parent"]]) != "coverage")]
    build_states = [s["counts"].get("states", 0) for s in spans if s["name"] == "chain.build"]
    sweep_time = sum(s["end"] - s["start"] for s in spans if s["name"] == "collab.bias_sweep")
    raw = {
        "config.load.calls": count({"config.load"}),
        "config.load.self_s": busy("config."),
        "coverage.calls": len(outer),
        "coverage.points": sum(s["counts"].get("points", 0) for s in outer),
        "coverage.self_s": busy("coverage."),
        "coverage.success_probability.calls": count({"coverage.success_probability"}),
        "coverage.ranked_success_probabilities.calls":
            count({"coverage.ranked_success_probabilities"}),
        "chain.build.calls": count({"chain.build"}),
        "chain.build.states": sum(build_states),
        "chain.build.self_s": busy("chain.build"),
        "chain.solve.calls": count({"chain.solve"}),
        "chain.solve.states": total("states", {"chain.solve"}),
        "chain.solve.self_s": busy("chain.solve"),
        "montecarlo.coverage.reps": total("reps", {"montecarlo.coverage"}),
        "montecarlo.coverage.resampled": total("resampled", {"montecarlo.coverage"}),
        "montecarlo.coverage.self_s": busy("montecarlo.coverage"),
        "montecarlo.trajectory.reps": total("reps", {"montecarlo.trajectory"}),
        "montecarlo.trajectory.self_s": busy("montecarlo.trajectory"),
        "collab.alphas": total("alphas", {"collab.bias_sweep"}),
        "collab.self_s": busy("collab."),
        "cli.commands": count({"cli.command"}),
        "cli.self_s": busy("cli."),
        "trace.spans": len(spans),
    }
    out = {name: value / rounds for name, value in raw.items()}
    out["chain.build.max_states"] = max(build_states, default=0)
    out["coverage.ms_per_point"] = 1e3 * _ratio(raw["coverage.self_s"], raw["coverage.points"])
    out["chain.build.us_per_state"] = 1e6 * _ratio(raw["chain.build.self_s"],
                                                   raw["chain.build.states"])
    out["chain.solve.ms_per_call"] = 1e3 * _ratio(raw["chain.solve.self_s"],
                                                  raw["chain.solve.calls"])
    out["montecarlo.coverage.us_per_rep"] = 1e6 * _ratio(
        raw["montecarlo.coverage.self_s"], raw["montecarlo.coverage.reps"])
    out["montecarlo.trajectory.us_per_rep"] = 1e6 * _ratio(
        raw["montecarlo.trajectory.self_s"], raw["montecarlo.trajectory.reps"])
    out["collab.ms_per_alpha"] = 1e3 * _ratio(sweep_time, raw["collab.alphas"])
    out["trace.overhead_s"] = overhead_s
    return {name: out[name] for name in PER_LAYER}
