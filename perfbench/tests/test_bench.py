"""Tests of the benchmark itself: checkers, span arithmetic, tiny runs.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import copy
import json
import os

import pytest

import checks
import run
import spans
import workloads

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One untimed round of every workload at tiny size: plan and tables."""
    out = {}
    for name, build in workloads.WORKLOADS.items():
        workdir = str(tmp_path_factory.mktemp(name))
        plan = build(2, workdir, tiny=True)
        runner = run.Runner(plan, workdir)
        runner.round()
        assert (runner.attempted, runner.failed, runner.correct) == (len(plan.operations), 0, True)
        out[name] = {}
        for op in plan.operations:
            with open(os.path.join(workdir, op.name + ".csv"), encoding="utf-8") as handle:
                out[name][op.name] = (op, checks.read_table(handle.read()))
    return out


def _rejects(op, table, edit):
    """The op's checker passes the table as is and rejects it once edited."""
    assert op.check(table) == []
    perturbed = copy.deepcopy(table)
    edit(perturbed)
    assert op.check(perturbed), "perturbed output passed the check"


def _scale(row, column, factor):
    row[column] = repr(float(row[column]) * factor)


def test_coverage_rejects_rise_in_threshold(outputs):
    op, table = outputs["coverage_curves"]["coverage_rl100"]

    def edit(t):
        rows = [r for r in t.rows if r["selection"] == "random"]
        rows[-1]["success_probability"] = repr(float(rows[-2]["success_probability"]) + 1e-4)

    _rejects(op, table, edit)


def test_coverage_rejects_value_outside_unit_interval(outputs):
    op, table = outputs["coverage_curves"]["coverage_rl300"]
    _rejects(op, table, lambda t: t.rows[0].__setitem__("success_probability", "1.0000001"))


def test_coverage_rejects_rank_order_and_anchor(outputs):
    op, table = outputs["coverage_curves"]["coverage_rl100"]

    def swap_ranks(t):
        by = {(r["selection"], r["xi_db"]): r for r in t.rows}
        for (sel, xi), r in by.items():
            if sel == "ranked:4":
                r["success_probability"], by["ranked:2", xi]["success_probability"] = (
                    by["ranked:2", xi]["success_probability"], r["success_probability"])

    def miss_anchor(t):
        for r in t.rows:
            if r["selection"] == "ranked:1" and float(r["xi_db"]) == 5.0:
                r["success_probability"] = repr(float(r["success_probability"]) - 6e-3)

    _rejects(op, table, swap_ranks)
    _rejects(op, table, miss_anchor)


def test_delay_rejects_small_relative_error(outputs):
    op, table = outputs["segmentation"]["delay"]
    _rejects(op, table, lambda t: _scale(t.rows[4], "mean_delay_s", 1.0 + 1e-6))


def test_delay_rejects_missing_row_and_wrong_optimum(outputs):
    op, table = outputs["segmentation"]["delay"]
    _rejects(op, table, lambda t: t.rows.pop())
    _rejects(op, table, lambda t: t.rows[0].__setitem__(
        "is_optimal", "false" if t.rows[0]["is_optimal"] == "true" else "true"))


def test_contour_rejects_wrong_optimal_n(outputs):
    op, table = outputs["segmentation"]["contour"]
    _rejects(op, table, lambda t: t.rows[0].__setitem__(
        "optimal_n", str(int(t.rows[0]["optimal_n"]) % 5 + 1)))


def test_bias_rejects_broken_blend_and_alpha_star(outputs):
    op, table = outputs["segmentation"]["bias"]
    _rejects(op, table, lambda t: _scale(t.rows[-1], "tau_alpha_s", 1.0 + 1e-6))
    _rejects(op, table, lambda t: _scale(t.rows[0], "tau_mec_s", 1.0 + 1e-6))
    _rejects(op, table, lambda t: _scale(t.rows[-1], "tau_eec_s", 1.0 + 1e-6))
    _rejects(op, table, lambda t: t.meta.__setitem__("alpha_star", "0.5"))


def test_completion_rejects_error_above_1e12(outputs):
    op, table = outputs["reliability"]["completion_b2"]
    _rejects(op, table, lambda t: t.rows[3].__setitem__(
        "completion_probability", repr(float(t.rows[3]["completion_probability"]) - 1e-11)))


def test_budgeted_delay_rejects_small_relative_error(outputs):
    op, table = outputs["reliability"]["delay_b2"]
    _rejects(op, table, lambda t: _scale(t.rows[-1], "mean_delay_s", 1.0 - 1e-6))


def test_validate_rejects_failed_row_and_far_simulation(outputs):
    op, table = outputs["validation"]["validate"]

    def fail_row(t):
        t.rows[0]["status"] = "fail"

    def far_completion(t):
        for r in t.rows:
            if r["check"] == "completion/simulated/n=3":
                r["simulated"] = repr(float(r["simulated"]) - 0.2)

    def far_coverage(t):
        for r in t.rows:
            if r["check"] == "coverage/ranked:1":
                r["simulated"] = "0.5"

    _rejects(op, table, fail_row)
    _rejects(op, table, far_completion)
    _rejects(op, table, far_coverage)


def test_runner_counts_changed_bytes_and_failed_exit(tmp_path):
    plan = workloads.validation(0, str(tmp_path), tiny=True)
    runner = run.Runner(plan, str(tmp_path))
    runner.round()
    runner.first["validate"] += b"\r\n"
    runner.round()
    plan.operations[0].argv.append("--reps=0")  # rejected by the program: exit 2
    runner.round()
    assert (runner.attempted, runner.failed, runner.correct) == (3, 2, False)


def test_self_times_on_nested_trace():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 4.5, 5.5, 7.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    with tracer.span("cli.command"):            # 0 .. 10
        with tracer.span("collab.bias_sweep"):  # 1 .. 7
            with tracer.span("chain.build"):    # 2 .. 4
                pass
            with tracer.span("chain.solve"):    # 4.5 .. 5.5
                pass
    assert [s["parent"] for s in tracer.spans] == [None, 0, 1, 1]
    assert spans.self_times(tracer.spans) == [4.0, 3.0, 2.0, 1.0]


def test_layer_metrics_per_round():
    ticks = iter(float(t) for t in range(12))
    tracer = spans.Tracer(clock=lambda: next(ticks))
    for _ in range(2):
        with tracer.span("cli.command"):
            with tracer.span("coverage.success_probability") as outer:
                outer["counts"] = {"points": 1}
                with tracer.span("coverage.ranked_success_probabilities") as inner:
                    inner["counts"] = {"points": 3}
    metrics = spans.layer_metrics(tracer.spans, rounds=2, overhead_s=0.25)
    assert set(metrics) == set(spans.PER_LAYER)
    assert metrics["coverage.calls"] == 1
    assert metrics["coverage.points"] == 1  # nested call is not counted twice
    assert metrics["coverage.ranked_success_probabilities.calls"] == 1
    assert metrics["coverage.self_s"] == 3.0
    assert metrics["cli.self_s"] == 2.0
    assert metrics["coverage.ms_per_point"] == 3000.0
    assert metrics["trace.spans"] == 3
    assert metrics["trace.overhead_s"] == 0.25


def test_instrument_records_layers_and_restores(tmp_path):
    import eecsim.cli

    original = eecsim.cli.mean_absorption_time
    plan = workloads.reliability(1, str(tmp_path), tiny=True)
    runner = run.Runner(plan, str(tmp_path))
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        runner.round(tracer)
    assert eecsim.cli.mean_absorption_time is original
    metrics = spans.layer_metrics(tracer.spans, 1, 0.0)
    assert metrics["cli.commands"] == len(plan.operations)
    assert metrics["config.load.calls"] == len(plan.operations)
    # completion for n = 1..4 at budgets 0 and 2, then the budget-2 delay
    assert metrics["chain.build.calls"] == 3 * 4 * 2 + 4
    assert metrics["chain.build.max_states"] == spans.chain_states(4, 2)
    assert runner.failed == 0


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "validation", "--seed", "1", "--seconds", "1"]) == 2


def test_benchmark_json_matches_printed_metrics():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) \
        == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == spans.PER_LAYER
