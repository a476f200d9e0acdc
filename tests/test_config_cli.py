import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from eecsim import chain, cli, collab, coverage, montecarlo
from eecsim.chain import worker_idle_probability
from eecsim.cli import main
from eecsim.config import _SECTIONS, config_hash, load_config, preset, resolve_config
from eecsim.errors import ConfigError


def read_csv(path):
    """Split an output file into metadata comments, header and rows."""
    with open(path, newline="") as handle:
        lines = handle.read().splitlines()
    meta = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    rows = list(csv.reader(body))
    return meta, rows[0], rows[1:]


class TestConfig:
    def test_preset_values(self):
        cfg = preset()
        assert cfg.radio.los_radius_m == 100.0
        assert cfg.radio.sinr_threshold_db == 5.0
        assert cfg.deploy.worker_intensity_per_m2 == 7e-4
        assert cfg.task.task_exec_rate_per_s == 0.02
        assert cfg.reliability.reliability_l == 3.0
        assert cfg.radio.beamwidth_rad == pytest.approx(math.radians(45.0))

    def test_unknown_preset(self):
        # there is one preset, so a document cannot name one
        with pytest.raises(ConfigError, match="unknown configuration section"):
            resolve_config({"preset": "table1"})

    def test_override_section(self):
        cfg = resolve_config({"deploy": {"worker_intensity_per_m2": 1e-3}})
        assert cfg.deploy.worker_intensity_per_m2 == 1e-3
        assert cfg.deploy.requester_intensity_per_m2 == 1e-4  # untouched

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown configuration section"):
            resolve_config({"radios": {}})

    def test_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown key"):
            resolve_config({"radio": {"los_radius": 50.0}})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"task": {"d2d_slot_s": 2.0}}), encoding="utf-8")
        cfg = load_config(str(path))
        assert cfg.task.d2d_slot_s == 2.0

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_hash_stability(self):
        assert config_hash(preset()) == config_hash(preset())
        changed = resolve_config({"task": {"d2d_slot_s": 2.0}})
        assert config_hash(changed) != config_hash(preset())

    @pytest.mark.parametrize("section,field", [
        (section, f.name) for section, cls in _SECTIONS.items()
        for f in dataclasses.fields(cls) if f.type == "float"])
    def test_integer_spelled_float_is_the_float(self, section, field):
        # JSON may write 300.0 as 300: the same scenario, hash and CSV cell;
        # the preset's value rounded up is valid for every float field
        value = math.ceil(getattr(getattr(preset(), section), field))
        as_int = resolve_config({section: {field: value}})
        as_float = resolve_config({section: {field: float(value)}})
        assert as_int == as_float
        assert type(getattr(getattr(as_int, section), field)) is float
        assert config_hash(as_int) == config_hash(as_float)

    def test_integer_spelled_preset_hashes_as_the_preset(self):
        assert config_hash(resolve_config({"task": {"d2d_slot_s": 1}})) == config_hash(preset())

    @pytest.mark.parametrize("section,field", [
        (section, f.name) for section, cls in _SECTIONS.items() for f in dataclasses.fields(cls)])
    def test_boolean_in_numeric_field_is_refused(self, section, field):
        # a JSON true is an int to Python, and would pass as 1 or 1.0
        with pytest.raises(ConfigError, match=f"^{section}: {field} must be a number, got true$"):
            resolve_config({section: {field: True}})


class TestCoverageCommand:
    def test_empty_grid_header_only(self, tmp_path):
        out = tmp_path / "cov.csv"
        assert main(["coverage", "--xi", "", "--out", str(out)]) == 0
        meta, header, rows = read_csv(out)
        assert header[0] == "selection"
        assert rows == []
        assert any("command: coverage" in line for line in meta)

    @pytest.mark.parametrize("argv", [["coverage", "--xi", ""],
                                      ["contour", "--nu-w", "", "--mu-f", "0.02"]])
    def test_empty_grid_needs_no_convergent_radio(self, tmp_path, argv):
        # nothing to integrate, so a divergent NLoS exponent is no error
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"radio": {"pathloss_exp_nlos": 2.0}}))
        out = tmp_path / "out.csv"
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert rows == []

    def test_default_grid_row_count(self, tmp_path):
        out = tmp_path / "cov.csv"
        assert main(["coverage", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 36  # -20..15 dB inclusive

    def test_ranked_reference_value(self, tmp_path):
        out = tmp_path / "cov.csv"
        assert main(["coverage", "--xi", "10", "--selection", "ranked:1",
                     "--rl", "300", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        value = float(rows[0][header.index("success_probability")])
        assert value == pytest.approx(0.8595, abs=5e-3)

    @pytest.mark.parametrize("radius", [300, 300.0])
    def test_rl_flag_records_the_scenario_it_evaluates(self, tmp_path, radius):
        # --rl and a config override are two spellings of one query, so the
        # whole file, config_hash included, must agree
        cfg = tmp_path / "rl.json"
        cfg.write_text(json.dumps({"radio": {"los_radius_m": radius}}))
        by_flag, by_config = tmp_path / "flag.csv", tmp_path / "config.csv"
        assert main(["coverage", "--xi", "0", "--rl", "300", "--out", str(by_flag)]) == 0
        assert main(["coverage", "--xi", "0", "--config", str(cfg), "--out", str(by_config)]) == 0
        assert by_flag.read_bytes() == by_config.read_bytes()
        assert f"config_hash: {config_hash(preset())}" not in by_flag.read_text()

    def test_atomic_overwrite(self, tmp_path):
        out = tmp_path / "cov.csv"
        main(["coverage", "--xi", "0,5", "--out", str(out)])
        _, _, first = read_csv(out)
        main(["coverage", "--xi", "0,5", "--out", str(out)])
        _, _, second = read_csv(out)
        assert first == second  # rerun overwrites, never appends

    def test_simulate_columns(self, tmp_path):
        out = tmp_path / "cov.csv"
        assert main(["coverage", "--xi", "5", "--simulate", "--reps", "400",
                     "--seed", "3", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert "simulated" in header and "std_error" in header
        sim = float(rows[0][header.index("simulated")])
        ana = float(rows[0][header.index("success_probability")])
        assert abs(sim - ana) < 0.1


    def test_selection_rows_do_not_depend_on_the_batch(self, tmp_path):
        alone, batch = tmp_path / "alone.csv", tmp_path / "batch.csv"
        grid = "--xi=-20:15:2.5"
        assert main(["coverage", grid, "--selection", "ranked:2", "--out", str(alone)]) == 0
        assert main(["coverage", grid, "--selection", "random", "--selection", "ranked:1",
                     "--selection", "ranked:2", "--selection", "ranked:4",
                     "--out", str(batch)]) == 0
        alone_rows = [line for line in alone.read_text().splitlines()
                      if line.startswith("ranked:2,")]
        batch_rows = [line for line in batch.read_text().splitlines()
                      if line.startswith("ranked:2,")]
        assert len(alone_rows) == 15
        assert alone_rows == batch_rows


class TestDelayCommand:
    def test_ordered_beats_random(self, tmp_path):
        out = tmp_path / "delay.csv"
        assert main(["delay", "--n", "1:8:1", "--variant", "random",
                     "--variant", "ordered", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        col_n = header.index("n")
        col_d = header.index("mean_delay_s")
        random_d = {int(r[col_n]): float(r[col_d]) for r in rows if r[0] == "random"}
        ordered_d = {int(r[col_n]): float(r[col_d]) for r in rows if r[0] == "ordered"}
        assert set(random_d) == set(ordered_d) == set(range(1, 9))
        for n in random_d:
            assert ordered_d[n] <= random_d[n]

    def test_failure_variant_never_faster(self, tmp_path):
        out = tmp_path / "delay.csv"
        assert main(["delay", "--n", "1:6:1", "--variant", "ordered",
                     "--variant", "ordered+failure", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        col_n, col_d = header.index("n"), header.index("mean_delay_s")
        plain = {int(r[col_n]): float(r[col_d]) for r in rows if r[0] == "ordered"}
        failing = {int(r[col_n]): float(r[col_d]) for r in rows if r[0] == "ordered+failure"}
        for n in plain:
            assert failing[n] >= plain[n]

    def test_single_optimum_flagged(self, tmp_path):
        out = tmp_path / "delay.csv"
        main(["delay", "--n", "1:8:1", "--variant", "ordered", "--out", str(out)])
        _, header, rows = read_csv(out)
        flags = [r[header.index("is_optimal")] for r in rows]
        assert flags.count("true") == 1


class TestCompletionCommand:
    def test_matches_closed_form(self, tmp_path):
        out = tmp_path / "comp.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"reliability": {"spare_budget": 0}}))
        assert main(["completion", "--n", "1,2,3", "--l", "1",
                     "--config", str(cfg), "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        col_n = header.index("n")
        col_p = header.index("completion_probability")
        want = {1: 0.5, 2: 0.64, 3: 0.729}
        for row in rows:
            n = int(row[col_n])
            assert float(row[col_p]) == pytest.approx(want[n], abs=1e-12)

    def test_huge_spare_budget_is_a_typed_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"reliability": {"spare_budget": 10 ** 9}}))
        assert main(["completion", "--config", str(cfg),
                     "--out", str(tmp_path / "comp.csv")]) == 2
        assert "spare_budget" in capsys.readouterr().err


class TestContourCommand:
    def test_single_cell(self, tmp_path):
        out = tmp_path / "contour.csv"
        assert main(["contour", "--nu-w", "7e-4", "--mu-f", "0.05",
                     "--n-max", "12", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert len(rows) == 1
        assert int(rows[0][header.index("optimal_n")]) >= 1

    def test_optimal_n_monotone_in_worker_intensity(self, tmp_path):
        out = tmp_path / "contour.csv"
        assert main(["contour", "--nu-w", "5e-5,7e-4", "--mu-f", "0.02",
                     "--n-max", "15", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        col = header.index("optimal_n")
        sparse, dense = int(rows[0][col]), int(rows[1][col])
        assert dense >= sparse

    def test_optimal_n_shrinks_at_high_execution_rate(self, tmp_path):
        out = tmp_path / "contour.csv"
        assert main(["contour", "--nu-w", "7e-4", "--mu-f", "0.005,0.1",
                     "--n-max", "30", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        col = header.index("optimal_n")
        slow, fast = int(rows[0][col]), int(rows[1][col])
        assert fast < slow


    def test_no_servable_worker_is_a_typed_error(self, capsys):
        # no workers at all: every rank rate is zero
        assert main(["contour", "--nu-w", "0", "--mu-f", "0.02"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_no_servable_worker_without_failure_rates(self):
        # the usable-count check runs per nu_w, before any mu_f value
        assert main(["contour", "--nu-w", "0", "--mu-f", ""]) == 2


class TestBiasCommand:
    @pytest.mark.parametrize("step", ["0", "-0.1", "1.5"])
    def test_bad_alpha_step_is_a_typed_error(self, step, capsys):
        assert main(["bias", f"--alpha-step={step}", "--n-max", "4"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_endpoints_equal_pure_systems(self, tmp_path):
        out = tmp_path / "bias.csv"
        assert main(["bias", "--alpha-step", "0.5", "--n-max", "10",
                     "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        first, last = rows[0], rows[-1]
        assert float(first[header.index("tau_alpha_s")]) == pytest.approx(
            float(first[header.index("tau_mec_s")]))
        assert float(last[header.index("tau_alpha_s")]) == pytest.approx(
            float(last[header.index("tau_eec_s")]))

    def test_alpha_star_metadata(self, tmp_path):
        out = tmp_path / "bias.csv"
        main(["bias", "--alpha-step", "0.5", "--n-max", "8", "--out", str(out)])
        meta, header, rows = read_csv(out)
        assert any(line.startswith("# alpha_star:") for line in meta)
        assert [r[header.index("is_optimal")] for r in rows].count("true") == 1


@pytest.fixture
def engine_calls(monkeypatch):
    """Calls of the coverage engine and of the chain solver, under every
    name a module looks them up by."""
    calls = {"success_table": 0, "solve_chains": 0}

    def count(module, name):
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    for module in (cli, collab, coverage):
        count(module, "success_table")
    for module in (cli, collab, chain):
        count(module, "solve_chains")
    return calls


@pytest.fixture
def coverage_sampling(monkeypatch):
    """The (selection, anchor) samples of each batched coverage call from
    the CLI, and the replication count of each spatial page pass."""
    calls, passes = [], []
    original, sinrs = cli.empirical_success_curves, montecarlo._sinrs

    def counting(cfg, samples, xi_db_values):
        calls.append([(type(q.selection).__name__, a) for q, a in samples])
        return original(cfg, samples, xi_db_values)

    def counting_sinrs(fields, seed, page, size):
        passes.append(size)
        return sinrs(fields, seed, page, size)

    monkeypatch.setattr(cli, "empirical_success_curves", counting)
    monkeypatch.setattr(montecarlo, "_sinrs", counting_sinrs)
    return calls, passes


class TestOneCallPerCommand:
    @pytest.mark.parametrize("argv", [
        ["delay", "--n", "1:12:1", "--variant", "random", "--variant", "ordered",
         "--variant", "ordered+failure"],
        ["completion", "--n", "1:6:1", "--l", "1,2,5"],
        ["contour", "--nu-w", "1e-4,7e-4", "--mu-f", "0.005,0.1", "--n-max", "10"],
        ["bias", "--alpha-step", "0.25", "--n-max", "8"],
        ["validate", "--reps", "50"],
    ], ids=lambda argv: argv[0])
    def test_one_engine_and_one_solver_call(self, engine_calls, tmp_path, argv):
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) in (0, 1)
        assert engine_calls == {"success_table": 1, "solve_chains": 1}

    def test_validate_samples_coverage_in_one_pass(self, coverage_sampling, monkeypatch,
                                                   tmp_path):
        # coverage/random, coverage/ranked:1 and the requester-anchored side of
        # the classification toggle draw the same streams: one call, three
        # samples, and one spatial pass over each page's replications
        calls, passes = coverage_sampling
        monkeypatch.setattr(montecarlo, "_PAGE", 20)
        assert main(["validate", "--reps", "50", "--out", str(tmp_path / "out.csv")]) in (0, 1)
        assert calls == [[("RandomSelection", "worker"), ("RankedSelection", "worker"),
                          ("RandomSelection", "requester")]]
        assert passes == [20, 20, 10]

    def test_coverage_samples_every_selection_in_one_call(self, coverage_sampling, tmp_path):
        # random and ranked:1 share a layout, ranked:2 has its own: one call,
        # two spatial passes
        calls, passes = coverage_sampling
        argv = ["coverage", "--xi=0,5", "--selection", "random", "--selection", "ranked:1",
                "--selection", "ranked:2", "--simulate", "--reps", "30"]
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
        assert len(calls) == 1 and len(calls[0]) == 3
        assert passes == [30, 30]

    @pytest.mark.parametrize("argv", [
        ["delay", "--n", "1:4:1", "--variant", "random", "--variant", "ordered",
         "--variant", "ordered+failure", "--simulate"],
        ["completion", "--n", "1:3:1", "--l", "1,2", "--simulate"],
        ["validate"],
    ], ids=lambda argv: argv[0])
    def test_one_trajectory_call(self, monkeypatch, tmp_path, argv):
        # every chain of a command shares one call, and so each
        # replication's stream is keyed once
        calls = []
        original = cli.empirical_delay

        def counting(cfg, models, **kwargs):
            calls.append(len(models))
            return original(cfg, models, **kwargs)

        monkeypatch.setattr(cli, "empirical_delay", counting)
        out = str(tmp_path / "out.csv")
        assert main(argv + ["--reps", "50", "--out", out]) in (0, 1)
        assert calls == [{"delay": 12, "completion": 6, "validate": 15}[argv[0]]]

    def test_bias_reports_the_first_unservable_alpha(self, tmp_path, capsys):
        # about 3e-6 mean LoS workers at alpha = 0, none idle from alpha = 0.1
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps({"deploy": {"worker_intensity_per_m2": 1e-10}}))
        assert main(["bias", "--n-max", "8", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: no line-of-sight worker mass under this bias\n")


class TestValidateCommand:
    def test_passes_and_is_deterministic(self, tmp_path, monkeypatch):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["validate", "--reps", "400", "--seed", "5"]
        assert main(args + ["--out", str(out_a)]) == 0
        monkeypatch.setattr(montecarlo, "_BLOCK", 50)
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_report_shape(self, tmp_path):
        out = tmp_path / "report.csv"
        main(["validate", "--reps", "300", "--seed", "5", "--out", str(out)])
        meta, header, rows = read_csv(out)
        assert header[0] == "check"
        statuses = {r[header.index("status")] for r in rows}
        assert statuses <= {"pass", "fail", "info"}
        assert any(r[0].startswith("coverage/") for r in rows)
        assert any(r[0].startswith("delay/") for r in rows)
        assert any(r[0].startswith("completion/") for r in rows)
        idle_rows = [r for r in rows if r[0].startswith("worker_idle")]
        assert idle_rows and idle_rows[0][header.index("status")] == "pass"

    def test_worker_idle_reference(self, scenario):
        # the validate check compares against this same stationary value
        assert worker_idle_probability(0.02, 1e-4, 7e-4) == pytest.approx(
            0.12281, abs=1e-5)

    def test_delay_rows_are_known_null_tests(self, tmp_path, monkeypatch):
        # each delay row's standard error is the chain's analytic one,
        # sqrt(var / reps), not the sample's, and its tolerance is 3 of them
        solved = []
        original = cli.solve_chains

        def recording(models, **kwargs):
            solved.append(original(models, **kwargs))
            return solved[-1]

        monkeypatch.setattr(cli, "solve_chains", recording)
        out = tmp_path / "report.csv"
        assert main(["validate", "--reps", "400", "--seed", "5", "--out", str(out)]) == 0
        [(times, _, variances)] = solved
        _, header, rows = read_csv(out)
        delay_rows = [r for r in rows if r[0].startswith("delay/")]
        assert len(delay_rows) == 12
        for row, time, variance in zip(delay_rows, times, variances):
            std_error = float(row[header.index("std_error")])
            assert float(row[header.index("analytic")]) == time
            assert std_error == math.sqrt(variance / 400)
            assert float(row[header.index("tolerance")]) == 3.0 * std_error

    def test_tiny_replication_count_still_passes(self, tmp_path, scenario):
        # confidence intervals widen as replications drop; at 10 samples a
        # 3-sigma check still rejects ~0.3% of seeds, so this pins the
        # scenario's default seed
        out = tmp_path / "tiny.csv"
        assert main(["validate", "--reps", "10",
                     "--seed", str(scenario.sim.seed), "--out", str(out)]) == 0


class TestCliErrors:
    def test_corrupted_config_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}{}")
        assert main(["coverage", "--xi", "0", "--config", str(path)]) == 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({"radio": {"los_radius_meters": 10}}))
        assert main(["coverage", "--xi", "0", "--config", str(path)]) == 2

    def test_segments_is_not_a_config_key(self, tmp_path, capsys):
        # segment counts come from --n and --n-max only
        path = tmp_path / "segments.json"
        path.write_text(json.dumps({"task": {"segments": 6}}))
        assert main(["delay", "--n", "1", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: section 'task': unknown key(s) ['segments']")

    @pytest.mark.parametrize("section,field", [
        (section, f.name) for section, cls in _SECTIONS.items()
        for f in dataclasses.fields(cls) if "float" in f.type])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                       pytest.param(10 ** 400, id="int401digits")])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, section, field, value):
        # json reads NaN and Infinity; the range checks alone let NaN through,
        # and an integer this long passes them but overflows a float
        path = tmp_path / "non_finite.json"
        path.write_text(json.dumps({section: {field: value}}))
        assert main(["bias", "--alpha-step", "0.5", "--n-max", "2",
                     "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {section}: {field} must be finite, got {value!r}\n")

    @pytest.mark.parametrize("argv", [
        ["contour", "--nu-w", "1e-4", "--mu-f", "0.02", "--n-max", "100000000"],
        ["contour", "--nu-w", "1e-4", "--mu-f", "0.02", "--n-max", "0"],
        ["bias", "--alpha-step", "1", "--n-max", "100000000"],
        ["delay", "--n", "1000000:1000000:1"],
        ["completion", "--n", "300000:300000:1"],
        ["completion", "--n", "1413:1413:1"]])
    def test_huge_segment_count_exits_2_before_any_rate(self, monkeypatch, capsys, argv):
        # past MAX_GRID_POINTS chain states (n = 1412 without a budget) the
        # command stops before the coverage engine is asked for ranks 1..n,
        # whose block nothing else bounds
        def refuse(*args, **kwargs):
            raise AssertionError("derived offloading rates")

        monkeypatch.setattr(cli, "success_table", refuse)
        monkeypatch.setattr(collab, "success_table", refuse)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "chain states" in err or "segment count n" in err

    @pytest.mark.parametrize("argv", [["delay", "--n", "1:1000:1"],
                                      ["completion", "--n", "400:400:1"]],
                             ids=lambda argv: argv[0])
    def test_rank_underflow_names_the_rank(self, monkeypatch, tmp_path, capsys, argv):
        # at the preset the rank-385 success probability is about 1e-323 and
        # every deeper one rounds to 0: the command stops before any chain
        def refuse(*args, **kwargs):
            raise AssertionError("built a chain")

        for name in ("build_baseline", "build_level_dependent", "build_failure_chain"):
            monkeypatch.setattr(cli, name, refuse)
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: the rank-386 success probability underflows to 0: "
            "at most n = 385 segments can be served\n")
        assert not out.exists()

    def test_boolean_config_value_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({"task": {"d2d_slot_s": True}}))
        assert main(["contour", "--nu-w", "7e-4", "--mu-f", "0.02", "--n-max", "3",
                     "--config", str(path)]) == 2
        assert capsys.readouterr().err == "error: task: d2d_slot_s must be a number, got true\n"

    def test_random_delay_without_los_workers_exits_2(self, monkeypatch, tmp_path, capsys):
        # the random-selection rate is conditioned on a worker existing, so
        # with none in reach the command stops before any chain, as the
        # ordered variant's zero rank rate does
        def refuse(*args, **kwargs):
            raise AssertionError("built a chain")

        monkeypatch.setattr(cli, "build_baseline", refuse)
        path = tmp_path / "no_workers.json"
        path.write_text(json.dumps({"deploy": {"worker_intensity_per_m2": 0}}))
        out = tmp_path / "out.csv"
        assert main(["delay", "--variant", "random", "--n", "1:3:1", "--config", str(path),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: no LoS workers")
        assert not out.exists()

    def test_import_loads_no_scipy(self):
        # numpy is the only runtime dependency; scipy is a test oracle, and
        # importing it would double a command's start-up time
        code = ("import sys, eecsim.cli; "
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv", [["coverage", "--xi=0:inf:1"],
                                      ["coverage", "--xi=nan:1:1"],
                                      ["delay", "--n", "1:inf:1"],
                                      ["delay", "--n", "inf"],
                                      ["coverage", "--xi=0:1e300:1e-300"],
                                      ["coverage", "--xi=0:1e10:1"],
                                      ["bias", "--alpha-step", "1e-12"],
                                      ["delay", "--n", "1:1e7:1"],
                                      ["coverage", "--xi=15:-20:1"],
                                      ["delay", "--n", "12:1:1"]])
    def test_non_finite_grid_exits_2(self, capsys, argv):
        # finite bounds can still ask for an overflowing or huge point
        # count, or run backward to no point at all
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "grid" in err and err.count("\n") == 1

    def test_replications_past_the_run_bound_exit_2(self, monkeypatch, capsys):
        # replication r sits in Philox counter word 2, so every index has its
        # own stream; the 2**32 bound is on the run's length, and it is
        # checked before anything is sampled
        def refuse(*args, **kwargs):
            raise AssertionError("sampled")

        monkeypatch.setattr(cli, "empirical_success_curves", refuse)
        monkeypatch.setattr(cli, "empirical_delay", refuse)
        assert main(["validate", "--reps", "4294967297"]) == 2
        assert capsys.readouterr().err == (
            "error: replications must be an integer from 1 to 2**32\n")

    def test_validate_needs_two_replications(self, tmp_path, capsys):
        # every 3-sigma row leans on a sample mean being near normal, which
        # the mean of one draw is not
        out = tmp_path / "one.csv"
        assert main(["validate", "--reps", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: validate needs at least 2 replications, got 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["coverage", "--xi=0", "--reps", "-5"],
                                      ["delay", "--n", "1:3:1", "--reps", "0"],
                                      ["completion", "--n", "1:2:1", "--seed", "-1"]])
    def test_bad_sampling_flag_exits_2_without_simulate(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["contour", "--nu-w", "7e-4", "--mu-f", "0.02", "--n-max", "3", "--reps", "5"],
        ["bias", "--seed", "9"]])
    def test_commands_that_sample_nothing_take_no_sampling_flags(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_bad_selection_exits_2(self, tmp_path):
        assert main(["coverage", "--xi", "0", "--selection", "nearest"]) == 2

    def test_stdout_output(self, capsys):
        assert main(["coverage", "--xi", "5"]) == 0
        captured = capsys.readouterr().out
        assert captured.startswith("# tool: eecsim")
        assert "success_probability" in captured


def test_option_surface():
    # every option of every command; a new knob has to be added here
    [commands] = [action.choices for action in cli.build_parser()._actions
                  if action.choices and action.dest == "command"]
    sampling = ["-h", "--help", "--config", "--seed", "--reps", "--out"]
    analytic = ["-h", "--help", "--config", "--out"]
    assert {name: [flag for action in p._actions for flag in action.option_strings]
            for name, p in commands.items()} == {
        "coverage": sampling + ["--xi", "--selection", "--rl", "--simulate"],
        "delay": sampling + ["--n", "--variant", "--simulate"],
        "completion": sampling + ["--n", "--l", "--simulate"],
        "contour": analytic + ["--nu-w", "--mu-f", "--n-max"],
        "bias": analytic + ["--alpha-step", "--scenario", "--n-max"],
        "validate": sampling,
    }


# the sim section's replications stay small, so the Monte Carlo probe is quick
PROBE_BASE = {"sim": {"replications": 200}}
PROBES = [
    ["coverage", "--xi=0,5,10", "--simulate"],
    ["delay", "--n", "1:3:1", "--variant", "random", "--variant", "ordered+failure"],
    ["bias", "--alpha-step", "0.5", "--n-max", "4"],
]


def probe_bodies(directory, document):
    """CSV bodies, metadata lines dropped, of the probe commands under a scenario."""
    path = directory / "scenario.json"
    path.write_text(json.dumps(document))
    bodies = []
    for i, argv in enumerate(PROBES):
        out = directory / f"probe{i}.csv"
        assert main(argv + ["--config", str(path), "--out", str(out)]) == 0
        bodies.append([line for line in out.read_text().splitlines()
                       if not line.startswith("#")])
    return bodies


@pytest.fixture(scope="module")
def probe_baseline(tmp_path_factory):
    return probe_bodies(tmp_path_factory.mktemp("baseline"), PROBE_BASE)


@pytest.mark.parametrize("section,field", [
    (section, f.name) for section, cls in _SECTIONS.items() for f in dataclasses.fields(cls)])
def test_every_scenario_key_reaches_an_output(tmp_path, probe_baseline, section, field):
    # a key that no command reads is an input without a use
    value = getattr(getattr(resolve_config(PROBE_BASE), section), field)
    if value is None:
        changed = 1
    elif isinstance(value, int):
        changed = value + 1
    else:
        changed = value * 1.1
    document = {**PROBE_BASE, section: {**PROBE_BASE.get(section, {}), field: changed}}
    assert probe_bodies(tmp_path, document) != probe_baseline


def test_readme_library_snippet_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    [snippet] = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(snippet, "README.md", "exec"), {})
    assert capsys.readouterr().out
