import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest

from eecsim import cli, montecarlo, params
from eecsim.chain import (
    build_baseline,
    build_failure_chain,
    build_level_dependent,
    mean_absorption_time,
)
from eecsim.coverage import (
    CoverageQuery,
    RandomSelection,
    RankedSelection,
    success_probability,
)
from eecsim.errors import ParameterError
from eecsim.montecarlo import (
    _PURPOSE_SPATIAL,
    _PURPOSE_TRAJECTORY,
    SimConfig,
    _Field,
    _JumpTables,
    _sinrs,
    _stream_keys,
    default_arena_radius,
    empirical_delay,
    empirical_success_curve,
)
from eecsim.params import DeploymentParams, db_to_linear, directivity_distribution

# the coverage analysis carries a small gamma-tail approximation bias on
# top of the binomial noise
COVERAGE_BIAS_ALLOWANCE = 0.02
ANCHORS = ("worker", "requester")


def estimate(cfg, query, **kwargs):
    """Monte Carlo success estimate at the query's own threshold."""
    return empirical_success_curve(cfg, query, [query.radio.sinr_threshold_db], **kwargs)[0]


def stream_words(seed, replication, purpose):
    """One replication's stream key for one purpose, as two 64-bit words."""
    return np.random.SeedSequence((seed, replication, purpose)).generate_state(2, np.uint64)


def spatial_rng(seed, replication):
    """A fresh generator on one replication's spatial stream."""
    return np.random.Generator(np.random.Philox(key=stream_words(seed, replication,
                                                                 _PURPOSE_SPATIAL)))


def trajectory_rng(seed, replication):
    """A fresh generator on one replication's trajectory stream."""
    high, low = stream_words(seed, replication, _PURPOSE_TRAJECTORY).tolist()
    return random.Random(high << 64 | low)


def run_trajectory(tables, rng):
    """One exponential-race trajectory on the jump tables, absorbed:
    (delay, completed).  The scalar walk the batched estimator replaces."""
    state = 0
    t = 0.0
    while not tables.absorbing[state]:
        t += rng.expovariate(float(tables.rate[state]))
        u = rng.random()
        cum = tables.cum[state].tolist()
        pick = 0
        while cum[pick] < u:
            pick += 1
        state = int(tables.targets[state, pick])
    return t, bool(tables.success[state])


def one_by_one(seed, reps, model):
    """Delay estimate of one model, trajectory by trajectory on fresh
    generators: (mean, standard error, completion fraction)."""
    tables = _JumpTables(model)
    runs = [run_trajectory(tables, trajectory_rng(seed, rep)) for rep in range(reps)]
    delays = [d for d, _ in runs]
    mean = math.fsum(delays) / reps
    se = math.sqrt(math.fsum((d - mean) ** 2 for d in delays) / (reps - 1) / reps)
    return mean, se, sum(done for _, done in runs) / reps


def draw_sinr(seed, radio, deploy, anchor="worker", selection=RankedSelection(1),
              replication=0):
    """The estimator's sampler on one replication of ``seed``: nearest worker."""
    field = _Field(CoverageQuery(radio, deploy, selection), anchor == "worker")
    keys = _stream_keys(seed, replication, replication + 1, _PURPOSE_SPATIAL)
    return float(_sinrs(field, keys)[0][0])


def edge_snr(radio):
    """Mean SNR of an aligned link across the whole LoS radius."""
    return (radio.main_lobe ** 2 * radio.intercept_los
            * radio.los_radius_m ** (-radio.pathloss_exp_los) / radio.noise_normalized)


def oracle_sinrs(rng, radio, deploy, arena):
    """Reference pipeline: one network, shares no code with the estimator.

    Draws the network in Cartesian coordinates around the requester at the
    origin: workers in the LoS disk (redrawn until there is one) and
    interfering requesters in the arena disk, each interferer with an
    alignment gain and a fade for either blockage class.  Returns the SINR
    of the link to the nearest worker and to a uniformly chosen worker,
    each with interferers classified LoS by their distance to the worker
    and by their distance to the requester (the order of ``ANCHORS``).
    Path loss always runs over the distance to the receiving worker.
    """
    rl = radio.los_radius_m

    def disk(intensity, radius):
        count = rng.poisson(intensity * math.pi * radius * radius)
        radii = radius * np.sqrt(rng.random(count))
        angles = 2.0 * math.pi * rng.random(count)
        return radii * np.cos(angles), radii * np.sin(angles)

    wx, wy = disk(deploy.worker_intensity_per_m2, rl)
    while wx.size == 0:
        wx, wy = disk(deploy.worker_intensity_per_m2, rl)
    ix, iy = disk(deploy.requester_intensity_per_m2, arena)
    pairs = directivity_distribution(radio)
    gain = rng.choice([g for g, _ in pairs], size=ix.size, p=[p for _, p in pairs])
    n_l, n_n = radio.nakagami_los, radio.nakagami_nlos
    fade_los = rng.gamma(n_l, 1.0 / n_l, ix.size)
    fade_nlos = rng.gamma(n_n, 1.0 / n_n, ix.size)
    out = {}
    for rule, k in (("nearest", np.argmin(np.hypot(wx, wy))),
                    ("random", rng.integers(wx.size))):
        r0 = math.hypot(wx[k], wy[k])
        signal = (rng.gamma(n_l, 1.0 / n_l) * radio.main_lobe ** 2 * radio.intercept_los
                  * r0 ** (-radio.pathloss_exp_los))
        d = np.hypot(ix - wx[k], iy - wy[k])
        los_power = fade_los * gain * radio.intercept_los * d ** (-radio.pathloss_exp_los)
        nlos_power = fade_nlos * gain * radio.intercept_nlos * d ** (-radio.pathloss_exp_nlos)
        for anchor, dist in zip(ANCHORS, (d, np.hypot(ix, iy))):
            interference = np.where(dist <= rl, los_power, nlos_power).sum()
            out[rule, anchor] = signal / (radio.noise_normalized + interference)
    return out


class TestSampling:
    def test_same_seed_same_realization(self, radio, deploy):
        a = draw_sinr(123, radio, deploy)
        assert a is not None
        assert a == draw_sinr(123, radio, deploy)

    def test_different_seed_differs(self, radio, deploy):
        assert draw_sinr(123, radio, deploy) != draw_sinr(124, radio, deploy)

    def test_zero_worker_intensity(self, radio):
        # no worker to serve: the sampler redraws the count until it gives up
        with pytest.raises(ParameterError, match="enough LoS workers"):
            draw_sinr(5, radio, DeploymentParams(0.0, 1e-4))

    def test_estimator_follows_replication_streams(self, radio, deploy):
        # the estimator rewinds one generator to each replication's stream, so
        # it must see exactly the SINRs a fresh generator per replication
        # draws; thresholds midway between them recover every rank
        reps = 40
        sinrs = sorted(draw_sinr(8, radio, deploy, replication=r) for r in range(reps))
        db = [10.0 * math.log10(x) for x in sinrs]
        mids = [(a + b) / 2.0 for a, b in zip(db, db[1:])]
        query = CoverageQuery(radio, deploy, RankedSelection(1))
        ests = empirical_success_curve(SimConfig(seed=8, replications=reps), query, mids)
        assert [round(e.estimate * reps) for e in ests] == list(range(reps - 1, 0, -1))
        assert ests[0].resampled_realizations == 0

    def test_mean_worker_count(self, radio, deploy):
        # the count is each stream's first draw, redrawn while it is 0, so it
        # is Poisson(v) given at least one: mean v / (1 - e^-v), variance at most v
        field = _Field(CoverageQuery(radio, deploy, RandomSelection()), True)
        v = deploy.mean_los_workers(radio.los_radius_m)
        counts = [field.counts(spatial_rng(seed, 0))[0] for seed in range(10_000)]
        sigma = math.sqrt(v / len(counts))
        assert np.mean(counts) == pytest.approx(v / -math.expm1(-v), abs=3 * sigma)

    @pytest.mark.parametrize("rank", [1, 3])
    def test_ranked_distance_law(self, radio, rank):
        # nearly deterministic fading, no interferers: the rank-k worker
        # clears the mean SNR at distance r exactly when it lies within r,
        # which given at least k workers has probability
        # P(Poisson(v F) >= k) / P(Poisson(v) >= k), F = (r/R_L)^2
        quiet = replace(radio, nakagami_los=1000)
        deploy = DeploymentParams(2e-4, 0.0)
        v = deploy.mean_los_workers(radio.los_radius_m)

        def at_least(mean):
            return 1.0 - sum(math.exp(-mean) * mean ** i / math.factorial(i) for i in range(rank))

        reps = 4000
        fractions = (0.2, 0.4, 0.7)
        xis = [10.0 * math.log10(edge_snr(quiet) * f ** (-quiet.pathloss_exp_los))
               for f in fractions]
        query = CoverageQuery(quiet, deploy, RankedSelection(rank))
        ests = empirical_success_curve(SimConfig(seed=9, replications=reps), query, xis)
        for est, f in zip(ests, fractions):
            p = at_least(v * f * f) / at_least(v)
            assert abs(est.estimate - p) <= 3 * math.sqrt(p * (1 - p) / reps), f

    def test_workers_inside_los_disk(self, radio):
        # nearly deterministic fading, no interferers: every serving link
        # clears a threshold 1 dB under the mean SNR at the LoS radius
        quiet = replace(radio, nakagami_los=1000)
        xi_db = 10.0 * math.log10(edge_snr(quiet)) - 1.0
        cfg = SimConfig(seed=4, replications=2000)
        for selection in (RandomSelection(), RankedSelection(3)):
            query = CoverageQuery(quiet, DeploymentParams(7e-4, 0.0), selection)
            assert empirical_success_curve(cfg, query, [xi_db])[0].estimate == 1.0

    def test_arena_default(self, radio, deploy):
        # at the preset the NLoS tail radius, about 106 m, lies inside the
        # 2 R_L disk that holds every LoS interferer
        rl = radio.los_radius_m
        assert default_arena_radius(radio, deploy) == 2 * rl
        wide = replace(radio, los_radius_m=300.0)
        assert default_arena_radius(wide, deploy) == 600.0
        assert default_arena_radius(radio, replace(deploy, requester_intensity_per_m2=0.0)) == 2 * rl
        # a short LoS radius: the tail radius, where the mean NLoS power from
        # beyond falls to 1e-4 of the noise
        short = replace(radio, los_radius_m=30.0)
        tail = default_arena_radius(short, deploy)
        mean_gain = sum(g * p for g, p in directivity_distribution(short))
        a_n = short.pathloss_exp_nlos
        beyond = (2 * math.pi * deploy.requester_intensity_per_m2 * mean_gain
                  * db_to_linear(short.intercept_nlos_db) * tail ** (2 - a_n) / (a_n - 2))
        assert 60.0 < tail < 3000.0
        assert beyond == pytest.approx(1e-4 * db_to_linear(short.noise_normalized_db), rel=1e-9)
        # alpha_N near 2: the tail radius passes the 100 R_L cap
        near_two = replace(wide, pathloss_exp_nlos=2.2)
        assert default_arena_radius(near_two, deploy) == 100 * 300.0

    @pytest.mark.parametrize("rl,xi_db", [(100.0, 5.0), (300.0, 0.0)])
    @pytest.mark.parametrize("anchor", ANCHORS)
    def test_window_matches_ten_radii(self, radio, deploy, rl, xi_db, anchor, monkeypatch):
        # the links the default window drops are NLoS ones past 2 R_L, which
        # move coverage far less than the noise: estimates at the default
        # window and at 10 R_L (independent seeds) agree within 3 sigma
        query = CoverageQuery(replace(radio, los_radius_m=rl), deploy, RandomSelection())
        reps = 5000
        default = empirical_success_curve(SimConfig(seed=51, replications=reps), query,
                                          [xi_db], los_classification=anchor)[0]
        monkeypatch.setattr(montecarlo, "default_arena_radius",
                            lambda radio, deploy: 10.0 * radio.los_radius_m)
        wide = empirical_success_curve(SimConfig(seed=52, replications=reps), query,
                                       [xi_db], los_classification=anchor)[0]
        combined_se = math.hypot(default.std_error, wide.std_error)
        assert abs(default.estimate - wide.estimate) <= 3 * combined_se


class TestLinkSinr:
    def test_deterministic_limit_without_interference(self, radio):
        # no interferers and unit-mean fading: a uniformly chosen worker
        # clears the mean SNR at distance r with probability exactly (r/R_L)^2
        quiet = replace(radio, nakagami_los=1000)
        query = CoverageQuery(quiet, DeploymentParams(7e-4, 0.0), RandomSelection())
        fractions = (0.3, 0.6, 0.9)
        xis = [10.0 * math.log10(edge_snr(quiet) * f ** (-quiet.pathloss_exp_los))
               for f in fractions]
        for est, f in zip(empirical_success_curve(SimConfig(seed=3, replications=4000),
                                                  query, xis), fractions):
            assert abs(est.estimate - f * f) <= 3 * math.sqrt(f * f * (1 - f * f) / 4000)

    def test_interference_lowers_sinr(self, radio, deploy):
        # the serving link is drawn before the interferers, so the same
        # stream without requesters gives the same link with no interference
        quiet = replace(deploy, requester_intensity_per_m2=0.0)
        for seed in range(20):
            for anchor in ANCHORS:
                assert (draw_sinr(seed, radio, deploy, anchor)
                        < draw_sinr(seed, radio, quiet, anchor))

    def test_classification_toggle_changes_result(self, radio, deploy):
        # same draws, different blockage anchors
        cfg = SimConfig(seed=17, replications=5000)
        query = CoverageQuery(radio, deploy, RandomSelection())
        worker, requester = (estimate(cfg, query, los_classification=a) for a in ANCHORS)
        combined_se = math.hypot(worker.std_error, requester.std_error)
        assert abs(worker.estimate - requester.estimate) > 3 * combined_se

    def test_rejects_unknown_anchor(self, radio, deploy):
        query = CoverageQuery(radio, deploy, RandomSelection())
        with pytest.raises(ParameterError):
            estimate(SimConfig(seed=1, replications=1), query, los_classification="origin")


def runs_over_chunks_and_blocks(monkeypatch, query, reps, blocks):
    """The estimate at every chunk width 1, 64 and 500 and every block size,
    and the replications' SINRs at every block size, which must agree bit
    for bit (a threshold count would hide a last-bit difference)."""
    runs, sinrs = [], []
    keys = _stream_keys(7, 0, reps, _PURPOSE_SPATIAL)
    for block in blocks:
        monkeypatch.setattr(montecarlo, "_BLOCK", block)
        sinrs.append(_sinrs(_Field(query, True), keys))
        for chunk in (1, 64, 500):
            monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
            runs.append(empirical_success_curve(SimConfig(seed=7, replications=reps), query,
                                                [-5.0, 0.0, 5.0, 10.0]))
    assert all(np.array_equal(s[0], sinrs[0][0]) and s[1] == sinrs[0][1] for s in sinrs)
    return runs


class TestEmpiricalCoverage:
    def test_reproducible_and_chunk_invariant(self, radio, deploy, monkeypatch):
        # rank 2 at the preset; the small block holds fewer interferer rows
        # than one replication draws, so replications straddle buffer refills
        query = CoverageQuery(radio, deploy, RankedSelection(2))
        runs = runs_over_chunks_and_blocks(monkeypatch, query, 500, (montecarlo._BLOCK, 50))
        assert all(run == runs[0] for run in runs)

    def test_block_invariant_at_the_window_cap(self, radio, deploy, monkeypatch):
        # alpha_N = 2.2 at R_L = 300 m: the window is 100 R_L, about 2.8e5
        # interferers per replication, each streamed through many refills
        query = CoverageQuery(replace(radio, los_radius_m=300.0, pathloss_exp_nlos=2.2),
                              deploy, RandomSelection())
        runs = runs_over_chunks_and_blocks(monkeypatch, query, 5, (montecarlo._BLOCK, 3000))
        assert all(run == runs[0] for run in runs)

    def test_linear_values_read_once_per_call(self, radio, deploy, monkeypatch):
        # the radio's linear values are converted once per estimate, not once
        # per replication
        calls = []
        convert = params.db_to_linear

        def counting(value_db):
            calls.append(value_db)
            return convert(value_db)

        monkeypatch.setattr(params, "db_to_linear", counting)
        counts = []
        for reps in (10, 1000):
            calls.clear()
            estimate(SimConfig(seed=2, replications=reps),
                     CoverageQuery(radio, deploy, RankedSelection(1)))
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_matches_analysis_random(self, radio, deploy):
        query = CoverageQuery(radio, deploy, RandomSelection())
        est = estimate(SimConfig(seed=11, replications=20_000), query)
        analytic = success_probability(query)
        assert abs(est.estimate - analytic) <= 3 * est.std_error + COVERAGE_BIAS_ALLOWANCE

    def test_threshold_zero_limit(self, radio, deploy):
        query = CoverageQuery(radio, deploy, RandomSelection())
        est = empirical_success_curve(SimConfig(seed=11, replications=2000), query, [-60.0])[0]
        assert est.estimate > 0.999

    def test_interference_monotone_in_intensity(self, radio):
        cfg = SimConfig(seed=21, replications=15_000)
        est = []
        for nu_r in (1e-4, 2e-4):
            query = CoverageQuery(radio, DeploymentParams(7e-4, nu_r), RandomSelection())
            est.append(estimate(cfg, query).estimate)
        assert est[1] <= est[0]

    def test_ranked_selection_beats_random(self, radio, deploy):
        cfg = SimConfig(seed=31, replications=15_000)
        random_est = estimate(cfg, CoverageQuery(radio, deploy, RandomSelection()))
        nearest_est = estimate(cfg, CoverageQuery(radio, deploy, RankedSelection(1)))
        assert nearest_est.estimate > random_est.estimate

    def test_fast_path_matches_reference_pipeline(self, radio, deploy):
        # the estimator against the reference pipeline, as two independent
        # estimates of the same probability, for both selection rules under
        # both blockage anchors; every oracle network serves all four
        reps = 15_000
        # the oracle keeps its own window, wider than the estimator's
        arena = 10.0 * radio.los_radius_m
        hits = dict.fromkeys([(rule, a) for rule in ("nearest", "random") for a in ANCHORS], 0)
        threshold = db_to_linear(radio.sinr_threshold_db)
        for rep in range(reps):
            sinrs = oracle_sinrs(np.random.default_rng((2718, rep)), radio, deploy, arena)
            for key, sinr in sinrs.items():
                hits[key] += sinr > threshold
        cfg = SimConfig(seed=77, replications=reps)
        for (rule, anchor), count in hits.items():
            selection = RankedSelection(1) if rule == "nearest" else RandomSelection()
            est = estimate(cfg, CoverageQuery(radio, deploy, selection),
                           los_classification=anchor)
            reference = count / reps
            combined_se = math.sqrt(est.std_error ** 2 + reference * (1 - reference) / reps)
            assert abs(est.estimate - reference) <= 3 * combined_se, (rule, anchor)

    def test_resampling_counted_for_sparse_workers(self, radio):
        # V ~ 0.63, so empty disks are common; each replication redraws until
        # the disk holds a worker, so its redraw count is geometric with mean
        # e^-V / (1 - e^-V) and variance e^-V / (1 - e^-V)^2
        sparse = DeploymentParams(2e-5, 0.0)
        empty = math.exp(-sparse.mean_los_workers(radio.los_radius_m))
        reps = 4000
        query = CoverageQuery(radio, sparse, RandomSelection())
        est = estimate(SimConfig(seed=3, replications=reps), query)
        mean = reps * empty / (1 - empty)
        sigma = math.sqrt(reps * empty) / (1 - empty)
        assert abs(est.resampled_realizations - mean) <= 4 * sigma

    def test_hopeless_selection_raises(self, radio):
        none = DeploymentParams(0.0, 0.0)
        query = CoverageQuery(radio, none, RandomSelection())
        with pytest.raises(ParameterError):
            estimate(SimConfig(seed=3, replications=2), query)


class TestStreamKeys:
    """The vectorized key hash against numpy's SeedSequence."""

    @pytest.mark.parametrize("seed", [0, 1, 2026, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1])
    @pytest.mark.parametrize("purpose", [_PURPOSE_SPATIAL, _PURPOSE_TRAJECTORY])
    @pytest.mark.parametrize("start,stop", [(0, 70), (4090, 4200), (2 ** 32 - 3, 2 ** 32)])
    def test_matches_seed_sequence(self, seed, purpose, start, stop):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            keys = _stream_keys(seed, start, stop, purpose)
        want = np.stack([stream_words(seed, rep, purpose) for rep in range(start, stop)])
        assert keys.dtype == np.uint64
        assert np.array_equal(keys, want)

    @pytest.mark.parametrize("argv", [["validate"], ["delay", "--simulate"]],
                             ids=lambda argv: argv[0])
    def test_commands_run_without_seed_sequence(self, monkeypatch, tmp_path, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("SeedSequence called")

        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        assert cli.main(argv + ["--reps", "50", "--out", str(tmp_path / "out.csv")]) == 0

    def test_replication_bound(self):
        # a replication index of 2**32 would hash a fifth entropy word
        assert SimConfig(seed=1, replications=2 ** 32).replications == 2 ** 32
        with pytest.raises(ParameterError, match="2\\*\\*32"):
            SimConfig(seed=1, replications=2 ** 32 + 1)


class TestTrajectories:
    def test_deterministic(self):
        model = build_baseline(3, 1.0, 0.02)
        a = run_trajectory(_JumpTables(model), trajectory_rng(99, 0))
        b = run_trajectory(_JumpTables(model), trajectory_rng(99, 0))
        assert a == b
        assert a[0] > 0.0 and a[1] is True

    def test_instant_allocation_single_segment(self):
        model = build_baseline(1, 1e9, 0.02)
        est = empirical_delay(SimConfig(seed=5, replications=10_000), [model])[0]
        assert abs(est.mean_delay_s - 50.0) <= 3 * est.std_error_s

    def test_matches_absorption_analysis(self):
        model = build_baseline(4, 0.75, 0.02)
        est = empirical_delay(SimConfig(seed=6, replications=20_000), [model])[0]
        analytic = mean_absorption_time(model)
        assert abs(est.mean_delay_s - analytic) <= 3 * est.std_error_s

    def test_level_dependent_against_simulation(self):
        model = build_level_dependent(3, [2.0, 1.0, 0.5], 0.1)
        est = empirical_delay(SimConfig(seed=8, replications=20_000), [model])[0]
        analytic = mean_absorption_time(model)
        assert abs(est.mean_delay_s - analytic) <= 3 * est.std_error_s

    def test_completion_fraction_under_failures(self):
        model = build_failure_chain(2, [0.9, 0.9], 0.02, 1.0, spare_budget=0)
        cfg = SimConfig(seed=10, replications=20_000)
        est = empirical_delay(cfg, [model])[0]
        se = math.sqrt(0.64 * 0.36 / cfg.replications)
        assert abs(est.completion_fraction - 0.64) <= 3 * se

    def test_budget_chain_delay_matches_analysis(self):
        model = build_failure_chain(2, [0.9, 0.7], 0.05, 1.0, spare_budget=1)
        est = empirical_delay(SimConfig(seed=14, replications=20_000), [model])[0]
        analytic = mean_absorption_time(model)
        assert abs(est.mean_delay_s - analytic) <= 3 * est.std_error_s
        assert 0.0 < est.completion_fraction < 1.0

    def test_no_failures_always_complete(self):
        model = build_baseline(2, 1.0, 0.02)
        est = empirical_delay(SimConfig(seed=12, replications=500), [model])[0]
        assert est.completion_fraction == 1.0

    def test_reproducible_and_chunk_invariant(self, monkeypatch):
        models = mixed_batch()
        runs = []
        for chunk in (1, 37, 400):
            monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
            runs.append(empirical_delay(SimConfig(seed=13, replications=400), models))
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("model", [
        # unlimited spares, each worker failing five times faster than it
        # completes: about six tries per segment
        build_failure_chain(2, [1.0, 1.0], 0.5, 0.05),
        # failures outpace completions and ten are survived before FAIL
        build_failure_chain(3, [0.9, 0.6, 0.4], 0.05, 0.1, spare_budget=10),
    ], ids=["unlimited", "budget10"])
    @pytest.mark.parametrize("chunk", [1, 7, 300])
    def test_long_trajectories_regrow_the_prefix(self, model, chunk, monkeypatch):
        # the estimator holds a prefix of each stream as long as the
        # shortest trajectory of the chain, 2n steps, and doubles it for the
        # lanes that outrun it; these chains outrun it several times
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        est = empirical_delay(SimConfig(seed=44, replications=300), [model])[0]
        assert (est.mean_delay_s, est.std_error_s, est.completion_fraction) == (
            one_by_one(44, 300, model))


def mixed_batch():
    """Every chain kind, budgets None, 0 and 2, several n, one model twice."""
    rates = [0.9, 0.6, 0.4, 0.3]
    baseline = build_baseline(3, 0.75, 0.02)
    return [
        baseline,
        build_baseline(1, 2.0, 0.05),
        build_level_dependent(2, rates[:2], 0.05),
        build_level_dependent(4, rates, 0.02),
        build_failure_chain(3, rates[:3], 0.05, 1.0),
        build_failure_chain(2, rates[:2], 0.02, 1.0, spare_budget=0),
        build_failure_chain(3, rates[:3], 0.05, 2.0, spare_budget=2),
        baseline,
    ]


class TestBatch:
    """One call over many models replays each replication's stream per model."""

    def test_matches_trajectories_one_by_one(self, monkeypatch):
        # bit for bit, with a chunk width that does not divide the count
        monkeypatch.setattr(montecarlo, "_CHUNK", 64)
        models = mixed_batch()
        ests = empirical_delay(SimConfig(seed=41, replications=300), models)
        assert len(ests) == len(models)
        for model, est in zip(models, ests):
            assert (est.mean_delay_s, est.std_error_s, est.completion_fraction) == (
                one_by_one(41, 300, model))
        assert ests[0] == ests[-1]
        assert {est.completion_fraction < 1.0 for est in ests} == {False, True}

    def test_permuting_the_batch_permutes_the_results(self):
        models = mixed_batch()
        cfg = SimConfig(seed=42, replications=200)
        ests = empirical_delay(cfg, models)
        order = [5, 2, 7, 0, 6, 3, 1, 4]
        assert empirical_delay(cfg, [models[i] for i in order]) == [ests[i] for i in order]

    def test_empty_batch(self):
        assert empirical_delay(SimConfig(seed=43, replications=10), []) == []
