import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from eecsim import cli, montecarlo, params
from eecsim.chain import (
    STEPS,
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
    _SPAN,
    SimConfig,
    _Field,
    _JumpRows,
    _rng,
    _sinrs,
    _steps,
    default_arena_radius,
    empirical_delay,
    empirical_success_curves,
)
from eecsim.params import DeploymentParams, db_to_linear, directivity_distribution

# the coverage analysis carries a small gamma-tail approximation bias on
# top of the binomial noise
COVERAGE_BIAS_ALLOWANCE = 0.02
ANCHORS = ("worker", "requester")


def curve(cfg, query, xi_db_values, los_classification="worker"):
    """Monte Carlo success estimates of one query at several thresholds."""
    return empirical_success_curves(cfg, [(query, los_classification)], xi_db_values)[0]


def estimate(cfg, query, **kwargs):
    """Monte Carlo success estimate at the query's own threshold."""
    return curve(cfg, query, [query.radio.sinr_threshold_db], **kwargs)[0]


def page_rng(seed, purpose, page, block=0):
    """A fresh plain generator on one page's stream for one purpose: Philox
    keyed by (seed, purpose), the page in counter word 2 and the trajectory
    block in word 3."""
    return np.random.Generator(np.random.Philox(key=seed + (purpose << 64),
                                                counter=(block << 192) | (page << 128)))


def pages(reps, start=0):
    """(page, replications in it) of each page of a run of ``reps`` from the
    one holding replication ``start``, at the current page size."""
    size = montecarlo._PAGE
    return [(p, min(size, reps - p * size)) for p in range(start // size, -(-reps // size))]


def page_interference(field, u, r0sq):
    """Received power of each interferer row ``u`` at a worker r0sq away,
    written out for one field over a whole page: the alignment gain by
    ``searchsorted`` on the field's cumulative gain probabilities and the
    fades by a row-wise ``cumsum``, the forms the sampler's shared slice
    terms must reproduce bit for bit."""
    rad2 = field.arena2 * u[:, 0]
    cos_ang = np.cos((2.0 * math.pi) * u[:, 1])
    gain = field.gains[np.searchsorted(field.gain_cum, u[:, 2])]
    d2 = np.maximum(rad2 + r0sq - 2.0 * np.sqrt(r0sq * rad2) * cos_ang, 0.0)
    los = (d2 if field.worker_centric else rad2) <= field.rl2
    fades = np.cumsum(-np.log1p(-u[:, 3:]), axis=1)
    (m_l, m_n), (e_l, e_n), (c_l, c_n) = field.shapes, field.exponents, field.intercepts
    return gain * np.where(los, fades[:, m_l - 1] * (c_l / m_l) * d2 ** e_l,
                           fades[:, m_n - 1] * (c_n / m_n) * d2 ** e_n)


def page_sinrs(fields, seed, page, size):
    """The page oracle of the spatial sampler: a page's SINRs under each of
    ``fields`` (one layout) and its redraw count, from plain generator calls
    in the stream's order.  Short worker counts are redrawn in row order,
    then come the head rows, the interferer counts and every interferer row
    in one call; each replication's interference is a left-to-right sum in
    a Python loop."""
    lead = fields[0]
    rng = page_rng(seed, _PURPOSE_SPATIAL, page)
    n_w = rng.poisson(lead.mean_workers, size)
    redraws = 0
    while (short := np.flatnonzero(n_w < lead.need)).size:
        redraws += short.size
        n_w[short] = rng.poisson(lead.mean_workers, short.size)
    head = rng.random((size, lead.head_width))
    counts = rng.poisson(lead.mean_interferers, size)
    u = rng.random((int(counts.sum()), lead.width))
    starts = np.cumsum(counts) - counts
    out = []
    for field in fields:
        r0sq, signal = field.serving(head, n_w)
        powers = page_interference(field, u, np.repeat(r0sq, counts)).tolist()
        row = []
        for r in range(size):
            power = 0.0
            for p in powers[starts[r]:starts[r] + counts[r]]:
                power += p
            row.append(signal[r] / (field.noise + power))
        out.append(row)
    return np.array(out), redraws


def walk(jumps, state, draws):
    """One lane's exponential-race walk on the jump rows, the scalar walk the
    batched estimator replaces: from ``state`` (f, c, u, t), each step takes
    a (sojourn, move) pair of ``draws``; the state reads its row and takes
    the chosen move's step.  Returns the state and, once absorbed, whether
    the task completed (None while it is alive).  The sojourn's log is
    numpy's, as the estimator takes it: ``math.log1p`` can differ from it in
    the last bit."""
    f, c, u, t = state
    for sojourn, x in draws:
        row = jumps.row(f, c, u)
        t += -np.log1p(-np.array([sojourn]))[0] / jumps.rate[row]
        cum = jumps.cum[row].tolist()
        move = 0
        while cum[move] < x:
            move += 1
        if move == len(STEPS):  # FAIL
            return (f, c, u, float(t)), False
        df, dc, du = STEPS[move]
        f, c, u = f + df, c + dc, u + du
        if f == jumps.n:
            return (f, c, u, float(t)), True
    return (f, c, u, t), None


def page_trajectories(jumps, seed, page, size):
    """The page oracle of the trajectory sampler: one model's delays of a
    page's lanes, in lane order, its completions and the rows of each block.
    Each lane walks alone; block b is a plain generator at counter (page, b)
    with one row of ``_SPAN`` steps for each lane alive at its start, in
    lane order."""
    live = [(lane, (0, 0, 0, 0.0)) for lane in range(size)]
    delays, completed, widths = [0.0] * size, 0, []
    while live:
        block = len(widths)
        widths.append(len(live))
        u = page_rng(seed, _PURPOSE_TRAJECTORY, page, block).random((len(live), _SPAN, 2))
        still = []
        for draws, (lane, state) in zip(u.tolist(), live):
            state, done = walk(jumps, state, draws)
            if done is None:
                still.append((lane, state))
            else:
                delays[lane] = state[3]
                completed += done
        live = still
    return delays, completed, widths


def one_by_one(seed, reps, model):
    """Delay estimate of one model from the page oracle, trajectory by
    trajectory: (mean, standard error, completion fraction)."""
    jumps = _JumpRows(model)
    delays, completed = [], 0
    for page, size in pages(reps):
        page_delays, done, _ = page_trajectories(jumps, seed, page, size)
        delays += page_delays
        completed += done
    mean = math.fsum(delays) / reps
    se = math.sqrt(math.fsum((d - mean) ** 2 for d in delays) / (reps - 1) / reps)
    return mean, se, completed / reps


def draw_sinr(seed, radio, deploy, anchor="worker", selection=RankedSelection(1)):
    """The estimator's sampler on a one-replication page of ``seed``: nearest worker."""
    field = _Field(CoverageQuery(radio, deploy, selection), anchor == "worker")
    return float(_sinrs([field], seed, 0, 1)[0][0, 0])


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
        # no worker to serve: every count would be 0, so the sampler refuses
        with pytest.raises(ParameterError, match="enough LoS workers"):
            draw_sinr(5, radio, DeploymentParams(0.0, 1e-4))

    def test_estimator_follows_replication_streams(self, radio, deploy):
        # the estimator must see exactly the SINRs of the page oracle's plain
        # generator calls; thresholds midway between them recover every rank
        reps = 40
        query = CoverageQuery(radio, deploy, RankedSelection(1))
        sinrs, _ = page_sinrs([_Field(query, True)], 8, 0, reps)
        db = sorted(10.0 * math.log10(x) for x in sinrs[0])
        mids = [(a + b) / 2.0 for a, b in zip(db, db[1:])]
        ests = curve(SimConfig(seed=8, replications=reps), query, mids)
        assert [round(e.estimate * reps) for e in ests] == list(range(reps - 1, 0, -1))
        assert ests[0].resampled_realizations == 0

    def test_mean_worker_count(self, radio, deploy):
        # each count is redrawn while it is 0, so it is Poisson(v) given at
        # least one: mean v / (1 - e^-v), variance at most v
        field = _Field(CoverageQuery(radio, deploy, RandomSelection()), True)
        v = deploy.mean_los_workers(radio.los_radius_m)
        counts, _ = field.workers(page_rng(0, _PURPOSE_SPATIAL, 0), 10_000)
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
        ests = curve(SimConfig(seed=9, replications=reps), query, xis)
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
            assert curve(cfg, query, [xi_db])[0].estimate == 1.0

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
        default = curve(SimConfig(seed=51, replications=reps), query, [xi_db], anchor)[0]
        monkeypatch.setattr(montecarlo, "default_arena_radius",
                            lambda radio, deploy: 10.0 * radio.los_radius_m)
        wide = curve(SimConfig(seed=52, replications=reps), query, [xi_db], anchor)[0]
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
        for est, f in zip(curve(SimConfig(seed=3, replications=4000), query, xis), fractions):
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


def runs_over_blocks(monkeypatch, query, reps, blocks):
    """The estimate, twice, and the page's SINRs at every block size, which
    must agree bit for bit (a threshold count would hide a last-bit
    difference)."""
    runs, sinrs = [], []
    for block in blocks:
        monkeypatch.setattr(montecarlo, "_BLOCK", block)
        sinrs.append(_sinrs([_Field(query, True)], 7, 0, reps))
        for _ in range(2):
            runs.append(curve(SimConfig(seed=7, replications=reps), query,
                              [-5.0, 0.0, 5.0, 10.0]))
    assert all(np.array_equal(s[0], sinrs[0][0]) and s[1] == sinrs[0][1] for s in sinrs)
    return runs


class TestEmpiricalCoverage:
    def test_reproducible_and_block_invariant(self, radio, deploy, monkeypatch):
        # rank 2 at the preset; the small block holds fewer interferer rows
        # than one replication draws, so replications straddle slices
        query = CoverageQuery(radio, deploy, RankedSelection(2))
        runs = runs_over_blocks(monkeypatch, query, 500, (montecarlo._BLOCK, 50))
        assert all(run == runs[0] for run in runs)

    def test_block_invariant_at_the_window_cap(self, radio, deploy, monkeypatch):
        # alpha_N = 2.2 at R_L = 300 m: the window is 100 R_L, about 2.8e5
        # interferers per replication, each read over many slices
        query = CoverageQuery(replace(radio, los_radius_m=300.0, pathloss_exp_nlos=2.2),
                              deploy, RandomSelection())
        runs = runs_over_blocks(monkeypatch, query, 5, (montecarlo._BLOCK, 3000))
        assert all(run == runs[0] for run in runs)

    def test_wide_window_memory_is_bounded(self, radio, deploy, monkeypatch):
        # about 1e4 interferers per replication, 1e6 in the page: the page
        # reads them in slices of _BLOCK elements, so its peak stays far
        # below one 8-byte owner index per interferer of the page
        monkeypatch.setattr(montecarlo, "default_arena_radius",
                            lambda radio, deploy: math.sqrt(1e4 / (math.pi * 1e-4)))
        monkeypatch.setattr(montecarlo, "_BLOCK", 1 << 12)
        field = _Field(CoverageQuery(radio, deploy, RandomSelection()), True)
        assert field.mean_interferers == pytest.approx(1e4)
        reps = 100
        tracemalloc.start()
        try:
            _sinrs([field], 3, 0, reps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, peak

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
        est = curve(SimConfig(seed=11, replications=2000), query, [-60.0])[0]
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

    def test_no_workers_fails_before_any_draw(self, radio, deploy, monkeypatch):
        # Poisson(0) never reaches the one worker a rule needs: the call
        # fails at once, before any page of any sample is drawn
        def refuse(*args):
            raise AssertionError("a page was drawn")

        monkeypatch.setattr(montecarlo, "_rng", refuse)
        samples = [(CoverageQuery(radio, deploy, RandomSelection()), "worker"),
                   (CoverageQuery(radio, replace(deploy, worker_intensity_per_m2=0.0),
                                  RankedSelection(2)), "worker")]
        with pytest.raises(ParameterError, match="enough LoS workers"):
            empirical_success_curves(SimConfig(seed=3, replications=10 ** 5), samples, [0.0])


def mixed_samples(radio, deploy):
    """Random, rank 1 and rank 2 under both anchors at R_L = 100 m and 60 m:
    four stream layouts, as random and rank 1 share one at each radius."""
    near = replace(radio, los_radius_m=60.0)
    selections = (RandomSelection(), RankedSelection(1), RankedSelection(2))
    return [(CoverageQuery(r, deploy, selection), anchor)
            for r in (radio, near) for selection in selections for anchor in ANCHORS]


def beamwidth_samples(radio, deploy):
    """Random selection and rank 1 at the preset beamwidth and at a third of
    it, both anchors: one stream layout, as the window stays 2 R_L, but two
    alignment-gain tables."""
    narrow = replace(radio, beamwidth_rad=radio.beamwidth_rad / 3.0)
    return [(CoverageQuery(r, deploy, selection), anchor)
            for r in (narrow, radio) for selection in (RandomSelection(), RankedSelection(1))
            for anchor in ANCHORS]


class TestBatchedCoverage:
    XIS = [-5.0, 0.0, 5.0, 10.0]

    def test_equals_per_sample_calls(self, radio, deploy):
        cfg = SimConfig(seed=12, replications=300)
        # four layouts; then one layout whose fields read two gain tables
        for samples, layouts, tables in ((mixed_samples(radio, deploy), 4, 1),
                                         (beamwidth_samples(radio, deploy), 1, 2)):
            batched = empirical_success_curves(cfg, samples, self.XIS)
            assert batched == [curve(cfg, query, self.XIS, a) for query, a in samples]
            # and each layout's SINRs bit for bit, against every field alone
            # and against the page oracle
            fields = [_Field(query, a == "worker") for query, a in samples]
            assert len({field.layout for field in fields}) == layouts
            assert len({field.gain_cum.tobytes() for field in fields}) == tables
            for layout in {field.layout for field in fields}:
                group = [field for field in fields if field.layout == layout]
                shared, redraws = _sinrs(group, 12, 0, 300)
                assert shared.shape == (len(group), 300)
                want, want_redraws = page_sinrs(group, 12, 0, 300)
                assert np.array_equal(shared, want) and redraws == want_redraws
                for field, row in zip(group, shared):
                    alone = _sinrs([field], 12, 0, 300)
                    assert np.array_equal(row, alone[0][0]) and redraws == alone[1]

    def test_head_width_alone_does_not_share_a_pass(self, radio):
        # random selection at m_L = 3 and rank 2 at m_L = 2 draw four serving
        # uniforms each, but rank 2 redraws counts under two workers
        sparse = DeploymentParams(2e-5, 1e-4)
        samples = [(CoverageQuery(replace(radio, nakagami_los=m_l, nakagami_nlos=3), sparse,
                                  selection), "worker")
                   for m_l, selection in ((3, RandomSelection()), (2, RankedSelection(2)))]
        fields = [_Field(query, True) for query, _ in samples]
        assert fields[0].head_width == fields[1].head_width
        assert fields[0].width == fields[1].width
        cfg = SimConfig(seed=16, replications=200)
        assert empirical_success_curves(cfg, samples, self.XIS) \
            == [curve(cfg, query, self.XIS) for query, _ in samples]

    def test_permuted_samples_permute_results(self, radio, deploy):
        samples = mixed_samples(radio, deploy)
        cfg = SimConfig(seed=13, replications=200)
        base = empirical_success_curves(cfg, samples, self.XIS)
        order = np.random.default_rng(0).permutation(len(samples))
        assert empirical_success_curves(cfg, [samples[i] for i in order], self.XIS) \
            == [base[i] for i in order]

    def test_block_invariant(self, radio, deploy, monkeypatch):
        # a block of 50 elements holds fewer interferer rows than one
        # replication draws, so replications straddle slices; the sparse
        # rank-2 sample redraws worker counts
        sparse = CoverageQuery(radio, DeploymentParams(2e-5, 1e-4), RankedSelection(2))
        samples = mixed_samples(radio, deploy) + [(sparse, "worker")]
        cfg = SimConfig(seed=14, replications=150)
        runs = []
        for block in (montecarlo._BLOCK, 50, montecarlo._BLOCK):
            monkeypatch.setattr(montecarlo, "_BLOCK", block)
            runs.append(empirical_success_curves(cfg, samples, self.XIS))
        field = _Field(samples[0][0], True)
        assert field.mean_interferers > 50 // field.width
        assert runs[0][-1][0].resampled_realizations > 0
        assert all(run == runs[0] for run in runs)

    def test_members_share_the_resample_count(self, radio):
        # V ~ 0.63: empty disks are common, and rank 2 needs two workers
        sparse = DeploymentParams(2e-5, 1e-4)
        samples = [(CoverageQuery(radio, sparse, selection), anchor)
                   for selection in (RandomSelection(), RankedSelection(1), RankedSelection(2))
                   for anchor in ANCHORS]
        cfg = SimConfig(seed=15, replications=400)
        counts = [ests[0].resampled_realizations
                  for ests in empirical_success_curves(cfg, samples, [0.0])]
        assert counts[0] > 0 and len(set(counts[:4])) == 1 and len(set(counts[4:])) == 1
        assert counts[4] > counts[0]
        assert counts == [estimate(cfg, query, los_classification=a).resampled_realizations
                          for query, a in samples]

    def test_no_samples(self):
        assert empirical_success_curves(SimConfig(seed=1, replications=5), [], [0.0]) == []


def uneven_draws(rng, i):
    """Draw i's uneven mix, which leaves buffered output (Philox makes four
    64-bit words at a time, and halves them for 32-bit draws)."""
    return (rng.random(i + 1).tolist(), rng.poisson(2.5, i % 3).tolist(),
            rng.integers(2 ** 32, size=i % 2 + 1, dtype=np.uint32).tolist())


class TestStreamKeys:
    """Streams keyed by (seed, purpose), one counter block per page."""

    @pytest.mark.parametrize("seed", [0, 1, 2026, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1])
    @pytest.mark.parametrize("purpose", [_PURPOSE_SPATIAL, _PURPOSE_TRAJECTORY])
    @pytest.mark.parametrize("start,stop", [(0, 70), (4090, 4200), (2 ** 32 - 3, 2 ** 32)])
    def test_matches_fresh_philox(self, radio, deploy, seed, purpose, start, stop):
        # the pages that hold replications start..stop - 1 of a run of stop,
        # against the page oracle's plain generators: the extreme seeds fill
        # the seed's key word, and the last range ends at the largest
        # replication count, past any 32-bit index
        field = _Field(CoverageQuery(radio, deploy, RankedSelection(2)), True)
        for page, size in pages(stop, start):
            if purpose == _PURPOSE_SPATIAL:
                got, redraws = _sinrs([field], seed, page, size)
                want, want_redraws = page_sinrs([field], seed, page, size)
                assert np.array_equal(got, want) and redraws == want_redraws
                continue
            for block in (0, 1, 7):
                exps, moves = _steps(seed, page, block, size)
                u = page_rng(seed, purpose, page, block).random(2 * _SPAN * size)
                assert np.array_equal(exps.ravel(), -np.log1p(-u[0::2]))
                assert np.array_equal(moves.ravel(), u[1::2])

    def test_purposes_differ(self):
        spatial, trajectory = ([_rng(5, purpose, page).random(4).tolist() for page in range(3)]
                               for purpose in (_PURPOSE_SPATIAL, _PURPOSE_TRAJECTORY))
        assert all(a != b for a in spatial for b in trajectory)

    @pytest.mark.parametrize("argv", [["validate"], ["delay", "--simulate"]],
                             ids=lambda argv: argv[0])
    def test_commands_run_without_seed_sequence(self, monkeypatch, tmp_path, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("SeedSequence called")

        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        assert cli.main(argv + ["--reps", "50", "--out", str(tmp_path / "out.csv")]) == 0

    def test_replication_bound(self):
        # the bound is on the run's length: 2**32 replications are accepted
        assert SimConfig(seed=1, replications=2 ** 32).replications == 2 ** 32
        with pytest.raises(ParameterError, match="2\\*\\*32"):
            SimConfig(seed=1, replications=2 ** 32 + 1)

    def test_streams_rewind_to_fresh_generators(self):
        # pages and trajectory blocks read out of order and with gaps, as
        # lanes that outlive a block do, each start a fresh stream: no
        # buffered output leaks from one into the next
        for i, (page, block) in enumerate([(3, 0), (0, 2), (9, 1), (1, 0), (2 ** 40, 5), (3, 1)]):
            for purpose in (_PURPOSE_SPATIAL, _PURPOSE_TRAJECTORY):
                assert (uneven_draws(_rng(3, purpose, page, block), i)
                        == uneven_draws(page_rng(3, purpose, page, block), i))
            exps, moves = _steps(3, page, block, i + 1)
            u = page_rng(3, _PURPOSE_TRAJECTORY, page, block).random((i + 1, _SPAN, 2))
            assert np.array_equal(moves, u[:, :, 1])


class TestTrajectories:
    def test_deterministic(self):
        model = build_baseline(3, 1.0, 0.02)
        a = page_trajectories(_JumpRows(model), 99, 0, 5)
        b = page_trajectories(_JumpRows(model), 99, 0, 5)
        assert a == b
        assert min(a[0]) > 0.0 and a[1] == 5 and a[2] == [5]

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

    @pytest.mark.parametrize("model", [
        # unlimited spares, each worker failing five times faster than it
        # completes: about six tries per segment
        build_failure_chain(2, [1.0, 1.0], 0.5, 0.05),
        # failures outpace completions and ten are survived before FAIL
        build_failure_chain(3, [0.9, 0.6, 0.4], 0.05, 0.1, spare_budget=10),
    ], ids=["unlimited", "budget10"])
    @pytest.mark.parametrize("page", [1, 7, 300])
    def test_long_trajectories_regrow_the_prefix(self, model, page, monkeypatch):
        # lanes alive at the end of a block of _SPAN steps read the next
        # block; these chains outlive several, at page sizes from one lane
        # to the whole run
        monkeypatch.setattr(montecarlo, "_PAGE", page)
        est = empirical_delay(SimConfig(seed=44, replications=300), [model])[0]
        assert (est.mean_delay_s, est.std_error_s, est.completion_fraction) == (
            one_by_one(44, 300, model))


    def test_later_blocks_hold_live_lanes_only(self, monkeypatch):
        # the first block serves every model; a later one is drawn per model,
        # with one row per lane of that model alive at its start
        drawn = []
        steps = montecarlo._steps

        def counting(seed, page, block, lanes):
            drawn.append((block, lanes))
            return steps(seed, page, block, lanes)

        monkeypatch.setattr(montecarlo, "_steps", counting)
        slow, fast = build_failure_chain(2, [1.0, 1.0], 0.5, 0.05), build_baseline(1, 1.0, 0.02)
        empirical_delay(SimConfig(seed=46, replications=300), [slow, fast, slow])
        widths = page_trajectories(_JumpRows(slow), 46, 0, 300)[2]
        assert len(widths) > 2 and widths[0] == 300 > widths[1]
        # the n = 1 chain ends within the first block and reads no other
        assert drawn == [(0, 300)] + list(enumerate(widths))[1:] * 2


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
    """One call over many models steps each page's lanes per model."""

    def test_matches_trajectories_one_by_one(self, monkeypatch):
        # bit for bit, with a page size that does not divide the count
        monkeypatch.setattr(montecarlo, "_PAGE", 64)
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
