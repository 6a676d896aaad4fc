"""Simulator determinism, forced-outcome hooks, oracle agreement with the
chain analysis, and the energy ledger."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import noma_harq.markov as markov
import noma_harq.montecarlo as montecarlo
from noma_harq.fbl import CodeParams, per_cc_batch
from noma_harq.markov import (analyze, build_transition_matrix, oma_received_power,
                               stationary_distribution)
from noma_harq.cellplan import CELL_RADIUS, build_plan, locate_segment
from noma_harq.montecarlo import (
    PATH_LOSS_EXP,
    POWER_CAP_FACTOR,
    SimConfig,
    SimResult,
    _decode_tables,
    _episode_seeds,
    _run_chain,
    disk_positions,
    simulate_coordinated,
    simulate_oma_baseline,
    simulate_uncoordinated,
)
from noma_harq.sic import Phase, SystemConfig, SystemState, decoding_order, stage_sinr
from oracle import chi_square_state_fit, per_cc, run_chain

CODE = CodeParams(k=25, n=100)
ANCHOR_CFG = SystemConfig(alphas=(0.29, 0.35, 0.36), p0=10 ** (-2.02 / 10), code=CODE)


def never_fails(gammas, code):
    """Stand-in for fbl.per_cc_batch: every stage decodes."""
    return np.zeros_like(gammas), np.ones_like(gammas)


def always_fails(gammas, code):
    """Stand-in for fbl.per_cc_batch: every stage fails."""
    return np.ones_like(gammas), np.zeros_like(gammas)


def quad_mean_inversion() -> float:
    """Quadrature oracle for E[min(1/h, cap)] under h ~ Exp(1), split at
    the cap threshold where the integrand kinks."""
    cap = POWER_CAP_FACTOR
    head, _ = quad(lambda h: cap * math.exp(-h), 0, 1.0 / cap)
    tail, _ = quad(lambda h: math.exp(-h) / h, 1.0 / cap, np.inf, limit=200)
    return head + tail


def sim_result_equal(a: SimResult, b: SimResult) -> bool:
    for name in ("per", "per_stderr", "success_prob", "success_prob_stderr",
                 "throughput", "throughput_stderr", "mean_tx_power",
                 "cap_fraction"):
        if not np.array_equal(getattr(a, name), getattr(b, name)):
            return False
    return a.slots_counted == b.slots_counted


class TestSimConfig:
    def test_scenario_validated(self):
        with pytest.raises(ValueError):
            SimConfig(system=ANCHOR_CFG, scenario="broadcast")

    def test_warmup_must_leave_slots(self):
        with pytest.raises(ValueError):
            SimConfig(system=ANCHOR_CFG, slots=100, warmup=100)

    def test_uncoordinated_plan_size_checked(self):
        with pytest.raises(ValueError):
            SimConfig(system=ANCHOR_CFG, scenario="uncoordinated", n_hat=5)

    def test_coordinated_single_episode(self):
        with pytest.raises(ValueError):
            SimConfig(system=ANCHOR_CFG, episodes=3)

    def test_coordinated_plan_size_checked(self):
        # a coordinated run and its OMA baseline reported any n_hat given
        with pytest.raises(ValueError, match="system.alphas, 3, got 7"):
            SimConfig(system=ANCHOR_CFG, slots=5000, warmup=100, n_hat=7)

    @pytest.mark.parametrize("field", ["n_actual", "n_hat"])
    def test_user_counts_positive(self, field):
        with pytest.raises(ValueError, match="at least 1"):
            SimConfig(system=ANCHOR_CFG, scenario="uncoordinated", **{field: 0})

    def test_negative_seed_rejected(self):
        # numpy's seeding refuses it only once the run starts
        with pytest.raises(ValueError, match="seed >= 0"):
            SimConfig(system=ANCHOR_CFG, seed=-1)


@st.composite
def clusters(draw):
    """1..5 users whose ratios are drawn from a smaller pool, so exact
    duplicates are common, at a random total power.  Two-digit ratios, as
    in the cell plans, normalize to values whose sums round."""
    n = draw(st.integers(1, 5))
    pool = draw(st.lists(st.integers(5, 100).map(lambda c: c / 100),
                         min_size=1, max_size=n))
    ratios = np.array([draw(st.sampled_from(pool)) for _ in range(n)])
    p0 = 10 ** (draw(st.floats(-10.0, 10.0)) / 10)
    return SystemConfig(alphas=tuple(ratios / ratios.sum()), p0=p0,
                        code=CodeParams(k=50, n=100))


def greedy_order_is_decided(state, cfg):
    """False when some stage has a near-tie (within 1e-12 relative) that
    is not an exact duplicate, two users of equal power that both send a
    fresh packet or both retransmit: there either engine's rounding may
    pick the other user."""
    retx = [ph is Phase.R for ph in state.phases]
    decoded = set()
    for _ in range(cfg.n_users):
        g = {j: stage_sinr(state, decoded, j, cfg)
             for j in range(cfg.n_users) if j not in decoded}
        best = max(g, key=lambda j: (g[j], -j))
        for j, gj in g.items():
            if j != best and gj >= g[best] * (1 - 1e-12) and (
                    cfg.alphas[j] != cfg.alphas[best] or retx[j] != retx[best]):
                return False
        decoded.add(best)
    return True


class TestDecodeTables:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(clusters())
    def test_matches_scalar_oracle(self, cfg):
        n = cfg.n_users
        orders, eps_tab, succ_tab = _decode_tables(cfg.powers, cfg.code)
        for s in range(3**n):
            state = SystemState.from_index(s, n)
            if not greedy_order_is_decided(state, cfg):
                continue
            dec = decoding_order(state, cfg)
            assert tuple(orders[s]) == dec.order
            np.testing.assert_allclose(
                eps_tab[s], [per_cc(g, cfg.code) for g in dec.stage_sinrs],
                rtol=1e-12, atol=0)
            fall = [int(Phase.F) if ph is Phase.R else int(Phase.R)
                    for ph in state.phases]
            tails = [0] * (n + 1)
            for w in range(n - 1, -1, -1):
                u = dec.order[w]
                tails[w] = tails[w + 1] + fall[u] * 3**u
            assert succ_tab[s].tolist() == tails


@st.composite
def chains(draw):
    """Decode tables of 1..8 rotations of a random 1..8-user cluster, or
    forced ones: every stage fails (no slot resets the chain), none fails
    (every slot resets it), only the last stage fails (no resets, but
    the earlier stages still read their uniforms), or mixed: the even
    rotations fail no stage and the odd ones every stage, so whether a
    slot resets the chain depends on its rotation alone.  From about six
    users on, the walk's packed words are wider than 63 bits."""
    n = draw(st.integers(1, 8))
    rotations = draw(st.integers(1, 8))
    powers = np.array([[draw(st.floats(0.05, 1.0)) for _ in range(n)]
                       for _ in range(rotations)]) * 10 ** (draw(st.floats(-1.0, 1.5)) / 10)
    _, eps, succ = _decode_tables(powers, CodeParams(k=draw(st.sampled_from([25, 50])), n=100))
    kind = draw(st.sampled_from(["decode", "always_fails", "never_fails", "last_fails",
                                 "mixed"]))
    if kind == "always_fails":
        eps = np.ones_like(eps)
    elif kind == "never_fails":
        eps = np.zeros_like(eps)
    elif kind == "last_fails":
        eps[..., -1] = 1.0
    elif kind == "mixed":
        eps = np.zeros_like(eps)
        eps[1::2] = 1.0
    return eps, succ


class TestSegmentedWalk:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(chains(), st.integers(1, 3000), st.integers(0, 400), st.integers(0, 2**32 - 1),
           st.sampled_from([7, 64, 1000]), st.sampled_from([1, 2, 32]))
    def test_matches_slot_by_slot_oracle(self, chain, slots, warmup, seed, chunk,
                                         lockstep_min):
        # small chunks make segments, the warmup and the thinning stride
        # straddle chunk boundaries
        eps, succ = chain
        warmup = min(warmup, slots - 1)
        _, m, n = eps.shape
        thin, thin_oracle = np.zeros(m, dtype=np.int64), np.zeros(m, dtype=np.int64)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(montecarlo, "_CHAIN_CHUNK", chunk)
            mp.setattr(montecarlo, "_LOCKSTEP_MIN", lockstep_min)
            counts = _run_chain(np.random.default_rng(seed), eps, succ, slots, warmup, thin)
            expect = run_chain(np.random.default_rng(seed),
                               list(zip(eps.tolist(), succ.tolist())), n, slots, warmup,
                               thin_oracle)
        np.testing.assert_array_equal(counts, expect)
        np.testing.assert_array_equal(thin, thin_oracle)
        assert counts.sum() == slots - warmup


class TestRankWalk:
    """_walk's packed stage ranks decide each stage exactly as u < eps."""

    @pytest.mark.parametrize("n, distinct, wide", [(3, 12, False), (7, 600, True)])
    def test_ties_and_extreme_rates(self, n, distinct, wide):
        # random uniforms never equal an error rate; these do, or sit one
        # ulp on either side of one, or are 0.0.  Two rotations of rates
        # from a small pool, so equal rates are common, and rows of 0.0
        # and of 1.0 in every stage column
        rng = np.random.default_rng(n)
        pool = np.concatenate([[0.0, 1.0], rng.random(distinct)])
        eps = rng.choice(pool, size=(2, 3**n, n))
        eps[0, 0], eps[0, 1] = 0.0, 1.0
        flat = eps.reshape(-1, n)
        # every slot starts a segment of its own, so no successor is read
        table = montecarlo._rank_table(eps, np.zeros(len(flat) * (n + 1), dtype=np.intp))
        assert (table[2] is object) == wide
        slots = 4000
        near = np.stack([pool, np.nextafter(pool, 0.0), np.nextafter(pool, 1.0)])
        u = rng.choice(near[near < 1.0], size=(slots, n))
        u[rng.random((slots, n)) < 0.1] = 0.0
        rows = rng.integers(0, len(flat), slots)
        keys = np.empty(slots, dtype=np.intp)
        montecarlo._walk(u, table, np.arange(slots), np.arange(1, slots + 1), rows, keys)
        fails = u < flat[rows]
        first = np.where(fails.any(axis=1), fails.argmax(axis=1), n)
        np.testing.assert_array_equal(keys, rows * (n + 1) + first)
        assert 0 < fails.mean() < 1 and (u == flat[rows]).any()

    def test_wide_words_match_oracle(self):
        # eight users on eight rotations: stage columns of thousands of
        # rates, words of over 100 bits kept as Python ints
        rng = np.random.default_rng(8)
        _, eps, succ = _decode_tables(rng.uniform(0.05, 1.0, (8, 8)) * 10 ** 0.5,
                                      CodeParams(k=50, n=100))
        assert montecarlo._rank_table(eps, succ.reshape(-1))[2] is object
        m = eps.shape[1]
        thin, thin_oracle = np.zeros(m, dtype=np.int64), np.zeros(m, dtype=np.int64)
        counts = _run_chain(np.random.default_rng(5), eps, succ, 3000, 100, thin)
        expect = run_chain(np.random.default_rng(5), list(zip(eps.tolist(), succ.tolist())),
                           8, 3000, 100, thin_oracle)
        np.testing.assert_array_equal(counts, expect)
        np.testing.assert_array_equal(thin, thin_oracle)


class TestProductionChunk:
    """_run_chain at its own _CHAIN_CHUNK and _LOCKSTEP_MIN over more than
    three chunks, against the slot-by-slot oracle."""

    SLOTS = 3 * montecarlo._CHAIN_CHUNK + 1000

    @staticmethod
    def run_both(eps, succ, seed, monkeypatch):
        walked = []
        walk = montecarlo._walk

        def spy(u, table, starts, stops, *rest):
            walked.append(int((stops - starts).sum()))
            return walk(u, table, starts, stops, *rest)

        monkeypatch.setattr(montecarlo, "_walk", spy)
        m, n = eps.shape[1:]
        thin, thin_oracle = np.zeros(m, dtype=np.int64), np.zeros(m, dtype=np.int64)
        counts = _run_chain(np.random.default_rng(seed), eps, succ, TestProductionChunk.SLOTS,
                            300, thin)
        expect = run_chain(np.random.default_rng(seed), list(zip(eps.tolist(), succ.tolist())),
                           n, TestProductionChunk.SLOTS, 300, thin_oracle)
        np.testing.assert_array_equal(counts, expect)
        np.testing.assert_array_equal(thin, thin_oracle)
        return sum(walked)

    def test_chunk_fits_the_int16_length_sort(self):
        # segment lengths up to a chunk are sorted as int16
        assert 1 <= montecarlo._CHAIN_CHUNK <= np.iinfo(np.int16).max

    def test_four_user_coordinated_chain(self, monkeypatch):
        # long segments: both the lockstep and the slot-by-slot walk run
        _, eps, succ = _decode_tables(
            np.array([[0.2, 0.24, 0.27, 0.29]]) * 10 ** (-2.02 / 10), CODE)
        walked = self.run_both(eps, succ, 2026, monkeypatch)
        assert 0 < walked < self.SLOTS // 2

    def test_five_rotation_uncoordinated_chain(self, monkeypatch):
        # five users on the five rotations of the R = 1/2 plan reset the
        # chain almost never, so every slot is walked
        plan = np.array([0.11, 0.15, 0.2, 0.24, 0.3])
        _, eps, succ = _decode_tables(np.array([np.roll(plan, r) for r in range(5)])
                                      * 10 ** (3.5 / 10), CodeParams(k=50, n=100))
        assert self.run_both(eps, succ, 77, monkeypatch) == self.SLOTS


class TestEpisodeSeeds:
    def test_children_match_spawn(self):
        lazy = list(_episode_seeds(2024, 5))
        spawned = np.random.SeedSequence(2024).spawn(5)
        for a, b in zip(lazy, spawned):
            assert (a.entropy, a.spawn_key) == (b.entropy, b.spawn_key)
            np.testing.assert_array_equal(a.generate_state(8), b.generate_state(8))

    def test_seeds_for_many_episodes_take_no_memory(self):
        # spawn(episodes) took ~375 bytes per episode, ~37 GB at 1e8
        tracemalloc.start()
        try:
            seeds = _episode_seeds(1, 10**8)
            next(seeds).generate_state(4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("spawn_key", [(), (0,), (7,)])
    def test_two_children_are_the_first_two_of_three(self, spawn_key):
        # a child depends only on its index, so spawn(2) gives the streams
        # spawn(3)[:2] gave while a third (fading) child was spawned
        two = np.random.SeedSequence(2024, spawn_key=spawn_key).spawn(2)
        three = np.random.SeedSequence(2024, spawn_key=spawn_key).spawn(3)[:2]
        for a, b in zip(two, three, strict=True):
            np.testing.assert_array_equal(a.generate_state(4), b.generate_state(4))

    def test_coordinated_chain_draws_from_the_first_child(self):
        cfg = SimConfig(system=ANCHOR_CFG, slots=30_000, seed=31, warmup=500)
        _, eps, succ = _decode_tables(
            np.asarray([ANCHOR_CFG.alphas]) * ANCHOR_CFG.p0, CODE)
        dyn_rng = np.random.default_rng(np.random.SeedSequence(31).spawn(2)[0])
        counts = _run_chain(dyn_rng, eps, succ, cfg.slots, cfg.warmup)
        np.testing.assert_array_equal(simulate_coordinated(cfg).state_visits,
                                      counts.sum(axis=(0, 2)))


class TestCoordinated:
    def test_seed_determinism(self):
        cfg = SimConfig(system=ANCHOR_CFG, slots=50_000, seed=42, warmup=500)
        assert sim_result_equal(simulate_coordinated(cfg), simulate_coordinated(cfg))

    def test_different_seeds_differ(self):
        a = simulate_coordinated(SimConfig(system=ANCHOR_CFG, slots=50_000, seed=1))
        b = simulate_coordinated(SimConfig(system=ANCHOR_CFG, slots=50_000, seed=2))
        assert not sim_result_equal(a, b)

    def test_forced_success_hook(self, monkeypatch):
        cfg = SimConfig(system=ANCHOR_CFG, slots=20_000, seed=3, warmup=100)
        monkeypatch.setattr(markov, "per_cc_batch", never_fails)
        res = simulate_coordinated(cfg)
        assert np.all(res.per == 0.0)
        assert np.all(res.success_prob == 1.0)
        # every slot sits in the all-success state
        assert res.state_visits[0] == res.slots_counted

    def test_forced_failure_hook(self, monkeypatch):
        cfg = SimConfig(system=ANCHOR_CFG, slots=20_000, seed=3, warmup=100)
        monkeypatch.setattr(markov, "per_cc_batch", always_fails)
        res = simulate_coordinated(cfg)
        assert np.all(res.per == 1.0)
        assert np.all(res.success_prob == 0.0)
        # phases cycle R -> F -> R: only the all-R and all-F states appear
        all_r = SystemState((Phase.R,) * 3).index
        all_f = SystemState((Phase.F,) * 3).index
        visited = np.nonzero(res.state_visits)[0]
        assert set(visited.tolist()) <= {all_r, all_f}

    def test_matches_analysis_within_three_sigma(self):
        cfg = SimConfig(system=ANCHOR_CFG, slots=1_000_000, seed=11, warmup=2000)
        res = simulate_coordinated(cfg)
        for m in analyze(ANCHOR_CFG):
            i = m.user
            assert abs(res.per[i] - m.per) <= 3 * res.per_stderr[i]
            assert abs(res.success_prob[i] - m.success_prob) <= \
                3 * res.success_prob_stderr[i]
            assert abs(res.throughput[i] - m.throughput) <= \
                3 * res.throughput_stderr[i]

    def test_state_frequencies_fit_stationary(self):
        cfg = SimConfig(system=ANCHOR_CFG, slots=1_000_000, seed=11, warmup=2000)
        res = simulate_coordinated(cfg)
        stat = stationary_distribution(build_transition_matrix(ANCHOR_CFG))
        _, _, pvalue = chi_square_state_fit(res.state_visits_thinned, stat.probs)
        assert pvalue > 0.01

    def test_slots_counted(self):
        cfg = SimConfig(system=ANCHOR_CFG, slots=30_000, seed=5, warmup=700)
        assert simulate_coordinated(cfg).slots_counted == 29_300

    def test_memory_linear_in_states(self):
        # counts by (state, first-failure stage) replace a 3^N x 3^N pair
        # matrix, which took 344 MB at N = 8
        ratios = np.arange(1.0, 9.0)
        cfg = SimConfig(system=SystemConfig(alphas=tuple(ratios / ratios.sum()),
                                            p0=10.0, code=CODE),
                        slots=3000, seed=7, warmup=100)
        tracemalloc.start()
        try:
            res = simulate_coordinated(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20
        assert res.state_visits.sum() == res.slots_counted == 2900

    def test_never_resetting_chain(self, monkeypatch):
        # every stage fails, so no slot returns the chain to state 0 and
        # the whole run steps one slot at a time
        ratios = np.arange(1.0, 9.0)
        cfg = SimConfig(system=SystemConfig(alphas=tuple(ratios / ratios.sum()),
                                            p0=0.1, code=CODE),
                        slots=20_000, seed=13, warmup=100)
        monkeypatch.setattr(markov, "per_cc_batch", always_fails)
        res = simulate_coordinated(cfg)
        assert np.all(res.per == 1.0)
        assert np.all(res.success_prob == 0.0)
        all_r = SystemState((Phase.R,) * 8).index
        all_f = SystemState((Phase.F,) * 8).index
        assert set(np.nonzero(res.state_visits)[0].tolist()) == {all_r, all_f}
        assert res.state_visits.sum() == res.slots_counted == 19_900

    def test_chunk_temporaries_do_not_grow_with_slots(self, monkeypatch):
        # the chain keeps per-chunk arrays, never one per slot of the run
        ratios = np.arange(1.0, 9.0)
        system = SystemConfig(alphas=tuple(ratios / ratios.sum()), p0=0.1, code=CODE)
        monkeypatch.setattr(montecarlo, "_CHAIN_CHUNK", 2048)
        monkeypatch.setattr(markov, "per_cc_batch", always_fails)
        peaks = []
        for slots in (4096, 40_960):
            tracemalloc.start()
            try:
                simulate_coordinated(SimConfig(system=system, slots=slots, seed=7, warmup=10))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + (64 << 10)

    def test_production_chunk_memory(self):
        # the chain holds a chunk's uniforms and moves, no per-slot array of
        # rotations, first rows or reset bounds: the benchmark's N = 4 call
        # peaked at 2.6 MiB, 5.1 MiB with those arrays at the same chunk
        system = SystemConfig(alphas=(0.2, 0.24, 0.27, 0.29), p0=10 ** (-2.02 / 10),
                              code=CODE)
        cfg = SimConfig(system=system, slots=200_000, seed=1, warmup=2000)
        tracemalloc.start()
        try:
            simulate_coordinated(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_state_frequencies_normalized(self):
        cfg = SimConfig(system=ANCHOR_CFG, slots=30_000, seed=5, warmup=700)
        res = simulate_coordinated(cfg)
        assert res.state_freq.sum() == pytest.approx(1.0, abs=1e-12)
        assert res.state_visits.sum() == res.slots_counted


class TestUncoordinated:
    UNCOORD = SimConfig(system=ANCHOR_CFG, slots=120_000, seed=9,
                        scenario="uncoordinated", warmup=200, episodes=40)

    def test_seed_determinism(self):
        assert sim_result_equal(simulate_uncoordinated(self.UNCOORD),
                                simulate_uncoordinated(self.UNCOORD))

    def test_single_user_single_segment_reduces_to_coordinated(self):
        # rate and power chosen so failures are frequent enough to observe
        solo = SystemConfig(alphas=(1.0,), p0=0.35, code=CodeParams(k=50, n=100))
        cfg = SimConfig(system=solo, slots=400_000, seed=18,
                        scenario="uncoordinated", warmup=100, episodes=4)
        res = simulate_uncoordinated(cfg)
        m = analyze(solo)[0]
        assert m.per > 1e-4  # the comparison is informative
        assert abs(res.per[0] - m.per) <= 3 * res.per_stderr[0]
        assert abs(res.success_prob[0] - m.success_prob) <= \
            3 * res.success_prob_stderr[0]

    def test_degrades_against_coordinated(self):
        res = simulate_uncoordinated(self.UNCOORD)
        coord_avg = np.mean([m.per for m in analyze(ANCHOR_CFG)])
        assert res.avg_per >= coord_avg

    def test_forced_failure_hook(self, monkeypatch):
        monkeypatch.setattr(markov, "per_cc_batch", always_fails)
        res = simulate_uncoordinated(self.UNCOORD)
        assert np.all(res.per == 1.0)

    def test_power_ledger_weighs_rotations_by_their_slots(self):
        # 2203 slots an episode over 5 rotations: slot t uses rotation
        # t % 5, so rotations 0-2 hold one slot more than rotations 3-4
        seed, episode_slots = 47, 2203
        five = SystemConfig(alphas=(0.1, 0.15, 0.2, 0.25, 0.3), p0=ANCHOR_CFG.p0, code=CODE)
        cfg = SimConfig(system=five, slots=2 * episode_slots, seed=seed,
                        scenario="uncoordinated", warmup=100, episodes=2)
        res = simulate_uncoordinated(cfg)
        plan = build_plan(CELL_RADIUS, five.alphas)
        grids = np.stack([plan.rotated(r).assignment for r in range(5)])
        tx = np.zeros(5)
        uniform = np.zeros(5)
        for i in range(2):
            seq = np.random.SeedSequence(seed, spawn_key=(i,))
            dist, ang = disk_positions(np.random.default_rng(seq.spawn(3)[1]), 5)
            rings, sectors = locate_segment(dist, ang, plan)
            matrix = np.asarray(plan.alphas)[grids[:, rings, sectors]]
            scale = five.p0 * dist**PATH_LOSS_EXP
            tx += scale * matrix[np.arange(episode_slots) % 5].sum(axis=0)
            uniform += scale * matrix.mean(axis=0) * episode_slots
        expect_inv = quad_mean_inversion()
        expect = tx * expect_inv / cfg.slots
        np.testing.assert_allclose(res.mean_tx_power, expect, rtol=1e-8)
        # the schedule's weights are not the plain mean over rotations
        assert not np.allclose(uniform * expect_inv / cfg.slots, expect, rtol=1e-6)


class TestPlanCap:
    def test_nine_planned_ratios_rejected_before_allocating(self):
        # n_hat bounds the decode tables of an episode, one per rotation
        nine = SystemConfig(alphas=tuple(np.full(9, 1 / 9)), p0=1.0, code=CODE)
        cfg = SimConfig(system=nine, slots=2000, warmup=100,
                        scenario="uncoordinated", n_actual=2, n_hat=9)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="8-user cap"):
                simulate_uncoordinated(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestOmaBaseline:
    def test_single_user_matches_noma(self):
        # with one user the matched power equals P0 and the chains coincide
        solo = SystemConfig(alphas=(1.0,), p0=0.35, code=CodeParams(k=50, n=100))
        noma = simulate_coordinated(SimConfig(system=solo, slots=300_000, seed=21))
        oma = simulate_oma_baseline(SimConfig(system=solo, slots=300_000, seed=21))
        m = analyze(solo)[0]
        assert m.per > 1e-4
        for res in (noma, oma):
            assert abs(res.per[0] - m.per) <= 3 * res.per_stderr[0]
            assert abs(res.throughput[0] - m.throughput) <= \
                3 * res.throughput_stderr[0]

    def test_per_and_throughput_ordering_against_noma(self):
        # no interference wins on reliability, the orthogonal schedule
        # loses on throughput at this operating point
        noma = simulate_coordinated(SimConfig(system=ANCHOR_CFG, slots=200_000, seed=23))
        oma = simulate_oma_baseline(SimConfig(system=ANCHOR_CFG, slots=200_000, seed=23))
        assert oma.per.max() <= noma.per.min()
        assert oma.throughput.max() < noma.throughput.min()

    def test_deterministic(self):
        cfg = SimConfig(system=ANCHOR_CFG, slots=60_000, seed=29)
        assert sim_result_equal(simulate_oma_baseline(cfg),
                                simulate_oma_baseline(cfg))

    def test_forced_success_hook(self, monkeypatch):
        # the draws read the same error rates as the matched power; at
        # -10 dB the real formula fails most first transmissions
        monkeypatch.setattr(markov, "per_cc_batch", never_fails)
        system = SystemConfig(alphas=(0.5, 0.5), p0=0.1, code=CODE)
        res = simulate_oma_baseline(SimConfig(system=system, slots=20_000, seed=3))
        assert np.all(res.per == 0.0)
        assert np.all(res.success_prob == 1.0)

    def test_tally_matches_slot_by_slot_walk(self):
        # eps1 = 0.71, eps2 = 0.11: many retransmissions and losses.  Each
        # user's rounds are walked from its regenerated draws; a lost
        # packet counts in its failing R slot and in the F slot after it
        system = SystemConfig(alphas=(0.5, 0.5), p0=10 ** (-10 / 10), code=CODE)
        (eps1, eps2), _ = per_cc_batch(
            np.array([1.0, 2.0]) * oma_received_power(system), CODE)
        ends = set()
        for seed in range(1, 13):
            cfg = SimConfig(system=system, slots=4000, seed=seed)
            res = simulate_oma_baseline(cfg)
            dyn_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
            own_total = 0
            for user in range(2):
                first, second = dyn_rng.random(2000), dyn_rng.random(2000)
                own = f_slots = r_fails = fresh_ok = 0
                after_loss = False
                for u1, u2 in zip(first, second):
                    own += 1
                    f_slots += after_loss
                    after_loss = False
                    if u1 >= eps1:
                        fresh_ok += 1
                        continue
                    own += 1
                    if u2 < eps2:
                        r_fails += 1
                        after_loss = True
                ends.add(after_loss)
                assert res.per[user] == (f_slots + r_fails) / own
                assert res.success_prob[user] == fresh_ok / own
                own_total += own
            assert res.slots_counted == own_total
        # some user lost its last packet, whose F slot lies past the run
        assert ends == {False, True}


class TestEnergyLedger:
    def test_disk_sampling_mean_squared_radius(self):
        rng = np.random.default_rng(37)
        d, ang = disk_positions(rng, 200_000)
        assert d.max() <= CELL_RADIUS
        assert float(np.mean(d**2)) == pytest.approx(CELL_RADIUS**2 / 2, rel=5e-3)
        assert float(np.mean(ang)) == pytest.approx(math.pi, rel=5e-3)

    def test_cap_fraction_and_mean_inversion(self):
        cap = POWER_CAP_FACTOR
        cfg = SimConfig(system=ANCHOR_CFG, slots=400_000, seed=31)
        res = simulate_coordinated(cfg)
        oma = simulate_oma_baseline(cfg)
        # capped slots happen when the fading draw falls below 1/cap; both
        # fields are expectations over the fading, not sample means
        p_cap = -math.expm1(-1.0 / cap)
        for frac in np.concatenate([res.cap_fraction, oma.cap_fraction]):
            assert frac == pytest.approx(p_cap, abs=1e-15)
        expect_inv = quad_mean_inversion()
        # reproduce the documented seed-splitting rule to recover distances
        place = np.random.default_rng(np.random.SeedSequence(31).spawn(3)[1])
        dist, _ = disk_positions(place, 3)
        scale = ANCHOR_CFG.powers * dist**PATH_LOSS_EXP
        ratio = res.mean_tx_power / scale
        for r in ratio:
            assert r == pytest.approx(expect_inv, rel=1e-8)
        oma_scale = oma_received_power(ANCHOR_CFG) * dist**PATH_LOSS_EXP
        for r in oma.mean_tx_power / oma_scale:
            assert r == pytest.approx(expect_inv, rel=1e-8)

    def test_finite_power_reported(self):
        res = simulate_coordinated(SimConfig(system=ANCHOR_CFG, slots=50_000, seed=33))
        assert np.all(np.isfinite(res.mean_tx_power))
        assert np.all(res.mean_tx_power > 0)


class TestChiSquareHelper:
    def test_matching_distribution_not_rejected(self):
        rng = np.random.default_rng(41)
        probs = np.array([0.5, 0.3, 0.15, 0.04, 0.01])
        counts = rng.multinomial(20_000, probs)
        _, _, pvalue = chi_square_state_fit(counts, probs)
        assert pvalue > 0.01

    def test_wrong_distribution_rejected(self):
        rng = np.random.default_rng(42)
        counts = rng.multinomial(20_000, [0.5, 0.3, 0.15, 0.04, 0.01])
        _, _, pvalue = chi_square_state_fit(counts, np.full(5, 0.2))
        assert pvalue < 1e-6

    def test_small_cells_pooled(self):
        probs = np.array([0.97, 0.01] + [0.004] * 5)
        counts = (probs * 1000).astype(int)
        stat, dof, pvalue = chi_square_state_fit(counts, probs)
        # 970, 10, and the pooled remainder: 3 cells -> 2 dof at most
        assert dof <= 2
        assert pvalue > 0.5
