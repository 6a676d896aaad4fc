"""GA mechanics, simplex feasibility, and the blocklength search."""

import itertools
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import noma_harq.optimizer as optimizer
from noma_harq.errors import InfeasibleError
from noma_harq.fbl import CodeParams, per_cc_batch
from noma_harq.markov import max_user_per
from noma_harq.optimizer import (
    GaParams,
    ga_minimize,
    min_blocklength,
    optimize_power_split,
    pareto_front,
)
from oracle import per_cc

FAST = GaParams(population_size=24, generations=40, seed=99)


class TestGaParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            GaParams(population_size=2)

    @pytest.mark.parametrize("field", ["generations", "seed"])
    def test_negative_generations_or_seed_rejected(self, field):
        with pytest.raises(ValueError, match="generations >= 0 and seed >= 0"):
            GaParams(**{field: -1})

    def test_population_capped(self):
        # ga_minimize allocates the whole (population, N) array before its
        # first evaluation; 10^9 rows at N = 8 would ask for ~60 GiB
        GaParams(population_size=optimizer.MAX_POPULATION)
        for size in (optimizer.MAX_POPULATION + 1, 10**9):
            with pytest.raises(ValueError, match="population_size must be between 4 and"):
                GaParams(population_size=size)


class TestGaMinimize:
    def test_one_variable_returns_unit(self):
        alphas, val = ga_minimize(lambda a: a[:, 0], 1, FAST)
        assert np.array_equal(alphas, [1.0])
        assert val == 1.0

    def test_convex_objective_finds_uniform(self):
        n = 4
        target = np.full(n, 1.0 / n)

        def objective(a):
            return ((a - target) ** 2).sum(axis=1)

        alphas, val = ga_minimize(objective, n, GaParams(seed=7))
        assert np.abs(alphas - target).max() <= 1e-3
        assert val <= 1e-5

    def test_deterministic_given_seed(self):
        def objective(a):
            return ((a - np.array([0.2, 0.3, 0.5])) ** 2).sum(axis=1)

        r1 = ga_minimize(objective, 3, FAST)
        r2 = ga_minimize(objective, 3, FAST)
        assert np.array_equal(r1[0], r2[0])
        assert r1[1] == r2[1]

    def test_every_evaluated_point_is_feasible(self):
        seen = []

        def objective(a):
            seen.extend(np.array(a))
            return a.max(axis=1)

        ga_minimize(objective, 3, GaParams(population_size=16, generations=25, seed=3))
        assert seen
        for a in seen:
            assert abs(a.sum() - 1.0) <= 1e-9
            assert np.all(a > 0.0)

    def test_elites_are_not_reevaluated(self, monkeypatch):
        calls = []
        batches = []

        def objective(a):
            calls.extend(a)
            batches.append(len(a))
            return ((a - np.array([0.2, 0.3, 0.5])) ** 2).sum(axis=1)

        monkeypatch.setattr(optimizer, "ELITISM", 3)
        params = GaParams(population_size=10, generations=7, seed=5)
        alphas, val = ga_minimize(objective, 3, params)
        # the initial population, then per generation at most the
        # 10 - 3 children that are not elites: those that crossover or
        # mutation changed (44 of 49 at this seed)
        assert batches[0] == 10
        assert all(1 <= b <= 10 - 3 for b in batches[1:])
        assert len(calls) == sum(batches) == 10 + 44
        # elites and unchanged children are never evaluated again
        assert len({tuple(a) for a in calls}) == len(calls)
        # the carried fitness is the value at the returned vector
        assert objective(alphas[None])[0] == val

    def test_copies_keep_their_parents_fitness(self, monkeypatch):
        # with no crossover and no mutation every child is a copy of its
        # parent, so only the initial population is evaluated
        batches = []

        def objective(a):
            batches.append(len(a))
            return ((a - np.array([0.2, 0.3, 0.5])) ** 2).sum(axis=1)

        monkeypatch.setattr(optimizer, "CROSSOVER_RATE", 0.0)
        monkeypatch.setattr(optimizer, "MUTATION_RATE", 0.0)
        params = GaParams(population_size=12, generations=9, seed=4)
        alphas, val = ga_minimize(objective, 3, params)
        assert batches == [12]
        assert objective(alphas[None])[0] == val

    def test_logs_evaluations_and_kept_children(self, caplog):
        batches = []

        def objective(a):
            batches.append(len(a))
            return a.max(axis=1)

        params = GaParams(population_size=16, generations=10, seed=8)
        with caplog.at_level(logging.DEBUG, logger="noma_harq.optimizer"):
            ga_minimize(objective, 3, params)
        records = [r for r in caplog.records if r.name == "noma_harq.optimizer"]
        assert [r.levelno for r in records] == [logging.DEBUG]
        evaluated, kept = records[0].args
        assert evaluated == sum(batches)
        # every generation's children are either evaluated or kept
        assert evaluated + kept == 16 + 10 * (16 - optimizer.ELITISM)
        assert kept > 0

    def test_non_finite_objective_ranked_worst(self):
        def objective(a):
            return np.where(a[:, 0] > 0.4, math.nan, a[:, 0])

        alphas, val = ga_minimize(objective, 2, FAST)
        assert math.isfinite(val)
        assert alphas[0] <= 0.4

    def test_trace_receives_every_generation(self):
        calls = []
        params = GaParams(population_size=8, generations=12, seed=2)
        ga_minimize(lambda a: a[:, 0], 2, params,
                    trace=lambda g, v: calls.append((g, v)))
        assert [g for g, _ in calls] == list(range(12))
        bests = [v for _, v in calls]
        assert all(a >= b for a, b in zip(bests, bests[1:]))

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_answer_is_first_row_that_scored_the_minimum(self, seed):
        # ga_minimize keeps no record of its best row beside the elites:
        # this pins what they must carry for the final population to hold it
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(2, 4))
        rows, vals, trace = [], [], []

        def objective(a):
            # rugged and rounded, so different rows tie; some rows read NaN
            v = np.round(np.sin(30.0 * a @ w[0]) + np.sin(45.0 * a @ w[1]), 2)
            v[np.sin(90.0 * a @ w[1]) > 0.7] = math.nan
            rows.extend(a)
            vals.extend(v)
            return v

        params = GaParams(population_size=16, generations=30, seed=seed)
        alphas, val = ga_minimize(objective, 4, params, trace=lambda g, v: trace.append(v))
        scored = np.where(np.isfinite(vals), vals, np.inf)
        assert np.isnan(vals).any()
        assert val == scored.min()
        assert np.array_equal(alphas, rows[int(np.flatnonzero(scored == val)[0])])
        assert all(a >= b for a, b in zip(trace, trace[1:]))
        assert trace[-1] == val

    @pytest.mark.parametrize("n_vars", [0, -1])
    def test_no_variable_rejected(self, n_vars):
        with pytest.raises(ValueError, match="n_vars must be at least 1"):
            ga_minimize(lambda a: a.sum(axis=1), n_vars, GaParams(8, 0, 1))

    def test_warm_start_injected(self):
        target = np.array([0.6, 0.3, 0.1])

        def objective(a):
            return ((a - target) ** 2).sum(axis=1)

        params = GaParams(population_size=8, generations=0, seed=1)
        _, cold = ga_minimize(objective, 3, params)
        _, warm = ga_minimize(objective, 3, params, initial=target)
        assert warm <= cold
        assert warm <= 1e-12
        # the warm start is one vector of n_vars ratios; a shorter one is
        # not broadcast over the genes
        for bad in ([0.5], [0.5, 0.5], [target, target]):
            with pytest.raises(ValueError, match=r"initial has shape .* \(n_vars,\) = \(3,\)"):
                ga_minimize(objective, 3, params, initial=bad)


class TestOptimizePowerSplit:
    @pytest.mark.parametrize("n_users, p0_db, code, params, want_alphas, want_val", [
        (3, -2.02, CodeParams(k=25, n=100),
         GaParams(population_size=60, generations=100, seed=2024),
         ["0x1.58d060ffd6de3p-2", "0x1.31614790472ebp-2", "0x1.75ce576fe1f33p-2"],
         "0x1.603e3ff504caap-7"),
        (5, 0.0, CodeParams(k=50, n=228),
         GaParams(population_size=32, generations=20, seed=2025),
         ["0x1.72ec4cd06aa95p-3", "0x1.9d22621ac9414p-3", "0x1.e30b4b33ec433p-3",
          "0x1.c3e697d0e603fp-3", "0x1.48ff6e0ff9ce6p-3"],
         "0x1.f4b0e5d0c136fp-8"),
    ])
    def test_golden_optimum(self, n_users, p0_db, code, params, want_alphas, want_val):
        # the searches as the benchmark's power-optimization round runs
        # them, pinned bit for bit: the GA's random stream, its fitness
        # bookkeeping and the stacked objective must all stay as they are
        alphas, val = optimize_power_split(n_users, p0_db, code, params)
        assert [a.hex() for a in alphas] == want_alphas
        assert val.hex() == want_val

    def test_matches_anchor_neighborhood(self):
        code = CodeParams(k=25, n=100)
        alphas, val = optimize_power_split(
            3, -2.02, code, GaParams(population_size=40, generations=80, seed=5)
        )
        ordered = np.sort(alphas)
        for got, want in zip(ordered, (0.29, 0.35, 0.36)):
            assert abs(got - want) <= 0.05
        assert val <= 1.5e-2


def closed_form_single_user_nmin(k, snr_db, target):
    """Stride-1 scan of the single-user chain PER, independent of the GA."""
    p0 = 10 ** (snr_db / 10)
    n = k + 1
    while True:
        code = CodeParams(k=k, n=n)
        e1 = per_cc(p0, code)
        e2 = per_cc(2 * p0, code)
        if 2 * e1 * e2 / (1 + e1) <= target:
            return n
        n += 1


def single_user_bound(n_users, p0, code):
    """2 eps1 eps2 / (1 + eps1) at power P0/N: min_blocklength's bound."""
    (eps1, eps2), _ = per_cc_batch(np.array([p0, 2 * p0]) / n_users, code)
    return 2 * eps1 * eps2 / (1 + eps1)


@st.composite
def log_per_curves(draw):
    """log(PER / target) at start, start + 1, ...: non-increasing and
    piecewise linear, with random log-slopes, kinks between the pieces and
    flat pieces (plateaus); and its piece count."""
    # log-slopes log-uniform in [-3.2, -1e-3] per channel use, or 0
    log_slopes = st.one_of(st.just(0.0), st.floats(-3.0, 0.5).map(lambda e: -10.0 ** e))
    pieces = draw(st.lists(st.tuples(st.integers(1, 200), log_slopes), min_size=1, max_size=6))
    slopes = np.concatenate([np.full(length, slope) for length, slope in pieces])
    head = draw(st.floats(-1.0, 12.0))
    return head + np.concatenate([[0.0], np.cumsum(slopes)]), len(pieces)


def search_record(caplog):
    """(start, blocklengths tried, answer) of the one search log record."""
    records = [r for r in caplog.records if r.name == "noma_harq.optimizer"]
    assert [r.levelno for r in records] == [logging.INFO]
    return records[0].args


class TestSingleUserBound:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n_users=st.integers(1, 4), data=st.data(), n=st.integers(51, 600),
           p0_db=st.floats(-6.0, 12.0))
    def test_worst_per_never_below_bound(self, n_users, data, n, p0_db):
        raw = [data.draw(st.integers(1, 100)) for _ in range(n_users)]
        alphas = np.array(raw, dtype=float) / sum(raw)
        p0 = 10 ** (p0_db / 10)
        code = CodeParams(k=50, n=n)
        # rounding of the float64 Gaussian tail, and equality at N = 1
        assert max_user_per(alphas, p0, code) >= \
            single_user_bound(n_users, p0, code) * (1 - 1e-12)

    def test_bound_fails_above_two_to_the_k(self):
        # per_cc rises with the SINR near zero once n > 2^k, so starved
        # users beat the bound; the search stops using it at n = 2^k
        p0, code = 0.1, CodeParams(k=4, n=64)
        worst = max_user_per(np.array([0.005, 0.005, 0.99]), p0, code)
        assert worst < single_user_bound(3, p0, code) / 10

    def test_search_stops_using_bound_at_two_to_the_k(self):
        contexts = set()
        try:
            min_blocklength(4, -10.0, 3, 1e-4, FAST, n_cap=2 ** 4 + 1,
                            trace=lambda label, g, v: contexts.add(label))
        except InfeasibleError:
            pass
        assert contexts == {"P0=-10dB n=17"}

    @pytest.mark.parametrize("snr_db, target", [(-3.0, 1e-3), (-1.0, 1e-4),
                                                (0.0, 1e-5)])
    def test_single_user_starts_at_answer(self, monkeypatch, caplog,
                                          snr_db, target):
        runs = []
        solve = optimizer.optimize_power_split

        def counted(*args, **kwargs):
            runs.append(args[2].n)
            return solve(*args, **kwargs)

        # one user needs no GA generations, so no trace context fires;
        # count the searches instead
        monkeypatch.setattr(optimizer, "optimize_power_split", counted)
        with caplog.at_level(logging.INFO, logger="noma_harq.optimizer"):
            got, _ = min_blocklength(50, snr_db, 1, target, FAST)
        expect = closed_form_single_user_nmin(50, snr_db, target)
        assert search_record(caplog) == (expect, [expect], expect)
        assert got == expect
        assert runs == [expect]

    @pytest.mark.parametrize("n_users", [2, 3])
    def test_no_ga_run_meets_target_below_start(self, n_users, caplog):
        with caplog.at_level(logging.INFO, logger="noma_harq.optimizer"):
            min_blocklength(50, 0.0, n_users, 1e-2, FAST)
        start, _, _ = search_record(caplog)
        assert start > 51
        for n in range(51, start):
            _, val = optimize_power_split(n_users, 0.0, CodeParams(k=50, n=n), FAST)
            assert val > 1e-2

    def test_ruled_out_target_raises_before_any_ga_run(self):
        contexts = set()
        with pytest.raises(InfeasibleError) as exc:
            min_blocklength(50, -20.0, 3, 1e-9, FAST,
                            trace=lambda label, g, v: contexts.add(label))
        assert not contexts
        lowest = min(single_user_bound(3, 0.01, CodeParams(k=50, n=n))
                     for n in range(51, 4097))
        assert exc.value.best_value == lowest
        assert exc.value.best_value > 1e-9


class TestMinBlocklength:
    def test_trivial_target_stops_at_first_candidate(self):
        n_min, alphas = min_blocklength(50, 20.0, 1, 0.99, FAST)
        assert n_min == 51
        assert alphas == (1.0,)

    def test_single_user_matches_closed_form_scan(self):
        for snr_db, target in [(-3.0, 1e-3), (-1.0, 1e-4), (0.0, 1e-5)]:
            expect = closed_form_single_user_nmin(50, snr_db, target)
            got, _ = min_blocklength(50, snr_db, 1, target, FAST)
            assert got == expect

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(curve=log_per_curves(), target=st.sampled_from([1e-2, 1e-3, 1e-5]))
    def test_matches_stride_one_scan(self, curve, target):
        # a synthetic optimized PER in place of the GA, over start..n_cap
        log_excess, pieces = curve
        start = next(n for n in itertools.count(51)
                     if single_user_bound(3, 1.0, CodeParams(k=50, n=n)) <= target)
        n_cap = start + len(log_excess) - 1
        per = target * np.exp(log_excess)
        probes = []

        def synthetic(n_users, p0_db, code, params, initial=None, trace=None):
            probes.append(code.n)
            return np.full(n_users, 1.0 / n_users), float(per[code.n - start])

        feasible = np.flatnonzero(per <= target)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimizer, "optimize_power_split", synthetic)
            if len(feasible):
                got, _ = min_blocklength(50, 0.0, 3, target, FAST, n_cap=n_cap)
                assert got == start + feasible[0]
            else:
                with pytest.raises(InfeasibleError) as exc:
                    min_blocklength(50, 0.0, 3, target, FAST, n_cap=n_cap)
                assert exc.value.best_value == min(per[n - start] for n in probes)
        assert probes[0] == start
        assert all(start <= n <= n_cap for n in probes)
        assert len(set(probes)) == len(probes)
        # expanding takes at most two probes per linear piece of log PER,
        # plus one per MAX_STEP channel uses; shrinking the last step's
        # bracket (at most MAX_STEP = 2^6 wide) halves it at least every
        # third probe
        assert len(probes) <= (2 * pieces + 1 + (n_cap - start) // optimizer.MAX_STEP
                               + 3 * 6)

    def test_logs_start_tries_and_answer(self, caplog):
        contexts = []

        def trace(label, generation, best):
            if label not in contexts:
                contexts.append(label)

        with caplog.at_level(logging.INFO, logger="noma_harq.optimizer"):
            n_min, _ = min_blocklength(50, 0.0, 2, 1e-3, FAST, trace=trace)
        start, tried, answer = search_record(caplog)
        assert tried[0] == start
        assert answer == n_min
        assert n_min in tried
        assert contexts == [f"P0=0dB n={n}" for n in tried]

    def test_infeasible_carries_best_value(self):
        with pytest.raises(InfeasibleError) as exc:
            min_blocklength(50, -20.0, 1, 1e-9, FAST, n_cap=80)
        assert exc.value.best_value is not None
        assert exc.value.best_value > 1e-9

    @pytest.mark.parametrize("n_users", [0, -1])
    def test_user_count_validated_before_bound(self, n_users):
        with pytest.raises(ValueError, match="n_users"):
            min_blocklength(50, 0.0, n_users, 0.1, FAST)

    def test_validation(self):
        with pytest.raises(ValueError):
            min_blocklength(50, 0.0, 1, 0.0, FAST)
        with pytest.raises(ValueError):
            min_blocklength(0, 0.0, 1, 0.1, FAST)
        # no n in k + 1 .. n_cap to search
        with pytest.raises(ValueError, match="n_cap 50"):
            min_blocklength(50, 0.0, 1, 0.1, FAST, n_cap=50)


class TestParetoFront:
    CODE = CodeParams(k=25, n=100)

    def test_single_point_grid(self):
        front = pareto_front(2, self.CODE, [-1.0], FAST)
        assert len(front) == 1
        assert front[0].p0_db == -1.0
        assert abs(sum(front[0].alphas) - 1.0) <= 1e-9

    def test_mutually_non_dominated_and_sorted(self):
        front = pareto_front(2, self.CODE, [-2.0, -1.0, 0.0, 1.0], FAST)
        assert [pt.p0_db for pt in front] == sorted(pt.p0_db for pt in front)
        for a in front:
            for b in front:
                if a is b:
                    continue
                dominates = (b.p0_db <= a.p0_db and b.max_per <= a.max_per
                             and (b.p0_db < a.p0_db or b.max_per < a.max_per))
                assert not dominates

    def test_per_decreases_along_power(self):
        front = pareto_front(2, self.CODE, [-2.0, 0.0, 2.0], FAST)
        pers = [pt.max_per for pt in front]
        assert all(a > b for a, b in zip(pers, pers[1:]))

    def test_front_tracks_published_anchors(self):
        # published optima for 3 users at R = 1/4, n = 100; the optimized
        # front should pass within half an order of magnitude on the PER axis
        anchors = [(-2.02, 7.5e-3), (-0.77, 1e-3), (-0.07, 1e-4), (0.69, 8.85e-6)]
        params = GaParams(population_size=32, generations=60, seed=41)
        front = pareto_front(3, self.CODE, [db for db, _ in anchors], params)
        by_power = {pt.p0_db: pt.max_per for pt in front}
        for db, target in anchors:
            assert db in by_power
            assert abs(math.log10(by_power[db] / target)) <= 0.5

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            pareto_front(2, self.CODE, [], FAST)
