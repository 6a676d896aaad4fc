"""Transition-matrix structure, stationary solve, and per-user metrics."""

import itertools
import logging
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import noma_harq.markov as markov
from noma_harq.errors import NumericalError, ReducibleChainError
from noma_harq.fbl import CodeParams
from noma_harq.markov import (
    StationaryDistribution,
    TransitionMatrix,
    analyze,
    build_transition_matrix,
    delay_pmf,
    max_user_per,
    stationary_distribution,
    throughput,
)
from noma_harq.montecarlo import SimConfig, simulate_coordinated, simulate_uncoordinated
from noma_harq.sic import Phase, SystemConfig, SystemState, decoding_order
from oracle import per_cc, per_user, stage_tables, success_prob, table_analysis, \
    transition_prob

CODE = CodeParams(k=25, n=100)
ANCHOR_CFG = SystemConfig(alphas=(0.29, 0.35, 0.36), p0=10 ** (-2.02 / 10), code=CODE)


def random_config(rng, n_max=4):
    n = int(rng.integers(1, n_max + 1))
    raw = rng.uniform(0.2, 1.0, size=n)
    return SystemConfig(alphas=tuple(raw / raw.sum()),
                        p0=float(rng.uniform(0.05, 30.0)), code=CODE)


# at -10 dB every stationary solve of these chains underflows to NaN
NAN_CASES = {"N5": ((0.0888, 0.0720, 0.0312, 0.6340, 0.1740), 50),
             "N4": ((0.452, 0.116, 0.248, 0.185), 75)}


def assert_relative(got: float, want: float, tol: float = 1e-12) -> None:
    assert abs(got - want) <= tol * abs(want), (got, want)


def exact_metrics(cfg: SystemConfig, dps: int = 400):
    """PER and p_s of every user from the chain in dps-digit arithmetic.

    Only the SIC decoding order comes from the package (the scalar
    decoding_order); stage SINRs, error rates, the stationary vector (a
    replaced-row solve, exact at this precision down to the smallest
    double) and the per-user sums over transition entries are evaluated
    here.
    """
    n = cfg.n_users
    m = 3**n
    k, blk = cfg.code.k, cfg.code.n
    with mpmath.workdps(dps):
        powers = [mpmath.mpf(a) * mpmath.mpf(cfg.p0) for a in cfg.alphas]

        def eps_of(gamma):
            v = (1 - (1 + gamma) ** -2) * mpmath.log(mpmath.e, 2) ** 2
            num = blk * mpmath.log(1 + gamma, 2) - k + mpmath.log(blk, 2)
            return mpmath.erfc(num / mpmath.sqrt(2 * blk * v)) / 2

        pm = mpmath.zeros(m, m)
        for s in range(m):
            ph = SystemState.from_index(s, n).phases
            order = decoding_order(SystemState(ph), cfg).order
            reach = mpmath.mpf(1)
            for w, j in enumerate(order):
                undecoded = order[w:]
                g = powers[j] / (sum(powers[u] for u in undecoded if u != j) + 1)
                if ph[j] is Phase.R:
                    stored = [u for u in range(n) if u != j and (
                        ph[u] is Phase.F or (ph[u] is Phase.R and u in undecoded))]
                    g += powers[j] / (sum(powers[u] for u in stored) + 1)
                e = eps_of(g)
                nxt = sum((int(Phase.F) if ph[u] is Phase.R else int(Phase.R)) * 3**u
                          for u in undecoded)
                pm[s, nxt] += reach * e
                reach *= 1 - e
            pm[s, 0] += reach
        a = pm.T - mpmath.eye(m)
        a[m - 1, :] = mpmath.ones(1, m)
        rhs = mpmath.zeros(m, 1)
        rhs[m - 1] = 1
        p = mpmath.lu_solve(a, rhs)
        digits = [SystemState.from_index(s, n).phases for s in range(m)]
        per, p_s = [], []
        for i in range(n):
            to_f = [mpmath.fsum(pm[s, t] for t in range(m) if digits[t][i] is Phase.F)
                    for s in range(m)]
            to_s = [mpmath.fsum(pm[s, t] for t in range(m) if digits[t][i] is Phase.S)
                    for s in range(m)]
            per.append(mpmath.fsum(
                p[s] * (1 if digits[s][i] is Phase.F else to_f[s])
                for s in range(m) if digits[s][i] is not Phase.S))
            p_s.append(mpmath.fsum(p[s] * to_s[s] for s in range(m)
                                   if digits[s][i] is not Phase.R))
    return [float(e) for e in per], [float(q) for q in p_s]


def gth_oracle(matrix: np.ndarray) -> np.ndarray:
    """Stationary vector by textbook Grassmann-Taksar-Heyman elimination:
    no subtraction anywhere, so every component is right to a few ulps
    relative."""
    a = np.array(matrix, dtype=float)
    m = len(a)
    for n in range(m - 1, 0, -1):
        a[:n, n] /= a[n, :n].sum()
        a[:n, :n] += np.outer(a[:n, n], a[n, :n])
    x = np.zeros(m)
    x[0] = 1.0
    for j in range(1, m):
        x[j] = x[:j] @ a[:j, j]
    return x / x.sum()


@pytest.fixture
def gth_sizes(monkeypatch):
    """The state count of every chain that reaches whole-chain GTH."""
    sizes = []
    gth = markov._gth

    def spy(src, dst, prob, m):
        sizes.append(m)
        return gth(src, dst, prob, m)

    monkeypatch.setattr(markov, "_gth", spy)
    return sizes


def single_user_chain(eps1: float, eps2: float) -> TransitionMatrix:
    """Hand-built single-user chain: fresh packets fail with eps1, the
    MRC retransmission with eps2.  State order (S, R, F)."""
    matrix = np.array([
        [1 - eps1, eps1, 0.0],
        [1 - eps2, 0.0, eps2],
        [1 - eps1, eps1, 0.0],
    ])
    return TransitionMatrix(matrix=matrix, n_users=1)


class TestTransitionProb:
    def test_fresh_to_failed_is_zero(self):
        j = SystemState((Phase.S,) * 3)
        j2 = SystemState((Phase.F, Phase.S, Phase.S))
        assert transition_prob(j, j2, ANCHOR_CFG) == 0.0

    def test_retransmit_to_retransmit_is_zero(self):
        j = SystemState((Phase.R, Phase.S, Phase.S))
        j2 = SystemState((Phase.R, Phase.S, Phase.S))
        assert transition_prob(j, j2, ANCHOR_CFG) == 0.0

    def test_success_after_sic_stop_is_zero(self):
        # all fresh: decode order is user3, user2, user1 (descending power);
        # first stage failing while the second succeeds cannot happen
        j = SystemState((Phase.S,) * 3)
        j2 = SystemState((Phase.R, Phase.S, Phase.R))  # user3 fails, user2 ok
        assert transition_prob(j, j2, ANCHOR_CFG) == 0.0

    def test_all_success_product(self):
        j = SystemState((Phase.S,) * 3)
        dec = decoding_order(j, ANCHOR_CFG)
        expect = 1.0
        for g in dec.stage_sinrs:
            expect *= 1.0 - per_cc(g, CODE)
        assert transition_prob(j, j, ANCHOR_CFG) == pytest.approx(expect, rel=1e-12)

    def test_rows_built_from_transition_prob_match_matrix(self):
        rng = np.random.default_rng(21)
        for _ in range(6):
            cfg = random_config(rng, n_max=3)
            n = cfg.n_users
            m = 3**n
            tm = build_transition_matrix(cfg)
            naive = np.empty((m, m))
            for a in range(m):
                ja = SystemState.from_index(a, n)
                for b in range(m):
                    naive[a, b] = transition_prob(ja, SystemState.from_index(b, n), cfg)
            assert np.allclose(naive, tm.matrix, atol=1e-12)


def _normalized(rows):
    rows = np.array(rows, dtype=float)
    return rows / rows.sum(axis=1, keepdims=True)


@st.composite
def table_inputs(draw):
    """(N,) ratios, P0 and code at N = 1..6 over -30..+30 dB; the short
    codes reach n > 2^k, where the log2(n) term outweighs k."""
    n = draw(st.integers(1, 6))
    raw = np.array([draw(st.integers(1, 100)) for _ in range(n)], dtype=float)
    k = draw(st.one_of(st.integers(1, 8), st.integers(9, 199)))
    code = CodeParams(k=k, n=k + draw(st.integers(1, 3 * k + 399)))
    return raw / raw.sum(), 10 ** (draw(st.floats(-30.0, 30.0)) / 10), code


class TestTransitionMatrix:
    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"matrix shape \(3, 3\) does not match 2 users"):
            TransitionMatrix(matrix=np.eye(3), n_users=2)

    def test_nan_or_out_of_range_entries_rejected(self):
        # a comparison with NaN is False, so a check written as x < 0 passes NaN
        for bad in (math.nan, -0.5):
            matrix = np.array([[0.5, 0.5, bad], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                TransitionMatrix(matrix=matrix, n_users=1)
        with pytest.raises(ValueError, match="rows must sum to 1"):
            TransitionMatrix(matrix=np.array([[0.5, 0.4, 0.0], [1.0, 0.0, 0.0],
                                              [1.0, 0.0, 0.0]]), n_users=1)

    def test_single_user_structure(self):
        tm = build_transition_matrix(SystemConfig(alphas=(1.0,), p0=1.0, code=CODE))
        r_idx = SystemState((Phase.R,)).index
        assert tm.matrix[r_idx, r_idx] == 0.0

    def test_single_user_high_power_stays_successful(self):
        tm = build_transition_matrix(SystemConfig(alphas=(1.0,), p0=1e9, code=CODE))
        s_idx = SystemState((Phase.S,)).index
        assert tm.matrix[s_idx, s_idx] == pytest.approx(1.0, abs=1e-12)

    def test_rows_stochastic_table_config(self):
        tm = build_transition_matrix(ANCHOR_CFG)
        assert np.abs(tm.matrix.sum(axis=1) - 1.0).max() <= 1e-9

    def test_rows_stochastic_randomized(self):
        rng = np.random.default_rng(22)
        for _ in range(1000):
            tm = build_transition_matrix(random_config(rng, n_max=4))
            assert np.abs(tm.matrix.sum(axis=1) - 1.0).max() <= 1e-9

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(table_inputs())
    @example((np.array([1.0]), 1e-3, CodeParams(k=3, n=40)))
    @example((np.arange(1.0, 7.0) / 21.0, 1e3, CodeParams(k=5, n=300)))
    def test_chain_table_rows_sum_to_one(self, case):
        # per_cc_batch's complementary (eps, 1 - eps) pairs keep every row
        # stochastic to a few ulps with no renormalization
        alphas, p0, code = case
        _, _, prob = markov._chain_table(alphas * p0, code)[:3]
        assert (prob >= 0.0).all()
        assert np.abs(prob.sum(axis=-1) - 1.0).max() <= 8 * np.spacing(1.0)

    def test_structural_zeros_exhaustive(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            cfg = random_config(rng, n_max=3)
            n = cfg.n_users
            tm = build_transition_matrix(cfg)
            for a in range(3**n):
                ja = SystemState.from_index(a, n)
                for b in range(3**n):
                    jb = SystemState.from_index(b, n)
                    for cur, nxt in zip(ja.phases, jb.phases):
                        banned = (cur is not Phase.R and nxt is Phase.F) or (
                            cur is Phase.R and nxt is Phase.R
                        )
                        if banned:
                            assert tm.matrix[a, b] == 0.0
                            break


def stage_table_stacks(n_users: int):
    """Random (B, N) received-power stacks of 1 to 40 chains (at most
    2^16 states in all): small integer ratios, whose equal users tie at
    some stage, and continuous ones, at -10..+15 dB."""
    rng = np.random.default_rng(n_users)
    most = min(40, 2 ** 16 // 3 ** n_users)
    for ties in (True, False, True, False):
        size = (int(rng.integers(1, most + 1)), n_users)
        raw = rng.integers(1, 4, size=size) if ties else rng.uniform(0.01, 1.0, size=size)
        yield _normalized(raw) * 10 ** rng.uniform(-1.0, 1.5, size=(size[0], 1))


def tied_powers(n_users: int):
    """(B, N) received powers with exact ties, at -5 and +10 dB: two equal
    ratios, three equal ratios and all equal, the others distinct.  Tied
    users in the same phase give equal SINRs, which the pick must resolve
    to the lowest user as argmax does."""
    rows = []
    for tied in sorted({2, min(3, n_users), n_users}):
        raw = np.arange(1.0, n_users + 1.0)
        raw[:tied] = 1.0
        rows.append(np.roll(raw, n_users // 2))
    return np.vstack([_normalized(rows) * 10 ** (db / 10) for db in (-5.0, 10.0)])


class TestStageTables:
    # at N = 8 numpy's row sum adds these powers pairwise, and the one by
    # one sum of the engine and its oracle differs from it in the last bit
    N8_PAIRWISE = np.arange(1.0, 9.0) / 36 * 0.3

    @pytest.mark.parametrize("n_users", range(1, markov.MAX_USERS + 1))
    def test_stage_major_tables_match_row_wise_oracle(self, n_users):
        digits = markov._state_digits(n_users)
        stacks = list(stage_table_stacks(n_users))
        if n_users >= 2:
            stacks.append(tied_powers(n_users))
        if n_users == 8:
            sequential = 0.0
            for power in self.N8_PAIRWISE:
                sequential += power
            assert sequential != self.N8_PAIRWISE.sum()
            stacks.append(self.N8_PAIRWISE)
        for powers in stacks:
            got = markov._stage_tables(digits, powers)
            for table, want in zip(got, stage_tables(digits, powers)):
                assert table.flags.c_contiguous
                assert table.dtype == want.dtype
                np.testing.assert_array_equal(table, want)


class TestUserCap:
    NINE = SystemConfig(alphas=tuple(np.full(9, 1 / 9)), p0=1.0, code=CODE)
    PAIR = SystemConfig(alphas=(0.4, 0.6), p0=1.0, code=CODE)

    @pytest.mark.parametrize("call", [
        lambda self: analyze(self.NINE),
        lambda self: build_transition_matrix(self.NINE),
        lambda self: max_user_per(self.NINE.alphas, 1.0, CODE),
        lambda self: simulate_coordinated(SimConfig(system=self.NINE, slots=2000, warmup=100)),
        lambda self: simulate_uncoordinated(SimConfig(
            system=self.PAIR, slots=2000, warmup=100, scenario="uncoordinated",
            n_actual=9, n_hat=2)),
    ], ids=["analyze", "build_transition_matrix", "max_user_per", "coordinated",
            "uncoordinated"])
    def test_nine_users_rejected_before_allocating(self, call):
        # the 9-user successor table alone would take 1.4 MB, the
        # simulators' pair counts 3 GB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="8-user cap"):
                call(self)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestStationary:
    @pytest.mark.parametrize("probs", [[math.nan, 0.5, 0.5], [-0.1, 0.6, 0.5],
                                       [0.2, 0.5, 0.5]], ids=["nan", "negative", "sum"])
    def test_non_distribution_rejected(self, probs):
        with pytest.raises(ValueError, match="must be a probability distribution"):
            StationaryDistribution(probs=np.array(probs))

    def test_high_power_concentrates_on_all_success(self):
        cfg = SystemConfig(alphas=(0.3, 0.7), p0=1e9, code=CODE)
        stat = stationary_distribution(build_transition_matrix(cfg))
        assert stat.probs[0] == pytest.approx(1.0, abs=1e-9)

    def test_single_user_closed_form(self):
        eps1, eps2 = 0.3, 0.1
        stat = stationary_distribution(single_user_chain(eps1, eps2))
        expect = np.array([
            (1 - eps1 * eps2), eps1, eps1 * eps2,
        ]) / (1 + eps1)
        assert np.allclose(stat.probs, expect, atol=1e-12)

    def test_residual_bound(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            tm = build_transition_matrix(random_config(rng, n_max=4))
            p = stationary_distribution(tm).probs
            assert np.abs(tm.matrix.T @ p - p).max() <= 1e-10
            assert abs(p.sum() - 1.0) <= 1e-9
            assert p.min() >= 0.0

    @pytest.mark.parametrize("n_users", [5, 6])
    @pytest.mark.parametrize("snr_db", [4.0, -10.0])
    def test_sparse_solve_matches_dense_oracle(self, n_users, snr_db):
        # 4 dB: one regenerative LU; -10 dB: every user nearly always
        # fails, so pivots below PIVOT_FLOOR send the solve to GTH
        raw = np.linspace(1.0, 2.0, n_users)
        cfg = SystemConfig(alphas=tuple(raw / raw.sum()), p0=10 ** (snr_db / 10),
                           code=CODE)
        tm = build_transition_matrix(cfg)
        want = gth_oracle(tm.matrix)
        got = stationary_distribution(tm).probs
        seen = want > 0.0
        assert np.all(np.abs(got[seen] - want[seen]) <= 1e-12 * want[seen])
        assert np.all(got[~seen] == 0.0)
        oracle = StationaryDistribution(probs=want)
        for m in analyze(cfg):
            assert_relative(m.per, per_user(m.user, oracle, tm))
            assert_relative(m.success_prob, success_prob(m.user, oracle, tm))

    def test_superlu_sticky_pivots_go_to_gth(self, gth_sizes):
        # equal ratios on a short N = 5 block: the regenerative SuperLU
        # has pivots below PIVOT_FLOOR, so whole-chain GTH runs once
        cfg = SystemConfig(alphas=(0.2,) * 5, p0=1.0, code=CodeParams(k=50, n=91))
        metrics = analyze(cfg)
        assert gth_sizes == [243]
        tm = build_transition_matrix(cfg)
        oracle = StationaryDistribution(probs=gth_oracle(tm.matrix))
        for m in metrics:
            assert_relative(m.per, per_user(m.user, oracle, tm))
            assert_relative(m.success_prob, success_prob(m.user, oracle, tm))

    @pytest.mark.parametrize("n_users", [3, 5], ids=["dense", "sparse"])
    def test_closed_class_without_state_0(self, n_users):
        # user 0 is silenced: it never leaves R/F again, so the states with
        # user 0 in S are transient and the one closed class starts at
        # state 1 (user 0 in R, everyone else in S)
        raw = np.r_[0.0, np.linspace(1.0, 2.0, n_users - 1)]
        _, succ, prob = markov._chain_table(3.0 * raw / raw.sum(), CODE)[:3]
        m = 3**n_users
        matrix = np.zeros((m, m))
        matrix[np.arange(m)[:, None], succ] = prob
        tm = TransitionMatrix(matrix=matrix, n_users=n_users)
        src, dst = np.nonzero(tm.matrix)
        assert markov._regeneration_state(src, dst, tm.matrix[src, dst], m) == 1
        order = np.r_[1, 0, 2:m]
        want = np.empty(m)
        want[order] = gth_oracle(tm.matrix[np.ix_(order, order)])
        got = stationary_distribution(tm).probs
        transient = markov._state_digits(n_users)[:, 0] == int(Phase.S)
        assert np.all(got[transient] == 0.0) and np.all(want[transient] == 0.0)
        assert np.all(np.abs(got - want) <= 1e-12 * want)
        assert np.abs(tm.matrix.T @ got - got).max() <= markov.STATIONARY_TOL

    def test_two_closed_classes_raise(self):
        matrix = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        with pytest.raises(NumericalError, match="2 closed classes"):
            stationary_distribution(TransitionMatrix(matrix=matrix, n_users=1))

    def test_matches_power_iteration(self):
        tm = build_transition_matrix(ANCHOR_CFG)
        p = np.full(tm.dim, 1.0 / tm.dim)
        for _ in range(20000):
            p = tm.matrix.T @ p
        p /= p.sum()
        assert np.allclose(stationary_distribution(tm).probs, p, atol=1e-10)


@st.composite
def dense_stacks(draw):
    """(B, N) ratio stack at N = 2..4, P0 and code over -25..+20 dB, down
    to chains with a state that cannot move to state 0 in one slot."""
    n = draw(st.integers(2, 4))
    b = draw(st.integers(1, 3))
    rows = np.array([[draw(st.integers(1, 100)) for _ in range(n)] for _ in range(b)],
                    dtype=float)
    k = draw(st.integers(5, 119))
    code = CodeParams(k=k, n=k + draw(st.integers(1, 2 * k + 49)))
    return _normalized(rows), 10 ** (draw(st.floats(-25.0, 20.0)) / 10), code


def assert_lu_matches_gth(case, lu, rtol, atol=0.0):
    """Every chain of the stack: where the regenerative LU lu(src, dst,
    prob, m) passes PIVOT_FLOOR, its vector p agrees with _gth's g to
    |p - g| <= rtol * g + atol; where it does not, _stationary returns
    _gth's vector bit for bit, or _gth's ReducibleChainError."""
    alphas, p0, code = case
    _, succ, prob = markov._chain_table(alphas * p0, code)[:3]
    n_chains, m, moves = succ.shape
    src = np.repeat(np.arange(m), moves)
    for b in range(n_chains):
        dst, weights = succ[b].ravel(), prob[b].ravel()
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            got = lu(src, dst, weights, m)
            if np.isfinite(got).all():
                want = markov._gth(src, dst, weights, m)
                assert np.all(np.abs(got - want) <= rtol * want + atol)
                continue
            (p,), (error,) = markov._stationary(np.zeros_like(src), src, dst, weights, 1, m)
            try:
                want = markov._gth(src, dst, weights, m)
            except ReducibleChainError:
                assert isinstance(error, ReducibleChainError)
            else:
                np.testing.assert_array_equal(p, want)


@st.composite
def sparse_stacks(draw):
    """(B, N) ratio stack at N = 5 or 6, P0 and code: positive ratios over
    SNRs and block lengths that reach both sides of PIVOT_FLOOR."""
    n = draw(st.integers(5, 6))
    b = draw(st.integers(1, 3))
    rows = np.array([[draw(st.integers(1, 100)) for _ in range(n)] for _ in range(b)],
                    dtype=float)
    k = draw(st.sampled_from([25, 50, 75]))
    code = CodeParams(k=k, n=k + draw(st.integers(1, 150)))
    return _normalized(rows), 10 ** (draw(st.floats(-10.0, 12.0)) / 10), code


class TestEliminationOrder:
    @pytest.mark.parametrize("n_users", [5, 6, 7, 8])
    def test_order_is_a_permutation_of_the_non_root_states(self, n_users):
        order = markov._elimination_order(n_users)
        np.testing.assert_array_equal(np.sort(order), np.arange(1, 3**n_users))
        # more F digits first, then fewer S digits, then index order
        digits = markov._state_digits(n_users)[order]
        key = np.stack([-(digits == Phase.F).sum(axis=1), (digits == Phase.S).sum(axis=1),
                        order], axis=1)
        assert all(tuple(a) < tuple(b) for a, b in zip(key[:-1], key[1:]))

    @pytest.mark.parametrize("snr_db", [10.0, 14.0])
    def test_fill_stays_near_minimum_degree(self, snr_db, monkeypatch):
        # the N = 7 sweep points of the coordinated-analysis benchmark,
        # without its seed's jitter: L + U under the production order hold
        # at most 3x the nonzeros of a minimum-degree order of that matrix
        factored = []
        splu = markov.splu

        def spy(a, **kwargs):
            lu = splu(a, **kwargs)
            factored.append((a, lu))
            return lu

        monkeypatch.setattr(markov, "splu", spy)
        raw = np.arange(1.0, 8.0)
        analyze(SystemConfig(alphas=tuple(raw / raw.sum()), p0=10 ** (snr_db / 10),
                             code=CODE))
        ((a, lu),) = factored
        mmd = splu(a, permc_spec="MMD_AT_PLUS_A")
        assert lu.L.nnz + lu.U.nnz <= 3 * (mmd.L.nnz + mmd.U.nnz)

    def test_only_states_entered_from_other_states_are_factored(self, monkeypatch):
        # the N = 8 sweep point of the coordinated-analysis benchmark,
        # without its seed's jitter: of its 6560 states other than 0, 1260
        # are entered from a state other than 0, and only those are unknowns
        sizes = []
        splu = markov.splu

        def spy(a, **kwargs):
            sizes.append(a.shape[0])
            return splu(a, **kwargs)

        monkeypatch.setattr(markov, "splu", spy)
        raw = np.arange(1.0, 9.0)
        cfg = SystemConfig(alphas=tuple(raw / raw.sum()), p0=10 ** 1.4, code=CODE)
        analyze(cfg)
        _, succ, prob = markov._chain_table(cfg.powers, CODE)[:3]
        entered = np.unique(succ[1:][prob[1:] > 0.0])
        assert sizes == [1260] == [np.count_nonzero(entered)]

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(sparse_stacks())
    def test_states_entered_from_state_0_alone_carry_their_moves(self, case):
        # each chain as drawn, and with state 0's first-failure move rerouted
        # to a state that nothing enters: that state is then entered from
        # state 0 alone, and its moves feed the right-hand side.  SuperLU
        # factors only the states entered from a state other than 0, states
        # that nothing enters read exactly 0.0, and the LU matches GTH
        alphas, p0, code = case
        _, succ, prob = markov._chain_table(alphas * p0, code)[:3]
        n_chains, m, moves = succ.shape
        src = np.repeat(np.arange(m), moves)
        splu, sizes = markov.splu, []

        def spy(a, **kwargs):
            sizes.append(a.shape[0])
            return splu(a, **kwargs)

        for b in range(n_chains):
            weights = prob[b].ravel()
            unentered = np.bincount(succ[b].ravel(), weights=weights, minlength=m) == 0.0
            rerouted = succ[b].ravel().copy()
            rerouted[0] = np.flatnonzero(unentered)[0]
            for dst in (succ[b].ravel(), rerouted):
                entered = np.unique(dst[(src != 0) & (dst != 0) & (weights > 0.0)])
                sizes.clear()
                with pytest.MonkeyPatch.context() as mp, \
                        np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    mp.setattr(markov, "splu", spy)
                    got = markov._regenerative_splu(np.zeros_like(src), src, dst, weights,
                                                    1, m)[0]
                    (p,), _ = markov._stationary(np.zeros_like(src), src, dst, weights, 1, m)
                assert set(sizes) == {len(entered)}
                nothing = np.bincount(dst, weights=weights, minlength=m) == 0.0
                assert nothing.any() and np.all(p[nothing] == 0.0)
                if np.isfinite(got).all():
                    want = markov._gth(src, dst, weights, m)
                    assert np.all(np.abs(got - want) <= 1e-12 * want)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(sparse_stacks())
    # every chain of these stacks has a state that cannot move to state 0
    @example((_normalized([np.arange(1.0, 6.0), [5.0, 1.0, 1.0, 1.0, 1.0]]), 0.1,
              CodeParams(k=50, n=100)))
    @example((_normalized([np.arange(1.0, 7.0)]), 10 ** -0.5, CodeParams(k=75, n=100)))
    def test_sparse_lu_matches_gth_above_the_pivot_floor(self, case):
        assert_lu_matches_gth(
            case, lambda src, dst, prob, m: markov._regenerative_splu(np.zeros_like(src), src,
                                                                      dst, prob, 1, m)[0],
            rtol=1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(dense_stacks())
    # every chain of these stacks has a state that cannot move to state 0
    @example((_normalized([[1.0, 2.0], [3.0, 1.0]]), 0.01, CodeParams(k=50, n=60)))
    @example((_normalized([[1.0, 2.0, 3.0, 4.0]]), 0.1, CodeParams(k=100, n=150)))
    # two silenced users: several closed classes
    @example((_normalized([[0.0, 0.0, 1.0]]), 10.0, CODE))
    def test_dense_lu_matches_gth_above_the_pivot_floor(self, case):
        # the floor does not hold the LU to 1e-12 on these chains: of 160000
        # random ones (N = 2..4, -25..+20 dB, k = 5..119) 73570 pass it,
        # and their states other than 0 read up to 8.4e-11 relative off
        # GTH, state 0 up to 6e-14 absolute (2.8e-8 relative where the
        # chain returns to it once in 2.6e8 slots)
        assert_lu_matches_gth(
            case, lambda src, dst, prob, m: markov._regenerative_lu(np.zeros_like(src), src,
                                                                    dst, prob, 1, m)[0],
            rtol=1e-9, atol=1e-13)


class TestUserMetrics:
    def test_error_free_chain(self):
        stat = stationary_distribution(single_user_chain(0.0, 0.0))
        tm = single_user_chain(0.0, 0.0)
        assert per_user(0, stat, tm) == 0.0
        assert success_prob(0, stat, tm) == pytest.approx(1.0)

    def test_always_failing_chain(self):
        tm = single_user_chain(1.0, 1.0)
        stat = stationary_distribution(tm)
        # mass alternates between R and F
        assert stat.probs[SystemState((Phase.S,)).index] == pytest.approx(0.0, abs=1e-12)
        assert stat.probs[1] == pytest.approx(0.5, abs=1e-12)
        assert stat.probs[2] == pytest.approx(0.5, abs=1e-12)
        assert per_user(0, stat, tm) >= 0.5
        assert success_prob(0, stat, tm) == 0.0

    def test_single_user_per_closed_form(self):
        eps1, eps2 = 0.25, 0.07
        tm = single_user_chain(eps1, eps2)
        stat = stationary_distribution(tm)
        assert per_user(0, stat, tm) == pytest.approx(
            2 * eps1 * eps2 / (1 + eps1), rel=1e-12
        )
        assert success_prob(0, stat, tm) == pytest.approx(
            (1 - eps1) / (1 + eps1), rel=1e-12
        )

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(p_db=st.floats(-12.0, 14.0), k=st.integers(1, 200), n=st.integers(1, 400))
    @example(p_db=-10.0, k=4, n=64)
    @example(p_db=-12.0, k=200, n=201)
    @example(p_db=6.537728064059241, k=200, n=284)
    def test_single_user_closed_form_matches_engine(self, p_db, k, n):
        # the OMA baseline, its matched power and min_blocklength's bound
        # read the one-user chain in closed form; the engine is the
        # reference, also outside the normal approximation's n <= 2^k
        p, code = 10 ** (p_db / 10), CodeParams(k=k, n=n)
        per, p_s = markov._single_user(p, code)
        m = analyze(SystemConfig(alphas=(1.0,), p0=p, code=code))[0]
        # subnormal PERs (from ~1e-308 down) carry fewer significant digits
        tiny = np.finfo(float).tiny
        assert abs(per - m.per) <= 1e-14 * m.per + tiny, (per, m.per)
        assert abs(p_s - m.success_prob) <= 1e-14 * m.success_prob + tiny, (p_s, m)

    def test_published_anchor_reproduced(self):
        # (0.29, 0.35, 0.36) at -2.02 dB, R=1/4, n=100 -> max PER 7.5e-3
        metrics = analyze(ANCHOR_CFG)
        worst = max(m.per for m in metrics)
        assert 7.5e-3 / 3 <= worst <= 7.5e-3 * 3

    def test_per_monotone_in_power(self):
        grid_db = np.linspace(-2.5, 1.5, 7)
        worst = [
            max(m.per for m in analyze(SystemConfig(
                alphas=(0.29, 0.35, 0.36), p0=10 ** (db / 10), code=CODE)))
            for db in grid_db
        ]
        assert all(a >= b for a, b in zip(worst, worst[1:]))

    def test_closed_form_matches_dense_oracle(self):
        rng = np.random.default_rng(26)
        for n_users in range(1, 6):
            for _ in range(4):
                raw = rng.uniform(0.2, 1.0, size=n_users)
                cfg = SystemConfig(alphas=tuple(raw / raw.sum()),
                                   p0=float(rng.uniform(0.05, 30.0)), code=CODE)
                tm = build_transition_matrix(cfg)
                oracle = StationaryDistribution(probs=gth_oracle(tm.matrix))
                for m in analyze(cfg):
                    assert_relative(m.per, per_user(m.user, oracle, tm))
                    assert_relative(m.success_prob, success_prob(m.user, oracle, tm))

    @pytest.mark.parametrize("alphas,k", [
        ((1.0,), 25), ((0.4, 0.6), 25), ((0.29, 0.35, 0.36), 25),
        ((0.27, 0.32, 0.41), 25), ((0.3, 0.7), 50),
    ])
    def test_exact_chain_relative_accuracy(self, alphas, k):
        code = CodeParams(k=k, n=100)
        for db in range(-10, 15, 2):
            cfg = SystemConfig(alphas=alphas, p0=10 ** (db / 10), code=code)
            per, p_s = exact_metrics(cfg)
            for m, e, q in zip(analyze(cfg), per, p_s):
                # exact values below the smallest normal double have no
                # float64 image to compare with
                if e > 1e-300:
                    assert_relative(m.per, e)
                if q > 1e-300:
                    assert_relative(m.success_prob, q)

    def test_silenced_user_objective_is_one(self, caplog):
        # user 0 fails every decode, so its PER is 1; one such user leaves
        # one closed class, and the chain solves as usual
        with caplog.at_level(logging.INFO, logger="noma_harq.markov"):
            assert max_user_per(np.array([0.0, 1.0]), 10.0, CODE) == 1.0
        assert not caplog.records

    def test_silenced_user_among_others_reads_exactly_one(self):
        # user 0 fails every decode but the chain keeps one closed class,
        # whose R and F mass can sum to one ulp below 1
        assert max_user_per(np.array([0.0, 0.5, 0.5]), 10.0, CODE) == 1.0

    @pytest.mark.parametrize("alphas, p0", [
        ([0.5, 0.5], math.nan), ([0.5, 0.5], math.inf), ([0.5, math.nan], 1.0),
        ([[0.5, 0.5], [math.inf, 0.5]], 1.0),
    ], ids=["nan-p0", "inf-p0", "nan-ratio", "inf-ratio-row"])
    def test_non_finite_input_rejected(self, alphas, p0):
        # a NaN SINR equals no stage maximum, so the SIC pick would repeat
        # a user and index past the move table
        with pytest.raises(ValueError, match="must be finite"):
            max_user_per(np.array(alphas), p0, CODE)

    def test_several_closed_classes_read_one_and_are_logged(self, caplog):
        # two silenced users fail every decode, so their relative R/F
        # parity never changes and the chain has two closed classes
        alphas = np.array([[0.0, 0.0, 1.0], [0.0, 0.5, 0.5], [0.2, 0.3, 0.5]])
        with caplog.at_level(logging.INFO, logger="noma_harq.markov"):
            worst = max_user_per(alphas, 10.0, CODE)
        assert worst[0] == 1.0
        records = [r for r in caplog.records if r.name == "noma_harq.markov"]
        assert [r.levelno for r in records] == [logging.INFO]
        assert "0 of 3 stationary solves failed" in records[0].getMessage()
        assert "1 of 3 chains have several closed classes" in records[0].getMessage()

    @pytest.mark.parametrize("raw,k", list(NAN_CASES.values()), ids=list(NAN_CASES))
    def test_nan_stationary_vector_is_a_numerical_error(self, raw, k, gth_sizes):
        # at -10 dB the all-success move underflows to 0 in most states, so
        # the chain goes to whole-chain GTH, which returns NaN, and the
        # solve's numpy warnings stay silent
        alphas = tuple(np.array(raw) / sum(raw))
        cfg = SystemConfig(alphas=alphas, p0=0.1, code=CodeParams(k=k, n=100))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="residual nan"):
                analyze(cfg)
            assert gth_sizes == [3 ** len(raw)]
            assert np.isnan(max_user_per(cfg.alphas, cfg.p0, cfg.code))

    def test_max_user_per_matches_analyze(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            cfg = random_config(rng, n_max=3)
            metrics = analyze(cfg)
            assert max_user_per(cfg.alphas, cfg.p0, cfg.code) == pytest.approx(
                max(m.per for m in metrics), rel=1e-12
            )

    def test_user_index_validated(self):
        tm = single_user_chain(0.1, 0.1)
        stat = stationary_distribution(tm)
        with pytest.raises(ValueError):
            per_user(1, stat, tm)
        with pytest.raises(ValueError):
            success_prob(-1, stat, tm)


def _nan_stack(name):
    """The all-NaN configuration of NAN_CASES, a silenced user and two
    ordinary ratio vectors at its power and code."""
    raw, k = NAN_CASES[name]
    n = len(raw)
    rows = [raw, [0.0] + [1.0] * (n - 1), np.linspace(1.0, 2.0, n), np.ones(n)]
    return _normalized(rows), 0.1, CodeParams(k=k, n=100)


# k = 50 bits in 74 channel uses at 0 dB: the short blocks of the minimum
# blocklength search, where most rows go to whole-chain GTH
SHORT_BLOCKS = (_normalized([[0.3, 0.33, 0.37], [0.1, 0.3, 0.6], [0.0, 1.0, 1.0],
                             [1.0, 1.0, 1.0]]), 1.0, CodeParams(k=50, n=74))


# three N = 6 chains on a short block, 3 dB, k = 50 bits in 120 channel
# uses: the third one's LU has pivots below PIVOT_FLOOR, so it goes to GTH
N6_SHORT_BLOCKS = (_normalized([np.ones(6), np.arange(1.0, 7.0), 2.0 ** np.arange(6)]),
                   2.0, CodeParams(k=50, n=120))


@st.composite
def ratio_stacks(draw):
    """(B, N) ratio stack, P0 and code: random rows, sometimes a silenced
    user, and at N = 4 and 5 sometimes the all-NaN configuration."""
    n = draw(st.integers(1, 5))
    b = draw(st.integers(1, 6))
    rows = np.array([[draw(st.integers(1, 100)) for _ in range(n)] for _ in range(b)],
                    dtype=float)
    if n > 1 and draw(st.booleans()):
        rows[draw(st.integers(0, b - 1)), 0] = 0.0
    name = {4: "N4", 5: "N5"}.get(n)
    if name is not None and draw(st.booleans()):
        raw, k = NAN_CASES[name]
        rows = np.vstack([rows, raw])[draw(st.permutations(range(b + 1)))]
        return _normalized(rows), 0.1, CodeParams(k=k, n=100)
    k = draw(st.sampled_from([25, 50, 75]))
    # blocks just above k are short and often go to whole-chain GTH
    code = CodeParams(k=k, n=k + draw(st.integers(1, 150)))
    return _normalized(rows), 10 ** (draw(st.floats(-10.0, 12.0)) / 10), code


class TestStackedEngine:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ratio_stacks())
    @example(_nan_stack("N4"))
    @example(_nan_stack("N5"))
    @example(SHORT_BLOCKS)
    def test_max_user_per_stack_equals_rows(self, case):
        alphas, p0, code = case
        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
            warnings.simplefilter("error")
            got = max_user_per(alphas, p0, code)
            want = [max_user_per(row, p0, code) for row in alphas]
            # chunks of 1 to 16 rows
            mp.setattr(markov, "STACK_STATES", 50)
            chunked = max_user_per(alphas, p0, code)
        assert all(isinstance(v, float) for v in want)
        assert got.shape == (len(alphas),)
        # bit for bit, NaN rows included
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(chunked, want)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(case=sparse_stacks(), marked=st.sets(st.integers(0, 2), min_size=1))
    @example(case=N6_SHORT_BLOCKS, marked={0})
    def test_failed_block_retries_chain_by_chain(self, case, marked):
        # SuperLU fails every block of several chains that holds a marked
        # chain, as on a pivot that cancels to exactly 0; each chain then
        # solves as a stack of one
        alphas, p0, code = case
        splu, gth = markov.splu, markov._gth
        alone, failed, gth_sizes = [], [], []
        marked = {b % len(alphas) for b in marked}

        def record(a, **kwargs):
            alone.append(a)
            return splu(a, **kwargs)

        def fail_marked_blocks(a, **kwargs):
            # the stack's blocks, each as long as its chain's own matrix
            sizes = [chain.shape[0] for chain in alone]
            ends = np.cumsum(sizes)
            blocks = ([a[end - size:end, end - size:end] for size, end in zip(sizes, ends)]
                      if a.shape[0] == ends[-1] else [a])
            if len(blocks) > 1 and any((blocks[b] != alone[b]).nnz == 0 for b in marked):
                failed.append(len(blocks))
                raise RuntimeError("Factor is exactly singular")
            return splu(a, **kwargs)

        def gth_spy(src, dst, prob, m):
            gth_sizes.append(m)
            return gth(src, dst, prob, m)

        want = [max_user_per(row, p0, code) for row in alphas]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(markov, "splu", record)
            for row in alphas:
                max_user_per(row, p0, code)
            mp.setattr(markov, "splu", fail_marked_blocks)
            mp.setattr(markov, "_gth", gth_spy)
            got = max_user_per(alphas, p0, code)
        # bit for bit, NaN rows included
        np.testing.assert_array_equal(got, want)
        assert failed == ([len(alphas)] if len(alphas) > 1 else [])
        if case is N6_SHORT_BLOCKS:
            # 729-state chains; the third one goes to whole-chain GTH
            assert gth_sizes == [729]
            assert np.isfinite(got).all()

    @pytest.mark.parametrize("case", [_nan_stack("N4"), _nan_stack("N5"), SHORT_BLOCKS],
                             ids=["N4", "N5", "short-blocks"])
    def test_examples_reach_every_row_kind(self, case, gth_sizes):
        alphas, p0, code = case
        got = max_user_per(alphas, p0, code)
        silenced = alphas[:, 0] == 0.0
        assert np.all(got[silenced] == 1.0)
        # whole-chain GTH ran on some row
        assert gth_sizes
        if case is SHORT_BLOCKS:
            assert np.isfinite(got).all() and np.all(got[~silenced] < 1.0)
        else:
            assert np.isnan(got[0])

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(ratio_stacks())
    def test_chain_table_stack_equals_rows(self, case):
        alphas, p0, code = case
        stacked = markov._chain_table(alphas * p0, code)
        for b, row in enumerate(alphas):
            for got, want in zip(stacked, markov._chain_table(row * p0, code)):
                np.testing.assert_array_equal(got[b], want)

    def test_large_stack_memory_is_bounded(self):
        # 200 chains of 729 states: 72 MB in one stack, ~2.0 MiB in chunks
        # of STACK_STATES states
        raw = np.random.default_rng(3).uniform(0.2, 1.0, size=(200, 6))
        tracemalloc.start()
        try:
            max_user_per(_normalized(raw), 3.0, CodeParams(k=50, n=200))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_large_grid_memory_is_bounded(self):
        # a 20-point grid of 6561-state chains: 97 MiB as one stack,
        # ~5.4 MiB in chunks of STACK_STATES states (one chain each)
        configs = [SystemConfig(alphas=tuple(np.arange(1, 9) / 36), p0=10 ** (db / 10),
                                code=CODE) for db in np.linspace(10.0, 24.0, 20)]
        tracemalloc.start()
        try:
            metrics = analyze(configs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(metrics) == 20
        assert peak < 16 * 2**20

    def test_analyze_stack_equals_configs_alone(self, monkeypatch):
        # -8 dB and below go to whole-chain GTH, the rest take the LU
        configs = [SystemConfig(alphas=ANCHOR_CFG.alphas, p0=10 ** (db / 10), code=CODE)
                   for db in range(-16, 15, 2)]
        want = [analyze(cfg) for cfg in configs]
        assert analyze(configs) == want
        assert analyze(tuple(configs)) == want
        # chunks of 3 chains
        monkeypatch.setattr(markov, "STACK_STATES", 81)
        assert analyze(configs) == want
        assert analyze([]) == []

    @pytest.mark.parametrize("other", [
        SystemConfig(alphas=(0.5, 0.5), p0=1.0, code=CODE),
        SystemConfig(alphas=ANCHOR_CFG.alphas, p0=1.0, code=CodeParams(k=25, n=101)),
    ], ids=["user-count", "code"])
    def test_analyze_stack_must_share_users_and_code(self, other):
        with pytest.raises(ValueError, match="share user count and code"):
            analyze([ANCHOR_CFG, other])

    def test_failed_rows_logged_once(self, caplog):
        alphas, p0, code = _nan_stack("N4")
        with caplog.at_level(logging.INFO, logger="noma_harq.markov"):
            max_user_per(alphas, p0, code)
            max_user_per(ANCHOR_CFG.alphas, ANCHOR_CFG.p0, ANCHOR_CFG.code)
        records = [r for r in caplog.records if r.name == "noma_harq.markov"]
        # one record for the stack with NaN rows, none for the clean call
        assert [r.levelno for r in records] == [logging.INFO]
        assert "1 of 4 stationary solves failed" in records[0].getMessage()
        # the silenced user's chain keeps one closed class at this power
        assert "0 of 4 chains have several closed classes" in records[0].getMessage()

    def test_unconverged_oma_power_warns(self, monkeypatch, caplog):
        with caplog.at_level(logging.INFO, logger="noma_harq.markov"):
            markov.oma_received_power(ANCHOR_CFG)
        assert not caplog.records
        # a first-copy error rate that flips between 0 and 0.5 every step
        # (p_s = 1, then 1/3) never settles
        flips = itertools.cycle([1.0, 1.0 / 3.0])
        monkeypatch.setattr(markov, "_single_user", lambda powers, code: (0.0, next(flips)))
        with caplog.at_level(logging.INFO, logger="noma_harq.markov"):
            markov.oma_received_power(ANCHOR_CFG)
        records = [r for r in caplog.records if r.name == "noma_harq.markov"]
        assert [r.levelno for r in records] == [logging.WARNING]
        assert f"after {markov.OMA_ITERATIONS} iterations" in records[0].getMessage()


# the relative bound of a SuperLU chain against the all-states reference:
# where an entered state's only predecessors besides state 0 are states
# that no move enters, the engine's LU has one unknown fewer than the
# reference's and rounds apart; at most 7.8e-15 on 1500 random stacks at
# N = 5..8 (-25..+20 dB, k = 5..119, n = k+1..3k+49)
SPARSE_LU_TOL = 1e-14


@st.composite
def engine_stacks(draw):
    """(B, N) ratio stack, P0 and code at N = 1..8: 1 to 40 rows (fewer at
    N >= 6, at most 2^13 chain states), sometimes a silenced user, over
    -25..+20 dB with short and long blocks."""
    n = draw(st.integers(1, 8))
    b = draw(st.integers(1, max(1, min(40, 2 ** 13 // 3 ** n))))
    rows = np.array([[draw(st.integers(1, 100)) for _ in range(n)] for _ in range(b)],
                    dtype=float)
    if n > 1 and draw(st.booleans()):
        rows[draw(st.integers(0, b - 1)), 0] = 0.0
    k = draw(st.integers(5, 119))
    code = CodeParams(k=k, n=k + draw(st.integers(1, 2 * k + 49)))
    return _normalized(rows), 10 ** (draw(st.floats(-25.0, 20.0)) / 10), code


def entered_moves(alphas, p0, code):
    """(src, dst, prob, m) of one chain's moves from the states that some
    of its moves enter, and the count of those states."""
    _, succ, prob = markov._chain_table(alphas * p0, code)[:3]
    m, moves = succ.shape
    rows = np.unique(succ)
    return np.repeat(rows, moves), succ[rows].ravel(), prob[rows].ravel(), m


class TestEnteredStates:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(engine_stacks())
    @example(_nan_stack("N5"))
    @example(N6_SHORT_BLOCKS)
    @example(SHORT_BLOCKS)
    def test_engine_matches_all_states_reference(self, case):
        # the engine solves and sums over each chain's entered states; the
        # reference over all 3^N, each sum state by state in index order.
        # A chain that the dense LU solves reads the same bits; one that
        # SuperLU solves, which leaves out the unentered predecessors of a
        # state entered from state 0, within SPARSE_LU_TOL relative; one
        # that goes to GTH, whose dense matrix holds the states its given
        # moves enter, within 1e-15
        alphas, p0, code = case
        powers = alphas * p0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = markov._table_analysis(powers, code)
            want = table_analysis(powers, code)
        _, succ, prob = markov._chain_table(powers, code)[:3]
        n_chains, m, moves = succ.shape
        solve = markov._regenerative_lu if m <= markov.DENSE_SOLVE_STATES \
            else markov._regenerative_splu
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lu = solve(np.repeat(np.arange(n_chains), m * moves),
                       np.tile(np.repeat(np.arange(m), moves), n_chains), succ.ravel(),
                       prob.ravel(), n_chains, m)
        lu_tol = 0.0 if m <= markov.DENSE_SOLVE_STATES else SPARSE_LU_TOL
        for b in range(n_chains):
            assert type(got[2][b]) is type(want[2][b])
            if want[2][b] is not None:
                continue
            tol = lu_tol if np.isfinite(lu[b]).all() else 1e-15
            for value, reference in zip(got[:2], want[:2]):
                assert np.all(np.abs(value[b] - reference[b]) <= tol * reference[b])

    def test_regeneration_state_0_over_the_entered_states(self):
        # every entered state moves to state 0, and states that no move
        # enters are absent from the moves: they are no closed class
        src, dst, prob, m = entered_moves(np.array(ANCHOR_CFG.alphas), ANCHOR_CFG.p0, CODE)
        present = np.unique(src)
        assert len(present) < m
        assert set(src[(dst == 0) & (prob > 0.0)]) == set(present)
        assert markov._regeneration_state(src, dst, prob, m) == 0

    @pytest.mark.parametrize("n_users", [3, 5], ids=["dense", "sparse"])
    def test_closed_class_over_the_entered_states(self, n_users):
        # user 0 is silenced: no state moves to state 0, and the one closed
        # class starts at state 1 on the whole chain as on its entered
        # states; the states absent from the moves add no class
        raw = np.r_[0.0, np.linspace(1.0, 2.0, n_users - 1)]
        src, dst, prob, m = entered_moves(raw / raw.sum(), 3.0, CODE)
        assert len(np.unique(src)) < m
        assert markov._regeneration_state(src, dst, prob, m) == 1
        _, succ, full = markov._chain_table(3.0 * raw / raw.sum(), CODE)[:3]
        every = np.repeat(np.arange(m), n_users + 1)
        assert markov._regeneration_state(every, succ.ravel(), full.ravel(), m) == 1


class TestOmaReceivedPower:
    @pytest.mark.parametrize("snr_db", [-9.5, -9.0, -8.5])
    def test_slow_fixed_point_is_reached(self, snr_db, caplog):
        # the step map's slope nears 1 here, so 30 plain steps stop short
        cfg = SystemConfig(alphas=(0.5, 0.5), p0=10 ** (snr_db / 10), code=CODE)
        metrics = analyze(cfg)
        with caplog.at_level(logging.INFO, logger="noma_harq.markov"):
            p = markov.oma_received_power(cfg, metrics)
        assert not caplog.records
        t_noma = np.mean([2.0 - m.success_prob for m in metrics])

        def step_from(q):
            return cfg.p0 * t_noma / (2.0 - markov._single_user(q, CODE)[1])

        assert_relative(p, step_from(p))
        # the fixed point the plain steps from P0 approach
        q = cfg.p0
        for _ in range(500):
            q = step_from(q)
        assert_relative(p, q)


class TestMoveSums:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(ratio_stacks())
    @example(SHORT_BLOCKS)
    def test_matches_definition(self, case):
        # e_i counts moves from F, or from R to F; p_s counts moves from a
        # phase other than R to S
        alphas, p0, code = case
        orders, succ, prob = markov._chain_table(alphas * p0, code)[:3]
        n = alphas.shape[1]
        digits = markov._state_digits(n).tolist()
        counts = np.random.default_rng(n).integers(0, 1000, size=succ.shape)
        for weights in (counts, prob):
            to_f, to_s = markov._move_sums(orders, weights, markov._state_digits(n))
            want_f = np.zeros(to_f.shape, dtype=weights.dtype)
            want_s = np.zeros(to_s.shape, dtype=weights.dtype)
            for b, s, w in np.ndindex(succ.shape):
                now, nxt, weight = digits[s], digits[succ[b, s, w]], weights[b, s, w]
                for u in range(n):
                    if now[u] == Phase.F or (now[u] == Phase.R and nxt[u] == Phase.F):
                        want_f[b, s, u] += weight
                    if now[u] != Phase.R and nxt[u] == Phase.S:
                        want_s[b, s, u] += weight
            if weights is counts:
                np.testing.assert_array_equal(to_f, want_f)
                np.testing.assert_array_equal(to_s, want_s)
            else:
                assert np.all(np.abs(to_f - want_f) <= 1e-12 * want_f)
                assert np.all(np.abs(to_s - want_s) <= 1e-12 * want_s)


class TestDelayPmf:
    def test_certain_success_point_mass(self):
        pmf = delay_pmf(1.0, 5)
        assert pmf[0] == pytest.approx(1.0)
        assert pmf[1:].sum() == pytest.approx(0.0, abs=1e-300)

    def test_single_packet(self):
        pmf = delay_pmf(0.3, 1)
        assert pmf[0] == pytest.approx(0.3, rel=1e-12)  # delay 1
        assert pmf[1] == pytest.approx(0.7, rel=1e-12)  # delay 2

    def test_normalization_and_mean(self):
        p_s, m = 0.9, 100
        pmf = delay_pmf(p_s, m)
        assert abs(pmf.sum() - 1.0) <= 1e-12
        mean = float(np.dot(m + np.arange(m + 1), pmf))
        assert mean == pytest.approx(m * (2 - p_s), rel=1e-12)
        assert mean == pytest.approx(110.0, rel=1e-12)

    def test_large_count_stays_normalized(self):
        pmf = delay_pmf(0.37, 5000)
        assert abs(pmf.sum() - 1.0) <= 1e-10
        assert np.all(pmf >= 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            delay_pmf(1.5, 10)
        with pytest.raises(ValueError):
            delay_pmf(0.5, 0)


class TestThroughput:
    def test_ideal(self):
        assert throughput(0.0, 1.0, CODE) == pytest.approx(CODE.rate)

    def test_all_failed(self):
        assert throughput(1.0, 0.3, CODE) == 0.0

    def test_every_packet_needs_two_slots(self):
        assert throughput(0.0, 0.0, CODE) == pytest.approx(CODE.rate / 2)

    @pytest.mark.parametrize("per, success_prob", [
        (-0.1, 0.5), (1.1, 0.5), (0.1, -0.5), (0.1, 1.5), (math.nan, 0.5),
    ])
    def test_non_probability_rejected(self, per, success_prob):
        with pytest.raises(ValueError, match="per and success_prob must be probabilities"):
            throughput(per, success_prob, CODE)

    def test_metrics_identity(self):
        for m in analyze(ANCHOR_CFG):
            assert m.throughput == pytest.approx(
                throughput(m.per, m.success_prob, CODE), rel=1e-12
            )
