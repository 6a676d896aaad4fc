"""SIC SINR formulas, state encoding, and decoding-order construction."""

import numpy as np
import pytest

from noma_harq.fbl import CodeParams
from noma_harq.sic import (
    Phase,
    SystemConfig,
    SystemState,
    decoding_order,
    stage_sinr,
)

CODE = CodeParams(k=25, n=100)
ANCHOR_ALPHAS = (0.29, 0.35, 0.36)
ANCHOR_P0 = 10.0 ** (-2.02 / 10.0)


def cfg_for(alphas, p0=ANCHOR_P0):
    return SystemConfig(alphas=alphas, p0=p0, code=CODE)


def random_config(rng, n_max=4):
    n = int(rng.integers(1, n_max + 1))
    raw = rng.uniform(0.2, 1.0, size=n)
    return SystemConfig(alphas=tuple(raw / raw.sum()),
                        p0=float(rng.uniform(0.05, 30.0)), code=CODE)


class TestSystemConfig:
    def test_simplex_enforced(self):
        with pytest.raises(ValueError):
            SystemConfig(alphas=(0.5, 0.6), p0=1.0, code=CODE)
        with pytest.raises(ValueError):
            SystemConfig(alphas=(1.2, -0.2), p0=1.0, code=CODE)
        with pytest.raises(ValueError):
            SystemConfig(alphas=(1.0,), p0=-1.0, code=CODE)
        with pytest.raises(ValueError, match="at least one user required"):
            SystemConfig(alphas=(), p0=1.0, code=CODE)

    def test_huge_ratios_refused_before_the_sum(self):
        # their sum overflowed math.fsum before any check saw them
        with pytest.raises(ValueError, match="power ratios must not exceed 1"):
            SystemConfig(alphas=(1e308, 1e308), p0=1.0, code=CODE)
        # within the sum's tolerance a ratio may still read just above 1
        assert cfg_for((1.0 + 5e-10,)).alphas == (1.0 + 5e-10,)

    def test_only_one_retransmission(self):
        with pytest.raises(TypeError):
            SystemConfig(alphas=(1.0,), p0=1.0, code=CODE, max_transmissions=3)

    def test_powers(self):
        cfg = cfg_for(ANCHOR_ALPHAS)
        assert np.allclose(cfg.powers, np.array(ANCHOR_ALPHAS) * ANCHOR_P0)


class TestSystemState:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_index_bijection(self, n):
        seen = set()
        for idx in range(3**n):
            st = SystemState.from_index(idx, n)
            assert st.index == idx
            seen.add(st.phases)
        assert len(seen) == 3**n

    def test_digit_convention(self):
        st = SystemState((Phase.S, Phase.R, Phase.F))
        assert st.index == 0 * 1 + 1 * 3 + 2 * 9

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            SystemState.from_index(27, 3)
        with pytest.raises(ValueError):
            SystemState.from_index(-1, 2)


class TestInitialSinr:
    def test_single_user_fresh(self):
        cfg = cfg_for((1.0,), p0=4.0)
        st = SystemState((Phase.S,))
        assert stage_sinr(st, frozenset(), 0, cfg) == pytest.approx(4.0)

    def test_single_user_retransmitting_mrc(self):
        # two interference-free copies: both denominators are the unit noise
        cfg = cfg_for((1.0,), p0=4.0)
        st = SystemState((Phase.R,))
        assert stage_sinr(st, frozenset(), 0, cfg) == pytest.approx(8.0)

    def test_all_fresh_three_users(self):
        cfg = cfg_for(ANCHOR_ALPHAS)
        st = SystemState((Phase.S,) * 3)
        p = cfg.powers
        expect = 0.36 * ANCHOR_P0 / (0.64 * ANCHOR_P0 + 1.0)
        assert stage_sinr(st, frozenset(), 2, cfg) == pytest.approx(expect, rel=1e-12)
        assert stage_sinr(st, frozenset(), 0, cfg) == pytest.approx(
            p[0] / (p[1] + p[2] + 1.0), rel=1e-12)

    def test_retransmission_never_worse_than_fresh(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            cfg = random_config(rng)
            n = cfg.n_users
            for idx in range(3**n):
                st = SystemState.from_index(idx, n)
                for i in range(n):
                    if st.phases[i] is not Phase.R:
                        continue
                    fresh = list(st.phases)
                    fresh[i] = Phase.S
                    g_r = stage_sinr(st, frozenset(), i, cfg)
                    g_s = stage_sinr(SystemState(tuple(fresh)), frozenset(), i, cfg)
                    assert g_r >= g_s - 1e-15

    def test_all_states_nonnegative_finite(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            cfg = random_config(rng)
            for idx in range(3**cfg.n_users):
                st = SystemState.from_index(idx, cfg.n_users)
                for j in range(cfg.n_users):
                    g = stage_sinr(st, frozenset(), j, cfg)
                    assert g >= 0.0 and np.isfinite(g)


class TestStageSinr:
    def test_all_others_decoded(self):
        cfg = cfg_for(ANCHOR_ALPHAS)
        st = SystemState((Phase.S, Phase.S, Phase.S))
        g = stage_sinr(st, {0, 1}, 2, cfg)
        assert g == pytest.approx(cfg.powers[2], rel=1e-12)

    def test_retransmitter_after_one_cancellation(self):
        # J=[R,S,S], user 1 (0-based: 1) decoded; for user 0 the fresh copy
        # sees only user 2, while the stored copy's interferer set
        # F u (R - decoded) minus itself is empty
        cfg = cfg_for(ANCHOR_ALPHAS, p0=0.628)
        st = SystemState((Phase.R, Phase.S, Phase.S))
        p = cfg.powers
        g = stage_sinr(st, {1}, 0, cfg)
        assert g == pytest.approx(p[0] / (p[2] + 1.0) + p[0], rel=1e-12)

    def test_decoded_user_rejected(self):
        cfg = cfg_for(ANCHOR_ALPHAS)
        with pytest.raises(ValueError):
            stage_sinr(SystemState((Phase.S,) * 3), {1}, 1, cfg)


class TestDecodingOrder:
    def test_single_user(self):
        cfg = cfg_for((1.0,), p0=2.0)
        dec = decoding_order(SystemState((Phase.S,)), cfg)
        assert dec.order == (0,)

    def test_all_fresh_descending_power(self):
        cfg = cfg_for((0.2, 0.5, 0.3), p0=1.0)
        dec = decoding_order(SystemState((Phase.S,) * 3), cfg)
        assert dec.order == (1, 2, 0)
        assert all(g > 0.0 for g in dec.stage_sinrs)

    def test_equal_ratios_tie_break_lowest_index(self):
        cfg = SystemConfig(alphas=(1 / 3, 1 / 3, 1 / 3), p0=1.0, code=CODE)
        dec = decoding_order(SystemState((Phase.S,) * 3), cfg)
        assert dec.order == (0, 1, 2)

    def test_equal_ratios_tie_independent_of_summation_order(self):
        # users 1 and 4 share a ratio; summed in index order their
        # interference differed by one ulp and user 4 won the tie
        w = np.array([0.15, 0.24, 0.2, 0.11, 0.24])
        cfg = SystemConfig(alphas=tuple(w / w.sum()),
                           p0=float(w.sum()) * 10 ** 0.35, code=CODE)
        dec = decoding_order(SystemState.from_index(9, 5), cfg)
        assert dec.order == (2, 1, 4, 0, 3)
        assert dec.stage_sinrs[1] == stage_sinr(
            SystemState.from_index(9, 5), {2}, 4, cfg)

    def test_deterministic(self):
        cfg = cfg_for(ANCHOR_ALPHAS)
        st = SystemState((Phase.R, Phase.S, Phase.F))
        assert decoding_order(st, cfg) == decoding_order(st, cfg)

    def test_matches_bruteforce_enumeration(self):
        # independent re-derivation: at each stage, evaluate every
        # undecoded user's SINR from the set definitions and take the max
        def brute(st, cfg):
            n = cfg.n_users
            p = cfg.powers
            decoded = []
            order = []
            for _ in range(n):
                best, best_g = None, -1.0
                for j in range(n):
                    if j in decoded:
                        continue
                    undec = [w for w in range(n) if w not in decoded and w != j]
                    g = p[j] / (sum(p[w] for w in undec) + 1.0)
                    if st.phases[j] is Phase.R:
                        stored = [
                            w for w in range(n)
                            if w != j and (
                                st.phases[w] is Phase.F
                                or (st.phases[w] is Phase.R and w not in decoded)
                            )
                        ]
                        g += p[j] / (sum(p[w] for w in stored) + 1.0)
                    if g > best_g:
                        best, best_g = j, g
                order.append(best)
                decoded.append(best)
            return tuple(order)

        rng = np.random.default_rng(13)
        for _ in range(15):
            cfg = random_config(rng, n_max=3)
            for idx in range(3**cfg.n_users):
                st = SystemState.from_index(idx, cfg.n_users)
                assert decoding_order(st, cfg).order == brute(st, cfg)

    def test_stage_sinrs_consistent_with_stage_sinr(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            cfg = random_config(rng, n_max=4)
            n = cfg.n_users
            for idx in range(3**n):
                st = SystemState.from_index(idx, n)
                dec = decoding_order(st, cfg)
                decoded = set()
                for pos, user in enumerate(dec.order):
                    g = stage_sinr(st, decoded, user, cfg)
                    assert dec.stage_sinrs[pos] == pytest.approx(g, rel=1e-12)
                    decoded.add(user)
