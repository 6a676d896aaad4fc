"""Finite blocklength primitives: values against independent oracles,
edge guards, and monotonicity properties."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from noma_harq.fbl import LOG2E_SQ, CodeParams, per_cc_batch
from oracle import channel_dispersion, per_cc, q_function


# float64 rounding of the Gaussian tail grows like z^2 * 1e-16 relative; at
# SINRs a few ulps apart it can lift eps by up to ~6e-13 relative
TAIL_ROUNDING = 1e-12


def gaussian_tail_quad(x):
    """Adaptive quadrature of the standard normal tail; oracle for Q."""
    val, _ = quad(lambda u: math.exp(-u * u / 2.0) / math.sqrt(2.0 * math.pi),
                  x, np.inf)
    return val


class TestQFunction:
    def test_zero_is_half(self):
        assert q_function(0.0) == 0.5

    def test_deep_tail_clamped_nonnegative(self):
        v = q_function(38.0)
        assert 0.0 <= v < 1e-300

    def test_tenth_quantile_against_quadrature(self):
        x = 1.2815515655
        assert q_function(x) == pytest.approx(0.1, abs=1e-7)
        assert q_function(x) == pytest.approx(gaussian_tail_quad(x), rel=1e-10)

    def test_quadrature_oracle_on_grid(self):
        for x in [-3.0, -0.7, 0.3, 1.5, 4.0, 7.0]:
            assert q_function(x) == pytest.approx(gaussian_tail_quad(x), rel=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(42)
        for x in rng.normal(0.0, 3.0, size=200):
            assert abs(q_function(x) + q_function(-x) - 1.0) <= 1e-12

    def test_monotone_nonincreasing(self):
        xs = np.linspace(-8, 8, 200)
        vals = [q_function(x) for x in xs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            q_function(bad)


class TestChannelDispersion:
    def test_zero_sinr(self):
        assert channel_dispersion(0.0) == 0.0

    def test_saturated_sinr_limit(self):
        assert channel_dispersion(math.inf) == pytest.approx(LOG2E_SQ)
        assert LOG2E_SQ == pytest.approx(2.0814, abs=5e-5)

    def test_unit_sinr_direct_arithmetic(self):
        # (1 - 1/4) * (log2 e)^2
        assert channel_dispersion(1.0) == pytest.approx(0.75 * LOG2E_SQ, rel=1e-15)
        assert channel_dispersion(1.0) == pytest.approx(1.5611, abs=1e-4)

    def test_monotone_and_bounded(self):
        grid = np.logspace(-4, 5, 80)
        vals = [channel_dispersion(g) for g in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= LOG2E_SQ for v in vals)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            channel_dispersion(-0.1)
        with pytest.raises(ValueError):
            channel_dispersion(math.nan)


class TestCodeParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            CodeParams(k=0, n=10)
        with pytest.raises(ValueError):
            CodeParams(k=10, n=0)

    def test_counts_past_exact_doubles_refused(self):
        # per_cc_batch computes n log2(1 + g) - k + log2 n in doubles
        CodeParams(k=2 ** 53, n=2 ** 53)
        for k, n in ((2 ** 53 + 1, 2 ** 53 + 2), (10, 2 ** 53 + 1)):
            with pytest.raises(ValueError, match=r"exceeds 2\*\*53"):
                CodeParams(k=k, n=n)

    def test_rate_may_exceed_one(self):
        code = CodeParams(k=120, n=100)
        assert code.rate == pytest.approx(1.2)
        # the formula still evaluates; at low SINR failure is near-certain
        assert 0.0 <= per_cc(1.0, code) <= 1.0
        assert per_cc(0.1, code) > 0.999


class TestPerCC:
    CODE = CodeParams(k=50, n=100)

    def test_saturated_sinr(self):
        assert per_cc(1e6, self.CODE) < 1e-12

    def test_zero_sinr_guarded(self):
        assert per_cc(0.0, self.CODE) == 1.0

    def test_balanced_argument_gives_half(self):
        # solve n*log2(1+g) - k + log2(n) = 0 for g
        code = self.CODE
        g = 2.0 ** ((code.k - math.log2(code.n)) / code.n) - 1.0
        assert per_cc(g, code) == pytest.approx(0.5, abs=1e-12)

    def test_monotone_in_sinr(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            code = CodeParams(k=int(rng.integers(10, 200)),
                              n=int(rng.integers(210, 2048)))
            gammas = np.sort(rng.uniform(1e-3, 100.0, size=8))
            vals = [per_cc(g, code) for g in gammas]
            assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_blocklength(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            k = int(rng.integers(10, 200))
            g = float(rng.uniform(1e-3, 100.0))
            ns = np.sort(rng.integers(k + 1, 2048, size=8))
            vals = [per_cc(g, CodeParams(k=k, n=int(n))) for n in ns]
            assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_information_bits(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(64, 2048))
            g = float(rng.uniform(1e-3, 100.0))
            ks = np.sort(rng.integers(1, n, size=8))
            vals = [per_cc(g, CodeParams(k=int(k), n=n)) for k in ks]
            assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_clamped_to_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            code = CodeParams(k=int(rng.integers(1, 300)),
                              n=int(rng.integers(1, 2048)))
            v = per_cc(float(rng.uniform(0, 1e4)), code)
            assert 0.0 <= v <= 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            per_cc(-1.0, self.CODE)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        gammas = np.concatenate([[0.0], rng.uniform(0, 50, size=200)])
        batch, success = per_cc_batch(gammas, self.CODE)
        for g, b in zip(gammas, batch):
            assert b == pytest.approx(per_cc(float(g), self.CODE), abs=1e-15)
        assert np.abs(batch + success - 1.0).max() <= 1e-15

    def test_batch_success_keeps_relative_precision(self):
        # decodes that almost surely fail: 1 - eps would round to 0 or
        # keep only a few digits
        code = CodeParams(k=50, n=100)
        gammas = np.array([0.05, 0.1, 0.2, 0.3])
        _, success = per_cc_batch(gammas, code)
        with mpmath.workdps(40):
            for g, q in zip(gammas, success):
                g = mpmath.mpf(float(g))
                v = (1 - (1 + g) ** -2) * mpmath.log(mpmath.e, 2) ** 2
                z = (code.n * mpmath.log(1 + g, 2) - code.k
                     + mpmath.log(code.n, 2)) / mpmath.sqrt(code.n * v)
                exact = mpmath.erfc(-z / mpmath.sqrt(2)) / 2
                assert abs(q - exact) <= 1e-12 * exact

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(n=st.integers(51, 600), data=st.data(),
           exps=st.lists(st.floats(-4.0, 3.0), min_size=2, max_size=2))
    def test_batch_monotone_in_sinr(self, n, data, exps):
        # min_blocklength's bound rests on this; it holds for n <= 2^k
        k = data.draw(st.integers(math.ceil(math.log2(n)), n - 1))
        lo, hi = 10.0 ** np.sort(exps)
        gammas = np.array([lo, np.nextafter(lo, np.inf), hi])
        eps, success = per_cc_batch(gammas, CodeParams(k=k, n=n))
        tiny = np.finfo(float).tiny
        assert np.all(eps[1:] <= eps[:-1] * (1.0 + TAIL_ROUNDING) + tiny)
        assert np.all(success[1:] >= success[:-1] * (1.0 - TAIL_ROUNDING))

    def test_batch_rises_in_sinr_above_two_to_the_k(self):
        # n > 2^k: the mean term is positive at zero SINR, so tiny SINRs
        # decode almost surely and eps rises before it falls
        eps, _ = per_cc_batch(np.array([1e-4, 1e-2, 1.0]), CodeParams(k=4, n=64))
        assert eps[0] < eps[1]
