"""Tests of the benchmark's own references (not of the program).

    python3 -m pytest bench/test_reference.py
"""

import math
import os
import sys

import mpmath
import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402


def greedy_order(alphas, p0):
    """SIC order computed here from the model, so the tests need no program code."""
    powers = [a * p0 for a in alphas]
    n = len(alphas)

    def order(state):
        phases = [(state // 3**i) % 3 for i in range(n)]
        decoded, out = set(), []
        for _ in range(n):
            best = max((j for j in range(n) if j not in decoded),
                       key=lambda j: (reference._stage_sinr(powers, phases, decoded, j), -j))
            out.append(best)
            decoded.add(best)
        return out

    return order


def test_per_matches_float_formula():
    gamma, k, n = 0.8, 25, 100
    v = (1 - (1 + gamma) ** -2) * math.log2(math.e) ** 2
    x = (n * math.log2(1 + gamma) - k + math.log2(n)) / math.sqrt(n * v)
    want = 0.5 * math.erfc(x / math.sqrt(2))
    assert float(reference.per_normal_approx(gamma, k, n)) == pytest.approx(want, rel=1e-12)
    assert reference.per_normal_approx(0, k, n) == 1


def test_single_user_chain_matches_closed_form():
    p0, k, n = 1.3, 25, 100
    chain = reference.exact_chain((1.0,), p0, k, n, order_fn=lambda s: [0])
    with mpmath.workdps(reference.DPS):
        e, p_s = reference.single_user(reference.per_normal_approx(p0, k, n),
                                       reference.per_normal_approx(2 * p0, k, n))
        assert abs(chain.per[0] - e) < mpmath.mpf(10) ** -70
        assert abs(chain.p_s[0] - p_s) < mpmath.mpf(10) ** -70


@pytest.mark.parametrize("alphas,db", [((0.4, 0.6), 0.0), ((0.27, 0.32, 0.41), 8.0)])
def test_exact_chain_is_stationary_and_stochastic(alphas, db):
    chain = reference.exact_chain(alphas, 10 ** (db / 10), 25, 100,
                                  order_fn=greedy_order(alphas, 10 ** (db / 10)))
    m = 3 ** len(alphas)
    with mpmath.workdps(reference.DPS):
        for a in range(m):
            assert abs(mpmath.fsum(chain.matrix[a, b] for b in range(m)) - 1) < mpmath.mpf(10) ** -70
        for b in range(m):
            flow = mpmath.fsum(chain.probs[a] * chain.matrix[a, b] for a in range(m))
            assert abs(flow - chain.probs[b]) < mpmath.mpf(10) ** -70
        assert abs(mpmath.fsum(chain.probs) - 1) < mpmath.mpf(10) ** -70


def test_exact_chain_single_user_limit_of_weak_partner():
    # a second user at vanishing power barely interferes, so user 2's
    # metrics approach the single-user chain at the full power
    p0, k, n = 1.0, 25, 100
    alphas = (1e-9, 1 - 1e-9)
    chain = reference.exact_chain(alphas, p0, k, n, order_fn=greedy_order(alphas, p0))
    e, _ = reference.single_user(reference.per_normal_approx(p0, k, n),
                                 reference.per_normal_approx(2 * p0, k, n))
    assert float(chain.per[1]) == pytest.approx(float(e), rel=1e-6)


def test_matched_oma_power_is_a_fixed_point():
    p0, t_noma, k, n = 0.8, 1.4, 25, 100
    with mpmath.workdps(reference.DPS):
        p = reference.matched_oma_power(p0, t_noma, k, n)
        _, p_s = reference.single_user(reference.per_normal_approx(p, k, n), 0)
        assert abs(p - mpmath.mpf(p0) * mpmath.mpf(t_noma) / (2 - p_s)) < mpmath.mpf(10) ** -35


def test_cap_probability_matches_exponential_cdf():
    for cap in (1.0, 10.0, 1e3, 1e9):
        assert reference.cap_probability(cap) == pytest.approx(1 - math.exp(-1 / cap), rel=1e-9)


def test_asymptotic_variance_of_iid_chain_is_bernoulli():
    # rows all equal: successive states are independent, so the CLT
    # variance of the indicator of state 1 is p(1 - p)
    p = np.array([[0.7, 0.3], [0.7, 0.3]])
    mu, var = reference.asymptotic_variance(p, np.array([0.7, 0.3]),
                                            np.array([[0.0, 1.0], [0.0, 1.0]]))
    assert mu == pytest.approx(0.3)
    assert var == pytest.approx(0.21)


def test_asymptotic_variance_matches_two_state_formula():
    # indicator of state 1 in a two-state chain with flip rates a, b:
    # sigma^2 = p(1-p)(1 + lam)/(1 - lam), lam = 1 - a - b
    a, b = 0.2, 0.05
    p = np.array([[1 - a, a], [b, 1 - b]])
    pi = np.array([b, a]) / (a + b)
    f = np.array([[1.0, 1.0], [0.0, 0.0]])        # f(x, y) = [x == 0]
    lam = 1 - a - b
    _, var = reference.asymptotic_variance(p, pi, f)
    assert var == pytest.approx(pi[0] * pi[1] * (1 + lam) / (1 - lam), rel=1e-12)


def test_asymptotic_variance_matches_simulation():
    rng = np.random.default_rng(5)
    p = np.array([[0.6, 0.4, 0.0], [0.3, 0.0, 0.7], [0.6, 0.4, 0.0]])
    w, v = np.linalg.eig(p.T)
    pi = np.real(v[:, np.argmin(abs(w - 1))])
    pi /= pi.sum()
    f = reference.per_functional(1, 0)
    mu, var = reference.asymptotic_variance(p, pi, f)
    means = []
    cum = np.cumsum(p, axis=1)
    for _ in range(400):
        x, total = 0, 0.0
        u = rng.random(2000)
        for t in range(2000):
            y = int(np.searchsorted(cum[x], u[t], side="right"))
            total += f[x, y]
            x = y
        means.append(total / 2000)
    assert np.mean(means) == pytest.approx(mu, abs=4 * math.sqrt(var / 2000 / 400))
    assert np.var(means) * 2000 == pytest.approx(var, rel=0.25)
