"""References the benchmark checks the program against, computed apart from it.

- `exact_chain`: the 3^N-state chain in 80-digit `mpmath` arithmetic.  Only
  the SIC decoding order comes from the program (the scalar
  `sic.decoding_order`); stage SINRs, error rates, the stationary solve and
  the per-user functionals are all evaluated here.
- `single_user`: the closed-form single-user chain (the OMA baseline).
- `matched_oma_power`: the matched-power fixed point of the OMA baseline.
- `cap_probability`: the probability 1 - e^(-1/cap) that channel inversion
  hits the cap under unit-mean Rayleigh fading.
- `asymptotic_variance`: the Markov-chain CLT variance of a per-slot
  functional f(X_t, X_{t+1}), so simulated averages get honest z-scores.
"""

import math

import mpmath
import numpy as np

DPS = 80
S, R, F = 0, 1, 2


def per_normal_approx(gamma, k, n):
    """Chase-combining error rate of the normal approximation, in mpmath."""
    gamma = mpmath.mpf(gamma)
    if gamma <= 0:
        return mpmath.mpf(1)
    v = (1 - (1 + gamma) ** -2) * mpmath.log(mpmath.e, 2) ** 2
    num = n * mpmath.log(1 + gamma, 2) - k + mpmath.log(n, 2)
    return mpmath.erfc(num / mpmath.sqrt(n * v) / mpmath.sqrt(2)) / 2


def _digits(state, n_users):
    return [(state // 3**i) % 3 for i in range(n_users)]


def _stage_sinr(powers, phases, decoded, j):
    undecoded = [w for w in range(len(powers)) if w not in decoded]
    gamma = powers[j] / (sum(powers[w] for w in undecoded if w != j) + 1)
    if phases[j] == R:
        stored = [w for w in range(len(powers)) if w != j and (
            phases[w] == F or (phases[w] == R and w not in decoded))]
        gamma += powers[j] / (sum(powers[w] for w in stored) + 1)
    return gamma


class ExactChain:
    """Transition matrix, stationary vector and per-user metrics of one cluster."""

    def __init__(self, matrix, probs, per, p_s, eta):
        self.matrix = matrix          # mpmath matrix, m x m
        self.probs = probs            # list of mpf, length m
        self.per = per                # list of mpf per user
        self.p_s = p_s
        self.eta = eta

    def matrix_float(self):
        m = self.matrix.rows
        return np.array([[float(self.matrix[a, b]) for b in range(m)]
                         for a in range(m)])

    def probs_float(self):
        return np.array([float(p) for p in self.probs])


def exact_chain(alphas, p0, k, n, order_fn=None):
    """The chain of `len(alphas)` users at total received power p0 (linear),
    k information bits in n channel uses.

    order_fn(state_index) returns the SIC decoding order of a state; by
    default it is the program's scalar `noma_harq.sic.decoding_order`.
    """
    n_users = len(alphas)
    m = 3**n_users
    if order_fn is None:
        order_fn = _program_order(alphas, p0, k, n)
    with mpmath.workdps(DPS):
        powers = [mpmath.mpf(float(a)) * mpmath.mpf(float(p0)) for a in alphas]
        pmat = mpmath.zeros(m, m)
        for s in range(m):
            phases = _digits(s, n_users)
            order = order_fn(s)
            decoded = set()
            reach = mpmath.mpf(1)       # probability that stages so far succeeded
            # tails[w]: next state when stage w fails first; decoded users go
            # to S (digit 0), users from position w on fall back (R -> F, else R)
            fall = [F if ph == R else R for ph in phases]
            tails = [0] * n_users
            tail = 0
            for w in range(n_users - 1, -1, -1):
                u = order[w]
                tail += fall[u] * 3**u
                tails[w] = tail
            for w, u in enumerate(order):
                eps = per_normal_approx(_stage_sinr(powers, phases, decoded, u), k, n)
                pmat[s, tails[w]] += reach * eps
                reach *= 1 - eps
                decoded.add(u)
            pmat[s, 0] += reach
        a = pmat.T - mpmath.eye(m)
        for b in range(m):
            a[m - 1, b] = 1
        rhs = mpmath.zeros(m, 1)
        rhs[m - 1] = 1
        sol = mpmath.lu_solve(a, rhs)
        probs = [sol[s] for s in range(m)]
        digits = [_digits(s, n_users) for s in range(m)]
        rate = mpmath.mpf(k) / n
        per, p_s, eta = [], [], []
        for i in range(n_users):
            e = mpmath.mpf(0)
            q = mpmath.mpf(0)
            for s in range(m):
                if digits[s][i] == F:
                    e += probs[s]
                elif digits[s][i] == R:
                    e += probs[s] * mpmath.fsum(
                        pmat[s, t] for t in range(m) if digits[t][i] == F)
                if digits[s][i] != R:
                    q += probs[s] * mpmath.fsum(
                        pmat[s, t] for t in range(m) if digits[t][i] == S)
            per.append(e)
            p_s.append(q)
            eta.append(rate * (1 - e) / (2 - q))
    return ExactChain(pmat, probs, per, p_s, eta)


def _program_order(alphas, p0, k, n):
    from noma_harq.fbl import CodeParams
    from noma_harq.sic import SystemConfig, SystemState, decoding_order

    cfg = SystemConfig(alphas=tuple(alphas), p0=p0, code=CodeParams(k=k, n=n))
    n_users = len(alphas)
    return lambda s: decoding_order(SystemState.from_index(s, n_users), cfg).order


def single_user(eps1, eps2):
    """Closed-form stationary metrics of the single-user chain.

    eps1 is the first-try error rate, eps2 the error rate of the combined
    retransmission.  Returns (PER, first-try success probability):
    e = 2*eps1*eps2 / (1 + eps1), p_s = (1 - eps1) / (1 + eps1).
    """
    return 2 * eps1 * eps2 / (1 + eps1), (1 - eps1) / (1 + eps1)


def matched_oma_power(p0, t_noma, k, n, tol=1e-40, max_iter=10_000):
    """Received power P of the orthogonal baseline such that
    P = p0 * t_noma / (2 - p_s(P)), iterated upward from p0 to convergence."""
    with mpmath.workdps(DPS):
        p0 = mpmath.mpf(float(p0))
        p = p0
        for _ in range(max_iter):
            _, p_s = single_user(per_normal_approx(p, k, n), 0)
            p_new = p0 * mpmath.mpf(float(t_noma)) / (2 - p_s)
            if abs(p_new - p) <= tol * p:
                return p_new
            p = p_new
    raise ArithmeticError("matched OMA power did not converge")


def oma_reference(p0, t_noma, n_users, k, n):
    """(PER, p_s, eta) of each user of the matched orthogonal baseline."""
    with mpmath.workdps(DPS):
        p = matched_oma_power(p0, t_noma, k, n)
        e, p_s = single_user(per_normal_approx(p, k, n), per_normal_approx(2 * p, k, n))
        eta = mpmath.mpf(k) / n * (1 - e) / (n_users * (2 - p_s))
        return p, e, p_s, eta


def cap_probability(cap):
    """P(h < 1/cap) for h ~ Exp(1): the share of slots whose inversion is capped."""
    return -math.expm1(-1.0 / cap)


def asymptotic_variance(matrix, probs, f):
    """CLT variance sigma^2 of (1/T) sum_t f(X_t, X_{t+1}) for a stationary chain.

    matrix is the transition matrix P, probs its stationary vector pi and
    f an array of f(a, b).  With mu the mean, fbar = f - mu and
    h(b) = sum_c P[b, c] fbar(b, c), the lag-k covariances for k >= 1 sum
    to sum_{a,b} pi_a P_ab fbar_ab G_b, where G solves
    (I - P + 1 pi^T) G = h.  So
    sigma^2 = sum pi_a P_ab fbar_ab^2 + 2 sum pi_a P_ab fbar_ab G_b.
    """
    p = np.asarray(matrix, dtype=float)
    pi = np.asarray(probs, dtype=float)
    f = np.asarray(f, dtype=float)
    joint = pi[:, None] * p
    mu = float((joint * f).sum())
    fbar = f - mu
    h = (p * fbar).sum(axis=1)
    m = len(pi)
    g = np.linalg.solve(np.eye(m) - p + np.outer(np.ones(m), pi), h)
    return mu, float((joint * fbar**2).sum() + 2.0 * (joint * fbar * g[None, :]).sum())


def per_functional(n_users, user):
    """f(a, b) of the PER estimator: a in F, or a in R and b in F."""
    d = np.array([_digits(s, n_users)[user] for s in range(3**n_users)])
    return ((d[:, None] == F) | ((d[:, None] == R) & (d[None, :] == F))).astype(float)


def success_functional(n_users, user):
    """f(a, b) of the first-try success estimator: a not in R and b in S."""
    d = np.array([_digits(s, n_users)[user] for s in range(3**n_users)])
    return ((d[:, None] != R) & (d[None, :] == S)).astype(float)
