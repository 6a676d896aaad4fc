"""Scalar reference engine for the tests: one transition probability at a
time from the scalar SIC order, and per-user metrics as loops over the
dense transition matrix.  The package computes the same quantities from
its vectorized successor table; the tests compare the two."""

import numpy as np

from noma_harq.fbl import per_cc
from noma_harq.markov import StationaryDistribution, TransitionMatrix, _state_digits
from noma_harq.sic import Phase, SystemConfig, SystemState, decoding_order


def _per_all_users(digits: np.ndarray, pi: np.ndarray, p: np.ndarray) -> np.ndarray:
    n = digits.shape[1]
    out = np.empty(n)
    for i in range(n):
        in_f = digits[:, i] == Phase.F
        in_r = digits[:, i] == Phase.R
        to_f = pi[:, in_f].sum(axis=1)
        out[i] = p[in_f].sum() + float(p[in_r] @ to_f[in_r])
    return out


def _success_all_users(digits: np.ndarray, pi: np.ndarray, p: np.ndarray) -> np.ndarray:
    n = digits.shape[1]
    out = np.empty(n)
    for i in range(n):
        fresh = digits[:, i] != Phase.R
        in_s = digits[:, i] == Phase.S
        to_s = pi[:, in_s].sum(axis=1)
        out[i] = float(p[fresh] @ to_s[fresh])
    return out


def transition_prob(state: SystemState, next_state: SystemState,
                    cfg: SystemConfig) -> float:
    """One-slot transition probability between two joint states.

    Structural zeros: any user moving {S,F}->F or R->R, or a user decoded
    after the first SIC failure ending in S.  Otherwise the probability is
    the product of per-stage decode outcomes up to and including the first
    failing stage (all N stages when every user succeeds).
    """
    n = cfg.n_users
    if state.n_users != n or next_state.n_users != n:
        raise ValueError("state size does not match the configuration")
    for cur, nxt in zip(state.phases, next_state.phases):
        if cur is not Phase.R and nxt is Phase.F:
            return 0.0
        if cur is Phase.R and nxt is Phase.R:
            return 0.0
    dec = decoding_order(state, cfg)
    outcome = [next_state.phases[u] for u in dec.order]
    fail_positions = [w for w, ph in enumerate(outcome) if ph is not Phase.S]
    if fail_positions:
        first = fail_positions[0]
        if any(outcome[w] is Phase.S for w in range(first + 1, n)):
            return 0.0
        stages = first + 1
    else:
        stages = n
    prob = 1.0
    for w in range(stages):
        eps = per_cc(dec.stage_sinrs[w], cfg.code)
        prob *= (1.0 - eps) if outcome[w] is Phase.S else eps
    return prob


def per_user(i: int, p: StationaryDistribution, tm: TransitionMatrix) -> float:
    """Packet error rate of user i: mass already in F plus mass in R that
    moves to F next slot."""
    digits = _state_digits(tm.n_users)
    if not 0 <= i < tm.n_users:
        raise ValueError(f"user index {i} out of range")
    return float(_per_all_users(digits, tm.matrix, p.probs)[i])


def success_prob(i: int, p: StationaryDistribution, tm: TransitionMatrix) -> float:
    """Probability that user i sends a fresh packet and it decodes first try."""
    digits = _state_digits(tm.n_users)
    if not 0 <= i < tm.n_users:
        raise ValueError(f"user index {i} out of range")
    return float(_success_all_users(digits, tm.matrix, p.probs)[i])
