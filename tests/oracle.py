"""Scalar reference engine for the tests: the normal-approximation error
rate one SINR at a time, one transition probability at a time from the
scalar SIC order, and per-user metrics as loops over the dense
transition matrix.  The package computes the same quantities with its
vectorized per_cc_batch and successor table; the tests compare the two.
Also the SIC stage tables one (configuration, state) row at a time, the
analysis over every state of each chain, the simulator's chain one slot
at a time, and the chi-square fit the simulator tests apply to state
visits."""

import math
from functools import reduce
from typing import Tuple

import numpy as np
from scipy.special import erfc
from scipy.stats import chi2

from noma_harq import markov, montecarlo
from noma_harq.fbl import LOG2E_SQ, CodeParams
from noma_harq.markov import StationaryDistribution, TransitionMatrix, _state_digits
from noma_harq.sic import Phase, SystemConfig, SystemState, decoding_order

# chi-square cells expected to hold fewer visits than this are pooled
MIN_EXPECTED = 5.0
# slots per chunk of run_chain's uniforms; the stream does not depend on it
CHAIN_CHUNK = 1 << 16


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = 0.5*erfc(x/sqrt(2)).

    The erfc identity is numerically stable deep into the tails; the
    result underflows to exactly 0.0 rather than going negative.
    """
    if not math.isfinite(x):
        raise ValueError(f"q_function requires finite input, got {x!r}")
    return 0.5 * float(erfc(x / math.sqrt(2.0)))


def channel_dispersion(gamma: float) -> float:
    """Channel dispersion V(gamma) = (1 - (1+gamma)^-2) * (log2 e)^2 in bits^2.

    Zero at gamma = 0, increasing, bounded by (log2 e)^2.  gamma = inf is
    accepted as a saturated-SINR sentinel and returns the bound.
    """
    if math.isnan(gamma) or gamma < 0:
        raise ValueError(f"SINR must be >= 0, got {gamma!r}")
    return (1.0 - (1.0 + gamma) ** -2) * LOG2E_SQ


def per_cc(gamma_cc: float, code: CodeParams) -> float:
    """Packet error rate under Chase combining at MRC-combined SINR gamma_cc.

    gamma_cc is the sum of the per-copy SINRs.  Returns 1.0 for
    gamma_cc = 0 (zero mutual information cannot carry k >= 1 bits) and
    clamps the result to [0, 1].
    """
    if math.isnan(gamma_cc) or gamma_cc < 0:
        raise ValueError(f"SINR must be >= 0, got {gamma_cc!r}")
    if gamma_cc == 0.0:
        return 1.0
    if math.isinf(gamma_cc):
        return 0.0
    v = channel_dispersion(gamma_cc)
    num = code.n * math.log2(1.0 + gamma_cc) - code.k + math.log2(code.n)
    if v <= 0.0:
        # dispersion underflow at tiny SINR: outcome decided by the mean term
        return 1.0 if num < 0.0 else 0.0
    eps = q_function(num / math.sqrt(code.n * v))
    return min(1.0, max(0.0, eps))


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


def stage_tables(digits: np.ndarray, powers: np.ndarray):
    """Greedy SIC order and per-stage SINR for every state, one row per
    (configuration, state) pair: the row-wise form of
    markov._stage_tables, whose stage-major tables must match it bit for
    bit.  Each row sum adds the users one by one in index order, not in
    numpy's row-sum order (pairwise at N = 8).

    powers is a (B, N) stack of received-power vectors, or one (N,)
    vector.  Returns (orders, gammas), both (B, 3^N, N), or (3^N, N) for
    one vector.
    """
    m, n = digits.shape
    powers = np.asarray(powers, dtype=float)
    lead = powers.shape[:-1]
    powers = np.repeat(powers.reshape(-1, n), m, axis=0)
    is_r = np.tile(digits == Phase.R, (len(powers) // m, 1))
    is_f = np.tile(digits == Phase.F, (len(powers) // m, 1))
    undecoded = np.ones(powers.shape, dtype=bool)
    orders = np.empty(powers.shape, dtype=np.int64)
    gammas = np.empty(powers.shape, dtype=np.float64)
    rows = np.arange(len(powers))
    for stage in range(n):
        undec_p = undecoded * powers
        denom_new = reduce(np.add, undec_p.T)[:, None] - undec_p + 1.0
        g = powers / denom_new
        # stored first copy of an R user: F users and undecoded R users interfere
        stored = is_f | (is_r & undecoded)
        stored_p = stored * powers
        denom_orig = reduce(np.add, stored_p.T)[:, None] - stored_p + 1.0
        g = g + np.where(is_r, powers / denom_orig, 0.0)
        g = np.where(undecoded, g, -np.inf)
        pick = g.argmax(axis=1)  # ties resolve to the lowest user index
        orders[:, stage] = pick
        gammas[:, stage] = g[rows, pick]
        undecoded[rows, pick] = False
    return orders.reshape(lead + (m, n)), gammas.reshape(lead + (m, n))


def table_analysis(powers: np.ndarray, code: CodeParams):
    """(PER, p_s, errors) of a (B, N) stack of received powers, solved
    over every state of each chain: the all-states form of
    markov._table_analysis, which solves and sums over each chain's
    entered states only.  Every state's moves go to markov._stationary,
    and the per-user sums run over the move table of every state, one
    state at a time in index order."""
    orders, succ, prob = markov._chain_table(powers, code)[:3]
    n_chains, m, moves = succ.shape
    chain = np.repeat(np.arange(n_chains), m * moves)
    src = np.tile(np.repeat(np.arange(m), moves), n_chains)
    p, errors = markov._stationary(chain, src, succ.ravel(), prob.ravel(), n_chains, m)
    to_f, to_s = markov._move_sums(orders, prob, _state_digits(powers.shape[1]))
    # each sum adds the states one by one in index order
    p = p[:, :, None]
    pers, succ_prob = (reduce(np.add, np.moveaxis(p * t, 1, 0)) for t in (to_f, to_s))
    pers = np.minimum(pers, 1.0)
    # a user that no move of positive probability delivers has a PER of 1
    if (succ_prob == 0.0).any():
        deepest = (np.arange(moves) * (prob > 0.0)).max(axis=-1, keepdims=True)
        reach = np.arange(moves - 1) < deepest
        delivered = np.zeros(pers.shape, dtype=bool)
        delivered[np.nonzero(reach)[0], orders[reach]] = True
        pers[~delivered] = 1.0
    return pers, np.minimum(succ_prob, 1.0), errors


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


def chi_square_state_fit(observed: np.ndarray,
                         expected_probs: np.ndarray) -> Tuple[float, int, float]:
    """Pearson goodness-of-fit of visit counts against a distribution.

    Cells with expected count below MIN_EXPECTED are pooled (merging into
    the smallest kept cell if the pool itself stays too small).  Returns
    (statistic, degrees of freedom, p-value).
    """
    obs = np.asarray(observed, dtype=float)
    probs = np.asarray(expected_probs, dtype=float)
    total = obs.sum()
    if total <= 0:
        raise ValueError("no observations")
    exp = probs * total
    keep = exp >= MIN_EXPECTED
    if not keep.any():
        raise ValueError("every cell falls below the pooling threshold")
    obs_cells = list(obs[keep])
    exp_cells = list(exp[keep])
    if (~keep).any():
        pool_o = obs[~keep].sum()
        pool_e = exp[~keep].sum()
        if pool_e >= MIN_EXPECTED:
            obs_cells.append(pool_o)
            exp_cells.append(pool_e)
        else:
            j = int(np.argmin(exp_cells))
            obs_cells[j] += pool_o
            exp_cells[j] += pool_e
    obs_arr = np.array(obs_cells)
    exp_arr = np.array(exp_cells)
    stat = float(((obs_arr - exp_arr) ** 2 / exp_arr).sum())
    dof = len(obs_arr) - 1
    return stat, dof, float(chi2.sf(stat, dof))


def run_chain(dyn_rng, tables, n_users: int, slots: int, warmup: int,
              visits_thin=None) -> np.ndarray:
    """Evolve the phase-vector chain from the all-success state, one slot
    at a time, drawing the uniforms in chunks of CHAIN_CHUNK.

    tables[rot] is the (eps_tab, succ_tab) pair of nested lists for
    rotation rot (montecarlo._decode_tables' arrays as lists); slot t uses
    tables[t % len(tables)].  Returns the counts (len(tables), 3^N, N+1):
    slots after the warmup by rotation, state and first-failure stage (N:
    every stage succeeded).  Every montecarlo.THIN_STRIDE-th counted slot
    adds its state to visits_thin.
    """
    n_rot = len(tables)
    m = 3**n_users
    counts = [[[0] * (n_users + 1) for _ in range(m)] for _ in range(n_rot)]
    state = 0
    done = 0
    while done < slots:
        take = min(CHAIN_CHUNK, slots - done)
        uni = dyn_rng.random((take, n_users))
        for row in uni:
            rot = done % n_rot
            eps_tab, succ_tab = tables[rot]
            eps = eps_tab[state]
            for w in range(n_users):
                if row[w] < eps[w]:
                    break
            else:
                w = n_users
            if done >= warmup:
                counts[rot][state][w] += 1
                if visits_thin is not None and (done - warmup) % montecarlo.THIN_STRIDE == 0:
                    visits_thin[state] += 1
            state = succ_tab[state][w]
            done += 1
    return np.array(counts, dtype=np.int64)
