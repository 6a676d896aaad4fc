"""Markov-chain analysis of N-user NOMA with one Chase-combining retransmission.

The joint packet phases of the N users form a Markov chain on 3^N states
(base-3 encoding, user i contributes phase * 3**i).  One slot's transition
is fully determined by the SIC outcome: decoding proceeds in the greedy
SINR order and stops at the first failure, so from any state exactly N+1
successors are reachable (first failure at stage 1..N, or all succeed).
Users behind the first failure are not decoded: fresh packets fall back
to R, retransmissions exhaust to F.  Forbidden single-user moves are
S->F, F->F (a fresh packet always gets its retransmission) and R->R
(a retransmission always resolves).

Per-user reliability metrics come from the stationary distribution:

    e_i  = P(J_i = F) + P(J_i = R and next J_i = F)
    p_s  = P(J_i in {S,F} and next J_i = S)
    eta  = R * (1 - e_i) / (p_s + 2*(1 - p_s))

and the delivery delay for M packets is binomial: each packet needs one
slot with probability p_s, else two.

Production path.  One move table (the N+1 successors of every state and
their probabilities, column w < N for the first SIC failure at stage w,
column N for all-success) feeds the dense matrix and the simulator; the
analysis reads the same table on each chain's entered states only.  The
SIC stage tables and the successors are built for every state, as the
decoding orders decide which states some move enters; a state that no
move enters has no stationary mass.  Error rates, move probabilities,
the solve and the per-user sums then see only the entered states: on the
benchmark's sweeps (seeds 1-3) 8 of 9 at N = 2, 20 of 27 at N = 3, 40-48
of 81 at N = 4, 91-111 of 243 at N = 5, 217-253 of 729 at N = 6, 531-569
of 2187 at N = 7 and 1259-1266 of 6561 at N = 8, and on its GA rows
15-20 of 27 at N = 3 and 73-112 of 243 at N = 5.  Every chain first
takes the regenerative solve: the expected visits x per excursion
from state 0 (the only state with a self-loop) solve (I - Q)^T x =
P[0, 1:] over the other states and pi = [1, x] / (1 + sum x).  Systems up to 81 states
(N <= 4) are factored dense with LAPACK, larger ones with SuperLU on the
N+1 entries per row, with no 3^N x 3^N array.  A slot's successor has a
prefix of the SIC order as its S users, so most states are entered from
state 0 alone or from no state at all; their x is P[0, t] exactly, and
SuperLU factors only the states that a state other than 0 enters.  On
the benchmark's sweeps that is 90-110 of 242 unknowns at N = 5, 216-252
of 728 at N = 6, 530-568 of 2186 at N = 7 and about 1260 of 6560 at
N = 8.  SuperLU eliminates them in one fixed order per user count
(_elimination_order: more F digits first, then fewer S digits), not a
minimum-degree order computed per chain: on the benchmark's N = 8 chain
at 14 dB the factorization holds 53k nonzeros against 21k but takes
3.6 ms against 5.0 ms, and analyze 18 ms against 19 ms.  The LU pivots
are the only place a subtraction enters.  A chain whose LU has a pivot
below PIVOT_FLOOR (most chains that rarely return to state 0: short
blocks, low SNR, a nearly silenced user), a SuperLU failure or a vector
that is not finite goes to subtraction-free Grassmann-Taksar-Heyman
elimination over the states that its given moves enter.  The floor also
routes the chains in which some state cannot move to state 0 in one slot
(a silenced user): among 100000 random chains at N = 2..5 and
-25..+20 dB it rejected all 28658 of those.  GTH holds a dense matrix of
the entered states: at N = 8 (k = 50, n = 60, 0 dB) 948 of 6561 states;
analyze takes 0.04 s, and its traced peak is 9.5 MiB.  Per-user metrics
are closed-form sums over the table (_move_sums, which also turns the
simulator's slot counts into its tallies): P(next F | R) is a forward
cumulative sum of first-failure probabilities and P(next S | S or F) a
reverse one, never 1 - q.  Each user's PER and p_s add the stationary
mass times these sums over its chain's entered states, one state at a
time in index order (one bincount per output), so the program, not a
BLAS kernel, fixes the order of the additions.

Stacks.  The engine has a leading batch axis: the tables, the stationary
solve and the metrics take a (B, N) stack of received-power vectors, in
chunks of at most STACK_STATES chain states (_table_analysis), so
max_user_per evaluates a whole GA generation in one call and analyze a
whole SNR grid (a sequence of configs that share user count and code;
one config is a stack of one).  The SIC stage tables are built
stage-major, one row of B 3^N entries per user, so every operation of a
stage runs along the long axis: the sums over users add them one by one
in index order at every N, and the pick is the stage's maximum, its ties
resolved to the lowest user by a maximum over a rank mask, with no
argmax or np.where over the short axis.  The analysis keeps its (chain,
state) rows in one flat list, each chain's own entered states, not one
union per stack: on the benchmark's GA stacks of 16 rows or more a union
held up to 27 of 27 states at N = 3 and 242 of 243 at N = 5, and with a
union a row's value would depend on its stack.  The chains up to 81
states are assembled by one bincount and factored and solved one by one,
in one LAPACK dgesv call each.  Larger ones are factored together: one
SuperLU of the block-diagonal matrix of the whole stack, whose pivots
stay in their own blocks.  A GA generation of 30 chains at N = 5 (0 dB,
k = 50, n = 228) solves in 4.6 ms as two such stacks against 8.9 ms one
by one.  Every chain that goes to GTH is solved one by one, on its own
moves.  Every floating-point operation is the one a chain sees alone, so
a row's result does not depend on the stack around it.  Against the same
engine over every state (tests/oracle.py, which adds each sum in the
same state order), on 600 random stacks at N = 1..8 (-25..+20 dB,
k = 5..119, n = k+1..3k+49, a fifth with a silenced user), every chain
the dense LU solves reads the same bits (3054 chains).  SuperLU has one
unknown fewer wherever an entered state's only predecessors besides
state 0 are states that no move enters: 533 of its 555 chains read the
same bits and the rest were within 9.4e-16 relative, and on 1500 stacks
at N = 5..8 within 7.8e-15 (103 of 3227 moved).  GTH, whose dense matrix
may hold fewer states, read the same bits on 4416 of 4504 chains and the
rest within 9.7e-16, and on the N = 5..8 stacks within 2.3e-15 (424 of
6651 moved).

Accuracy.  Three measurements, each of its own scope, and a counterexample;
none is a bound held for every chain:
  - against an exact 400-digit chain (N <= 3, -10..+14 dB, rates 1/4
    and 1/2), every PER and p_s above 1e-300 agrees to 2.3e-13 relative
    or better;
  - against GTH, over the 19582 sparse regenerative LUs of two N = 5 GA
    runs, the metrics were within 1.3e-13 relative where every pivot
    passed PIVOT_FLOOR (19404 LUs), and up to 1.9e-4 off below it (178,
    which go to GTH).  That LU factored all 242 states; on the 1094 rows
    of two GA runs of the benchmark, the LU over the kept states is
    within 2.8e-13 of GTH where it passes the floor (1088 rows), and the
    all-states LU 3.0e-13;
  - against GTH, over 160000 random chains at N = 2..4 (-25..+20 dB,
    k = 5..119, n = k+1..3k+49) solved by the dense LU, PER and p_s were
    up to 1.5e-11 relative off in the 73570 that passed the floor, in a
    thin tail: 3000 more such chains (1363 passing) stayed within 1.2e-13
    (p_s) and 1.8e-15 (PER);
  - passing the floor does not hold the sparse LU to 1e-12 of GTH: on
    N = 5 ratios proportional to (60, 47, 60, 66, 30), k = 25, n = 66,
    -2.76 dB, every pivot passed PIVOT_FLOOR, yet a state of mass 6.4e-5
    read 1.8e-12 relative off _gth, and user 1's p_s 8.2e-13;
    test_sparse_lu_matches_gth_above_the_pivot_floor holds its 1e-12
    only on its derandomized draws.
The solve and the metrics add ~1e-13 on the exact chains; the rest is
the float64 Gaussian tail of fbl.per_cc_batch, whose relative error
grows like z^2 * 1e-16: at rate 3/4 success probabilities near 1e-230
(|z| = 29) are off by 3.7e-12, all of it from that tail.
"""

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Union

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dgesv
from scipy.sparse import csc_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu
from scipy.special import gammaln, xlog1py, xlogy

from .errors import NumericalError, ReducibleChainError
from .fbl import CodeParams, per_cc_batch
from .sic import Phase, SystemConfig

_log = logging.getLogger(__name__)
_S, _R, _F = int(Phase.S), int(Phase.R), int(Phase.F)
# required residual of the stationary solve, ||Pi^T p - p||_inf
STATIONARY_TOL = 1e-10
# largest cluster analysed or simulated: 3^8 = 6561 states
MAX_USERS = 8
# regenerative systems up to this many states (N <= 4) are factored dense,
# and GTH updates whole rows on up to this many entered states; SuperLU is
# faster from 243 states on (one regenerative solve: 0.04 ms dense and
# 0.15 ms sparse at 81 states, 0.68 and 0.30 ms at 243)
DENSE_SOLVE_STATES = 81
# smallest LU pivot trusted; a chain with a smaller pivot goes to GTH.  Its
# measured accuracy, 1.3e-13 relative of GTH above the floor on two N = 5
# GA runs' sparse LUs and up to 1.5e-11 on random dense N = 2..4 chains, is
# scoped in the module docstring's "Accuracy"
PIVOT_FLOOR = 1e-2
# fixed-point iterations of the matched orthogonal-baseline power
OMA_ITERATIONS = 30
# _table_analysis solves a stack in chunks of at most this many chain states
# (at least one chain), so the engine's (B, 3^N, N) temporaries stay near
# 0.25 MB each whatever the GA population, and SuperLU's workspace (about
# 0.5 kB per unknown) near 2 MB; at 16384 states the benchmark's N = 5 GA
# took 0.204 s against 0.220 s, but its peak RSS rose by 3.7 MiB
STACK_STATES = 1 << 12


@dataclass(frozen=True)
class TransitionMatrix:
    """Dense row-stochastic transition matrix over the 3^n_users states."""

    matrix: np.ndarray
    n_users: int

    def __post_init__(self):
        m = self.matrix
        if m.shape != (3**self.n_users, 3**self.n_users):
            raise ValueError(f"matrix shape {m.shape} does not match {self.n_users} users")
        # each check is written so that NaN fails it
        if not (m.min() >= 0.0 and m.max() <= 1.0 + 1e-12):
            raise ValueError("transition probabilities must lie in [0, 1]")
        drift = np.abs(m.sum(axis=1) - 1.0).max()
        if not drift <= 1e-9:
            raise ValueError(f"rows must sum to 1, max drift {drift:.3e}")

    @property
    def dim(self) -> int:
        return 3**self.n_users


@dataclass(frozen=True)
class StationaryDistribution:
    """Long-run state occupancy probabilities."""

    probs: np.ndarray

    def __post_init__(self):
        p = self.probs
        if not (p.min() >= 0.0 and abs(p.sum() - 1.0) <= 1e-9):
            raise ValueError("stationary vector must be a probability distribution")


@dataclass(frozen=True)
class UserMetrics:
    """Per-user reliability and throughput summary."""

    user: int
    per: float
    success_prob: float
    throughput: float


# ---------------------------------------------------------------------------
# vectorized all-states engine
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _state_digits(n_users: int) -> np.ndarray:
    """(3^N, N) table of phase digits; row s is the phase vector of state s."""
    m = 3**n_users
    idx = np.arange(m)
    digits = np.empty((m, n_users), dtype=np.int8)
    for i in range(n_users):
        digits[:, i] = (idx // 3**i) % 3
    digits.setflags(write=False)
    return digits


@lru_cache(maxsize=16)
def _elimination_order(n_users: int) -> np.ndarray:
    """The sparse LU's elimination order of the non-root states 1..3^N-1.

    States with more F digits come first, then states with fewer S
    digits; ties keep index order.  An F digit only follows an R digit,
    so states with many F digits have few predecessors; eliminating them
    first keeps the fill within 2.5x of a minimum-degree order's on the
    benchmark's N = 5..8 chains (on the states _regenerative_splu keeps),
    with no ordering pass per chain.
    """
    digits = _state_digits(n_users)[1:]
    # the last key sorts first; lexsort is stable, so ties keep index order
    order = 1 + np.lexsort(((digits == _S).sum(axis=1), -(digits == _F).sum(axis=1)))
    order.setflags(write=False)
    return order


def _stage_tables(digits: np.ndarray, powers: np.ndarray):
    """Greedy SIC order and per-stage SINR for every state at once.

    powers is a (B, N) stack of received-power vectors, or one (N,)
    vector.  Returns (orders, gammas), both C-contiguous (B, 3^N, N), or
    (3^N, N) for one vector: column ell holds the user decoded at stage
    ell and the SINR it is decoded at.

    The work is stage-major: one (N, B 3^N) row per user, and every
    operation acts along the long axis, never along rows N long: on
    (5, 3888) arrays argmax over the short axis took 86 us against 6.4 us
    for a sum or a max over it, and np.where with a state mask 79 us
    against 14 us for a divide.  The sums over users add them one by one
    in index order.  The Chase-combining term is multiplied by a 0/1 row, decoded users are
    removed by subtracting inf, and the pick is the stage's maximum: of
    the users equal to it, the one of highest rank n-1-u, so ties go to
    the lowest user.  The tables match a row-wise form that sums the same
    way and picks by argmax bit for bit.  Each stage writes into the same
    two work arrays, which at N = 5..8 took about a third off the time of
    fresh temporaries.
    """
    m, n = digits.shape
    powers = np.asarray(powers, dtype=float)
    lead = powers.shape[:-1]
    # one column per (configuration, state) pair
    powers = np.repeat(powers.reshape(-1, n).T, m, axis=1)
    size = powers.shape[1]
    r_row = np.tile((digits == _R).T.astype(float), size // m)
    f_powers = np.tile((digits == _F).T, size // m) * powers
    # the powers of the undecoded users, and of the stored first copies
    # that interfere with an R user's: F users and undecoded R users
    undec_p = powers.copy()
    stored_p = f_powers + r_row * powers
    removed = np.zeros(powers.shape)
    rank = np.arange(n - 1, -1, -1, dtype=np.int8)[:, None]
    orders = np.empty((size, n), dtype=np.int64)
    gammas = np.empty((size, n))
    cols = np.arange(size)
    g, chase = np.empty(powers.shape), np.empty(powers.shape)
    for stage in range(n):
        # g = P / (undecoded interference + 1) + is_r P / (stored + 1) - removed
        np.subtract(undec_p.sum(axis=0), undec_p, out=g)
        g += 1.0
        np.divide(powers, g, out=g)
        np.subtract(stored_p.sum(axis=0), stored_p, out=chase)
        chase += 1.0
        np.divide(powers, chase, out=chase)
        chase *= r_row
        g += chase
        g -= removed
        best = g.max(axis=0)
        pick = (n - 1) - ((g == best) * rank).max(axis=0).astype(np.int64)
        orders[:, stage] = pick
        gammas[:, stage] = best
        at = pick * size + cols
        undec_p.reshape(-1)[at] = 0.0
        stored_p.reshape(-1)[at] = f_powers.reshape(-1)[at]
        removed.reshape(-1)[at] = np.inf
    return orders.reshape(lead + (m, n)), gammas.reshape(lead + (m, n))


def _chain_table(powers: np.ndarray, code: CodeParams):
    """The move table of a stack of chains: every state's N+1 moves at
    once, for every row of the (B, N) received-power stack powers (or for
    one (N,) vector).  The package's one map from received powers to
    error rates: the analysis, the dense matrix and every simulator read
    theirs from here.

    Returns (orders, succ, prob, eps).  orders and eps, (B, 3^N, N) (or
    (3^N, N)), hold the user decoded at each SIC stage and that stage's
    failure probability.  succ and prob, (B, 3^N, N+1), hold the moves:
    column w < N is the move when the first SIC failure is at stage
    position w (decoded users go to S, everyone from w onward falls back:
    fresh packets to R, retransmissions to F), column N the all-success
    move to state 0.  Each row of prob sums to 1 within a few ulps as
    computed, since per_cc_batch returns every stage's failure and success
    probabilities as a complementary pair; it is not renormalized.
    """
    powers = np.asarray(powers, dtype=float)
    n = powers.shape[-1]
    _check_user_count(n)
    orders, gammas = _stage_tables(_state_digits(n), powers)
    prob, eps = _move_probs(gammas, code)
    return orders, _successors(orders), prob, eps


@lru_cache(maxsize=16)
def _fall_back(n_users: int) -> np.ndarray:
    """(3^N, N) table: the digit user u of state s falls back to when it
    is not decoded (R from S or F, F from R), times 3^u."""
    digits = _state_digits(n_users)
    table = np.where(digits == _R, _F, _R) * 3 ** np.arange(n_users, dtype=np.int64)
    table.setflags(write=False)
    return table


def _successors(orders: np.ndarray) -> np.ndarray:
    """The (..., 3^N, N+1) successor table of _chain_table from the
    (..., 3^N, N) decoding orders: move w is the state in which the users
    decoded before stage w are in S and the others have fallen back."""
    m, n = orders.shape[-2:]
    fd = np.zeros(orders.shape[:-1] + (n + 1,), dtype=np.int64)
    fd[..., :n] = _fall_back(n)[np.arange(m)[:, None], orders]
    # the fallen-back digits summed from the last stage forward
    return np.cumsum(fd[..., ::-1], axis=-1)[..., ::-1]


def _move_probs(gammas: np.ndarray, code: CodeParams):
    """(prob, eps) of _chain_table from the (..., N) stage SINRs of any
    set of states: eps is each stage's failure probability and prob
    (..., N+1) the probability of each move."""
    n = gammas.shape[-1]
    eps, ok = per_cc_batch(gammas, code)
    # first failure at stage w: stages before w succeed, w fails; one
    # column at a time, 1.4-5x faster than cumprod and concatenate
    prob = np.empty(eps.shape[:-1] + (n + 1,))
    prob[..., 0] = eps[..., 0]
    q_succ = ok[..., 0]
    for w in range(1, n):
        prob[..., w] = eps[..., w] * q_succ
        q_succ = q_succ * ok[..., w]
    prob[..., n] = q_succ
    return prob, eps


def _regeneration_state(src, dst, prob, m: int) -> int:
    """A state the chain reaches from everywhere.  src -> dst with
    probability prob are the moves of the states present: those whose
    moves are given, among them every state that a move enters.  Returns
    state 0 when every present state moves to it, else the lowest state
    of the only closed class among the present states; a state absent
    from the moves is no class of its own.  Several closed classes raise
    ReducibleChainError.
    """
    live = prob > 0.0
    src, dst = src[live], dst[live]
    present = np.unique(src)
    if len(np.unique(src[dst == 0])) == len(present):
        return 0
    graph = csr_matrix((np.ones(len(src)), (src, dst)), shape=(m, m))
    _, labels = connected_components(graph, directed=True, connection="strong")
    leaving = labels[src] != labels[dst]
    closed = np.setdiff1d(labels[present], labels[src[leaving]])
    if len(closed) > 1:
        raise ReducibleChainError(
            f"the chain has {len(closed)} closed classes and no unique "
            "stationary vector"
        )
    return int(present[labels[present] == closed[0]][0])


def _chain_bounds(chain, n_chains: int) -> np.ndarray:
    """Where each chain's moves start in a move list sorted by chain."""
    return np.searchsorted(chain, np.arange(n_chains + 1))


def _stationary(chain, src, dst, prob, n_chains: int, m: int):
    """Stationary vectors of n_chains chains of m states, given as one
    flat list of moves sorted by chain: chain[i] moves src[i] -> dst[i]
    with probability prob[i] (repeated moves add up).  A chain's moves
    may leave out the states that no move enters; those read 0.

    Returns the (n_chains, m) vectors and a list of n_chains errors: None
    where the solve holds, else the ReducibleChainError or NumericalError
    that chain raises on its own.  Every chain is solved exactly as it
    would be alone.

    Two solves.  Every chain takes the regenerative LU, in one call for
    the whole stack: _regenerative_lu (dense) up to DENSE_SOLVE_STATES,
    _regenerative_splu (one block-diagonal SuperLU over the states that
    a state other than 0 enters) above.  Only its pivots involve a
    subtraction; above PIVOT_FLOOR its vector stayed within 1e-10
    relative of GTH's on random N = 2..4 chains down to -25 dB, but for
    the mass of a state 0 the chain rarely returns to (1e-13 absolute).
    A chain with a pivot below PIVOT_FLOOR (as were all the measured
    chains with a state that cannot move to state 0 in one slot), a
    SuperLU failure or a vector that is not finite (a divisor underflowed
    to 0) goes to GTH (_gth) on its own moves, over the states that they
    enter.  A NumericalError is a residual ||P^T p - p||_inf above
    STATIONARY_TOL (one bincount for the whole stack) or a negative mass;
    NaN fails every comparison, so an all-NaN vector is one too.  The
    numpy warnings of a solve that underflows are silenced: the residual
    test turns its vector into NumericalError.
    """
    errors = [None] * n_chains
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        solve = _regenerative_lu if m <= DENSE_SOLVE_STATES else _regenerative_splu
        p = solve(chain, src, dst, prob, n_chains, m)
        failed = np.flatnonzero(~np.isfinite(p).all(axis=1))
        bounds = _chain_bounds(chain, n_chains) if len(failed) else None
        for b in failed:
            own = np.s_[bounds[b]:bounds[b + 1]]
            try:
                p[b] = _gth(src[own], dst[own], prob[own], m)
            except ReducibleChainError as exc:
                p[b], errors[b] = 0.0, exc
        flow = np.bincount(chain * m + dst, weights=prob * p[chain, src],
                           minlength=n_chains * m).reshape(n_chains, m)
        residual = np.abs(flow - p).max(axis=1)
    # NaN fails every comparison, so the test is written to catch it
    bad = ~(residual <= STATIONARY_TOL) | (p.min(axis=1) < -STATIONARY_TOL)
    for b in np.flatnonzero(bad):
        if errors[b] is None:
            errors[b] = NumericalError(
                f"stationary solve residual {residual[b]:.3e}, most negative "
                f"mass {min(float(p[b].min()), 0.0):.3e}"
            )
    return np.maximum(p, 0.0), errors


def _regenerative_lu(chain, src, dst, prob, n_chains: int, m: int):
    """Stationary vectors of the chains of _stationary's flat moves by
    dense LAPACK, (n_chains, m): with Q the chain over the states other
    than 0, the expected visits x per excursion from state 0 solve
    (I - Q)^T x = P[0, 1:], and pi = [1, x] / (1 + sum x).  One bincount
    assembles every chain's matrix; each is factored on its own.  A
    state whose moves are left out and that no move enters has the unit
    row and column of I and reads 0, as it does with its moves in.  The
    diagonal of I - Q is exactly 1 (no state but 0 has a self-loop), so
    no near-1 entry enters as in a replaced-row solve.  Each column of the
    transpose sums to its state's probability of moving to state 0 in one
    slot, so the transpose is column diagonally dominant (strictly where
    that probability is positive) and the LU pivots stay on its diagonal.
    Each chain takes one dgesv call, which factors and solves at once; the
    pivots of the whole stack are kept and tested after the loop, and a
    chain with a pivot below PIVOT_FLOOR reads NaN.
    """
    at = (chain * m + src) * m + dst
    pm = np.bincount(at, weights=prob,
                     minlength=n_chains * m * m).reshape(n_chains, m, m)
    # (I - Q)^T of every chain, handed to LAPACK in Fortran order with no copy
    a = np.eye(m - 1) - pm[:, 1:, 1:]
    p = np.ones((n_chains, m))
    pivots = np.empty((n_chains, m - 1))
    for b in range(n_chains):
        lu, _, x, _ = dgesv(a[b].T, pm[b, 0, 1:], overwrite_a=True)
        pivots[b] = lu.diagonal()
        p[b, 1:] = x
    p[(np.abs(pivots) < PIVOT_FLOOR).any(axis=1)] = np.nan
    return p / p.sum(axis=1, keepdims=True)


def _regenerative_splu(chain, src, dst, prob, n_chains: int, m: int) -> np.ndarray:
    """The regenerative solve of _regenerative_lu by SuperLU, on the N+1
    entries per row, for the chains of _stationary's flat moves:
    (n_chains, m).

    Only the states that some present state other than 0 enters are
    unknowns.  A state t that only state 0 enters is visited P[0, t]
    times per excursion, exactly; its moves are carried into the
    right-hand side of the states it enters.  Its row of (I - Q)^T is its
    unit diagonal alone, so dropping it leaves the other pivots as they
    were.  One block-diagonal (I - Q)^T holds each chain's block of kept
    states, in the fixed order of _elimination_order; the blocks are as
    long as each chain's kept states.  One factorization, one read of U's
    diagonal and one solve replace n_chains of each.  A block's pivots
    stay in its own rows, so every row is bit-identical to its chain
    solved as a stack of one.  A row reads NaN when a pivot of its block
    falls below PIVOT_FLOOR.  A pivot that cancels to exactly 0 fails the
    whole factorization; each chain then retries as a stack of one, and
    the failing one reads NaN.
    """
    order = _elimination_order(round(math.log(m, 3)))
    # every (chain, state) pair numbered chain m + state
    at_src, at_dst = chain * m + src, chain * m + dst
    from_0 = src == 0
    entered = np.bincount(at_dst[~from_0 & (prob > 0.0)], minlength=n_chains * m) > 0
    # the kept states in elimination order, chain by chain, and their column
    base = np.arange(n_chains)[:, None] * m
    kept = (base + order)[entered.reshape(n_chains, m)[:, order]]
    size = len(kept)
    col = np.full(n_chains * m, -1)
    col[kept] = np.arange(size)
    is_kept = col >= 0
    # P[0, t], the visits of every skipped state, then the moves they carry
    x = np.bincount(at_dst[from_0], weights=prob[from_0], minlength=n_chains * m)
    carried = ~from_0 & ~is_kept[at_src]
    rhs = x + np.bincount(at_dst[carried], weights=x[at_src[carried]] * prob[carried],
                          minlength=n_chains * m)
    inner = is_kept[at_src] & is_kept[at_dst]
    # (I - Q)^T over the kept states: row = destination, column = source
    diag = np.arange(size)
    a = csc_matrix((np.concatenate([np.ones(size), -prob[inner]]),
                    (np.concatenate([diag, col[at_dst[inner]]]),
                     np.concatenate([diag, col[at_src[inner]]]))), shape=(size, size))
    try:
        # the rows and columns are already in elimination order; a
        # minimum-degree pass per chain (MMD on A^T + A) cuts the fill
        # but costs more than the factorization it saves
        lu = splu(a, permc_spec="NATURAL")
    except RuntimeError:  # a pivot cancelled to exactly 0
        if n_chains == 1:
            return np.full((1, m), np.nan)
        bounds = _chain_bounds(chain, n_chains)
        return np.concatenate([
            _regenerative_splu(chain[own] - b, src[own], dst[own], prob[own], 1, m)
            for b, own in enumerate(map(slice, bounds[:-1], bounds[1:]))])
    x[kept] = lu.solve(rhs[kept])
    bad = np.bincount(kept[np.abs(lu.U.diagonal()) < PIVOT_FLOOR] // m,
                      minlength=n_chains) > 0
    p = x.reshape(n_chains, m)
    p[:, 0] = 1.0
    p[bad] = np.nan
    return p / p.sum(axis=1, keepdims=True)


def _gth(src, dst, prob, m: int) -> np.ndarray:
    """Stationary vector of one chain by Grassmann-Taksar-Heyman
    elimination, rooted at _regeneration_state (moved to position 0;
    ReducibleChainError if the chain has several closed classes).  src ->
    dst with probability prob are the moves of the states present: every
    state, or those that some move enters (see _regeneration_state).

    The dense matrix holds only the states that some given move of
    positive probability enters, the root among them: no such move leaves
    them, so they form a closed sub-chain with the same stationary vector,
    and the others read 0.  At N = 8 (k = 50, n = 60, 0 dB) that is 948 of
    6561 states, 7 MiB instead of 328 MiB of doubles.

    States are censored out from the last position to position 1; each
    pivot is the sum of the eliminated state's remaining out-probabilities
    rather than 1 minus its return probability, so every step adds terms
    of one sign and every component keeps its relative precision however
    rarely the chain visits it.  Every state reaches the root, so no pivot
    is 0 unless it underflows, which leaves a vector that is not finite.
    """
    root = _regeneration_state(src, dst, prob, m)
    # the states some move enters: the root first, the others in their order
    entered = np.bincount(dst, weights=prob, minlength=m) > 0.0
    states = np.flatnonzero(entered)
    states = np.r_[root, states[states != root]]
    size = len(states)
    pos = np.zeros(m, dtype=np.int64)
    pos[states] = np.arange(size)
    inner = entered[src] & entered[dst]
    a = np.bincount(pos[src[inner]] * size + pos[dst[inner]], weights=prob[inner],
                    minlength=size * size).reshape(size, size)
    for n in range(size - 1, 0, -1):
        # the rows into state n: all of them on small chains, where
        # whole-row slices cost less than finding the nonzero ones
        into = np.s_[:n] if size <= DENSE_SOLVE_STATES else np.flatnonzero(a[:n, n])
        a[into, n] /= a[n, :n].sum()
        a[into, :n] += a[into, n, None] * a[n, :n]
    # x_j = sum_{i<j} x_i a_ij with x_0 = 1: a unit upper-triangular solve
    # whose terms are all of one sign
    np.negative(a, out=a)
    e0 = np.zeros(size)
    e0[0] = 1.0
    x = solve_triangular(a, e0, trans="T", unit_diagonal=True, check_finite=False)
    p = np.zeros(m)
    p[states] = x / x.sum()
    return p


def _move_sums(orders: np.ndarray, weights: np.ndarray, digits: np.ndarray):
    """Per-state, per-user sums of move weights behind e_i and p_s.

    orders (..., N) holds the decoding orders of any set of states and
    digits their phase digits (broadcast against orders: the (3^N, N)
    table for every state, or one row per state); weights (..., N+1)
    weighs each state's N+1 moves in the layout of _chain_table's succ.
    The analysis passes the probabilities of each chain's entered states,
    the simulator its slot counts on every state.  Returns (to_f, to_s),
    both shaped as orders, column u for user u.  to_f sums the moves that
    lose u's packet: every move from F, and from R those whose first
    failure is at or before u's stage.  to_s sums the moves that deliver
    a fresh packet of u at the first try: from S or F, those whose first
    failure comes after u's stage.  Both are sums of nonnegative terms
    (never 1 - q), so tiny error rates keep their relative precision.
    """
    n = orders.shape[-1]
    # column ell of lost: moves whose first failure is at or before stage
    # ell; of fresh: moves whose first failure is at stage ell or after
    lost, fresh = weights.copy(), weights.copy()
    for w in range(1, n + 1):
        lost[..., w] += lost[..., w - 1]
        fresh[..., n - w] += fresh[..., n - w + 1]
    # stage column ell moved to the column of the user decoded there
    at = (np.arange(orders.size // n)[:, None] * n + orders.reshape(-1, n)).ravel()
    to_f = np.empty(orders.size, dtype=weights.dtype)
    to_f[at] = lost[..., :n].ravel()
    to_s = np.empty(orders.size, dtype=weights.dtype)
    to_s[at] = fresh[..., 1:].ravel()
    is_r = digits == _R
    to_f = np.where(is_r, to_f.reshape(orders.shape), (digits == _F) * lost[..., n:])
    return to_f, np.where(is_r, 0, to_s.reshape(orders.shape))


def _table_analysis(powers: np.ndarray, code: CodeParams):
    """(PER, p_s) arrays, both (B, N), of the chains of a (B, N) stack of
    received powers, and the B errors of their stationary solves (see
    _stationary); a chain whose solve failed has meaningless metrics.  The
    stack is solved in chunks of at most STACK_STATES chain states (at
    least one chain), each row exactly as it would be alone."""
    size = max(1, STACK_STATES // 3 ** powers.shape[1])
    pers, succ_prob, errors = np.empty(powers.shape), np.empty(powers.shape), []
    for start in range(0, len(powers), size):
        chunk = np.s_[start:start + size]
        pers[chunk], succ_prob[chunk], chunk_errors = _chunk_analysis(powers[chunk], code)
        errors += chunk_errors
    return pers, succ_prob, errors


def _chunk_analysis(powers: np.ndarray, code: CodeParams):
    """_table_analysis of one chunk, on each chain's entered states.

    The stage tables and successors of every state decide which states
    some move of a chain enters; only those (chain, state) rows, in one
    flat list, get error rates, move probabilities, a place in the solve
    and move sums.  A state that no move enters has no stationary mass,
    so no other row is added.  Each (chain, user) PER and p_s is one
    bincount over the flat rows, which adds the chain's rows one at a time
    in state order.  The rows are each chain's own, so a row's result does
    not depend on the stack.  A user that no move delivers (a silenced
    one) has a PER of exactly 1."""
    n_chains, n = powers.shape
    _check_user_count(n)
    digits = _state_digits(n)
    m = len(digits)
    orders, gammas = _stage_tables(digits, powers)
    succ = _successors(orders)
    at = (np.arange(n_chains)[:, None, None] * m + succ).reshape(-1, n + 1)
    entered = np.zeros(n_chains * m, dtype=bool)
    entered[at] = True
    rows = np.flatnonzero(entered)
    chain, state = np.divmod(rows, m)
    orders = np.take(orders.reshape(-1, n), rows, axis=0)
    succ = np.take(at, rows, axis=0) - m * chain[:, None]
    prob = _move_probs(np.take(gammas.reshape(-1, n), rows, axis=0), code)[0]
    p, errors = _stationary(np.repeat(chain, n + 1), np.repeat(state, n + 1),
                            succ.ravel(), prob.ravel(), n_chains, m)
    to_f, to_s = _move_sums(orders, prob, np.take(digits, state, axis=0))
    # bincount adds each (chain, user) sum's terms one by one, in state order
    key = (chain[:, None] * n + np.arange(n)).ravel()
    mass = p[chain, state][:, None]
    pers, succ_prob = (np.bincount(key, weights=(mass * t).ravel(), minlength=n_chains * n)
                       .reshape(n_chains, n) for t in (to_f, to_s))
    # a PER of 1 can round one ulp above it
    pers = np.minimum(pers, 1.0)
    # a user that no move delivers loses every packet, though its R and F
    # mass can sum to one ulp below 1.  Its p_s is exactly 0, so only
    # stacks with such a user are checked: a state's moves deliver the
    # users decoded before its deepest first failure of positive probability
    if (succ_prob == 0.0).any():
        deepest = (np.arange(n + 1) * (prob > 0.0)).max(axis=-1, keepdims=True)
        reach = np.arange(n) < deepest
        delivered = np.zeros(pers.shape, dtype=bool)
        delivered[chain[np.nonzero(reach)[0]], orders[reach]] = True
        pers[~delivered] = 1.0
    return pers, np.minimum(succ_prob, 1.0), errors


def _check_user_count(n_users: int) -> None:
    if n_users > MAX_USERS:
        raise ValueError(f"{n_users} users exceeds the {MAX_USERS}-user cap")


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def build_transition_matrix(cfg: SystemConfig) -> TransitionMatrix:
    """Dense 3^N x 3^N transition matrix for the configured cluster: the
    move table scattered into rows, each of which sums to 1 within a few
    ulps (see _chain_table)."""
    _, succ, prob = _chain_table(cfg.powers, cfg.code)[:3]
    m = len(succ)
    pi = np.zeros((m, m))
    pi[np.arange(m)[:, None], succ] = prob
    return TransitionMatrix(matrix=pi, n_users=cfg.n_users)


def stationary_distribution(tm: TransitionMatrix) -> StationaryDistribution:
    """Stationary vector of the chain (unit-eigenvalue left eigenvector),
    by the same solve over the matrix's nonzero entries."""
    # a boolean mask scans a dense float matrix ~7x faster than np.nonzero
    idx = np.flatnonzero(tm.matrix != 0.0)
    src, dst = np.divmod(idx, tm.dim)
    (p,), (error,) = _stationary(np.zeros_like(src), src, dst, tm.matrix.ravel()[idx], 1,
                                 tm.dim)
    if error is not None:
        raise error
    return StationaryDistribution(probs=p)


def delay_pmf(p_s: float, n_packets: int) -> np.ndarray:
    """Pmf of the slots needed to deliver n_packets information packets.

    Entry d is Prob{D = n_packets + d} for d = 0..n_packets: each packet
    costs one slot with probability p_s and two otherwise, so the excess
    is binomial.  Computed in log space so large packet counts stay exact.
    """
    if not 0.0 <= p_s <= 1.0:
        raise ValueError(f"p_s must be a probability, got {p_s!r}")
    if not (isinstance(n_packets, (int, np.integer)) and n_packets >= 1):
        raise ValueError(f"n_packets must be a positive integer, got {n_packets!r}")
    extra = np.arange(n_packets + 1)  # number of packets that needed 2 slots
    ones = n_packets - extra
    # the binomial log-pmf as scipy.stats.binom.logpmf evaluates it
    logp = (gammaln(n_packets + 1) - (gammaln(ones + 1) + gammaln(extra + 1))
            + xlogy(ones, p_s) + xlog1py(extra, -p_s))
    return np.exp(logp)


def throughput(per: float, success_prob: float, code: CodeParams) -> float:
    """Throughput in information bits per channel use:
    R * (1 - e) / (p_s + 2*(1 - p_s))."""
    if not 0.0 <= per <= 1.0 or not 0.0 <= success_prob <= 1.0:
        raise ValueError("per and success_prob must be probabilities")
    return code.rate * (1.0 - per) / (success_prob + 2.0 * (1.0 - success_prob))


def analyze(cfg: Union[SystemConfig, Sequence[SystemConfig]]
            ) -> Union[List[UserMetrics], List[List[UserMetrics]]]:
    """Full analysis pipeline: move table, stationary vector, per-user
    metrics.

    cfg is one SystemConfig, whose per-user metrics are returned, or a
    sequence of configs that share user count and code, which returns one
    list of metrics per config.  A sequence runs the stacked engine once
    (see _table_analysis; one config is a stack of one), and each of its
    lists equals that config analysed alone.  The first config in the
    sequence whose stationary solve fails raises its error.
    """
    single = isinstance(cfg, SystemConfig)
    configs = [cfg] if single else list(cfg)
    if not configs:
        return []
    code, n_users = configs[0].code, configs[0].n_users
    if any(c.code != code or c.n_users != n_users for c in configs):
        raise ValueError("a stack of configurations must share user count and code")
    pers, succ, errors = _table_analysis(np.array([c.powers for c in configs]), code)
    for error in errors:
        if error is not None:
            raise error
    metrics = [
        [
            UserMetrics(
                user=i,
                per=float(per[i]),
                success_prob=float(p_s[i]),
                throughput=throughput(float(per[i]), float(p_s[i]), code),
            )
            for i in range(n_users)
        ]
        for per, p_s in zip(pers, succ)
    ]
    return metrics[0] if single else metrics


def max_user_per(alphas, p0: float, code: CodeParams):
    """Worst per-user packet error rate; the power optimization objective.
    Skips the dataclass layers for speed.

    alphas is a (B, N) stack of ratio vectors, one chain per row, and the
    result the B worst PERs; the rows are solved in chunks of at most
    STACK_STATES chain states (_table_analysis), each exactly as it would
    be alone.  A single (N,) vector returns a float.

    Ratio vectors that silence users (stage failure probability exactly 1)
    can leave the chain with several closed classes: the dead users cycle
    R->F deterministically and their relative parity is conserved, so no
    stationary vector is unique.  Every closed class pins a dead user's
    PER at 1, so the row's value is 1 regardless.

    A row whose stationary solve fails (NumericalError: a residual above
    STATIONARY_TOL, or a NaN vector when every solve underflows at low
    SNR) reads NaN, which the GA ranks worst.  A call with NaN rows or
    rows of several closed classes logs both counts as one INFO record.
    A p0 or a ratio that is NaN or infinite raises ValueError.
    """
    alphas = np.asarray(alphas, dtype=float)
    if not (math.isfinite(p0) and np.isfinite(alphas).all()):
        raise ValueError(f"p0 and the ratios must be finite, got p0 = {p0!r}")
    pers, _, errors = _table_analysis(np.atleast_2d(alphas) * p0, code)
    worst = pers.max(axis=1)
    failed = reducible = 0
    for b, error in enumerate(errors):
        if isinstance(error, ReducibleChainError):
            worst[b] = 1.0
            reducible += 1
        elif error is not None:
            worst[b] = np.nan
            failed += 1
    if failed or reducible:
        _log.info("max_user_per: %d of %d stationary solves failed and read NaN, "
                  "and %d of %d chains have several closed classes and read 1.0",
                  failed, len(worst), reducible, len(worst))
    return float(worst[0]) if alphas.ndim == 1 else worst


def _single_user(powers, code: CodeParams):
    """(PER, p_s) of one user alone at each of an array of received powers:
    the one-user chain in closed form.

    Fresh packets fail with eps1, the error rate at SINR P, and
    Chase-combined retransmissions with eps2, the rate at 2P.  Fresh
    transmissions take 1/(1 + eps1) of the slots, so

        e = 2 eps1 eps2 / (1 + eps1),    p_s = (1 - eps1) / (1 + eps1),

    with 1 - eps1 read as the success probability per_cc_batch returns,
    never formed by subtraction.  The tests pin this to analyze on a
    one-user cluster.
    """
    powers = np.asarray(powers, dtype=float)
    (eps1, eps2), (ok1, _) = per_cc_batch(np.stack([powers, 2.0 * powers]), code)
    return 2.0 * eps1 * eps2 / (1.0 + eps1), ok1 / (1.0 + eps1)


def oma_received_power(cfg: SystemConfig,
                       metrics: Optional[List[UserMetrics]] = None) -> float:
    """Per-slot received power of the orthogonal baseline.

    Matched so the average total received power per information packet
    equals the NOMA cluster's: P_oma = P0 * t_noma / t_oma, where t_x is
    the scheme's average number of transmissions per information packet,
    p_s + 2*(1 - p_s).  t_oma depends on P_oma; the fixed point is found
    by at most OMA_ITERATIONS steps upward from P0, which selects the
    branch that coincides with the NOMA chain when there is a single user.
    The steps climb to the smallest fixed point above P0, slowly where the
    step map's slope nears 1 (0.76 at -9 dB, N = 2, k = 25, n = 100); when
    they have not settled, bisection finishes on the first sign change of
    p - step(p) above the last iterate.  metrics, when given, is
    analyze(cfg), which is otherwise computed here.
    """
    if metrics is None:
        metrics = analyze(cfg)
    t_noma = float(np.mean([2.0 - m.success_prob for m in metrics]))

    def step_from(q):
        _, p_s = _single_user(q, cfg.code)
        return cfg.p0 * t_noma / (2.0 - float(p_s))

    p = cfg.p0
    for _ in range(OMA_ITERATIONS):
        p_new = step_from(p)
        step, prev = abs(p_new - p), p
        p = p_new
        if step <= 1e-12 * prev:
            return p
    # bracket upward from the last iterate with doubling widths; p_s <= 1
    # caps every step at P0 t_noma, where p - step(p) >= 0
    cap = cfg.p0 * t_noma
    lo, hi, width = p, min(p + step, cap), step
    while hi < cap and hi < step_from(hi):
        lo, width = hi, 2.0 * width
        hi = min(lo + width, cap)
    # lo < step(lo) and hi >= step(hi) hold while the bracket shrinks
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if mid < step_from(mid):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    residual = abs(hi - step_from(hi)) / hi
    if not residual <= 1e-12:
        _log.warning("oma_received_power: no fixed point after %d iterations and "
                     "bisection, residual %.3e relative", OMA_ITERATIONS, residual)
    return hi


def oma_metrics(cfg: SystemConfig,
                metrics: Optional[List[UserMetrics]] = None) -> List[UserMetrics]:
    """Analytic orthogonal-access baseline at matched average power.

    Each user runs the single-user chain alone at the matched power; the
    throughput divides by the full schedule length since every user waits
    for the others' slots, retransmissions included.  metrics, when
    given, is analyze(cfg), which is otherwise computed here.
    """
    p_oma = oma_received_power(cfg, metrics=metrics)
    per, p_s = map(float, _single_user(p_oma, cfg.code))
    schedule = cfg.n_users * (2.0 - p_s)
    eta = cfg.code.rate * (1.0 - per) / schedule
    return [
        UserMetrics(user=i, per=per, success_prob=p_s, throughput=eta)
        for i in range(cfg.n_users)
    ]
