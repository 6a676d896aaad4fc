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
column N for all-success) feeds the solve, the metrics, the dense
matrix and the simulator.  Every chain first takes the regenerative
solve: the expected visits x per excursion from state 0 (the only state
with a self-loop) solve (I - Q)^T x = P[0, 1:] over the other states and
pi = [1, x] / (1 + sum x).  Systems up to 81 states (N <= 4) are
factored dense with LAPACK, larger ones with SuperLU on the N+1 entries
per row, with no 3^N x 3^N array.  A slot's successor has a prefix of
the SIC order as its S users, so most states are entered from state 0
alone or from no state at all; their x is P[0, t] exactly, and SuperLU
factors only the states that a state other than 0 enters.  On the
benchmark's sweeps that is 90-110 of 242 unknowns at N = 5, 216-252 of
728 at N = 6, 530-568 of 2186 at N = 7 and about 1260 of 6560 at N = 8.
SuperLU eliminates them in one fixed order per user count
(_elimination_order: more F digits first, then fewer S digits), not a
minimum-degree order computed per chain: on the benchmark's N = 8 chain
at 14 dB the factorization holds 53k nonzeros against 21k but takes
3.6 ms against 5.0 ms, and analyze 18 ms against 19 ms.  The LU pivots
are the only place a subtraction enters.  A chain whose LU has a pivot
below PIVOT_FLOOR (most chains that rarely return to state 0: short
blocks, low SNR, a nearly silenced user), a SuperLU failure or a vector
that is not finite goes to subtraction-free Grassmann-Taksar-Heyman
elimination over the states that some move enters.  The floor also
routes the chains in which some state cannot move to state 0 in one
slot (a silenced user): among 100000 random chains at N = 2..5 and
-25..+20 dB it rejected all 28658 of those.  GTH holds a dense matrix
of the entered states: at N = 8 (k = 50, n = 60, 0 dB) 948 of 6561
states; analyze takes 0.04 s, and its traced peak is 9.5 MiB.  Per-user
metrics are closed-form sums over the table (_move_sums, which also
turns the simulator's slot counts into its tallies): P(next F | R) is a
forward cumulative sum of first-failure probabilities and P(next S | S
or F) a reverse one, never 1 - q.

Stacks.  The engine has a leading batch axis: the tables, the stationary
solve and the metrics take a (B, N) stack of received-power vectors, in
chunks of at most STACK_STATES chain states (_table_analysis), so
max_user_per evaluates a whole GA generation in one call and analyze a
whole SNR grid (a sequence of configs that share user count and code;
one config is a stack of one).
The SIC stage tables are built stage-major, one row of B 3^N entries
per user, so each stage's sums and argmax run along the long axis; the
sums over users add them one by one in index order at every N.  The
chains up to 81 states are assembled by one bincount and factored and
solved one by one, in one LAPACK dgesv call each.  Larger ones are
factored together: one SuperLU of the block-diagonal matrix of the
whole stack, whose pivots stay in their own blocks.  A GA generation of 30 chains at N = 5 (0 dB, k = 50, n = 228)
solves in 4.6 ms as two such stacks against 8.9 ms one by one.  Every
chain that goes to GTH is solved one by one.  Every floating-point
operation is the one a chain sees alone, so a row's result does not
depend on the stack around it.

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

    The work is stage-major: one (N, B 3^N) row per user, so every sum,
    argmax and mask acts along the long axis, not along rows N long.  The
    sums over users add them one by one in index order, and argmax keeps
    ties on the lowest user, so the tables match a row-wise form that
    sums the same way bit for bit.
    """
    m, n = digits.shape
    powers = np.asarray(powers, dtype=float)
    lead = powers.shape[:-1]
    # one column per (configuration, state) pair
    powers = np.repeat(powers.reshape(-1, n).T, m, axis=1)
    is_r = np.tile((digits == _R).T, powers.shape[1] // m)
    is_f = np.tile((digits == _F).T, powers.shape[1] // m)
    undecoded = np.ones(powers.shape, dtype=bool)
    orders = np.empty(powers.shape[::-1], dtype=np.int64)
    gammas = np.empty(powers.shape[::-1], dtype=np.float64)
    cols = np.arange(powers.shape[1])
    for stage in range(n):
        undec_p = undecoded * powers
        denom_new = undec_p.sum(axis=0) - undec_p + 1.0
        g = powers / denom_new
        # stored first copy of an R user: F users and undecoded R users interfere
        stored = is_f | (is_r & undecoded)
        stored_p = stored * powers
        denom_orig = stored_p.sum(axis=0) - stored_p + 1.0
        g = g + np.where(is_r, powers / denom_orig, 0.0)
        g = np.where(undecoded, g, -np.inf)
        pick = g.argmax(axis=0)  # ties resolve to the lowest user index
        orders[:, stage] = pick
        gammas[:, stage] = g[pick, cols]
        undecoded[pick, cols] = False
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
    digits = _state_digits(n)
    orders, gammas = _stage_tables(digits, powers)
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
    # the digit every user from the failing stage on falls back to, summed
    # from the last stage forward
    pow3 = 3 ** np.arange(n, dtype=np.int64)
    fail_digit = np.where(digits == _R, _F, _R).astype(np.int64)
    fd = np.zeros(orders.shape[:-1] + (n + 1,), dtype=np.int64)
    fd[..., :n] = fail_digit[np.arange(len(digits))[:, None], orders] * pow3[orders]
    succ = np.cumsum(fd[..., ::-1], axis=-1)[..., ::-1]
    return orders, succ, prob, eps


def _regeneration_state(src, dst, prob, m: int) -> int:
    """A state the chain reaches from everywhere: state 0 when every state
    moves to it, else the lowest state of the only closed class.  Several
    closed classes raise ReducibleChainError.
    """
    live = prob > 0.0
    src, dst = src[live], dst[live]
    if len(np.unique(src[dst == 0])) == m:
        return 0
    graph = csr_matrix((np.ones(len(src)), (src, dst)), shape=(m, m))
    _, labels = connected_components(graph, directed=True, connection="strong")
    leaving = labels[src] != labels[dst]
    closed = np.setdiff1d(labels, labels[src[leaving]])
    if len(closed) > 1:
        raise ReducibleChainError(
            f"the chain has {len(closed)} closed classes and no unique "
            "stationary vector"
        )
    return int(np.flatnonzero(labels == closed[0])[0])


def _stationary(src, dst, prob, m: int):
    """Stationary vectors of a stack of B chains: chain b moves src ->
    dst[b] with probability prob[b] (repeated pairs add up).  src (M,) is
    shared by every chain; dst and prob are (B, M).

    Returns the (B, m) vectors and a list of B errors: None where the
    solve holds, else the ReducibleChainError or NumericalError that chain
    raises on its own.  Every chain is solved exactly as it would be alone.

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
    to 0) goes to GTH (_gth) over the states that some move enters, one
    chain at a time.  A NumericalError is a residual ||P^T p - p||_inf
    above STATIONARY_TOL (one bincount for the whole stack) or a negative
    mass; NaN fails every comparison, so an all-NaN vector is one too.
    The numpy warnings of a solve that underflows are silenced: the
    residual test turns its vector into NumericalError.
    """
    n_chains = len(prob)
    errors = [None] * n_chains
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        solve = _regenerative_lu if m <= DENSE_SOLVE_STATES else _regenerative_splu
        p = solve(src, dst, prob, m)
        for b in np.flatnonzero(~np.isfinite(p).all(axis=1)):
            try:
                p[b] = _gth(src, dst[b], prob[b], m)
            except ReducibleChainError as exc:
                p[b], errors[b] = 0.0, exc
        flow = np.bincount((np.arange(n_chains)[:, None] * m + dst).ravel(),
                           weights=(prob * p[:, src]).ravel(),
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


def _regenerative_lu(src, dst, prob, m: int):
    """Stationary vectors of a stack of chains by dense LAPACK: with Q the
    chain over the states other than 0, the expected visits x per
    excursion from state 0 solve (I - Q)^T x = P[0, 1:], and
    pi = [1, x] / (1 + sum x).  One bincount assembles every chain's
    matrix; each is factored on its own.  The diagonal of I - Q is exactly
    1 (no state but 0 has a self-loop), so no near-1 entry enters as in a
    replaced-row solve.  Each column of the transpose sums to its state's
    probability of moving to state 0 in one slot, so the transpose is
    column diagonally dominant (strictly where that probability is
    positive) and the LU pivots stay on its diagonal.  Each chain takes
    one dgesv call, which factors and solves at once; the pivots of the
    whole stack are kept and tested after the loop, and a chain with a
    pivot below PIVOT_FLOOR reads NaN.
    """
    n_chains = len(prob)
    at = (np.arange(n_chains)[:, None] * m + src) * m + dst
    pm = np.bincount(at.ravel(), weights=prob.ravel(),
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


def _regenerative_splu(src, dst, prob, m: int) -> np.ndarray:
    """The regenerative solve of _regenerative_lu for a stack of chains by
    SuperLU, on the N+1 entries per row: dst and prob are (B, M), or (M,)
    for one chain, and the result (B, m).

    Only the states that some state other than 0 enters are unknowns.  A
    state t that only state 0 enters is visited P[0, t] times per
    excursion, exactly; its moves are carried into the right-hand side of
    the states it enters.  Its row of (I - Q)^T is its unit diagonal
    alone, so dropping it leaves the other pivots as they were.  One
    block-diagonal (I - Q)^T holds each chain's block of kept states, in
    the fixed order of _elimination_order; the blocks are as long as each
    chain's kept states.  One factorization, one read of U's diagonal and
    one solve replace B of each.  A block's pivots stay in its own rows,
    so every row is bit-identical to its chain solved as a stack of one.
    A row reads NaN when a pivot of its block falls below PIVOT_FLOOR.  A
    pivot that cancels to exactly 0 fails the whole factorization; each
    chain then retries as a stack of one, and the failing one reads NaN.
    """
    dst, prob = np.atleast_2d(dst, prob)
    n_chains = len(prob)
    order = _elimination_order(round(math.log(m, 3)))
    # every (chain, state) pair numbered b m + state, chain by chain
    base = np.arange(n_chains)[:, None] * m
    at_src, at_dst = base + src, base + dst
    from_0 = src == 0
    entered = np.bincount(at_dst[~from_0 & (prob > 0.0)], minlength=n_chains * m) > 0
    # the kept states in elimination order, chain by chain, and their column
    kept = (base + order)[entered.reshape(n_chains, m)[:, order]]
    size = len(kept)
    col = np.full(n_chains * m, -1)
    col[kept] = np.arange(size)
    is_kept = col >= 0
    # P[0, t], the visits of every skipped state, then the moves they carry
    x = np.bincount(at_dst[:, from_0].ravel(), weights=prob[:, from_0].ravel(),
                    minlength=n_chains * m)
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
        return np.concatenate([_regenerative_splu(src, dst[b:b + 1], prob[b:b + 1], m)
                               for b in range(n_chains)])
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
    ReducibleChainError if the chain has several closed classes).

    The dense matrix holds only the states that some move of positive
    probability enters, the root among them: no such move leaves them, so
    they form a closed sub-chain with the same stationary vector, and the
    others read 0.  At N = 8 (k = 50, n = 60, 0 dB) that is 948 of 6561
    states, 7 MiB instead of 328 MiB of doubles.

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


def _move_sums(orders: np.ndarray, weights: np.ndarray):
    """Per-state, per-user sums of move weights behind e_i and p_s.

    weights (B, 3^N, N+1) weighs every state's N+1 moves in the layout of
    _chain_table's succ: the analysis passes their probabilities, the
    simulator its slot counts.  Returns (to_f, to_s), both (B, 3^N, N),
    column u for user u.  to_f sums the moves that lose u's packet: every
    move from F, and from R those whose first failure is at or before u's
    stage.  to_s sums the moves that deliver a fresh packet of u at the
    first try: from S or F, those whose first failure comes after u's
    stage.  Both are sums of nonnegative terms (never 1 - q), so tiny
    error rates keep their relative precision.
    """
    n_chains, m, n = orders.shape
    digits = _state_digits(n)
    # column ell of lost: moves whose first failure is at or before stage
    # ell; of fresh: moves whose first failure is at stage ell or after
    lost, fresh = weights.copy(), weights.copy()
    for w in range(1, n + 1):
        lost[..., w] += lost[..., w - 1]
        fresh[..., n - w] += fresh[..., n - w + 1]
    # stage column ell moved to the column of the user decoded there
    at = (np.arange(n_chains * m)[:, None] * n + orders.reshape(-1, n)).ravel()
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
    """_table_analysis of one chunk.  A user that no move delivers (a
    silenced one) has a PER of exactly 1."""
    orders, succ, prob = _chain_table(powers, code)[:3]
    n_chains, m, moves = succ.shape
    p, errors = _stationary(np.repeat(np.arange(m), moves), succ.reshape(n_chains, -1),
                            prob.reshape(n_chains, -1), m)
    to_f, to_s = _move_sums(orders, prob)
    p = p[:, None]
    pers, succ_prob = (p @ to_f)[:, 0], (p @ to_s)[:, 0]
    # a PER of 1 can round one ulp above it
    pers = np.minimum(pers, 1.0)
    # a user that no move delivers loses every packet, though its R and F
    # mass can sum to one ulp below 1.  Its p_s is exactly 0, so only
    # stacks with such a user are checked: a state's moves deliver the
    # users decoded before its deepest first failure of positive probability
    if (succ_prob == 0.0).any():
        deepest = (np.arange(moves) * (prob > 0.0)).max(axis=-1, keepdims=True)
        reach = np.arange(moves - 1) < deepest
        delivered = np.zeros(pers.shape, dtype=bool)
        delivered[np.nonzero(reach)[0], orders[reach]] = True
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
    (p,), (error,) = _stationary(src, dst[None], tm.matrix.ravel()[idx][None], tm.dim)
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
    """
    alphas = np.asarray(alphas, dtype=float)
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
