"""Slot-level stochastic simulator for the NOMA-HARQ dynamics.

Serves two purposes: an independent check of the Markov analysis
(coordinated mode reproduces the chain's stationary statistics), and the
engine for uncoordinated experiments where users pick power ratios from
their cell segment, including mismatched load estimates.

Decode outcomes are independent Bernoulli draws at the analytically
computed stage SINRs: exactly the abstraction the chain assumes, so the
comparison is sharp.  Fading never touches reliability (users power
control their received level); it enters only the transmit-power
accounting, with channel inversion capped at POWER_CAP_FACTOR times the
mean.  Both power fields are expectations over h ~ Exp(1) given the
placed users, in closed form, not sample means: the mean capped
inversion E[min(1/h, C)] = E1(1/C) + C (1 - e^(-1/C)) and the capped
fraction P(h < 1/C) = 1 - e^(-1/C) (Abramowitz & Stegun 5.1.1), so no
fading is drawn.  Transmit power scales with distance to the power
PATH_LOSS_EXP; users are placed uniformly over a cell of radius
cellplan.CELL_RADIUS.

One episode engine serves both scenarios.  An episode places the users,
reads their (rotations x users) ratio matrix, builds the decode tables
of every rotation in one call, runs the chain and weighs each user's
ratios by the slots of each rotation for the power ledger; a run sums
its episodes into one SimResult.  The coordinated run is one episode
with one rotation, the matrix [alphas]; uncoordinated runs sum many
episodes whose rotations follow the cell plan: one locate_segment call
maps the placed users to their segments, and the stacked assignment
grids of the n_hat rotations give the whole matrix in one array lookup.
Both the placed users and the n_hat planned ratios are capped at
markov.MAX_USERS.

Decode tables are the analysis's move table (markov._chain_table), all
3^N states at once, as numpy arrays: markov alone maps SINRs to error
rates, for the chain and for the orthogonal baseline's draws alike, and
the scalar sic path is a test oracle only.  The chain tallies slots by
rotation, state and first-failure stage, in the layout of the move
table.  markov._move_sums turns those counts into the e_i and p_s
tallies, the same sums the analysis takes over the move probabilities,
and the state visits follow from the counts, so memory is
O(n_hat * 3^N * N) with no 3^N x 3^N array.

The chain steps in numpy wherever it can.  A slot whose uniforms clear
every stage's largest failure probability decodes every stage from any
state, so the chain is in state 0 after it; the stretches between such
slots step in lockstep, and the few long ones left are walked one slot
at a time in Python.  Each slot makes the move a slot-by-slot walk of
the same uniforms makes, so every result is bit-identical to that walk
(kept as run_chain in tests/oracle.py).  A chunk keeps its uniforms as
drawn, (slots, N), and each slot's move, but no per-slot array of
rotations, first rows or reset bounds.  A test across a slot's N stages
reads the uniforms one stage at a time, through the column views
u[:, w], against the error rates as stage columns, (N, R * 3^N), and
their bounds per rotation, (N, R).  It is then N one-dimensional numpy
operations, an &= or a masked store per stage; the same test as a
reduction along the short stage axis runs numpy's inner loop once per
slot.  On a 32767-slot chunk at N = 2..5 the reset test took 56-171 us
by column views against 820-1100 us as all(axis=1), and a lockstep step
over 4000 segments 29-76 us by columns against 210-250 us as
argmax(axis=1).

The walk compares integers, not floats.  A stage's error rates, over
every row of every rotation, and a slot's uniform are both replaced by
their ranks in that stage's sorted distinct rates, which keep the order
of u < eps exactly, ties included.  Each row's N ranks pack into one
integer with a guard bit per stage (Lamport, CACM 1975), and so do each
walked slot's, so a slot's first failing stage is one subtraction, one
mask and one bit_length.  The N = 5 episodes of the uncoordinated
benchmark, 2200 slots on five rotations, are walked whole: on 2 x86-64
cores with numpy 2.4 the walk took 0.71-0.76 ms an episode against
1.29-1.41 ms for the loop over float lists it replaced, which also read
each slot's uniforms as a nested list.  Its table costs more to build,
0.39-0.41 ms an episode against 0.27-0.30 ms for the float lists.

Seeding: each episode splits its np.random.SeedSequence with spawn(2)
into independent child streams (dynamics, placement), so every run is
reproducible bit for bit and the streams never alias.  The coordinated
episode's sequence is SeedSequence(seed); uncoordinated episode i takes
SeedSequence(seed, spawn_key=(i,)), the i-th child of
SeedSequence(seed).spawn(episodes), built one episode at a time.  The
orthogonal baseline draws from the two children of SeedSequence(seed).
"""

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import exp1

from .cellplan import CELL_RADIUS, build_plan, locate_segment
from .fbl import CodeParams
from .markov import _chain_table, _check_user_count, _move_sums, oma_received_power, throughput
from .sic import SystemConfig

# decimation stride for the goodness-of-fit visit counts; the chain
# decorrelates within a few slots, so stride-10 samples are near-iid
THIN_STRIDE = 10
# path-loss exponent of the transmit-power ledger
PATH_LOSS_EXP = 3.5
# channel inversion is capped at this multiple of the mean fading gain
POWER_CAP_FACTOR = 1e3
# E[min(1/h, C)] and P(h < 1/C) for h ~ Exp(1) and C = POWER_CAP_FACTOR
_MEAN_INVERSION = (exp1(1.0 / POWER_CAP_FACTOR)
                   - POWER_CAP_FACTOR * np.expm1(-1.0 / POWER_CAP_FACTOR))
_CAP_PROB = -np.expm1(-1.0 / POWER_CAP_FACTOR)

# slots per chunk of the chain: the longest whose segment lengths still
# sort as int16.  A longer chunk holds more segments per lockstep step and
# sends fewer slots to _walk.  Most of what grows with it is the chunk's
# uniforms and moves, 8N + 8 bytes a slot: the benchmark's N = 4 run of
# 200k slots peaks at 2.6 MiB under tracemalloc
_CHAIN_CHUNK = (1 << 15) - 1
# fewer unfinished segments than this step one slot at a time in Python,
# where a numpy step per slot position would cost more.  With the walk on
# packed ranks, 64 and 128 walked 2x and 4x the slots of a 200k-slot
# coordinated call and ran no faster than 32
_LOCKSTEP_MIN = 32


@dataclass(frozen=True)
class SimConfig:
    """Simulation setup around a SystemConfig.

    slots is the total budget; uncoordinated runs split it evenly over
    episodes (fresh random user placement each episode) and discard
    warmup slots per episode before collecting statistics.  For the
    uncoordinated scenario system.alphas are the n_hat planned ratios
    while n_actual users are actually placed.  n_hat defaults to, and
    must equal, the ratio count in either scenario.
    """

    system: SystemConfig
    slots: int = 1_000_000
    seed: int = 1
    scenario: str = "coordinated"
    n_actual: Optional[int] = None
    n_hat: Optional[int] = None
    warmup: int = 1000
    episodes: int = 1

    def __post_init__(self):
        if self.scenario not in ("coordinated", "uncoordinated"):
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.n_actual is None:
            object.__setattr__(self, "n_actual", self.system.n_users)
        if self.n_hat is None:
            object.__setattr__(self, "n_hat", self.system.n_users)
        if self.n_actual < 1 or self.n_hat < 1:
            raise ValueError(f"n_actual and n_hat must be at least 1, got "
                             f"{self.n_actual} and {self.n_hat}")
        if self.episodes < 1 or self.slots < 1 or self.warmup < 0 or self.seed < 0:
            raise ValueError("slots and episodes must be positive, warmup and seed >= 0")
        if self.slots // self.episodes <= self.warmup:
            raise ValueError("each episode needs more slots than the warmup")
        if self.n_hat != self.system.n_users:
            raise ValueError(f"n_hat must be the count of system.alphas, "
                             f"{self.system.n_users}, got {self.n_hat}")
        if self.scenario == "coordinated":
            if self.n_actual != self.system.n_users:
                raise ValueError("coordinated runs use exactly the configured users")
            if self.episodes != 1:
                raise ValueError("coordinated runs are a single episode")


@dataclass(frozen=True)
class SimResult:
    """Empirical per-user statistics with binomial standard errors,
    sqrt(x (1 - x) / T) over T counted slots.  They understate the
    spread: a lost packet counts in its F slot and in the R slot failing
    into it, so by the exact chain the PER estimator's variance is 2.0x
    binomial for acceptance criterion 1's users, p_s's 1.2-1.9x.

    mean_tx_power and cap_fraction are not sample means but expectations
    over the fading, given the placed users and their ratio schedule, in
    closed form.  mean_tx_power is a user's expected transmit power per
    slot it transmits in (every slot of a NOMA episode, warmup included;
    its own slots in the orthogonal baseline), and cap_fraction the
    probability P(h < 1/POWER_CAP_FACTOR) that its channel inversion is
    capped."""

    scenario: str
    n_users: int
    n_hat: int
    seed: int
    slots_counted: int
    per: np.ndarray
    per_stderr: np.ndarray
    success_prob: np.ndarray
    success_prob_stderr: np.ndarray
    throughput: np.ndarray
    throughput_stderr: np.ndarray
    mean_tx_power: np.ndarray
    cap_fraction: np.ndarray
    state_visits: Optional[np.ndarray] = None
    state_visits_thinned: Optional[np.ndarray] = None

    @property
    def avg_per(self) -> float:
        """Average packet error rate across users."""
        return float(self.per.mean())

    @property
    def state_freq(self) -> Optional[np.ndarray]:
        if self.state_visits is None:
            return None
        return self.state_visits / self.state_visits.sum()


def disk_positions(rng: np.random.Generator, n: int):
    """Uniform placement over the cell disk: radius CELL_RADIUS*sqrt(U),
    angle uniform.  Returns (distances, angles)."""
    return CELL_RADIUS * np.sqrt(rng.random(n)), 2.0 * math.pi * rng.random(n)


def _decode_tables(powers: np.ndarray, code: CodeParams):
    """Decode order, per-state stage failure probabilities and successors,
    for all 3^N states of every row of the (R, N) received-power stack
    powers at once (one (N,) vector gives one table without the leading
    axis): the arrays (orders, eps, succ), (R, 3^N, N), (R, 3^N, N) and
    (R, 3^N, N+1), read from markov._chain_table.

    A function of its own only so that the benchmark's layer tracer,
    which finds the simulator's table builds by this name, counts them.
    """
    orders, succ, _, eps = _chain_table(powers, code)
    return orders, eps, succ


def _episode_seeds(seed: int, episodes: int):
    """The seed sequences of the episodes, one at a time: the children
    SeedSequence(seed).spawn(episodes) would return, built lazily so that
    memory does not grow with the episode count."""
    return (np.random.SeedSequence(seed, spawn_key=(i,)) for i in range(episodes))


def _binomial_se(p: np.ndarray, total: int) -> np.ndarray:
    return np.sqrt(np.clip(p * (1.0 - p), 0.0, None) / total)


def _rank_table(eps: np.ndarray, succ_rows: np.ndarray):
    """The walk's table: each row's stage error rates as packed ranks.

    eps is _decode_tables' (R, 3^N, N) array and succ_rows maps each move
    key to the row of the next slot.  cols[w] holds the distinct error
    rates of stage w over every row of every rotation, sorted.  With
    pos(e) the count of cols[w] below e and k(u) the count at or below u,
    u < e holds exactly when pos(e) >= k(u), ties and the rates 0.0 and
    1.0 included.  A row's N positions pack into one integer, a lane of
    `lane` bits per stage, stage 0 in the highest, with the top bit of
    each lane set as a guard (Lamport, CACM 1975).  A query packed the
    same way without the guards subtracts with no borrow across lanes,
    as k(u) <= len(cols[w]) stays below the guard, and the guard of lane
    w survives exactly when stage w fails.  Words wider than 63 bits stay
    Python ints (dtype object).

    Returns (cols, shifts, dtype, lane, guard, words, succ).  words and
    succ are lists indexed by a row's base key row * (N+1) + N, the move
    of a slot that fails no stage: words[base] is the row's packed word,
    and succ[key] the base key of the successor row of move key.
    """
    n = eps.shape[-1]
    flat = eps.reshape(-1, n)
    cols, pos = zip(*(np.unique(flat[:, w], return_inverse=True) for w in range(n)))
    lane = max(map(len, cols)).bit_length() + 1
    dtype = np.int64 if lane * n <= 63 else object
    shifts = [lane * (n - 1 - w) for w in range(n)]
    guard = sum((1 << (lane - 1)) << s for s in shifts)
    words = np.zeros(len(flat) * (n + 1), dtype=dtype)
    words[n::n + 1] = sum(p.astype(dtype) << s for p, s in zip(pos, shifts)) + guard
    return (cols, shifts, dtype, lane, guard, words.tolist(),
            (succ_rows * (n + 1) + n).tolist())


def _walk(u, table, starts, stops, rows, keys):
    """Step the chain one slot at a time over the segments [starts[i],
    stops[i]) of the chunk, segment i from row rows[i] (rotation * 3^N +
    state), writing each slot's move into keys.

    u holds the chunk's uniforms as drawn, (slots, N), and table is
    _rank_table's.  Each walked slot's N uniforms become their ranks k(u)
    in the stage columns, one searchsorted per stage, packed as the words
    are; the row names its rotation, so the queries need none.  A slot is
    then one integer test: the highest guard left in word - query marks
    the first failing stage w, its bit_length is lane * (N - w), and none
    left means every stage decoded.
    """
    cols, shifts, dtype, lane, guard, words, succ = table
    n = len(cols)
    lengths = stops - starts
    offsets = np.cumsum(lengths) - lengths
    # the segments' slots one after another
    at = np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())
    query = np.zeros(len(at), dtype=dtype)
    rank = np.empty(len(at), dtype=dtype)
    for w, (col, shift) in enumerate(zip(cols, shifts)):
        # searchsorted runs about twice as fast on sorted queries
        x = u[at, w]
        order = np.argsort(x)
        rank[order] = np.searchsorted(col, x[order], side="right")
        query += rank << shift
    query = iter(query.tolist())
    moves = []
    for base, length in zip((rows * (n + 1) + n).tolist(), lengths.tolist()):
        for k in itertools.islice(query, length):
            key = base - ((words[base] - k) & guard).bit_length() // lane
            moves.append(key)
            base = succ[key]
    keys[at] = moves


def _run_chain(dyn_rng, eps: np.ndarray, succ: np.ndarray, slots: int, warmup: int,
               visits_thin=None) -> np.ndarray:
    """Evolve the phase-vector chain from the all-success state.

    eps and succ are _decode_tables' (R, 3^N, N) and (R, 3^N, N+1) arrays;
    slot t uses rotation t % R.  Returns the counts (R, 3^N, N+1): slots
    after the warmup by rotation, state and first-failure stage (N: every
    stage succeeded).  Every THIN_STRIDE-th counted slot adds its state to
    visits_thin.

    Slot t draws N uniforms u and fails first at the first stage w with
    u[w] < eps[rot, state, w].  A reset slot has u[w] >= max_s eps[rot,
    s, w] at every stage, so it decodes every stage from any state and
    the chain is in state 0 after it (the coalescence of Propp and
    Wilson's coupled chains).  Each chunk of uniforms splits into
    segments that end at reset slots; every segment but the first starts
    in state 0, so all of them step in lockstep, one numpy step per slot
    position.  Once fewer than _LOCKSTEP_MIN segments remain, _walk
    finishes them one slot at a time on packed stage ranks, whose table
    _rank_table builds once per call, when the first walk needs it.
    Every slot makes the move a slot-by-slot walk of the same uniforms
    makes, so the counts are bit-identical to it.

    A chunk's uniforms stay as drawn, (slots, N), and are read one stage
    at a time through the column views u[:, w]; eps and its per-rotation
    bounds are stage columns, (N, R * 3^N) and (N, R).  A test across the
    N stages is then N one-dimensional numpy operations (see the module
    docstring for the measured cost of the short-axis reductions
    all(axis=1) and argmax(axis=1) they replace).  The reset test runs
    once per rotation residue: slots r, r + R, ... of a chunk that starts
    at slot t all use rotation (t + r) % R, so the strided views u[r::R,
    w] meet one scalar bound each.  A slot's first failure is a masked
    store from the last stage back to the first, which leaves the first
    failing stage.  No array of the chunk's rotations is kept: a segment
    starting at chunk slot j starts in row (j + t % R) % R * 3^N, and the
    walk needs none, as the row it carries names its rotation.

    The chain is carried as its row r * 3^N + state, which the successor
    table maps to the row of the next slot's rotation.  A slot's move is
    its key row * (N+1) + w, at once the flat index of its count and of
    its successor.
    """
    n_rot, m, n = eps.shape
    n1 = n + 1
    eps_cols = list(eps.reshape(-1, n).T.copy())
    clear = eps.max(axis=1).T
    # the row of the next slot: its rotation r + 1 (mod R) and the successor
    succ_rows = (np.roll(np.arange(n_rot), -1)[:, None, None] * m + succ).reshape(-1)
    chunk = min(_CHAIN_CHUNK, slots)
    # every stage decoded: the first failure of a slot that fails none
    no_failure = np.full(chunk, n)
    counts = np.zeros(n_rot * m * n1, dtype=np.int64)
    table = None
    row = 0
    done = 0
    while done < slots:
        take = min(chunk, slots - done)
        u = dyn_rng.random((take, n))
        u_cols = [u[:, w] for w in range(n)]
        # slot t of the chunk uses rotation (t + phase) % R
        phase = done % n_rot
        reset = np.empty(take, dtype=bool)
        for r in range(n_rot):
            bound = clear[:, (phase + r) % n_rot]
            test = reset[r::n_rot]
            np.greater_equal(u[r::n_rot, 0], bound[0], out=test)
            for w in range(1, n):
                test &= u[r::n_rot, w] >= bound[w]
        ends = np.append(np.flatnonzero(reset[:-1]) + 1, take)
        lengths = np.diff(ends, prepend=0)
        # longest first: the segments still running are always a prefix;
        # the first segment goes on from the last chunk's row, the others
        # from state 0.  The stable sort runs on int16 (a chunk holds at
        # most 2^15 - 1 slots), where it is a radix sort
        order = np.argsort(-lengths.astype(np.int16), kind="stable")
        starts, lengths = ends[order] - lengths[order], lengths[order]
        rows = np.where(order == 0, row, (starts + phase) % n_rot * m)
        steps = int(lengths[_LOCKSTEP_MIN - 1]) if len(lengths) >= _LOCKSTEP_MIN else 0
        keys = np.empty(take, dtype=np.intp)
        for j, k in enumerate(np.searchsorted(-lengths, -np.arange(steps))):
            t = starts[:k] + j
            now = rows[:k]
            w = no_failure[:k].copy()
            for s in range(n - 1, -1, -1):
                w[u_cols[s][t] < eps_cols[s][now]] = s
            key = now * n1 + w
            keys[t] = key
            rows[:k] = succ_rows[key]
        left = int(np.searchsorted(-lengths, -steps))
        if left:
            if table is None:
                table = _rank_table(eps, succ_rows)
            _walk(u, table, starts[:left] + steps, starts[:left] + lengths[:left], rows[:left],
                  keys)
        lo = min(max(warmup - done, 0), take)
        counts += np.bincount(keys[lo:], minlength=counts.size)
        if visits_thin is not None:
            first = lo + (warmup - done - lo) % THIN_STRIDE
            visits_thin += np.bincount(keys[first::THIN_STRIDE] // n1 % m, minlength=m)
        row = int(succ_rows[keys[-1]])
        done += take
    return counts.reshape(n_rot, m, n1)


def _episode(seq, cfg: SimConfig, ratios, visits_thin=None):
    """One episode from the seed sequence seq: place cfg.n_actual users,
    read their (rotations x users) ratio matrix ratios(distances, angles),
    build the decode tables of every rotation at once, and run the chain.

    Returns (state visits, e_i numerators, p_s numerators, per-user
    expected transmit power summed over the slots).  Slot t uses rotation
    t % R, so rotation r has slots // R + (r < slots % R) slots.  The
    numerators sum the counted moves as the analysis sums their
    probabilities: e_i counts slots already in F plus R slots about to
    fail, p_s fresh packets that decode at the first try.
    """
    dyn_rng, place_rng = map(np.random.default_rng, seq.spawn(2))
    distances, angles = disk_positions(place_rng, cfg.n_actual)
    matrix = np.asarray(ratios(distances, angles), dtype=float)
    p0 = cfg.system.p0
    orders, eps, succ = _decode_tables(matrix * p0, cfg.system.code)
    slots = cfg.slots // cfg.episodes
    counts = _run_chain(dyn_rng, eps, succ, slots, cfg.warmup, visits_thin=visits_thin)
    to_f, to_s = _move_sums(orders, counts)
    n_rot = len(matrix)
    rot_slots = slots // n_rot + (np.arange(n_rot) < slots % n_rot)
    return (counts.sum(axis=(0, 2)), to_f.sum(axis=(0, 1)), to_s.sum(axis=(0, 1)),
            p0 * distances**PATH_LOSS_EXP * (rot_slots @ matrix) * _MEAN_INVERSION)


def _simulate(cfg: SimConfig, ratios, seqs, visits_thin=None) -> SimResult:
    """The episodes of the seed sequences seqs, summed into one result
    with binomial standard errors (delta method for the throughput);
    state visits are reported when visits_thin collects thinned ones."""
    visits, f_hits, s_hits, tx = functools.reduce(
        lambda acc, ep: [a + b for a, b in zip(acc, ep)],
        (_episode(seq, cfg, ratios, visits_thin) for seq in seqs))
    total = int(visits.sum())
    code = cfg.system.code
    per, p_s = f_hits / total, s_hits / total
    per_se, ps_se = _binomial_se(per, total), _binomial_se(p_s, total)
    denom = 2.0 - p_s
    return SimResult(
        scenario=cfg.scenario,
        n_users=cfg.n_actual,
        n_hat=cfg.n_hat,
        seed=cfg.seed,
        slots_counted=total,
        per=per,
        per_stderr=per_se,
        success_prob=p_s,
        success_prob_stderr=ps_se,
        throughput=np.array([throughput(e, p, code) for e, p in zip(per, p_s)]),
        throughput_stderr=np.hypot(-code.rate / denom * per_se,
                                   code.rate * (1.0 - per) / denom**2 * ps_se),
        mean_tx_power=tx / (cfg.slots // cfg.episodes * cfg.episodes),
        cap_fraction=np.full(cfg.n_actual, _CAP_PROB),
        state_visits=None if visits_thin is None else visits,
        state_visits_thinned=visits_thin,
    )


def simulate_coordinated(cfg: SimConfig) -> SimResult:
    """Coordinated cluster: all users hold their optimized ratio throughout.

    One episode from SeedSequence(seed) with the one-row ratio matrix
    [alphas].
    """
    if cfg.scenario != "coordinated":
        raise ValueError("scenario must be 'coordinated'")
    n = cfg.system.n_users
    _check_user_count(n)
    alphas = [cfg.system.alphas]
    return _simulate(cfg, lambda *_: alphas, [np.random.SeedSequence(cfg.seed)],
                     visits_thin=np.zeros(3**n, dtype=np.int64))


def simulate_uncoordinated(cfg: SimConfig) -> SimResult:
    """Grant-free operation: users adopt the ratio of their cell segment.

    Each episode places n_actual users uniformly over the disk and maps
    them to segments of the n_hat plan; several users may land on the
    same ratio.  The ratio assignment rotates every slot.  Received
    powers follow the realized ratio multiset (power control), so a
    cluster's total received power may deviate from the planned P0.
    Both n_actual and n_hat are capped at MAX_USERS.
    """
    if cfg.scenario != "uncoordinated":
        raise ValueError("scenario must be 'uncoordinated'")
    _check_user_count(cfg.n_actual)
    _check_user_count(cfg.n_hat)
    plan = build_plan(CELL_RADIUS, cfg.system.alphas)
    # ratio index of every segment under every rotation offset
    grids = np.stack([plan.rotated(r).assignment for r in range(cfg.n_hat)])
    alphas = np.asarray(plan.alphas)

    def ratios(distances, angles):
        rings, sectors = locate_segment(distances, angles, plan)
        return alphas[grids[:, rings, sectors]]

    return _simulate(cfg, ratios, _episode_seeds(cfg.seed, cfg.episodes))


def simulate_oma_baseline(cfg: SimConfig) -> SimResult:
    """Orthogonal baseline: each user transmits alone in its own slots,
    one retransmission allowed, at the power matched so the average total
    received power per information packet equals the NOMA cluster's.

    Rounds are independent, so no warmup applies.  PER and p_s are
    tallies over each user's own slots, counted from its draws.
    Throughput divides by the full schedule: every user waits out the
    other users' slots, retransmissions included.
    """
    if cfg.scenario != "coordinated":
        raise ValueError("the orthogonal baseline compares coordinated clusters")
    sys_cfg = cfg.system
    n = sys_cfg.n_users
    code = sys_cfg.code
    p_oma = oma_received_power(sys_cfg)
    # the one-user table's states S and R: SINR P, and P + P Chase-combined
    eps1, eps2 = _decode_tables(np.array([p_oma]), code)[1][:2, 0]

    dyn_rng, place_rng = map(np.random.default_rng,
                             np.random.SeedSequence(cfg.seed).spawn(2))
    rounds = max(2, cfg.slots // n)
    per = np.empty(n)
    p_s = np.empty(n)
    own_slots = np.empty(n, dtype=np.int64)
    for i in range(n):
        first_fail = dyn_rng.random(rounds) < eps1
        second_fail = first_fail & (dyn_rng.random(rounds) < eps2)
        own_slots[i] = rounds + np.count_nonzero(first_fail)
        # as in e_i, a loss counts in its failing R slot and the next F slot, if any
        per[i] = (2 * np.count_nonzero(second_fail) - second_fail[-1]) / own_slots[i]
        p_s[i] = np.count_nonzero(~first_fail) / own_slots[i]
    per_se = _binomial_se(per, own_slots)
    ps_se = _binomial_se(p_s, own_slots)

    schedule = float(np.sum(2.0 - p_s))
    eta = code.rate * (1.0 - per) / schedule
    # schedule uncertainty (every user's p_s) dominates at moderate power
    sched_var = float(np.sum(ps_se**2))
    eta_se = np.sqrt(
        (code.rate * per_se / schedule) ** 2
        + (code.rate * (1.0 - per) / schedule**2) ** 2 * sched_var
    )

    distances, _ = disk_positions(place_rng, n)
    return SimResult(
        scenario="oma",
        n_users=n,
        n_hat=cfg.n_hat,
        seed=cfg.seed,
        slots_counted=int(own_slots.sum()),
        per=per,
        per_stderr=per_se,
        success_prob=p_s,
        success_prob_stderr=ps_se,
        throughput=eta,
        throughput_stderr=eta_se,
        mean_tx_power=p_oma * distances**PATH_LOSS_EXP * _MEAN_INVERSION,
        cap_fraction=np.full(n, _CAP_PROB),
    )

