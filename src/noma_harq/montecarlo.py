"""Slot-level stochastic simulator for the NOMA-HARQ dynamics.

Serves two purposes: an independent check of the Markov analysis
(coordinated mode reproduces the chain's stationary statistics), and the
engine for uncoordinated experiments where users pick power ratios from
their cell segment, including mismatched load estimates.

Decode outcomes are independent Bernoulli draws at the analytically
computed stage SINRs: exactly the abstraction the chain assumes, so the
comparison is sharp.  Fading never touches reliability (users power
control their received level); it is drawn only to account transmit
power, with channel inversion capped at POWER_CAP_FACTOR times the mean
and the capped fraction reported.  Transmit power scales with distance
to the power PATH_LOSS_EXP; users are placed uniformly over a cell of
radius cellplan.CELL_RADIUS.

One episode engine serves both scenarios.  An episode places the users,
reads their (rotations x users) ratio matrix, builds the decode tables
of every rotation in one call, runs the chain and then the fading
ledger; a run sums its episodes into one SimResult.  The coordinated run
is one episode with one rotation, the matrix [alphas]; uncoordinated
runs sum many episodes whose rotations follow the cell plan: one
locate_segment call maps the placed users to their segments, and the
stacked assignment grids of the n_hat rotations give the whole matrix in
one array lookup.  Both the placed users and the n_hat planned ratios
are capped at markov.MAX_USERS.

Decode tables come from the analysis's vectorized engine
(markov._stage_tables and the successors of the chain's move table),
all 3^N states at once; the scalar sic path is a test oracle only.  The
chain tallies slots by rotation, state and first-failure stage, in the
layout of the move table.  markov._move_sums turns those counts into the
e_i and p_s tallies, the same sums the analysis takes over the move
probabilities, and the state visits follow from the counts, so memory is
O(n_hat * 3^N * N) with no 3^N x 3^N array.

Seeding: each episode splits its np.random.SeedSequence with spawn(3)
into independent child streams (dynamics, placement, fading), so every
run is reproducible bit for bit and the streams never alias.  The
coordinated episode's sequence is SeedSequence(seed); uncoordinated
episodes take SeedSequence(seed).spawn(episodes).
"""

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cellplan import CELL_RADIUS, build_plan, locate_segment
from .fbl import CodeParams, per_cc_batch
from .markov import (
    _F,
    _R,
    _check_user_count,
    _fallback_successors,
    _move_sums,
    _stage_tables,
    _state_digits,
    oma_received_power,
    throughput,
)
from .sic import SystemConfig

# decimation stride for the goodness-of-fit visit counts; the chain
# decorrelates within a few slots, so stride-10 samples are near-iid
THIN_STRIDE = 10
# path-loss exponent of the transmit-power ledger
PATH_LOSS_EXP = 3.5
# channel inversion is capped at this multiple of the mean fading gain
POWER_CAP_FACTOR = 1e3

_CHUNK = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    """Simulation setup around a SystemConfig.

    slots is the total budget; uncoordinated runs split it evenly over
    episodes (fresh random user placement each episode) and discard
    warmup slots per episode before collecting statistics.  For the
    uncoordinated scenario system.alphas are the n_hat planned ratios
    while n_actual users are actually placed.
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
        if self.episodes < 1 or self.slots < 1 or self.warmup < 0:
            raise ValueError("slots and episodes must be positive, warmup >= 0")
        if self.slots // self.episodes <= self.warmup:
            raise ValueError("each episode needs more slots than the warmup")
        if self.scenario == "coordinated":
            if self.n_actual != self.system.n_users:
                raise ValueError("coordinated runs use exactly the configured users")
            if self.episodes != 1:
                raise ValueError("coordinated runs are a single episode")
        else:
            if self.n_hat != self.system.n_users:
                raise ValueError(
                    "uncoordinated runs read the n_hat planned ratios from "
                    "system.alphas; n_hat must match their count"
                )


@dataclass(frozen=True)
class SimResult:
    """Empirical per-user statistics with binomial standard errors,
    sqrt(x (1 - x) / T) over T counted slots.  They understate the
    spread: a lost packet counts in its F slot and in the R slot failing
    into it, so by the exact chain the PER estimator's variance is 2.0x
    binomial for acceptance criterion 1's users, p_s's 1.2-1.9x."""

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
    """Decode order, per-state stage failure probabilities and
    successors, for all 3^N states of every row of the (R, N)
    received-power stack powers at once, from the vectorized SIC engine of
    the analysis (one (N,) vector gives one table without the leading
    axis).

    Returns (orders, eps_tab, succ_tab): orders is the array of
    markov._stage_tables, the tables are nested lists, so the slot loop
    reads Python floats and ints.  eps_tab[r][s][w] is the failure
    probability of stage w in state s for row r, from the Chase-combining
    finite-blocklength formula.  succ_tab[r][s] holds the N+1 successors
    of the chain's move table: entry w < N is the next state when the
    first SIC failure hits stage w, entry N = 0 the all-success one.
    """
    digits = _state_digits(powers.shape[-1])
    orders, gammas = _stage_tables(digits, powers)
    eps = per_cc_batch(gammas, code)[0]
    return orders, eps.tolist(), _fallback_successors(digits, orders).tolist()


def _binomial_se(p: np.ndarray, total: int) -> np.ndarray:
    return np.sqrt(np.clip(p * (1.0 - p), 0.0, None) / total)


def _fading_ledger(fade_rng, ratios: np.ndarray, slots: int):
    """Per-user sum of ratio * min(1/h, POWER_CAP_FACTOR) over the slots,
    and the count of capped slots.  ratios is the (rotations x users)
    ratio matrix; slot t weighs by its row t % rotations."""
    inv_sum = np.zeros(ratios.shape[1])
    cap_cnt = np.zeros(ratios.shape[1], dtype=np.int64)
    done = 0
    threshold = 1.0 / POWER_CAP_FACTOR
    while done < slots:
        take = min(_CHUNK, slots - done)
        h = fade_rng.exponential(1.0, size=(take, ratios.shape[1]))
        with np.errstate(divide="ignore"):
            inv = np.minimum(1.0 / h, POWER_CAP_FACTOR)
        inv_sum += (inv * ratios[np.arange(done, done + take) % len(ratios)]).sum(axis=0)
        cap_cnt += (h < threshold).sum(axis=0)
        done += take
    return inv_sum, cap_cnt


def _run_chain(dyn_rng, tables, n_users: int, slots: int, warmup: int,
               visits_thin=None) -> np.ndarray:
    """Evolve the phase-vector chain from the all-success state.

    tables[rot] is the (eps_tab, succ_tab) pair of _decode_tables for
    rotation rot; slot t uses tables[t % len(tables)].  Returns the counts
    (len(tables), 3^N, N+1): slots after the warmup by rotation, state and
    first-failure stage (N: every stage succeeded).
    """
    n_rot = len(tables)
    m = 3**n_users
    counts = [[[0] * (n_users + 1) for _ in range(m)] for _ in range(n_rot)]
    state = 0
    done = 0
    while done < slots:
        take = min(_CHUNK, slots - done)
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
                if visits_thin is not None and (done - warmup) % THIN_STRIDE == 0:
                    visits_thin[state] += 1
            state = succ_tab[state][w]
            done += 1
    return np.array(counts, dtype=np.int64)


def _episode(seq, cfg: SimConfig, n: int, ratios, visits_thin=None):
    """One episode from the seed sequence seq: place n users, read their
    (rotations x users) ratio matrix ratios(distances, angles), build the
    decode tables of every rotation at once, run the chain and the fading
    ledger.

    Returns (state visits, e_i numerators, p_s numerators, per-user sum of
    received power times the capped channel inversion, capped slots).  The
    numerators sum the counted moves as the analysis sums their
    probabilities: e_i counts slots already in F plus R slots about to
    fail, p_s fresh packets that decode at the first try.
    """
    dyn_rng, place_rng, fade_rng = map(np.random.default_rng, seq.spawn(3))
    distances, angles = disk_positions(place_rng, n)
    matrix = np.asarray(ratios(distances, angles), dtype=float)
    p0 = cfg.system.p0
    orders, eps_tab, succ_tab = _decode_tables(matrix * p0, cfg.system.code)
    slots = cfg.slots // cfg.episodes
    counts = _run_chain(dyn_rng, list(zip(eps_tab, succ_tab)), n, slots, cfg.warmup,
                        visits_thin=visits_thin)
    to_f, to_s = _move_sums(orders, counts)
    inv_sum, cap_cnt = _fading_ledger(fade_rng, matrix, slots)
    return (counts.sum(axis=(0, 2)), to_f.sum(axis=(0, 1)), to_s.sum(axis=(0, 1)),
            p0 * distances**PATH_LOSS_EXP * inv_sum, cap_cnt)


def _simulate(cfg: SimConfig, ratios, seqs, visits_thin=None) -> SimResult:
    """The episodes of the seed sequences seqs, summed into one result
    with binomial standard errors (delta method for the throughput);
    state visits are reported when visits_thin collects thinned ones."""
    visits, f_hits, s_hits, tx, cap = functools.reduce(
        lambda acc, ep: [a + b for a, b in zip(acc, ep)],
        (_episode(seq, cfg, cfg.n_actual, ratios, visits_thin) for seq in seqs))
    total = int(visits.sum())
    fading_slots = cfg.slots // cfg.episodes * len(seqs)
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
        mean_tx_power=tx / fading_slots,
        cap_fraction=cap / fading_slots,
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
    plan = build_plan(cfg.n_hat, CELL_RADIUS, cfg.system.alphas)
    # ratio index of every segment under every rotation offset
    grids = np.stack([plan.rotated(r).assignment for r in range(cfg.n_hat)])
    alphas = np.asarray(plan.alphas)

    def ratios(distances, angles):
        rings, sectors = locate_segment(distances, angles, plan)
        return alphas[grids[:, rings, sectors]]

    return _simulate(cfg, ratios, np.random.SeedSequence(cfg.seed).spawn(cfg.episodes))


def simulate_oma_baseline(cfg: SimConfig) -> SimResult:
    """Orthogonal baseline: each user transmits alone in its own slots,
    one retransmission allowed, at the power matched so the average total
    received power per information packet equals the NOMA cluster's.

    Rounds are independent, so no warmup applies.  PER and p_s are the
    _move_sums of each user's own slots, tallied as single-user moves.
    Throughput divides by the full schedule: every user waits out the
    other users' slots, retransmissions included.
    """
    if cfg.scenario != "coordinated":
        raise ValueError("the orthogonal baseline compares coordinated clusters")
    sys_cfg = cfg.system
    n = sys_cfg.n_users
    code = sys_cfg.code
    p_oma = oma_received_power(sys_cfg)
    (eps1, eps2), _ = per_cc_batch(np.array([p_oma, 2.0 * p_oma]), code)

    dyn_rng, place_rng, fade_rng = map(np.random.default_rng,
                                       np.random.SeedSequence(cfg.seed).spawn(3))
    rounds = max(2, cfg.slots // n)
    per = np.empty(n)
    p_s = np.empty(n)
    own_slots = np.empty(n, dtype=np.int64)
    for i in range(n):
        first_fail = dyn_rng.random(rounds) < eps1
        second_fail = first_fail & (dyn_rng.random(rounds) < eps2)
        # own slots as moves (state, w), w = 0 a failure: a round's first
        # slot leaves S (0), or F after a failed retransmission; its
        # retransmission slot leaves R
        after_f = np.r_[False, second_fail[:-1]]
        counts = np.zeros((1, 3, 2), dtype=np.int64)
        for state, sel, fail in ((0, ~after_f, first_fail), (_F, after_f, first_fail),
                                 (_R, first_fail, second_fail)):
            counts[0, state] = np.count_nonzero(sel & fail), np.count_nonzero(sel & ~fail)
        to_f, to_s = _move_sums(np.zeros((1, 3, 1), dtype=np.intp), counts)
        own_slots[i] = counts.sum()
        per[i] = to_f.sum() / own_slots[i]
        p_s[i] = to_s.sum() / own_slots[i]
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
    mean_tx = np.empty(n)
    cap_frac = np.empty(n)
    for i in range(n):
        inv_sum, cap_cnt = _fading_ledger(fade_rng, np.ones((1, 1)), int(own_slots[i]))
        mean_tx[i] = p_oma * distances[i] ** PATH_LOSS_EXP * inv_sum[0] / own_slots[i]
        cap_frac[i] = cap_cnt[0] / own_slots[i]

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
        mean_tx_power=mean_tx,
        cap_fraction=cap_frac,
    )

