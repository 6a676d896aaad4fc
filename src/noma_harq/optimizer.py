"""Genetic-algorithm search for power splitting ratios.

Two problem shapes are covered: the power-constrained sweep (minimize the
worst per-user PER at each total received power, tracing the Pareto
front) and the reliability-constrained search for the smallest
blocklength whose optimized worst PER meets a target.

Chromosomes are unnormalized positive reals projected onto the simplex
(x / sum(x)) at evaluation time, so crossover and mutation never leave
the feasible set.  The objective is row-wise: it receives a whole
generation as one (B, n_vars) stack and returns B values, so the power
searches evaluate a generation in one stacked max_user_per call.  Only the
children that crossover or mutation changed are evaluated; the others
keep their parent's fitness.  The elites carry the best row forward, so
the answer is the best row of the final population; a warm start is one
ratio vector.  Everything is driven by one seeded generator and the
module's operator constants, so a given seed reproduces the run bit for
bit.
"""

import functools
import logging
import math
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InfeasibleError
from .fbl import CodeParams
from .markov import _single_user, max_user_per

_log = logging.getLogger(__name__)

# floor for genes, applied where they are seeded or mutated; keeps ratios > 0
GENE_FLOOR = 1e-6
# largest step of min_blocklength's expanding search, in channel uses
MAX_STEP = 64
# GA operators: the crossover probability of a parent pair, the per-gene
# mutation probability and standard deviation, and the elites carried
# into the next generation with their fitness
CROSSOVER_RATE = 0.8
MUTATION_RATE = 0.1
MUTATION_SIGMA = 0.05
ELITISM = 2  # >= 1: the answer is the final population's best row
# largest GA population: ga_minimize allocates the whole population before
# its first evaluation, so an unbounded size is an unbounded allocation
MAX_POPULATION = 10_000


@dataclass(frozen=True)
class GaParams:
    """Genetic algorithm size and seed; the operators are module constants.

    The source analysis gives no hyperparameters, so these defaults are
    tuned for the small simplex problems at hand.
    """

    population_size: int = 60
    generations: int = 200
    seed: int = 12345

    def __post_init__(self):
        if not 4 <= self.population_size <= MAX_POPULATION:
            raise ValueError(f"population_size must be between 4 and {MAX_POPULATION}, "
                             f"got {self.population_size}")
        if self.generations < 0 or self.seed < 0:
            raise ValueError(f"need generations >= 0 and seed >= 0, got "
                             f"{self.generations} and {self.seed}")


@dataclass(frozen=True)
class ParetoPoint:
    """One point of the power/reliability trade-off front."""

    max_per: float
    p0_db: float
    alphas: Tuple[float, ...]


def _project(genes: np.ndarray) -> np.ndarray:
    return genes / genes.sum(axis=-1, keepdims=True)


def ga_minimize(
    objective: Callable[[np.ndarray], np.ndarray],
    n_vars: int,
    params: GaParams,
    initial: Optional[Sequence[float]] = None,
    trace: Optional[Callable[[int, float], None]] = None,
) -> Tuple[np.ndarray, float]:
    """Minimize objective(alphas) over the n_vars-simplex.

    The objective is row-wise: it receives a (B, n_vars) stack of
    normalized ratio vectors (positive, each row summing to 1) and returns
    their B values, each a function of its row alone.  It is called once
    for the initial population and then once per generation, on the
    children that differ from their parent; a generation with none makes
    no call.  The elites carried into the next generation, and the
    children that neither crossover nor mutation changed (about 17% of
    them at the module's rates), keep their fitness.  Non-finite
    objective values rank as worst.  An optional initial ratio vector,
    of shape (n_vars,), is the starting population's first row (warm
    start).  trace, when given, receives (generation, population's best
    value, which never rises) after every generation.  A run over two or
    more variables logs one DEBUG record on the noma_harq.optimizer
    logger with the rows the objective evaluated and the children that
    kept their parent's fitness.

    Returns the final population's best row, projected, and its value:
    the elites keep the earliest row that reached the minimum in slot 0.
    """
    if n_vars < 1:
        raise ValueError("n_vars must be at least 1")
    if initial is not None and np.shape(initial) != (n_vars,):
        raise ValueError(f"initial has shape {np.shape(initial)}, "
                         f"not (n_vars,) = ({n_vars},)")
    if n_vars == 1:
        alpha = np.array([1.0])
        return alpha, float(objective(alpha[None])[0])

    rng = np.random.default_rng(params.seed)
    pop = rng.uniform(0.1, 1.0, size=(params.population_size, n_vars))
    if initial is not None:
        pop[0] = np.maximum(initial, GENE_FLOOR)

    def evaluate(genes: np.ndarray) -> np.ndarray:
        vals = np.asarray(objective(_project(genes)), dtype=float)
        return np.where(np.isfinite(vals), vals, np.inf)

    fitness = evaluate(pop)

    pop_size = params.population_size
    evaluated, kept = pop_size, 0
    for gen in range(params.generations):
        elite = np.argsort(fitness, kind="stable")[:ELITISM]

        # binary tournament selection
        draws = rng.integers(0, pop_size, size=(pop_size, 2))
        winners = np.where(
            fitness[draws[:, 0]] <= fitness[draws[:, 1]], draws[:, 0], draws[:, 1]
        )
        parents = pop[winners]

        # arithmetic crossover on consecutive pairs: the random draws in
        # the generator's order, one pair at a time, then every crossed
        # pair's children at once
        crossed, weights = [], []
        for a in range(0, pop_size - 1, 2):
            if rng.random() < CROSSOVER_RATE:
                crossed.append(a)
                weights.append(rng.random())
        first, u = np.array(crossed, dtype=np.intp), np.array(weights)[:, None]
        pa, pb = parents[first], parents[first + 1]
        children = parents.copy()
        children[first] = u * pa + (1.0 - u) * pb
        children[first + 1] = u * pb + (1.0 - u) * pa

        # gaussian mutation on the unnormalized genes
        mask = rng.random(children.shape) < MUTATION_RATE
        noise = rng.normal(0.0, MUTATION_SIGMA, size=children.shape)
        children = np.where(mask, children + noise, children)
        children = np.maximum(children, GENE_FLOOR)

        # elites and unchanged children keep their fitness; the others are
        # evaluated
        changed = ELITISM + np.flatnonzero((children[ELITISM:] != parents[ELITISM:]).any(axis=1))
        children[:ELITISM] = pop[elite]
        winners[:ELITISM] = elite
        fitness = fitness[winners]
        if len(changed):
            fitness[changed] = evaluate(children[changed])
        evaluated += len(changed)
        kept += pop_size - ELITISM - len(changed)
        pop = children
        if trace is not None:
            trace(gen, float(fitness.min()))

    _log.debug("ga_minimize: the objective evaluated %d rows; %d children kept "
               "their parent's fitness", evaluated, kept)
    best = int(fitness.argmin())
    return _project(pop[best]), float(fitness[best])


# per-generation progress hook: (context label, generation, best value)
TraceFn = Callable[[str, int, float], None]


def optimize_power_split(
    n_users: int,
    p0_db: float,
    code: CodeParams,
    params: GaParams,
    initial: Optional[Sequence[float]] = None,
    trace: Optional[TraceFn] = None,
) -> Tuple[np.ndarray, float]:
    """Minimize the worst per-user PER over the ratio simplex at one power;
    initial is one warm-start ratio vector, and the answer is ga_minimize's."""
    objective = functools.partial(max_user_per, p0=10.0 ** (p0_db / 10.0), code=code)
    label = f"P0={p0_db:g}dB n={code.n}"
    hook = None if trace is None else (lambda g, v: trace(label, g, v))
    return ga_minimize(objective, n_users, params, initial=initial, trace=hook)


def _pareto_filter(points: List[ParetoPoint]) -> List[ParetoPoint]:
    """Drop points dominated in both objectives (lower power, lower PER)."""
    kept = []
    for cand in points:
        dominated = any(
            (o.p0_db <= cand.p0_db and o.max_per <= cand.max_per)
            and (o.p0_db < cand.p0_db or o.max_per < cand.max_per)
            for o in points
            if o is not cand
        )
        if not dominated:
            kept.append(cand)
    return sorted(kept, key=lambda pt: pt.p0_db)


def pareto_front(
    n_users: int,
    code: CodeParams,
    p0_db_grid: Sequence[float],
    params: GaParams,
    trace: Optional[TraceFn] = None,
) -> List[ParetoPoint]:
    """Scalarized bi-objective sweep: optimize the worst PER at each grid power.

    Each grid point runs its own GA (seed offset by the grid index) and
    the non-dominated subset of the results is returned sorted by power.
    """
    grid = [float(v) for v in p0_db_grid]
    if not grid:
        raise ValueError("p0_db_grid must be nonempty")
    points = []
    warm: Optional[np.ndarray] = None
    for idx, p0_db in enumerate(grid):
        point_params = replace(params, seed=params.seed + idx)
        alphas, val = optimize_power_split(
            n_users, p0_db, code, point_params, initial=warm, trace=trace
        )
        warm = alphas
        points.append(
            ParetoPoint(max_per=val, p0_db=p0_db, alphas=tuple(float(a) for a in alphas))
        )
    return _pareto_filter(points)


def min_blocklength(
    k: int,
    snr_db: float,
    n_users: int,
    target_per: float,
    params: GaParams,
    n_cap: int = 4096,
    trace: Optional[TraceFn] = None,
) -> Tuple[int, Tuple[float, ...]]:
    """Smallest blocklength n whose optimized worst PER meets target_per.

    No GA runs below the single-user bound.  Some user has a ratio of at
    most 1/N, so its fresh packets are decoded at SINR at most P0/N and
    its Chase-combined retransmissions at most 2 P0/N (interference and
    earlier SIC stages only lower them; undecoded packets fail).  For
    n <= 2^k the error rate eps(g) falls as the SINR g rises, so that
    user's slot-averaged fresh and retransmission failure probabilities
    a, b are at least eps1 = eps(P0/N) and eps2 = eps(2 P0/N).  Its PER
    e = 2ab/(1 + a) rises in both, so every split has

        max_i e_i >= 2 eps1 eps2 / (1 + eps1),

    the PER of one user alone at power P0/N (markov._single_user), up to
    the ~1e-12 relative rounding of the float64 Gaussian tail.  Above
    n = 2^k the mean term n log2(1 + g) - k + log2(n) is positive at
    g = 0, eps rises with the SINR near zero, and the bound does not hold.

    The search starts at the first n >= k + 1 where the bound meets the
    target, or at 2^k + 1; an n_cap below k + 1 is a ValueError.  For
    N = 1 the bound is the exact PER, so the search makes one GA run.  If the bound rules out every n <= n_cap,
    InfeasibleError is raised before any GA run, carrying the smallest
    bound value, a lower bound on any split's worst PER.

    From the start, the search brackets the answer and then shrinks the
    bracket, on f(n) = log(PER(n) / target_per), which is smooth in n
    under the normal approximation (Polyanskiy, Poor & Verdu, IEEE Trans.
    IT 2010).  Expand: each step goes to where the secant of f through
    the last two probes crosses 0, at least 1 and at most MAX_STEP ahead;
    the first step takes its slope from the single-user bound at start
    and start + 1.  It stops at the first probe that meets the target.
    Shrink: Illinois regula falsi (Dowell & Jarratt, BIT 1971) inside
    [infeasible, feasible] until the ends are adjacent; after two probes
    in a row that each leave more than half the bracket, the next one
    bisects it.  The answer is the feasible end, so it matches a stride-1
    scan wherever the optimized worst PER decreases in n.  The GA at n
    runs with seed params.seed + n, warm-started from the last probe's
    ratios.  Raises InfeasibleError (carrying the best PER found) if the
    cap is reached without meeting the target.  The answer is logged as
    one INFO record on the noma_harq.optimizer logger, with the start and
    the blocklengths tried in order.
    """
    if not 0.0 < target_per < 1.0:
        raise ValueError(f"target_per must lie in (0, 1), got {target_per!r}")
    if k < 1:
        raise ValueError(f"k (information bits) must be at least 1, got {k}")
    if n_users < 1:
        raise ValueError(f"n_users must be at least 1, got {n_users}")
    if n_cap < k + 1:
        raise ValueError(f"n_cap {n_cap} leaves no blocklength above k = {k} "
                         "information bits to search")

    share = 10.0 ** (snr_db / 10.0) / n_users
    start, lowest = k + 1, math.inf
    while start <= n_cap and math.log2(start) <= k:
        bound, _ = _single_user(share, CodeParams(k=k, n=start))
        if bound <= target_per:
            break
        lowest = min(lowest, bound)
        start += 1
    if start > n_cap:
        raise InfeasibleError(
            f"no blocklength up to {n_cap} meets PER {target_per:g} "
            f"at {snr_db:g} dB (single-user bound {lowest:.3e})",
            best_value=lowest,
        )

    tried: dict[int, Tuple[np.ndarray, float]] = {}
    warm: Optional[np.ndarray] = None
    log_target = math.log(target_per)

    def probe(n: int) -> Tuple[bool, float]:
        """Whether the GA optimum at n meets the target, and its f(n):
        -inf at PER 0, +inf where every split fails."""
        nonlocal warm
        point_params = replace(params, seed=params.seed + n)
        alphas, val = optimize_power_split(n_users, snr_db, CodeParams(k=k, n=n),
                                           point_params, initial=warm, trace=trace)
        warm = alphas
        tried[n] = alphas, val
        return val <= target_per, _log_per(val) - log_target

    def step(f: float, slope: float) -> int:
        """Channel uses from a probe f > 0 to the secant's crossing of 0."""
        dist = f / -slope if slope < 0.0 else math.inf
        return max(1, math.ceil(dist)) if dist < MAX_STEP else MAX_STEP

    lo, f_lo = None, math.nan
    hi = start
    met, f_hi = probe(start)
    slope = (_log_per(_single_user(share, CodeParams(k=k, n=start + 1))[0])
             - _log_per(_single_user(share, CodeParams(k=k, n=start))[0]))
    while not met:
        if hi == n_cap:
            best = min(val for _, val in tried.values())
            raise InfeasibleError(
                f"no blocklength up to {n_cap} meets PER {target_per:g} "
                f"at {snr_db:g} dB (best {best:.3e})",
                best_value=best,
            )
        lo, f_lo = hi, f_hi
        hi = min(hi + step(f_hi, slope), n_cap)
        met, f_hi = probe(hi)
        slope = (f_hi - f_lo) / (hi - lo)

    kept = None    # the end the last probe left in place
    slow = 0       # probes in a row that each left more than half the bracket
    while lo is not None and hi - lo > 1:
        width = hi - lo
        x = hi - f_hi * width / (f_hi - f_lo) if f_lo > f_hi else math.nan
        if slow == 2 or not lo < x < hi:
            n, slow = (lo + hi) // 2, 0
        else:
            n = min(max(math.ceil(x), lo + 1), hi - 1)
        met, f = probe(n)
        if met:
            hi, f_hi = n, f
            if kept == "lo":
                f_lo /= 2.0
            kept = "lo"
        else:
            lo, f_lo = n, f
            if kept == "hi":
                f_hi /= 2.0
            kept = "hi"
        slow = slow + 1 if 2 * (hi - lo) > width else 0

    _log.info("min_blocklength: bound start n=%d, tried n=%s, answer n=%d",
              start, list(tried), hi)
    alphas, _ = tried[hi]
    return hi, tuple(float(a) for a in alphas)


def _log_per(x: float) -> float:
    """Natural log of a PER, -inf at 0."""
    return math.log(x) if x > 0.0 else -math.inf
