"""The four benchmark workloads: inputs from a seed, rounds, checks, probes.

A round is one fixed set of operations.  A run repeats whole rounds until
its time is up, so every run attempts the same operations in the same
proportions whatever the seed.  Checks run after the timed rounds, with
tracing off, against the references in `reference.py` or against
properties the method must have.
"""

import contextlib
import io
import json
import math
import os
import random
import statistics
import sys
import time
import traceback

import numpy as np
from scipy.stats import chi2

import reference
import speed

import noma_harq.cli as cli
import noma_harq.markov as markov
import noma_harq.montecarlo as montecarlo
import noma_harq.optimizer as optimizer
from noma_harq.fbl import CodeParams
from noma_harq.sic import SystemConfig

# absolute accuracy the program states for its stationary solve
ABS_TOL = 1e-10
# family-wise false-alarm rate of the statistical checks in one run
FAMILY_ALPHA = 1e-4

# the paper's N=3, R=1/4, n=100 optimum rows: ratios, P0 dB, worst PER
PUBLISHED_ROWS = [
    ((0.29, 0.35, 0.36), -2.02, 7.5e-3),
    ((0.29, 0.35, 0.36), -0.77, 1.0e-3),
    ((0.28, 0.34, 0.38), -0.07, 1.0e-4),
    ((0.27, 0.34, 0.39), 0.69, 8.85e-6),
]


def db_to_linear(db):
    return 10.0 ** (db / 10.0)


def csv_floats(values):
    return ",".join(repr(float(v)) for v in values)


class Round:
    """What one round did: operations, failures, units of work, outputs.

    Its time is cut into stretches at operation boundaries (`split`); each
    stretch is also scaled to the reference speed (speed.py).
    """

    def __init__(self, on_sample=None):
        self.on_sample = on_sample      # receives the seconds each speed sample took
        self.attempted = 0
        self.failed = 0
        self.work = 0
        self.wall_s = 0.0
        self.scaled_s = 0.0
        self.outputs = []
        self.failures = []
        self.counters = {}
        self._speed = speed.sample()
        self._t0 = time.perf_counter()

    def count(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def fail(self, what, why):
        """Count a failed operation and keep why it failed."""
        self.failed += 1
        self.failures.append(f"{what}: {why}")
        if isinstance(why, BaseException):
            traceback.print_exception(why, file=sys.stderr)

    def split(self):
        """Close the current stretch; the speed sample is not timed."""
        stretch = time.perf_counter() - self._t0
        now = speed.sample()
        if self.on_sample is not None:
            self.on_sample(time.perf_counter() - self._t0 - stretch)
        self.wall_s += stretch
        self.scaled_s += speed.scaled(stretch, self._speed, now)
        self._speed = now
        self._t0 = time.perf_counter()

    def split_if_due(self, every_s=0.25):
        if time.perf_counter() - self._t0 >= every_s:
            self.split()


class Workload:
    """Base: subclasses build inputs in __init__ and fill a Round per call."""

    name = ""

    def __init__(self, seed, scratch):
        self.scratch = scratch
        self.rng = random.Random(f"{self.name}:{seed}")

    def warm_up(self):
        raise NotImplementedError

    def run_round(self, index, on_sample=None):
        """One round; on_sample(seconds) hears of every speed sample."""
        raise NotImplementedError

    def check(self, rounds):
        """Returns a list of failed checks (empty when all pass)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# coordinated-analysis
# ---------------------------------------------------------------------------

# N users -> (rate, blocklength, base ratios, SNR grid in dB); ranges keep
# every user's stage error rate below 1, so every chain has a unique
# stationary vector, while PERs run from ~0.5 to far below 1e-20
ANALYSIS_SWEEPS = {
    2: (0.5, 100, (0.4, 0.6), [-2.0 + 2 * i for i in range(9)]),
    3: (0.25, 100, (0.27, 0.32, 0.41), [-2.0 + 2 * i for i in range(9)]),
    4: (0.25, 100, (1, 2, 3, 4), [-2.0, 2.0, 6.0, 10.0, 14.0]),
    5: (0.25, 100, (1, 2, 3, 4, 5), [2.0, 6.0, 10.0, 14.0]),
    6: (0.25, 100, (1, 2, 3, 4, 5, 6), [6.0, 10.0, 14.0]),
    7: (0.25, 100, (1, 2, 3, 4, 5, 6, 7), [10.0, 14.0]),
    8: (0.25, 100, (1, 2, 3, 4, 5, 6, 7, 8), [14.0]),
}


def analysis_inputs(seed):
    """Per N: (rate, n, ratios, grid).  The seed scales each base ratio by
    a factor in [0.95, 1.05] and shifts the N's grid by up to 0.5 dB."""
    rng = random.Random(f"coordinated-analysis:{seed}")
    out = {}
    for n_users, (rate, n, base, grid) in ANALYSIS_SWEEPS.items():
        raw = [b * rng.uniform(0.95, 1.05) for b in base]
        alphas = sorted(v / math.fsum(raw) for v in raw)
        shift = rng.uniform(-0.5, 0.5)
        out[n_users] = (rate, n, tuple(alphas), [g + shift for g in grid])
    return out


class CoordinatedAnalysis(Workload):
    name = "coordinated-analysis"

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.sweeps = analysis_inputs(seed)
        rate, n, alphas, grid = self.sweeps[3]
        self.emit_point = (rate, n, alphas, grid[2])

    @staticmethod
    def _code_args(rate, n):
        return ["--rate", repr(rate), "--blocklength", str(n), "--format", "json"]

    def commands(self):
        """(argv, analyses of work, files written, check) for one round;
        check(results, files) returns the failed checks of one output."""
        cmds = []
        for n_users, (rate, n, alphas, grid) in self.sweeps.items():
            argv = ["sweep", "--alphas", csv_floats(alphas),
                    "--snr-db=" + csv_floats(grid), "--oma"] + self._code_args(rate, n)
            # every grid point needs the N-user chain and its OMA baseline
            cmds.append((argv, 2 * len(grid), {},
                         lambda rows, files, n_users=n_users: self._check_sweep(n_users, rows)))
        for row in PUBLISHED_ROWS:
            argv = ["analyze", "--alphas", csv_floats(row[0]),
                    f"--snr-db={row[1]!r}"] + self._code_args(0.25, 100)
            cmds.append((argv, 1, {},
                         lambda rows, files, row=row: self._check_published(row, rows)))
        rate, n, alphas, db = self.emit_point
        files = {"matrix": os.path.join(self.scratch, "matrix.csv"),
                 "states": os.path.join(self.scratch, "states.csv")}
        argv = ["analyze", "--alphas", csv_floats(alphas), f"--snr-db={db!r}",
                "--emit-matrix", files["matrix"], "--state-table", files["states"]
                ] + self._code_args(rate, n)
        cmds.append((argv, 1, files, self._check_emitted))
        return cmds

    def _cli(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def warm_up(self):
        self._cli(["analyze", "--alphas", "0.4,0.6", "--snr-db=2"]
                  + self._code_args(0.5, 100))

    def run_round(self, index, on_sample=None):
        rnd = Round(on_sample)
        for argv, work, files, check in self.commands():
            rnd.attempted += 1
            try:
                code, text = self._cli(argv)
            except Exception as exc:  # a crash is a failed operation
                code, text = exc, ""
            rnd.split()
            if code != 0:
                rnd.fail(" ".join(argv[:2]), code if isinstance(code, Exception)
                         else f"exit code {code}")
                continue
            rnd.work += work
            written = {}
            for key, path in files.items():
                with open(path) as fh:
                    written[key] = fh.read()
            rnd.count("cli.output_bytes",
                      len(text.encode()) + sum(len(t.encode()) for t in written.values()))
            rnd.outputs.append((json.loads(text)["results"], written, check))
        return rnd

    # -- checks ---------------------------------------------------------

    def check(self, rounds):
        errors = []
        first = [(rows, files) for rows, files, _ in rounds[0].outputs]
        for rnd in rounds[1:]:
            if [(rows, files) for rows, files, _ in rnd.outputs] != first:
                errors.append("a later round's output differs from the first round's")
        for rows, files, check in rounds[0].outputs:
            errors += check(rows, files)
        return errors

    def _check_published(self, row, rows):
        alphas, db, published = row
        worst = max(r["per"] for r in rows)
        errors = self._check_exact(rows, alphas, db, 25, 100, "analyze")
        if not published / 3 <= worst <= published * 3:
            errors.append(f"published row {alphas} @ {db} dB: worst PER "
                          f"{worst:.3e} not within 3x of {published:.3e}")
        return errors

    def _check_sweep(self, n_users, rows):
        errors = []
        coord = [r for r in rows if r["scenario"] == "coordinated"]
        oma = [r for r in rows if r["scenario"] == "oma"]
        rate, n, alphas, grid = self.sweeps[n_users]
        k = round(rate * n)
        for r in rows:
            if not (0.0 <= r["per"] <= 1.0 and 0.0 <= r["p_s"] <= 1.0):
                errors.append(f"N={n_users} {r['snr_db']} dB: PER or p_s outside [0, 1]")
        for r in coord:
            eta = r["R"] * (1.0 - r["per"]) / (2.0 - r["p_s"])
            if abs(eta - r["eta"]) > 1e-12 * max(eta, 1e-300):
                errors.append(f"N={n_users} {r['snr_db']} dB user {r['user']}: "
                              f"eta {r['eta']!r} != R(1-e)/(2-p_s) = {eta!r}")
        points = sorted({r["snr_db"] for r in coord})
        if points != sorted(grid) or len(coord) != n_users * len(grid) \
                or len(oma) != n_users * len(grid):
            return errors + [f"N={n_users}: sweep rows do not cover the grid"]
        for db in points:
            c_rows = [r for r in coord if r["snr_db"] == db]
            if n_users <= 3:
                errors += self._check_exact(c_rows, alphas, db, k, n, "sweep")
            t_noma = statistics.fmean(2.0 - r["p_s"] for r in c_rows)
            _, e, p_s, eta = reference.oma_reference(db_to_linear(db), t_noma,
                                                     n_users, k, n)
            for r in (r for r in oma if r["snr_db"] == db):
                for field, want in (("per", e), ("p_s", p_s), ("eta", eta)):
                    if abs(r[field] - float(want)) > ABS_TOL:
                        errors.append(f"N={n_users} {db} dB OMA user {r['user']}: "
                                      f"{field} {r[field]!r} vs closed form {float(want)!r}")
        errors += self._check_residual(n_users, alphas, max(points), k, n,
                                       [r for r in coord if r["snr_db"] == max(points)])
        return errors

    @staticmethod
    def _check_exact(rows, alphas, db, k, n, what):
        chain = reference.exact_chain(alphas, db_to_linear(db), k, n)
        errors = []
        for r in rows:
            i = r["user"] - 1
            for field, want in (("per", chain.per[i]), ("p_s", chain.p_s[i]),
                                ("eta", chain.eta[i])):
                if abs(r[field] - float(want)) > ABS_TOL:
                    errors.append(f"{what} N={len(alphas)} {db} dB user {i + 1}: "
                                  f"{field} {r[field]!r} vs exact {float(want)!r}")
        return errors

    @staticmethod
    def _check_residual(n_users, alphas, db, k, n, rows):
        """Stationary residual of the program's own matrix and vector, and
        the reported PER/p_s recomputed from them by the benchmark."""
        cfg = SystemConfig(alphas=alphas, p0=db_to_linear(db), code=CodeParams(k=k, n=n))
        tm = markov.build_transition_matrix(cfg)
        p = markov.stationary_distribution(tm).probs
        pm = tm.matrix
        residual = float(np.abs(pm.T @ p - p).max())
        errors = []
        if residual > ABS_TOL:
            errors.append(f"N={n_users} {db} dB: stationary residual {residual:.3e}")
        if abs(p.sum() - 1.0) > ABS_TOL:
            errors.append(f"N={n_users} {db} dB: stationary mass {p.sum()!r}")
        for r in rows:
            i = r["user"] - 1
            d = (np.arange(len(p)) // 3**i) % 3       # user i's phase per state
            to_f = pm[:, d == reference.F].sum(axis=1)
            to_s = pm[:, d == reference.S].sum(axis=1)
            per = p[d == reference.F].sum() + p[d == reference.R] @ to_f[d == reference.R]
            p_s = p[d != reference.R] @ to_s[d != reference.R]
            for field, want in (("per", per), ("p_s", p_s)):
                if abs(r[field] - want) > 1e-12:
                    errors.append(f"N={n_users} {db} dB user {i + 1}: {field} "
                                  f"{r[field]!r} vs {want!r} from the stationary vector")
        return errors

    def _check_emitted(self, rows, written):
        rate, n, alphas, db = self.emit_point
        chain = reference.exact_chain(alphas, db_to_linear(db), round(rate * n), n)
        errors = self._check_exact(rows, alphas, db, round(rate * n), n,
                                   "analyze --emit-matrix")
        lines = written["matrix"].strip().splitlines()[1:]
        pm = np.array([[float(v) for v in line.split(",")] for line in lines])
        if pm.shape != (27, 27) or np.abs(pm.sum(axis=1) - 1.0).max() > 1e-12 \
                or np.abs(pm - chain.matrix_float()).max() > 1e-12:
            errors.append("emitted transition matrix differs from the exact chain")
        states = [line.split(",") for line in written["states"].strip().splitlines()[1:]]
        probs = np.array([float(s[2]) for s in states])
        if len(states) != 27 or np.abs(probs - chain.probs_float()).max() > ABS_TOL:
            errors.append("emitted state table differs from the exact stationary vector")
        phases = ["".join("SRF"[(i // 3**u) % 3] for u in range(3)) for i in range(27)]
        if [s[1] for s in states] != phases:
            errors.append("emitted state table labels the states wrongly")
        return errors


# ---------------------------------------------------------------------------
# power-optimization
# ---------------------------------------------------------------------------

PAPER_OPTIMUM = (0.29, 0.35, 0.36)
N5_BLOCKLENGTH = 228       # inside the paper's 223 +- 15 window for N=5
N5_RATIOS = (0.16, 0.18, 0.2, 0.22, 0.24)


class PowerOptimization(Workload):
    name = "power-optimization"

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.ga_seeds = [self.rng.randrange(1, 2**31) for _ in range(3)]

    def warm_up(self):
        optimizer.optimize_power_split(
            3, -2.02, CodeParams(k=25, n=100),
            optimizer.GaParams(population_size=4, generations=1, seed=1))
        markov.max_user_per(np.array(N5_RATIOS), 1.0, CodeParams(k=50, n=N5_BLOCKLENGTH))

    def run_round(self, index, on_sample=None):
        rnd = Round(on_sample)
        s1, s2, s3 = self.ga_seeds
        ops = [
            ("min_blocklength", 32, lambda tr: optimizer.min_blocklength(
                50, 0.0, 3, 1e-2,
                optimizer.GaParams(population_size=32, generations=40, seed=s1),
                trace=tr)),
            ("optimize_power_split N=3", 60, lambda tr: optimizer.optimize_power_split(
                3, -2.02, CodeParams(k=25, n=100),
                optimizer.GaParams(population_size=60, generations=100, seed=s2),
                trace=tr)),
            ("optimize_power_split N=5", 32, lambda tr: optimizer.optimize_power_split(
                5, 0.0, CodeParams(k=50, n=N5_BLOCKLENGTH),
                optimizer.GaParams(population_size=32, generations=20, seed=s3),
                trace=tr)),
        ]
        for label, pop, op in ops:
            generations = {}

            def trace(context, generation, best):
                generations[context] = generations.get(context, 0) + 1
                rnd.split_if_due()

            rnd.attempted += 1
            try:
                result = op(trace)
            except Exception as exc:  # a crash is a failed operation
                rnd.fail(label, exc)
                continue
            finally:
                rnd.split()
            # each GA evaluates its population once, then once per generation
            evals = sum(pop * (g + 1) for g in generations.values())
            rnd.work += evals
            rnd.count("optimizer.evals", evals)
            if label == "min_blocklength":
                rnd.count("optimizer.blocklengths_tried", len(generations))
            rnd.outputs.append((label, result))
        return rnd

    def check(self, rounds):
        errors = []
        for rnd in rounds:
            out = dict(rnd.outputs)      # a failed GA run has no entry
            if "min_blocklength" in out:
                n_min, alphas = out["min_blocklength"]
                if not 120 <= n_min <= 140:
                    errors.append(f"min_blocklength {n_min} outside the paper's 130 +- 10")
                worst = self._worst(alphas, 0.0, 50, n_min)
                if worst > 1e-2:
                    errors.append(f"min_blocklength ratios give worst PER {worst:.3e} > 1e-2")
            if "optimize_power_split N=3" in out:
                alphas, value = out["optimize_power_split N=3"]
                if any(abs(a - b) > 0.05 for a, b in zip(sorted(alphas), PAPER_OPTIMUM)) \
                        or value > 1.5e-2:
                    errors.append(f"N=3 optimum {np.round(np.sort(alphas), 3)} worst PER "
                                  f"{value:.3e} misses the paper's {PAPER_OPTIMUM}")
                errors += self._value_matches(alphas, value, -2.02, 25, 100, "N=3")
            if "optimize_power_split N=5" in out:
                alphas, value = out["optimize_power_split N=5"]
                if value > 1e-2:
                    errors.append(f"N=5 at n={N5_BLOCKLENGTH}: worst PER {value:.3e} > 1e-2")
                errors += self._value_matches(alphas, value, 0.0, 50, N5_BLOCKLENGTH, "N=5")
        return errors

    @staticmethod
    def _worst(alphas, db, k, n):
        cfg = SystemConfig(alphas=tuple(alphas), p0=db_to_linear(db), code=CodeParams(k=k, n=n))
        return max(m.per for m in markov.analyze(cfg))

    def _value_matches(self, alphas, value, db, k, n, label):
        worst = self._worst(alphas, db, k, n)
        if abs(worst - value) > 1e-9 * worst:
            return [f"{label}: reported worst PER {value!r} != analyze {worst!r}"]
        return []


# ---------------------------------------------------------------------------
# simulations
# ---------------------------------------------------------------------------

def chain_reference(alphas, p0, code):
    """(matrix, stationary vector, per-user PER, per-user p_s) of a cluster:
    the exact mpmath chain up to 3 users, the program's analysis above."""
    if len(alphas) <= 3:
        chain = reference.exact_chain(alphas, p0, code.k, code.n)
        return (chain.matrix_float(), chain.probs_float(),
                [float(e) for e in chain.per], [float(q) for q in chain.p_s])
    cfg = SystemConfig(alphas=tuple(alphas), p0=p0, code=code)
    tm = markov.build_transition_matrix(cfg)
    metrics = markov.analyze(cfg)
    return (tm.matrix, markov.stationary_distribution(tm).probs,
            [m.per for m in metrics], [m.success_prob for m in metrics])


class Family:
    """Statistical checks of one run, Bonferroni-corrected to FAMILY_ALPHA."""

    def __init__(self):
        self.z = []        # (label, z)
        self.p = []        # (label, p-value)

    def z_test(self, label, observed, mean, var, samples):
        se = math.sqrt(max(var, 0.0) / samples)
        if se == 0.0:
            self.z.append((label, 0.0 if observed == mean else math.inf))
        else:
            self.z.append((label, (observed - mean) / se))

    def binomial(self, label, observed, p, samples):
        self.z_test(label, observed, p, p * (1.0 - p), samples)

    def chi_square(self, label, visits, probs):
        obs = np.asarray(visits, dtype=float)
        exp = np.asarray(probs, dtype=float) * obs.sum()
        keep = exp >= 5.0
        o = list(obs[keep]) + [obs[~keep].sum()]
        e = list(exp[keep]) + [exp[~keep].sum()]
        if e[-1] < 5.0:        # fold a thin pool into the smallest kept cell
            j = int(np.argmin(e[:-1]))
            o[j] += o.pop()
            e[j] += e.pop()
        stat = float(sum((a - b) ** 2 / b for a, b in zip(o, e)))
        self.p.append((label, float(chi2.sf(stat, len(o) - 1))))

    def failures(self):
        m = max(1, len(self.z) + len(self.p))
        alpha = FAMILY_ALPHA / m
        z_limit = statistics.NormalDist().inv_cdf(1.0 - alpha / 2.0)
        bad = [f"{label}: |z| = {abs(z):.2f} > {z_limit:.2f}"
               for label, z in self.z if not abs(z) <= z_limit]
        bad += [f"{label}: chi-square p = {p:.2e} < {alpha:.2e}"
                for label, p in self.p if p < alpha]
        return bad


def simulate(rnd, key, run):
    """One simulator call as an operation of the round; key[2] is its SimConfig."""
    rnd.attempted += 1
    try:
        result = run()
    except Exception as exc:  # a crash is a failed operation
        rnd.split()
        rnd.fail(f"{key[0]} {key[1]} seed {key[2].seed}", exc)
        return
    rnd.split()
    rnd.work += key[2].slots
    rnd.count("montecarlo.slots", key[2].slots)
    rnd.outputs.append((key, result))


CAP_FACTOR = 1e3          # SimConfig's default channel-inversion cap
CODE_R25 = CodeParams(k=25, n=100)
CODE_R50 = CodeParams(k=50, n=100)
ROW1_DB = -2.02

# N users -> (ratios, P0 dB) at R = 1/4, n = 100; every user's PER lies
# between 3e-3 and 0.2, so a million slots see thousands of errors
COORDINATED_SYSTEMS = {
    2: ((0.5, 0.5), -4.0),
    3: ((0.29, 0.35, 0.36), -2.02),
    4: ((0.2, 0.24, 0.27, 0.29), -2.02),
}
# each N runs CALLS independent simulations of SLOTS slots; calls of
# ~0.3 s keep the time stretches short enough to scale (speed.py)
COORDINATED_CALLS = 5
COORDINATED_SLOTS = 200_000
COORDINATED_WARMUP = 2000
OMA_SLOTS = 1_000_000


def grouped(outputs):
    """Simulator outputs of a round, grouped by (kind, case)."""
    groups = {}
    for (kind, case, cfg), res in outputs:
        groups.setdefault((kind, case), []).append((cfg, res))
    return groups


class CoordinatedSimulation(Workload):
    name = "coordinated-simulation"

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.base_seed = self.rng.randrange(1, 2**31)
        self._refs = {}

    @staticmethod
    def _system(n_users):
        alphas, db = COORDINATED_SYSTEMS[n_users]
        return SystemConfig(alphas=alphas, p0=db_to_linear(db), code=CODE_R25)

    def warm_up(self):
        system = self._system(2)
        montecarlo.simulate_coordinated(
            montecarlo.SimConfig(system=system, slots=2000, seed=1, warmup=100))
        montecarlo.simulate_oma_baseline(
            montecarlo.SimConfig(system=system, slots=2000, seed=1))

    def run_round(self, index, on_sample=None):
        rnd = Round(on_sample)
        for n_users in COORDINATED_SYSTEMS:
            for call in range(COORDINATED_CALLS):
                cfg = montecarlo.SimConfig(
                    system=self._system(n_users), slots=COORDINATED_SLOTS,
                    warmup=COORDINATED_WARMUP,
                    seed=self.base_seed + 100 * index + 10 * n_users + call)
                simulate(rnd, ("coordinated", n_users, cfg),
                         lambda: montecarlo.simulate_coordinated(cfg))
        cfg = montecarlo.SimConfig(system=self._system(3), slots=OMA_SLOTS,
                                   seed=self.base_seed + 100 * index)
        simulate(rnd, ("oma", 3, cfg), lambda: montecarlo.simulate_oma_baseline(cfg))
        return rnd

    def _reference(self, n_users):
        if n_users not in self._refs:
            system = self._system(n_users)
            self._refs[n_users] = chain_reference(system.alphas, system.p0, system.code)
        return self._refs[n_users]

    def check(self, rounds):
        """Pools the calls of each N in a round: one z-score per user and
        quantity, one chi-square visit test, one cap test per user."""
        family = Family()
        errors = []
        cap_p = reference.cap_probability(CAP_FACTOR)
        for index, rnd in enumerate(rounds):
            for (kind, n_users), runs in grouped(rnd.outputs).items():
                tag = f"round {index} {kind} N={n_users}"
                if kind == "coordinated":
                    errors += self._check_coordinated(family, tag, n_users, runs)
                    draws = sum(cfg.slots for cfg, _ in runs)
                else:
                    errors += self._check_oma(family, tag, n_users, runs)
                    draws = sum(self._oma_own_slots(n_users, cfg) for cfg, _ in runs)
                for u in range(n_users):
                    capped = sum(res.cap_fraction[u] * cfg.slots for cfg, res in runs)
                    family.binomial(f"{tag} user {u + 1} cap_fraction",
                                    capped / sum(cfg.slots for cfg, _ in runs), cap_p, draws)
        return errors + family.failures()

    def _check_coordinated(self, family, tag, n_users, runs):
        pm, probs, _, _ = self._reference(n_users)
        errors = []
        for cfg, res in runs:
            if res.slots_counted != cfg.slots - cfg.warmup:
                errors.append(f"{tag} seed {cfg.seed}: slots_counted "
                              f"{res.slots_counted} != {cfg.slots - cfg.warmup}")
        total = sum(res.slots_counted for _, res in runs)
        for u in range(n_users):
            for label, field, f in (
                    ("PER", "per", reference.per_functional(n_users, u)),
                    ("p_s", "success_prob", reference.success_functional(n_users, u))):
                observed = sum(getattr(res, field)[u] * res.slots_counted
                               for _, res in runs) / total
                mean, var = reference.asymptotic_variance(pm, probs, f)
                family.z_test(f"{tag} user {u + 1} {label}", observed, mean, var, total)
        visits = sum(res.state_visits_thinned for _, res in runs)
        family.chi_square(f"{tag} thinned state visits", visits, probs)
        return errors

    @staticmethod
    def _oma_eps(system):
        p_oma = markov.oma_received_power(system)
        k, n = system.code.k, system.code.n
        return (float(reference.per_normal_approx(p_oma, k, n)),
                float(reference.per_normal_approx(2 * p_oma, k, n)))

    def _oma_own_slots(self, n_users, cfg):
        """Expected own slots per user: rounds times (1 + first-try error)."""
        eps1, _ = self._oma_eps(cfg.system)
        return max(2, cfg.slots // n_users) * (1.0 + eps1)

    def _check_oma(self, family, tag, n_users, runs):
        errors = []
        for cfg, res in runs:
            eps1, eps2 = self._oma_eps(cfg.system)
            pm = np.array([[1 - eps1, eps1, 0.0], [1 - eps2, 0.0, eps2],
                           [1 - eps1, eps1, 0.0]])
            probs = np.array([1.0, eps1, eps1 * eps2]) / (1.0 + eps1)
            e, q = reference.single_user(eps1, eps2)
            expected = markov.oma_metrics(cfg.system)
            if abs(expected[0].per - e) > ABS_TOL or \
                    abs(expected[0].success_prob - q) > ABS_TOL:
                errors.append(f"{tag}: oma_metrics differs from the closed-form chain")
            samples = self._oma_own_slots(n_users, cfg) - 1
            for u in range(n_users):
                for label, observed, want, f in (
                        ("PER", res.per[u], expected[u].per, reference.per_functional(1, 0)),
                        ("p_s", res.success_prob[u], expected[u].success_prob,
                         reference.success_functional(1, 0))):
                    _, var = reference.asymptotic_variance(pm, probs, f)
                    family.z_test(f"{tag} user {u + 1} {label}", observed, want, var, samples)
        return errors


# (n_actual, n_hat) cases; the plans are the paper's R = 1/2 ratio sets
UNCOORDINATED_CASES = [(3, 3), (5, 5), (5, 3), (3, 5)]
UNCOORDINATED_PLANS = {3: (0.27, 0.32, 0.41), 5: (0.11, 0.15, 0.2, 0.24, 0.3)}
UNCOORDINATED_DB = 3.5
# each case runs CALLS simulations of EPISODES episodes (50 in all); calls
# of at most ~0.3 s keep the time stretches short enough to scale (speed.py)
UNCOORDINATED_CALLS = 25
UNCOORDINATED_EPISODES = 2
UNCOORDINATED_EPISODE_SLOTS = 2200
UNCOORDINATED_WARMUP = 200


class UncoordinatedSimulation(Workload):
    name = "uncoordinated-simulation"

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.base_seed = self.rng.randrange(1, 2**31)
        self._coord = {}

    @staticmethod
    def _config(n_actual, n_hat, slots, episodes, seed, warmup):
        system = SystemConfig(alphas=UNCOORDINATED_PLANS[n_hat],
                              p0=db_to_linear(UNCOORDINATED_DB), code=CODE_R50)
        return montecarlo.SimConfig(system=system, slots=slots, seed=seed,
                                    scenario="uncoordinated", n_actual=n_actual,
                                    n_hat=n_hat, warmup=warmup, episodes=episodes)

    def warm_up(self):
        montecarlo.simulate_uncoordinated(self._config(3, 3, 300, 1, 1, 100))

    def run_round(self, index, on_sample=None):
        rnd = Round(on_sample)
        for case_index, (n_actual, n_hat) in enumerate(UNCOORDINATED_CASES):
            for call in range(UNCOORDINATED_CALLS):
                seed = self.base_seed + 1000 * index + 100 * case_index + call
                cfg = self._config(n_actual, n_hat,
                                   UNCOORDINATED_EPISODES * UNCOORDINATED_EPISODE_SLOTS,
                                   UNCOORDINATED_EPISODES, seed, UNCOORDINATED_WARMUP)
                simulate(rnd, ("uncoordinated", (n_actual, n_hat), cfg),
                         lambda: montecarlo.simulate_uncoordinated(cfg))
        return rnd

    def _coordinated_per(self, n_hat):
        if n_hat not in self._coord:
            _, _, per, _ = chain_reference(UNCOORDINATED_PLANS[n_hat],
                                           db_to_linear(UNCOORDINATED_DB), CODE_R50)
            self._coord[n_hat] = statistics.fmean(per)
        return self._coord[n_hat]

    def check(self, rounds):
        """Pools the calls of each case in a round."""
        family = Family()
        errors = []
        cap_p = reference.cap_probability(CAP_FACTOR)
        for index, rnd in enumerate(rounds):
            avg = {}
            for (_, case), runs in grouped(rnd.outputs).items():
                tag = f"round {index} (n_actual, n_hat) = {case}"
                for cfg, res in runs:
                    ep_slots = cfg.slots // cfg.episodes
                    want = cfg.episodes * (ep_slots - cfg.warmup)
                    if res.slots_counted != want:
                        errors.append(f"{tag} seed {cfg.seed}: slots_counted "
                                      f"{res.slots_counted} != {want}")
                    if not (np.all((0 <= res.per) & (res.per <= 1))
                            and np.all((0 <= res.success_prob) & (res.success_prob <= 1))):
                        errors.append(f"{tag} seed {cfg.seed}: PER or p_s outside [0, 1]")
                # fading is drawn for every user in every slot, warmup included
                draws = sum(cfg.episodes * (cfg.slots // cfg.episodes) for cfg, _ in runs)
                for u in range(case[0]):
                    capped = sum(res.cap_fraction[u] * cfg.episodes * (cfg.slots // cfg.episodes)
                                 for cfg, res in runs)
                    family.binomial(f"{tag} user {u + 1} cap_fraction",
                                    capped / draws, cap_p, draws)
                counted = sum(res.slots_counted for _, res in runs)
                per = sum(res.avg_per * res.slots_counted for _, res in runs) / counted
                # below one event the estimate reads 0; clamp for the log band
                avg[case] = max(per, 1.0 / counted)
            for n in (3, 5):
                if (n, n) in avg and avg[(n, n)] < self._coordinated_per(n):
                    errors.append(f"round {index}: uncoordinated ({n},{n}) average PER "
                                  f"{avg[(n, n)]:.3e} below the coordinated "
                                  f"{self._coordinated_per(n):.3e}")
            if (3, 3) in avg and (5, 5) in avg:
                lo = min(avg[(3, 3)], avg[(5, 5)]) / 10.0
                hi = max(avg[(3, 3)], avg[(5, 5)]) * 10.0
                for case in ((5, 3), (3, 5)):
                    if case in avg and not lo <= avg[case] <= hi:
                        errors.append(f"round {index}: mismatched {case} average PER "
                                      f"{avg[case]:.3e} outside [{lo:.3e}, {hi:.3e}]")
        return errors + family.failures()


WORKLOADS = {w.name: w for w in (CoordinatedAnalysis, PowerOptimization,
                                 CoordinatedSimulation, UncoordinatedSimulation)}


# ---------------------------------------------------------------------------
# layer probes of the traced run
# ---------------------------------------------------------------------------

def _median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def markov_probes(seed):
    """Time the public markov functions per user count.

    Assembly, stationary solve and full analysis use the coordinated-analysis
    configuration at the highest SNR of each N, and max_user_per the two GA
    configurations, the same on every workload so the figures compare.
    """
    out = {}
    for n_users, (rate, n, alphas, grid) in analysis_inputs(seed).items():
        cfg = SystemConfig(alphas=alphas, p0=db_to_linear(max(grid)),
                           code=CodeParams(k=round(rate * n), n=n))
        repeats = 1 if n_users >= 8 else 3 if n_users == 7 else 7
        tm = markov.build_transition_matrix(cfg)
        out[f"markov.assemble_s.N{n_users}"] = _median_time(
            lambda: markov.build_transition_matrix(cfg), repeats)
        out[f"markov.solve_s.N{n_users}"] = _median_time(
            lambda: markov.stationary_distribution(tm), repeats)
        del tm
        out[f"markov.analyze_s.N{n_users}"] = _median_time(
            lambda: markov.analyze(cfg), repeats)
    ratios3 = np.array(PAPER_OPTIMUM)
    out["markov.max_user_per_s.N3"] = _median_time(
        lambda: markov.max_user_per(ratios3, db_to_linear(ROW1_DB), CODE_R25), 51)
    ratios5 = np.array(N5_RATIOS)
    out["markov.max_user_per_s.N5"] = _median_time(
        lambda: markov.max_user_per(ratios5, 1.0, CodeParams(k=50, n=N5_BLOCKLENGTH)), 21)
    return out
