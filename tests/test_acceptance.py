"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured values.  Run with -s to see the report:

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np

from noma_harq.cellplan import build_plan, ring_radii
from noma_harq.fbl import CodeParams
from noma_harq.markov import (
    analyze,
    build_transition_matrix,
    delay_pmf,
    oma_metrics,
    stationary_distribution,
)
from noma_harq.montecarlo import SimConfig, simulate_coordinated, simulate_uncoordinated
from noma_harq.optimizer import GaParams, min_blocklength, optimize_power_split
from noma_harq.sic import Phase, SystemConfig, SystemState
from oracle import chi_square_state_fit, q_function

CODE_R25 = CodeParams(k=25, n=100)
CODE_R50 = CodeParams(k=50, n=100)

# published power-splitting optima for n=100 (ratios, P0 dB, worst PER)
PUBLISHED_OPTIMA_N3_R25 = [
    ((0.29, 0.35, 0.36), -2.02, 7.5e-3),
    ((0.29, 0.35, 0.36), -0.77, 1.0e-3),
    ((0.28, 0.34, 0.38), -0.07, 1.0e-4),
    ((0.27, 0.34, 0.39), 0.69, 8.85e-6),
]
RATIOS_N3_R50 = (0.27, 0.32, 0.41)   # worst-PER target 1e-2 row
RATIOS_N5_R50 = (0.11, 0.15, 0.2, 0.24, 0.3)

ROW1_P0 = 10 ** (-2.02 / 10)


def report(num, text):
    print(f"\nACCEPTANCE {num} PASS: {text}")


def test_criterion_1_oracle_equivalence():
    """Analytical e_i, p_s, eta match the coordinated simulator within 3
    binomial standard errors at 1e6 slots; state-visit frequencies pass a
    chi-square fit at alpha=0.01; N=2 and N=3; under one minute."""
    t0 = time.perf_counter()
    systems = {
        # two-user variant keeps the row-1 code and power; even split puts
        # both users' error rates at an observable level
        2: SystemConfig(alphas=(0.5, 0.5), p0=ROW1_P0, code=CODE_R25),
        3: SystemConfig(alphas=(0.29, 0.35, 0.36), p0=ROW1_P0, code=CODE_R25),
    }
    worst_z = 0.0
    worst_p = 1.0
    for n_users, system in systems.items():
        res = simulate_coordinated(
            SimConfig(system=system, slots=1_000_000, seed=2026, warmup=2000)
        )
        stat = stationary_distribution(build_transition_matrix(system))
        for m in analyze(system):
            i = m.user
            checks = [
                (res.per[i], m.per, res.per_stderr[i]),
                (res.success_prob[i], m.success_prob, res.success_prob_stderr[i]),
                (res.throughput[i], m.throughput, res.throughput_stderr[i]),
            ]
            for observed, expected, se in checks:
                assert se > 0.0
                z = abs(observed - expected) / se
                worst_z = max(worst_z, z)
                assert z <= 3.0
        _, _, pvalue = chi_square_state_fit(res.state_visits_thinned, stat.probs)
        worst_p = min(worst_p, pvalue)
        assert pvalue > 0.01
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(1, f"worst |z| = {worst_z:.2f} (limit 3), worst chi2 p = {worst_p:.3f} "
              f"(limit 0.01), {elapsed:.1f}s")


def test_criterion_2_published_rows_analysis():
    """Each published (ratios, P0) row reproduces its worst PER within a
    factor of 3 through the analysis pipeline."""
    t0 = time.perf_counter()
    ratios = []
    for alphas, p0_db, target in PUBLISHED_OPTIMA_N3_R25:
        cfg = SystemConfig(alphas=alphas, p0=10 ** (p0_db / 10), code=CODE_R25)
        worst = max(m.per for m in analyze(cfg))
        assert target / 3 <= worst <= target * 3
        ratios.append(worst / target)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(2, "worst-PER ratios vs published "
              f"{[f'{r:.2f}' for r in ratios]} all within 3x, {elapsed:.2f}s")


def test_criterion_3_optimization_recovers_published_ratios():
    """The GA at P0 = -2.02 dB, 3 users, R = 1/4 reaches worst PER at most
    1.5e-2 with ratios within 0.05 per component of the published optimum;
    under ten minutes."""
    t0 = time.perf_counter()
    alphas, value = optimize_power_split(
        3, -2.02, CODE_R25, GaParams(population_size=60, generations=200, seed=7)
    )
    ordered = np.sort(alphas)
    assert value <= 1.5e-2
    for got, want in zip(ordered, (0.29, 0.35, 0.36)):
        assert abs(got - want) <= 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(3, f"min worst PER = {value:.3e} (limit 1.5e-2) at alphas = "
              f"{[f'{a:.3f}' for a in ordered]}, {elapsed:.1f}s")


def test_criterion_4_minimum_blocklength_windows():
    """Reliability-constrained blocklengths at k=50, 0 dB land in the
    published windows 130+-10 / 176+-12 / 223+-15 for 3/4/5 users, and the
    answer grows with the user count and with the reliability demand;
    under thirty minutes."""
    t0 = time.perf_counter()
    params = GaParams(population_size=32, generations=40, seed=11)
    windows = {3: (130, 10), 4: (176, 12), 5: (223, 15)}
    found = {}
    for n_users, (center, tol) in windows.items():
        n_min, _ = min_blocklength(50, 0.0, n_users, 1e-2, params)
        assert center - tol <= n_min <= center + tol
        found[n_users] = n_min
    assert found[3] < found[4] < found[5]
    stricter, _ = min_blocklength(50, 0.0, 3, 1e-3, params)
    assert stricter >= found[3]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0
    report(4, f"n_min = {found} (targets 130/176/223), n_min(3 users, 1e-3) = "
              f"{stricter} >= {found[3]}, {elapsed:.0f}s")


def test_criterion_5_structural_invariants():
    """Row stochasticity, stationarity residual, forbidden transitions,
    delay pmf identities, cell-plan geometry, Q-function symmetry."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)

    def random_cfg(n_max=4):
        n = int(rng.integers(1, n_max + 1))
        raw = rng.uniform(0.2, 1.0, size=n)
        return SystemConfig(alphas=tuple(raw / raw.sum()),
                            p0=float(rng.uniform(0.05, 30.0)), code=CODE_R25)

    # rows sum to one within 1e-9 across random configurations
    for _ in range(1000):
        tm = build_transition_matrix(random_cfg())
        assert np.abs(tm.matrix.sum(axis=1) - 1.0).max() <= 1e-9

    # stationary residual within 1e-10
    for _ in range(50):
        tm = build_transition_matrix(random_cfg())
        p = stationary_distribution(tm).probs
        assert np.abs(tm.matrix.T @ p - p).max() <= 1e-10

    # forbidden one-step moves carry zero probability (exhaustive, N<=3)
    for _ in range(5):
        cfg = random_cfg(n_max=3)
        n = cfg.n_users
        tm = build_transition_matrix(cfg)
        for a in range(3**n):
            ja = SystemState.from_index(a, n)
            for b in range(3**n):
                jb = SystemState.from_index(b, n)
                banned = any(
                    (cur is not Phase.R and nxt is Phase.F)
                    or (cur is Phase.R and nxt is Phase.R)
                    for cur, nxt in zip(ja.phases, jb.phases)
                )
                if banned:
                    assert tm.matrix[a, b] == 0.0

    # delay pmf normalization and mean
    pmf = delay_pmf(0.9, 100)
    assert abs(pmf.sum() - 1.0) <= 1e-12
    mean = float(np.dot(100 + np.arange(101), pmf))
    assert abs(mean - 100 * (2 - 0.9)) <= 1e-12 * mean

    # Latin squares and equal-area rings for every plan size up to 8
    for n_hat in range(1, 9):
        plan = build_plan(1500.0, tuple(float(i + 1) for i in range(n_hat)))
        grid = plan.assignment
        for idx in range(n_hat):
            assert set(grid[idx, :]) == set(range(n_hat))
            assert set(grid[:, idx]) == set(range(n_hat))
        radii = (0.0,) + ring_radii(n_hat, 1500.0)
        areas = [math.pi * (b**2 - a**2) for a, b in zip(radii, radii[1:])]
        assert max(abs(a - areas[0]) for a in areas) <= 1e-6 * areas[0]

    # Q-function symmetry
    for x in rng.normal(0.0, 3.0, size=500):
        assert abs(q_function(x) + q_function(-x) - 1.0) <= 1e-12

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(5, f"row sums, residuals, structural zeros, delay pmf, cell plans, "
              f"Q symmetry all hold, {elapsed:.1f}s")


def test_criterion_6_operating_curve_properties():
    """Desk-scale curve properties: the orthogonal baseline beats NOMA on
    PER but loses on throughput in the operating range; coordination costs
    less at the lower rate; the crowded high-rate system shows an error
    floor; under fifteen minutes."""
    t0 = time.perf_counter()

    # (a)+(b): 10-point grid, 3 users, R = 0.5
    grid = np.linspace(0.0, 9.0, 10)
    noma, oma = {}, {}
    for db in grid:
        cfg = SystemConfig(alphas=RATIOS_N3_R50, p0=10 ** (db / 10), code=CODE_R50)
        noma[db] = analyze(cfg)
        oma[db] = oma_metrics(cfg)
    for db in grid:
        assert max(m.per for m in oma[db]) <= min(m.per for m in noma[db])

    # threshold SNR where the worst NOMA PER first reaches 1e-2
    worst = {db: max(m.per for m in noma[db]) for db in grid}
    reached = [db for db in grid if worst[db] <= 1e-2]
    assert reached, "grid never reaches the target error rate"
    threshold = min(reached)
    below = [db for db in grid if db < threshold]
    assert below, "grid has no points below the threshold"
    for db in below:
        assert min(m.throughput for m in noma[db]) > max(m.throughput for m in oma[db])

    # (c): coordination gap shrinks with the code rate
    gaps = {}
    for label, alphas, p0_db, code in [
        ("R=0.25", (0.29, 0.35, 0.36), -2.02, CODE_R25),
        ("R=0.50", RATIOS_N3_R50, 1.85, CODE_R50),
    ]:
        system = SystemConfig(alphas=alphas, p0=10 ** (p0_db / 10), code=code)
        coord = float(np.mean([m.per for m in analyze(system)]))
        sim = simulate_uncoordinated(SimConfig(
            system=system, slots=400_000, seed=1234,
            scenario="uncoordinated", warmup=200, episodes=100,
        ))
        assert sim.avg_per >= coord
        gaps[label] = math.log10(sim.avg_per / coord)
    assert gaps["R=0.25"] < gaps["R=0.50"]

    # (d): error floor for 5 users at R = 0.5; none for 3 users at R = 0.25
    floor_cfg = SystemConfig(alphas=RATIOS_N5_R50, p0=10 ** (14 / 10), code=CODE_R50)
    floor = max(m.per for m in analyze(floor_cfg))
    assert floor > 1e-5
    clean_cfg = SystemConfig(alphas=(0.29, 0.35, 0.36), p0=10 ** (2 / 10),
                             code=CODE_R25)
    clean = max(m.per for m in analyze(clean_cfg))
    assert clean < 1e-4

    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    report(6, f"baseline dominance and throughput advantage below {threshold:.0f} dB; "
              f"coordination gaps {gaps['R=0.25']:.2f} < {gaps['R=0.50']:.2f} decades; "
              f"floor {floor:.1e} > 1e-5 vs {clean:.1e} < 1e-4, {elapsed:.0f}s")


def test_criterion_7_imperfect_load_estimation():
    """Mismatched load estimates stay within one order of magnitude of the
    matched cases across a 5-point SNR grid: the mismatched average PER
    lies inside the band spanned by the two matched curves, widened by a
    decade on each side; under fifteen minutes."""
    t0 = time.perf_counter()
    plans = {3: RATIOS_N3_R50, 5: RATIOS_N5_R50}
    grid = [2.0, 3.5, 5.0, 6.5, 8.0]

    def run(n_actual, n_hat, db):
        system = SystemConfig(alphas=plans[n_hat], p0=10 ** (db / 10), code=CODE_R50)
        sim = simulate_uncoordinated(SimConfig(
            system=system, slots=400_000, seed=777,
            scenario="uncoordinated", n_actual=n_actual, n_hat=n_hat,
            warmup=200, episodes=100,
        ))
        # a zero estimate means "below one event"; clamp for the log scale
        return max(sim.avg_per, 1.0 / sim.slots_counted)

    worst_margin = -math.inf
    for db in grid:
        matched = [run(3, 3, db), run(5, 5, db)]
        lo = math.log10(min(matched)) - 1.0
        hi = math.log10(max(matched)) + 1.0
        for n_actual, n_hat in [(5, 3), (3, 5)]:
            value = math.log10(run(n_actual, n_hat, db))
            assert lo <= value <= hi
            worst_margin = max(worst_margin, max(lo - value, value - hi))
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    report(7, f"all mismatched points within the matched band +-1 decade "
              f"(worst overshoot {worst_margin:+.2f}), {elapsed:.0f}s")
