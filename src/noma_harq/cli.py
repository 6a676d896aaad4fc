"""Command-line front end: configuration, dispatch, CSV/JSON emission.

The library modules work in linear scale, except that the optimizer's
optimize_power_split, pareto_front and min_blocklength take their power
in dB and convert it themselves; every other dB <-> linear conversion
happens here.  Every emission carries a reproducibility
header (tool version, command, resolved parameters) that can be fed
back through --config to reproduce the run; each command offers only
the options it reads, and every one it reads lands in that header.

Exit codes: 0 success, 2 usage error, 3 numerical or infeasibility error.
The sweep command analyses an SNR grid and simulate simulates one; each
runs its grid points in order in one process, once every point has
validated.
"""

import argparse
import csv
import io
import json
import math
import sys
from typing import List, Optional, Sequence

from . import __version__
from .cellplan import CELL_RADIUS, build_plan
from .errors import NomaHarqError
from .fbl import CodeParams
from .markov import MAX_USERS, _state_digits, analyze, build_transition_matrix, \
    oma_metrics, stationary_distribution
from .montecarlo import SimConfig, SimResult, simulate_coordinated, \
    simulate_oma_baseline, simulate_uncoordinated
from .optimizer import GaParams, min_blocklength, pareto_front
from .sic import Phase, SystemConfig

SCHEMA_VERSION = 1

SIM_FIELDS = [
    "scenario", "N", "n_hat", "snr_db", "R", "n", "user", "per",
    "per_stderr", "p_s", "eta", "mean_tx_power", "cap_fraction", "seed",
]


class UsageError(NomaHarqError):
    """Invalid command-line or config-file input."""


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _parse_alphas(value) -> tuple:
    if isinstance(value, (list, tuple)):
        return tuple(float(v) for v in value)
    try:
        return tuple(float(v) for v in str(value).split(",") if v.strip())
    except ValueError as exc:
        raise UsageError(f"cannot parse power ratios from {value!r}") from exc


def _parse_grid(value) -> List[float]:
    """SNR grids: a comma list '0,1,2' or a range 'start:stop:count'."""
    text = str(value)
    try:
        if isinstance(value, (list, tuple)):
            grid = [float(v) for v in value]
        elif ":" in text:
            start, stop, count = text.split(":")
            count = int(count)
            if count < 1:
                raise ValueError
            if count == 1:
                if float(stop) != float(start):
                    raise UsageError(f"SNR grid {value!r} has one point but "
                                     "stop differs from start")
                return [float(start)]
            step = (float(stop) - float(start)) / (count - 1)
            return [float(start) + step * i for i in range(count)]
        else:
            grid = [float(v) for v in text.split(",") if v.strip()]
    except (TypeError, ValueError) as exc:
        raise UsageError(f"cannot parse SNR grid from {value!r}") from exc
    if not grid:
        raise UsageError(f"SNR grid {value!r} holds no value")
    return grid


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if isinstance(data, dict) and "meta" in data and isinstance(data["meta"], dict):
        data = data["meta"].get("config", data)
    if not isinstance(data, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    return data


class Resolver:
    """Flag values override config-file values override defaults."""

    def __init__(self, args: argparse.Namespace, config: dict):
        self.args = vars(args)
        self.config = config
        self.resolved: dict = {}

    def get(self, key: str, default=None, required: bool = False, cast=None):
        value = self.args.get(key)
        if value is None:
            value = self.config.get(key, default)
        if value is None and required:
            raise UsageError(f"missing required parameter --{key.replace('_', '-')}")
        if value is not None and cast is not None:
            try:
                value = cast(value)
            except (TypeError, ValueError) as exc:
                raise UsageError(f"cannot read --{key.replace('_', '-')} "
                                 f"from {value!r}") from exc
        self.resolved[key] = value
        return value


def _check_users(n_users: int) -> None:
    """Reject an empty or too large cluster before any work starts."""
    if n_users < 1:
        raise UsageError(f"{n_users} users: a cluster needs at least one")
    if n_users > MAX_USERS:
        raise UsageError(f"{n_users} users exceeds the {MAX_USERS}-user cap")


def _code_params(res: Resolver) -> CodeParams:
    rate = res.get("rate", required=True, cast=float)
    n = res.get("blocklength", required=True, cast=int)
    k = round(rate * n)
    if abs(rate * n - k) > 1e-9 * abs(rate * n):
        raise UsageError(f"rate {rate} at blocklength {n} gives {rate * n!r} "
                         "information bits, not an integer")
    if k < 1:
        raise UsageError(f"rate {rate} at blocklength {n} leaves no information bits")
    return CodeParams(k=k, n=n)


def _system_config(res: Resolver) -> SystemConfig:
    alphas = _parse_alphas(res.get("alphas", required=True))
    snr_db = res.get("snr_db", required=True, cast=float)
    code = _code_params(res)
    try:
        return SystemConfig(alphas=alphas, p0=db_to_linear(snr_db), code=code)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _grid_systems(res: Resolver):
    """The SNR grid and the cluster of each of its points, every one
    checked before any point runs."""
    alphas = _parse_alphas(res.get("alphas", required=True))
    grid = _parse_grid(res.get("snr_db", required=True))
    code = _code_params(res)
    _check_users(len(alphas))
    try:
        return grid, [SystemConfig(alphas=alphas, p0=db_to_linear(snr), code=code)
                      for snr in grid]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _ga_trace(res: Resolver):
    if not res.get("verbose", False):
        return None

    def trace(label, generation, best):
        print(f"# {label} generation {generation}: best {best:.4e}",
              file=sys.stderr)

    return trace


def _ga_params(res: Resolver) -> GaParams:
    try:
        return GaParams(
            population_size=res.get("population", 60, cast=int),
            generations=res.get("generations", 200, cast=int),
            seed=res.get("seed", 12345, cast=int),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def _meta(command: str, res: Resolver) -> dict:
    return {
        "tool": "noma-harq",
        "version": __version__,
        "schema": SCHEMA_VERSION,
        "command": command,
        "config": res.resolved,
    }


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ";".join(_format_cell(v) for v in value)
    return str(value)


def emit(records: List[dict], fields: List[str], meta: dict,
         out: Optional[str], fmt: str) -> None:
    if fmt == "json":
        text = json.dumps({"meta": meta, "results": records}, indent=2)
    elif fmt == "csv":
        buf = io.StringIO()
        for key in ("tool", "version", "schema", "command"):
            buf.write(f"# {key}={meta[key]}\n")
        buf.write(f"# config={json.dumps(meta['config'])}\n")
        writer = csv.writer(buf)
        writer.writerow(fields)
        for rec in records:
            writer.writerow([_format_cell(rec.get(f, "")) for f in fields])
        text = buf.getvalue().rstrip("\n")
    else:
        raise UsageError(f"unknown format {fmt!r}")
    _write(text, out)


def _write(text: str, out: Optional[str]) -> None:
    """Print text, or write it to the file out when one is given."""
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _sim_rows(sim: SimResult, snr_db: float, code: CodeParams) -> List[dict]:
    """SIM_FIELDS rows of a simulation, one per user."""
    return [dict(zip(SIM_FIELDS, (
        sim.scenario, sim.n_users, sim.n_hat, snr_db, code.rate, code.n, u + 1,
        float(sim.per[u]), float(sim.per_stderr[u]), float(sim.success_prob[u]),
        float(sim.throughput[u]), float(sim.mean_tx_power[u]),
        float(sim.cap_fraction[u]), sim.seed,
    ))) for u in range(sim.n_users)]


def _analysis_rows(scenario: str, metrics, snr_db: float,
                   code: CodeParams) -> List[dict]:
    """SIM_FIELDS rows of analytic metrics: no standard error, no transmit
    power, no seed."""
    n = len(metrics)
    return [dict(zip(SIM_FIELDS, (
        scenario, n, n, snr_db, code.rate, code.n, m.user + 1, m.per, 0.0,
        m.success_prob, m.throughput, math.nan, 0.0, None,
    ))) for m in metrics]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_analyze(args: argparse.Namespace) -> int:
    res = Resolver(args, _load_config(args.config))
    cfg = _system_config(res)
    _check_users(cfg.n_users)
    fmt = res.get("format", "csv")
    out = res.get("out")
    emit_matrix = res.get("emit_matrix")
    state_table = res.get("state_table")

    metrics = analyze(cfg)
    snr_db = res.resolved["snr_db"]
    records = [
        {
            "user": m.user + 1,
            "per": m.per,
            "p_s": m.success_prob,
            "eta": m.throughput,
            "p0_db": snr_db,
            "R": cfg.code.rate,
            "n": cfg.code.n,
            "N": cfg.n_users,
            "alphas": list(cfg.alphas),
        }
        for m in metrics
    ]
    fields = ["user", "per", "p_s", "eta", "p0_db", "R", "n", "N", "alphas"]

    tm = build_transition_matrix(cfg) if emit_matrix or state_table else None
    if emit_matrix:
        with open(emit_matrix, "w") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"s{j}" for j in range(tm.dim)])
            for row in tm.matrix:
                writer.writerow([repr(float(v)) for v in row])
    if state_table:
        stat = stationary_distribution(tm)
        with open(state_table, "w") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "phases", "probability"])
            digits = _state_digits(cfg.n_users)
            for idx, prob in enumerate(stat.probs):
                phases = "".join(Phase(d).name for d in digits[idx])
                writer.writerow([idx, phases, repr(float(prob))])

    emit(records, fields, _meta("analyze", res), out, fmt)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    res = Resolver(args, _load_config(args.config))
    scenario = res.config.get("scenario", "coordinated")
    if scenario != "coordinated":
        raise UsageError(f"sweep analyses a coordinated cluster, not scenario "
                         f"{scenario!r}: simulate runs uncoordinated grids")
    grid, systems = _grid_systems(res)
    oma = bool(res.get("oma", False))
    rows = []
    for snr, system in zip(grid, systems):
        metrics = analyze(system)
        rows += _analysis_rows("coordinated", metrics, snr, system.code)
        if oma:
            rows += _analysis_rows("oma", oma_metrics(system, metrics), snr,
                                   system.code)
    emit(rows, SIM_FIELDS, _meta("sweep", res), res.get("out"),
         res.get("format", "csv"))
    return 0


def cmd_optimize_pareto(args: argparse.Namespace) -> int:
    res = Resolver(args, _load_config(args.config))
    n_users = res.get("users", required=True, cast=int)
    _check_users(n_users)
    code = _code_params(res)
    grid = _parse_grid(res.get("snr_db", required=True))
    params = _ga_params(res)
    front = pareto_front(n_users, code, grid, params, trace=_ga_trace(res))
    fields = ["p0_db", "max_per"] + [f"alpha_{i+1}" for i in range(n_users)]
    records = []
    for pt in front:
        rec = {"p0_db": pt.p0_db, "max_per": pt.max_per}
        for i, a in enumerate(sorted(pt.alphas)):
            rec[f"alpha_{i+1}"] = a
        records.append(rec)
    emit(records, fields, _meta("optimize-pareto", res), res.get("out"),
         res.get("format", "csv"))
    return 0


def cmd_min_blocklength(args: argparse.Namespace) -> int:
    res = Resolver(args, _load_config(args.config))
    n_users = res.get("users", required=True, cast=int)
    _check_users(n_users)
    k = res.get("bits", required=True, cast=int)
    snr_db = res.get("snr_db", required=True, cast=float)
    target = res.get("target_per", required=True, cast=float)
    cap = res.get("max_n", 4096, cast=int)
    params = _ga_params(res)
    try:
        # the search checks the target and k before it starts
        n_min, alphas = min_blocklength(
            k, snr_db, n_users, target, params, n_cap=cap, trace=_ga_trace(res),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    fields = ["n_min", "k", "snr_db", "target_per", "users"] + [
        f"alpha_{i+1}" for i in range(n_users)
    ]
    rec = {"n_min": n_min, "k": k, "snr_db": snr_db, "target_per": target,
           "users": n_users}
    for i, a in enumerate(sorted(alphas)):
        rec[f"alpha_{i+1}"] = a
    emit([rec], fields, _meta("min-blocklength", res), res.get("out"),
         res.get("format", "csv"))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    res = Resolver(args, _load_config(args.config))
    grid, systems = _grid_systems(res)
    scenario = res.get("scenario", "coordinated")
    users = res.get("users", systems[0].n_users, cast=int)
    _check_users(users)
    oma = bool(res.get("oma", False))
    seed = res.get("seed", 1, cast=int)
    slots = res.get("slots", 1_000_000, cast=int)
    warmup = res.get("warmup", 1000, cast=int)
    episodes = res.get("episodes", 50 if scenario == "uncoordinated" else 1,
                       cast=int)
    try:
        configs = [SimConfig(system=system, slots=slots, seed=seed + idx,
                             scenario=scenario, n_actual=users, warmup=warmup,
                             episodes=episodes)
                   for idx, system in enumerate(systems)]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    run = simulate_uncoordinated if scenario == "uncoordinated" else \
        simulate_coordinated
    rows = []
    for snr, cfg in zip(grid, configs):
        rows += _sim_rows(run(cfg), snr, cfg.system.code)
        if oma:
            # one episode of the same slots: valid whenever cfg is
            rows += _sim_rows(simulate_oma_baseline(SimConfig(
                system=cfg.system, slots=slots, seed=cfg.seed, warmup=warmup,
            )), snr, cfg.system.code)
    emit(rows, SIM_FIELDS, _meta("simulate", res), res.get("out"),
         res.get("format", "csv"))
    return 0


def cmd_cellplan(args: argparse.Namespace) -> int:
    res = Resolver(args, _load_config(args.config))
    alphas = _parse_alphas(res.get("alphas", required=True))
    r_outer = res.get("r_outer", CELL_RADIUS, cast=float)
    rotation = res.get("rotation", 0, cast=int)
    out = res.get("out")
    if not alphas:
        raise UsageError("a plan needs at least one ratio")
    try:
        plan = build_plan(r_outer, alphas, rotation=rotation)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _write(json.dumps({"meta": _meta("cellplan", res), "plan": plan.to_dict()},
                      indent=2), out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser, fmt: bool = True) -> None:
    sub.add_argument("--config", help="JSON file of parameters; flags override")
    sub.add_argument("--out", help="output path (default stdout)")
    if fmt:
        sub.add_argument("--format", choices=["csv", "json"], help="output format")


def _add_code(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--rate", type=float, help="code rate R = k/n")
    sub.add_argument("--blocklength", type=int, help="codeword length n")


def _add_grid(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alphas")
    sub.add_argument("--snr-db", dest="snr_db",
                     help="grid: 'a,b,c' or 'start:stop:count'")
    _add_code(sub)
    sub.add_argument("--oma", action="store_const", const=True,
                     help="add the matched-power orthogonal baseline")


def _add_ga(sub: argparse.ArgumentParser) -> None:
    for flag in ("--population", "--generations"):
        sub.add_argument(flag, type=int)
    sub.add_argument("--verbose", action="store_const", const=True,
                     help="log the best value per generation to stderr")
    sub.add_argument("--seed", type=int, help="GA seed (default 12345)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noma-harq",
        description="Uplink NOMA with one Chase-combining retransmission: "
                    "analysis, power optimization, cell planning, simulation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="per-user PER/throughput from the chain")
    p.add_argument("--alphas", help="comma list of power splitting ratios")
    p.add_argument("--snr-db", dest="snr_db", help="total received power in dB")
    _add_code(p)
    p.add_argument("--emit-matrix", dest="emit_matrix",
                   help="also write the transition matrix CSV here")
    p.add_argument("--state-table", dest="state_table",
                   help="also write the stationary state table CSV here")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("sweep", help="PER/throughput vs SNR grid (analysis)")
    _add_grid(p)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("optimize-pareto", help="power-vs-PER front via the GA")
    p.add_argument("--users", type=int)
    p.add_argument("--snr-db", dest="snr_db", help="P0 grid in dB")
    _add_code(p)
    _add_ga(p)
    _add_common(p)
    p.set_defaults(func=cmd_optimize_pareto)

    p = subs.add_parser("min-blocklength",
                        help="smallest n meeting a PER target at a given SNR")
    p.add_argument("--users", type=int)
    p.add_argument("--bits", type=int, help="information bits k")
    p.add_argument("--snr-db", dest="snr_db")
    p.add_argument("--target-per", dest="target_per", type=float)
    p.add_argument("--max-n", dest="max_n", type=int, help="search cap (default 4096)")
    _add_ga(p)
    _add_common(p)
    p.set_defaults(func=cmd_min_blocklength)

    p = subs.add_parser("simulate",
                        help="PER/throughput vs SNR grid (slot-level simulation)")
    _add_grid(p)
    p.add_argument("--scenario", choices=["coordinated", "uncoordinated"])
    p.add_argument("--users", type=int, help="placed users (default: ratio count)")
    for flag in ("--slots", "--episodes", "--warmup"):
        p.add_argument(flag, type=int)
    p.add_argument("--seed", type=int,
                   help="master seed; grid point i runs with seed + i (default 1)")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("cellplan", help="equal-area segment plan as JSON")
    p.add_argument("--alphas", help="comma list of the plan's ratios, one per "
                                    "ring and sector")
    p.add_argument("--r-outer", dest="r_outer", type=float)
    p.add_argument("--rotation", type=int)
    _add_common(p, fmt=False)
    p.set_defaults(func=cmd_cellplan)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NomaHarqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
