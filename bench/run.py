"""Benchmark of the noma_harq package: one command, four workloads.

    python3 bench/run.py --workload coordinated-analysis --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed.  Each run is three kinds of process:

- this process, which uses the standard library only; it times set-up in
  fresh interpreters, starts the workload process and prints the result;
- set-up probes: fresh interpreters that import `noma_harq` and make the
  workload's first calls, timed (the `setup_s` median);
- the workload process: set-up, then whole rounds of the workload until
  `--seconds` have passed, then the correctness checks.  With `--trace 1`
  it also runs one round with every module function wrapped (layertrace.py)
  and times the markov layer per user count.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Result and trace files go to bench/out/.  Exits 2 without a result when
the package source is missing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
WORKLOAD_NAMES = ("coordinated-analysis", "power-optimization",
                  "coordinated-simulation", "uncoordinated-simulation")
SETUP_PROBES = 4          # extra fresh set-ups per run, besides the workload's own
RUN_LIMIT_S = 170.0
# the dense solves run single-threaded: with two OpenBLAS threads, solves of
# 128 to 243 unknowns stall for ~0.1 s at random, which swamps the GA
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NOMA_HARQ_THREADS": "1"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "work"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def child_env():
    env = dict(os.environ, **THREAD_ENV, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, BENCH, os.environ.get("PYTHONPATH")) if p)
    return env


def run_child(args, role, timeout):
    cmd = [sys.executable, os.path.abspath(__file__), "--child", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                          timeout=timeout, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    return json.loads(lines[-1])


def orchestrate(args):
    if not os.path.isfile(os.path.join(SRC, "noma_harq", "__init__.py")):
        print(f"error: no package source at {SRC}/noma_harq", file=sys.stderr)
        return 2
    start = time.monotonic()
    os.makedirs(OUT, exist_ok=True)
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(run_child(args, "setup", 60)["setup_s"])
    work = run_child(args, "work", RUN_LIMIT_S - (time.monotonic() - start))
    setups.append(work["setup_s"])
    values = dict(work["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise RuntimeError(f"workload process did not report {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    result = {"correct": work["correct"], "attempted": work["attempted"],
              "failed": work["failed"], "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_samples_s": setups,
              "rounds": work["rounds"], "failures": work["failures"],
              "errors": work["errors"], "result": result}
    name = f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1)
    for line in work["errors"]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def set_up(workload_name, seed, scratch):
    """Import the package and make the workload's first calls; returns
    (workload, seconds taken)."""
    import speed

    before = speed.sample()
    t0 = time.perf_counter()
    import noma_harq  # noqa: F401  (the import is what set-up times)
    import noma_harq.cli  # noqa: F401
    if not os.path.abspath(noma_harq.__file__).startswith(SRC + os.sep):
        raise ImportError(f"noma_harq imported from {noma_harq.__file__}, not {SRC}")
    import workloads
    workload = workloads.WORKLOADS[workload_name](seed, scratch)
    workload.warm_up()
    seconds = time.perf_counter() - t0
    return workload, speed.scaled(seconds, before, speed.sample())


def child_setup(args):
    with ScratchDir() as scratch:
        _, seconds = set_up(args.workload, args.seed, scratch)
    print(json.dumps({"setup_s": seconds}))


class ScratchDir:
    """A per-process directory under bench/out for files the CLI writes."""

    def __enter__(self):
        self.path = os.path.join(OUT, f"tmp-{os.getpid()}")
        os.makedirs(self.path, exist_ok=True)
        return self.path

    def __exit__(self, *exc):
        for name in os.listdir(self.path):
            os.remove(os.path.join(self.path, name))
        os.rmdir(self.path)


def child_work(args):
    import resource

    with ScratchDir() as scratch:
        workload, setup_s = set_up(args.workload, args.seed, scratch)
        rounds = []
        t0 = time.perf_counter()
        while not rounds or time.perf_counter() - t0 < args.seconds:
            rounds.append(workload.run_round(len(rounds)))
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            metrics = traced_metrics(args, workload, rounds)
        else:
            metrics = {
                "wall_s": statistics.median(r.scaled_s for r in rounds),
                "peak_rss_mib": peak_rss_mib,
                "work_per_s": sum(r.work for r in rounds) / sum(r.scaled_s for r in rounds),
            }
        errors = workload.check(rounds)
    out = {
        "setup_s": setup_s,
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "errors": errors,
        "failures": [f for r in rounds for f in r.failures],
        "rounds": [{"wall_s": r.wall_s, "scaled_s": r.scaled_s, "work": r.work}
                   for r in rounds],
        "metrics": metrics,
    }
    print(json.dumps(out))


def traced_metrics(args, workload, rounds):
    """Run one more round with every module function wrapped, then the
    markov layer probes; returns the per-layer metrics."""
    import importlib

    import layertrace
    import workloads

    modules = {name: importlib.import_module(f"noma_harq.{name}")
               for name in layertrace.LAYERS}
    untraced_wall = statistics.median(r.wall_s for r in rounds)
    untraced_scaled = statistics.median(r.scaled_s for r in rounds)
    tracer = layertrace.Tracer(modules).install()
    try:
        rnd = workload.run_round(len(rounds), on_sample=tracer.exclude)
    finally:
        tracer.uninstall()
    rounds.append(rnd)

    metrics = {}
    for key in ("fbl.per_cc", "fbl.per_cc_batch", "sic.decoding_order",
                "cellplan.locate_segment", "markov.max_user_per"):
        metrics[f"{key}.calls"] = tracer.calls(key)
        metrics[f"{key}.self_s"] = tracer.self_s(key)
    metrics["fbl.per_cc_batch.sinrs"] = tracer.extra("fbl.per_cc_batch", "sinrs")
    metrics["markov.analyze.calls"] = tracer.calls("markov.analyze")
    metrics["markov.oma_received_power.calls"] = tracer.calls("markov.oma_received_power")
    metrics["montecarlo.table_builds"] = tracer.calls("montecarlo._decode_tables")
    metrics["cli.commands"] = tracer.calls("cli.main")
    for name in ("optimizer.evals", "optimizer.blocklengths_tried",
                 "montecarlo.slots", "cli.output_bytes"):
        metrics[name] = rnd.counters.get(name, 0)
    layer_total = 0.0
    for layer in layertrace.LAYERS:
        metrics[f"{layer}.self_s"] = tracer.layer_self_s(layer)
        layer_total += metrics[f"{layer}.self_s"]
    metrics["bench.self_s"] = rnd.wall_s - tracer.top_span_s
    metrics["trace.wall_s"] = rnd.wall_s
    metrics["trace.untraced_wall_s"] = untraced_wall
    # speed-scaled, so that the host's speed swings between the two rounds
    # do not read as tracing cost
    metrics["trace.overhead_s"] = rnd.scaled_s - untraced_scaled
    metrics["trace.unaccounted_s"] = untraced_wall - layer_total
    metrics.update(workloads.markov_probes(args.seed))

    name = f"trace-{args.workload}-s{args.seed}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "metrics": metrics, "functions": tracer.dump()}, fh, indent=1)
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if args.child == "setup":
        child_setup(args)
        return 0
    if args.child == "work":
        child_work(args)
        return 0
    try:
        return orchestrate(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
