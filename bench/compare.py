"""Compare two sets of benchmark results, workload by workload.

    python3 bench/compare.py BASE_DIR NEW_DIR

Each directory holds the result-*.json files that bench/run.py writes to
bench/out/ (untraced runs only are read).  For every workload and every
end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles and a verdict against the metric's bound:

  worse       the new median is worse than the base median by more than the bound
  better      the new median is better by more than the base's quartile spread
  same        neither
  unresolved  a side's quartile spread, as a share of its median, exceeds the
              bound, and not every new run beats every base run
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """workload -> metric -> values, from the untraced result files."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "result-*.json"))):
        with open(path) as fh:
            record = json.load(fh)
        if record["trace"]:
            continue
        metrics = out.setdefault(record["workload"], {})
        for name, m in record["result"]["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, new, better, bound):
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (nm - bm) / bm
    if max((b3 - b1) / bm, (n3 - n1) / nm) > bound:
        beats = all(sign * (n - b) < 0 for n in new for b in base)
        return "better (every run)" if beats else "unresolved"
    if worse_by > bound:
        return "worse"
    if -sign * (nm - bm) > (b3 - b1):
        return "better"
    return "same"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    base, new = load(argv[0]), load(argv[1])
    print(f"{'workload':26s} {'metric':14s} {'base median [q1, q3]':40s} "
          f"{'new median [q1, q3]':40s} {'change':>8s}  verdict")
    for workload in sorted(set(base) | set(new)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = base.get(workload, {}).get(name)
            n = new.get(workload, {}).get(name)
            if not b or not n:
                print(f"{workload:26s} {name:14s} missing on one side")
                continue
            cells = []
            for values in (b, n):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}")
            change = (quartiles(n)[1] - quartiles(b)[1]) / quartiles(b)[1]
            print(f"{workload:26s} {name:14s} {cells[0]:40s} {cells[1]:40s} "
                  f"{change:+8.1%}  {verdict(b, n, metric['better'], metric['bound'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
