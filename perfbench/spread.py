"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workloads scan,verify,identity --seeds 501-510 [--trace 0|1]

For every workload: one line per run, then per metric the median, the
quartiles (statistics.quantiles, n=4), the spread (interquartile range
÷ median) and, for end-to-end metrics, the bound from BENCHMARK.json.
Run lengths come from BENCHMARK.json.  This regenerates the reference
figures in README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="scan,verify,identity")
    ap.add_argument("--seeds", type=seed_list, default=seed_list("501-510"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                                   "--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", str(args.trace)],
                                  cwd=ROOT, capture_output=True, text=True, timeout=400)
            res = json.loads(proc.stdout.splitlines()[-1])
            print("%s seed %d: correct=%s attempted=%d failed=%d %s"
                  % (workload, seed, res["correct"], res["attempted"], res["failed"],
                     " ".join("%s=%.4g" % (k, v["value"]) for k, v in res["metrics"].items())),
                  flush=True)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = " bound %.2f" % bounds[name] if name in bounds else ""
            print("%s %-38s median %.4g  quartiles %.4g..%.4g  spread %.3f%s"
                  % (workload, name, med, q1, q3, spread, bound), flush=True)


if __name__ == "__main__":
    main()
