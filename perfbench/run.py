"""mulcalc benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload scan|verify|identity --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; mulcalc is imported from src/.
The workload runs in a child process (perfbench/worker.py) with one
thread and one closed-loop client; this process then checks every output
against mpmath (perfbench/oracle.py) and prints, as its last line,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
and the tracing overhead; spans go to perfbench/out/.  See README.md.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
# Timings are scaled to a machine on which the worker's reference kernel
# takes this long (about this 2-vCPU VM's usual speed).  The kernel's
# speed tracks the host's varying speed, so scaled figures compare commits
# measured at different moments; the raw figures go to standard error.
REFERENCE_KERNEL_NS = 1.25e6
# a latency sample is scaled by the median kernel time of the rounds
# within this many rounds of its own
LOCAL_ROUNDS = 5
SCAN_MEAN_SAMPLES = 32
# p99 is the median of the p99s of this many consecutive slices of the
# run, so one burst of host noise moves at most one slice
P99_SLICES = 5


def child_env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, timeout):
    proc = subprocess.run([sys.executable, WORKER] + [str(a) for a in args], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("worker %s exited with %d" % (args[0], proc.returncode))
    return proc.stdout


def measure_setup(workload, seed):
    """Fresh interpreter to first operation done: (raw, scaled) medians of
    SETUP_REPEATS spawns after one that fills the bytecode cache.  Each
    spawn is scaled by the reference kernel it runs right afterwards."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS + 1):
        t0 = time.monotonic()
        done, kernel_ns = map(float, run_worker(["setup", workload, seed], timeout=60).split())
        raw.append(done - t0)
        scaled.append((done - t0) * REFERENCE_KERNEL_NS / kernel_ns)
    return statistics.median(raw[1:]), statistics.median(scaled[1:])


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, -(-q * len(ordered) // 100) - 1))
    return ordered[k]


def sliced_p99(samples):
    n = len(samples)
    slices = [samples[i * n // P99_SLICES:(i + 1) * n // P99_SLICES] for i in range(P99_SLICES)]
    return statistics.median(percentile(s, 99) for s in slices if s)


def local_speeds(kernel_ns):
    """Machine speed around each round, relative to the reference."""
    return [REFERENCE_KERNEL_NS
            / statistics.median(kernel_ns[max(0, r - LOCAL_ROUNDS):r + LOCAL_ROUNDS + 1])
            for r in range(len(kernel_ns))]


def check_outputs(workload, seed, lines):
    """Returns (attempted, failed, unexpected problems, summary)."""
    summary = json.loads(lines[-1])["summary"]
    recs = [json.loads(line) for line in lines[:-1]]
    ops_cache = {}

    def op_of(rnd, idx):
        if rnd not in ops_cache:
            ops_cache[rnd] = workloads.round_ops(workload, seed, rnd)
        return ops_cache[rnd][idx]

    attempted = failed = 0
    unexpected = []
    first_lines = {}
    # scan: one trial in each of SCAN_MEAN_SAMPLES commands gets an mpmath mean
    commands = sum("round" in r for r in recs)
    rng = random.Random("sample:%d" % seed)
    sample = {k: {rng.randrange(workloads.SCAN_TRIALS_PER_ROUND)}
              for k in rng.sample(range(commands), min(SCAN_MEAN_SAMPLES, commands))}
    command = -1
    for rec in recs:
        if "replay_round" in rec:
            original = first_lines.get(rec["replay_round"])
            if rec["rc"] != 0 or rec["line"] != original:
                unexpected.append("replay of round %d: %r != %r"
                                  % (rec["replay_round"], rec["line"], original))
            continue
        command += 1
        op = op_of(rec["round"], rec["index"])
        n_ops = workloads.ops_per_command(workload)
        attempted += n_ops
        if workload == "scan":
            bad, records = oracle.check_scan(op, rec["rc"], rec["out"], n_ops,
                                             sample.get(command, ()))
            first_lines[rec["round"]] = records.get(0)
        else:
            bad = oracle.check_op(workload, op, rec["rc"], rec["out"])
        if bad:
            failed += n_ops
            if op["fault"] is None:
                unexpected.append("round %d op %d %s: %s" % (rec["round"], rec["index"],
                                                              " ".join(op["argv"]), "; ".join(bad)))
    return attempted, failed, unexpected, summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mulcalc", "__init__.py")):
        sys.stderr.write("no mulcalc sources under %s\n" % os.path.join(ROOT, "src"))
        return 2

    metrics = {}
    if args.trace == 0:
        setup_raw, setup_s = measure_setup(args.workload, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, "trace-%s-seed%d.csv" % (args.workload, args.seed))
    out = run_worker(["measure", args.workload, args.seed, args.seconds, args.trace, spans_path],
                     timeout=2 * args.seconds + 120)
    attempted, failed, unexpected, summary = check_outputs(args.workload, args.seed,
                                                           out.splitlines())

    if args.trace == 0:
        kernel_ns = summary["kernel_ns"]
        speed = REFERENCE_KERNEL_NS * len(kernel_ns) / sum(kernel_ns)
        lat = [x for per_round in summary["latency_ns"] for x in per_round]
        scaled = [x * s for per_round, s in zip(summary["latency_ns"], local_speeds(kernel_ns))
                  for x in per_round]
        raw = {"ops_per_s": summary["ops"] / summary["elapsed_s"],
               "latency_ms_p50": statistics.median(lat) / 1e6,
               "latency_ms_p99": sliced_p99(lat) / 1e6}
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        metrics["ops_per_s"] = {"value": raw["ops_per_s"] / speed, "unit": "ops/s"}
        metrics["latency_ms_p50"] = {"value": statistics.median(scaled) / 1e6, "unit": "ms"}
        metrics["latency_ms_p99"] = {"value": sliced_p99(scaled) / 1e6, "unit": "ms"}
        metrics["peak_rss_mb"] = {"value": summary["peak_rss_kb"] / 1024.0, "unit": "MB"}
        per_slice = len(lat) // P99_SLICES
        sys.stderr.write("%s: %d ops in %.2f s, %d latency samples, %d per p99 slice%s\n"
                         % (args.workload, summary["ops"], summary["elapsed_s"], len(lat),
                            per_slice,
                            "" if per_slice >= 1000 else " (fewer than 1000: p99 is a thin tail)"))
        sys.stderr.write("machine speed %.3f of reference; raw: setup_s %.4f ops_per_s %.2f "
                         "latency_ms_p50 %.4f latency_ms_p99 %.4f\n"
                         % (speed, setup_raw, raw["ops_per_s"], raw["latency_ms_p50"],
                            raw["latency_ms_p99"]))
    else:
        speed = REFERENCE_KERNEL_NS / summary["traced_kernel_ns"]
        for name, (value, unit) in summary["per_layer"].items():
            metrics[name] = {"value": value * speed if unit == "ms/op" else value, "unit": unit}
        # both halves scaled to the reference speed, as ops_per_s is
        overhead = (summary["untraced_ops_per_s"] * summary["untraced_kernel_ns"]
                    / (summary["traced_ops_per_s"] * summary["traced_kernel_ns"])) - 1.0
        metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
        sys.stderr.write("%s: untraced %.1f ops/s, traced %.1f ops/s, spans in %s\n"
                         % (args.workload, summary["untraced_ops_per_s"],
                            summary["traced_ops_per_s"], os.path.relpath(spans_path, ROOT)))
    for msg in unexpected[:20]:
        sys.stderr.write("WRONG OUTPUT: %s\n" % msg)
    result = {"correct": attempted > 0 and not unexpected, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
