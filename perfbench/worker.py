"""The measured process: runs one workload's commands in process, one
thread, one closed-loop client, and streams every output to stdout.

    python3 perfbench/worker.py setup   WORKLOAD SEED
    python3 perfbench/worker.py measure WORKLOAD SEED SECONDS TRACE SPANS_FILE

`setup` imports mulcalc, runs the workload's first operation and prints
time.monotonic() at that moment, then the mean time of a reference
kernel that gauges the machine's speed.  `measure` runs whole rounds until
SECONDS have passed, each followed by one run of a reference kernel that
gauges the machine's speed, and prints one JSON line per command, then
one summary line.  With TRACE=1 it runs SECONDS/2 untraced, then the same
rounds again for SECONDS/2 with every layer traced, and writes the spans
to SPANS_FILE.

mulcalc is imported from the checkout's src/ directory only; this
process imports no checking code (mpmath), so its peak RSS is the
program's.
"""

import json
import os
import random
import sys
import time
import warnings

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# reference kernel runs after a setup spawn's first operation
SETUP_KERNEL_RUNS = 50


def import_mulcalc():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import mulcalc.cli
    where = os.path.dirname(os.path.abspath(mulcalc.__file__))
    if where != os.path.join(src, "mulcalc"):
        raise SystemExit("mulcalc imported from %s, not from %s" % (where, src))
    return mulcalc.cli


class Sink:
    """Stands in for sys.stdout / sys.stderr: keeps each write and the
    perf_counter_ns() at which it arrived."""

    def __init__(self):
        self.chunks = []
        self.times = []

    def write(self, text):
        self.times.append(time.perf_counter_ns())
        self.chunks.append(text)
        return len(text)

    def flush(self):
        pass

    def take(self):
        text = "".join(self.chunks)
        times = self.times
        self.chunks, self.times = [], []
        return text, times


def run_command(cli, argv, out, err):
    """One command through cli.main with stdout/stderr in memory.
    Returns (exit code or exception text, start ns, end ns)."""
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    t0 = time.perf_counter_ns()
    try:
        rc = cli.main(list(argv))
    except Exception as exc:  # an escaped exception is a failed operation
        rc = "exception: %s: %s" % (type(exc).__name__, exc)
    t1 = time.perf_counter_ns()
    sys.stdout, sys.stderr = saved
    return rc, t0, t1


def reference_kernel():
    """A fixed piece of work that does not touch mulcalc: small numpy
    arrays and Python objects, as in the workloads.  How fast it runs
    during a run measures the machine's speed during that run."""
    x = np.linspace(0.0, 1.0, 640)
    s = 0.0
    for i in range(40):
        s += float(np.sum(np.sin(x * (i % 7)) * x))
        json.dumps({"a": i, "b": [s, i]})
        sorted(range(50), key=lambda k: -k)
    return s


def peak_rss_kb():
    """VmHWM of this process's own address space.  getrusage's ru_maxrss
    would also carry the parent's peak across fork and exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def first_record_seed(text):
    try:
        return json.loads(text.split("\n", 1)[0])["seed"]
    except (ValueError, KeyError, TypeError):
        return None


def run_window(cli, workload, seed, seconds, emit, tracer=None):
    """Whole rounds until `seconds` have passed, with one run of the
    reference kernel after each round.  Returns (ops, seconds spent in
    rounds, latencies in ns as one list per round, reference kernel ns
    after each round, trial seed of each scan round's first record).  For
    scan a latency is the time from one record to the next as the output
    stream receives them (the first from the command's start); for the
    others it is one command."""
    out, err = Sink(), Sink()
    lat = []
    kernel_ns = []
    first_seeds = []
    ops = 0
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds:
        rounds = len(lat)
        lat.append([])
        for idx, op in enumerate(workloads.round_ops(workload, seed, rounds)):
            if tracer is not None:
                tracer.begin_op()
            rc, t0, t1 = run_command(cli, op["argv"], out, err)
            text, times = out.take()
            err_text, _ = err.take()
            if workload == "scan":
                first_seeds.append(first_record_seed(text))
                prev = t0
                for chunk, t in zip(text.splitlines(), times):
                    if not chunk.startswith('{"summary"'):
                        lat[-1].append(t - prev)
                        prev = t
            else:
                lat[-1].append(t1 - t0)
            ops += workloads.ops_per_command(workload)
            emit({"round": rounds, "index": idx, "rc": rc, "out": text, "err": err_text})
        k0 = time.perf_counter_ns()
        reference_kernel()
        kernel_ns.append(time.perf_counter_ns() - k0)
    elapsed = time.perf_counter() - t_start - 1e-9 * sum(kernel_ns)
    return ops, elapsed, lat, kernel_ns, first_seeds


def first_op_argv(workload, seed):
    argv = list(workloads.round_ops(workload, seed, 0)[0]["argv"])
    if workload == "scan":
        argv[argv.index("--trials") + 1] = "1"
    return argv


def main(argv):
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    cli = import_mulcalc()
    # each command warns as it would in a fresh process
    warnings.simplefilter("always")
    real_out = sys.stdout

    if mode == "setup":
        run_command(cli, first_op_argv(workload, seed), Sink(), Sink())
        done = time.monotonic()
        k0 = time.perf_counter_ns()
        for _ in range(SETUP_KERNEL_RUNS):
            reference_kernel()
        real_out.write("%r %r\n" % (done, (time.perf_counter_ns() - k0) / SETUP_KERNEL_RUNS))
        return 0

    seconds, trace, spans_path = float(argv[3]), int(argv[4]), argv[5]

    def emit(rec):
        real_out.write(json.dumps(rec, separators=(",", ":")) + "\n")

    summary = {}
    if trace:
        import tracer as tracer_mod
        ops, elapsed, _, kernel_ns, _ = run_window(cli, workload, seed, seconds / 2.0, emit)
        summary["untraced_ops_per_s"] = ops / elapsed
        summary["untraced_kernel_ns"] = sum(kernel_ns) / len(kernel_ns)
        tr = tracer_mod.Tracer()
        tr.install()
        try:
            ops, elapsed, _, kernel_ns, first_seeds = run_window(cli, workload, seed,
                                                                 seconds / 2.0, emit, tracer=tr)
        finally:
            tr.uninstall()
        summary["traced_ops_per_s"] = ops / elapsed
        summary["traced_kernel_ns"] = sum(kernel_ns) / len(kernel_ns)
        summary["per_layer"] = tr.metrics(ops)
        tr.write(spans_path)
    else:
        ops, elapsed, lat, kernel_ns, first_seeds = run_window(cli, workload, seed, seconds, emit)
        summary["ops"] = ops
        summary["elapsed_s"] = elapsed
        summary["latency_ns"] = lat
        summary["kernel_ns"] = kernel_ns
        summary["peak_rss_kb"] = peak_rss_kb()

    if workload == "scan":
        # replay the first trial of a few rounds; the checker compares bytes
        seeded = [r for r, s in enumerate(first_seeds) if s is not None]
        picks = random.Random("replay:%d" % seed).sample(seeded, min(8, len(seeded)))
        out, err = Sink(), Sink()
        for r in sorted(picks):
            argv = ["scan", "--replay", str(first_seeds[r]), "--mode", "strict",
                    "--nonneg-star", "true", "--n-hinges", "3"]
            rc, _, _ = run_command(cli, argv, out, err)
            text, _ = out.take()
            err.take()
            emit({"replay_round": r, "rc": rc, "line": text.split("\n", 1)[0]})
    real_out.write(json.dumps({"summary": summary}, separators=(",", ":")) + "\n")
    real_out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
