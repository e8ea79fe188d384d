"""Short smoke run of the benchmark: every workload, traced and untraced,
with its checks, plus a test that the checks reject altered outputs.

    python3 perfbench/smoke.py

Exits 0 when all pass.  Takes about 20 seconds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402
from worker import Sink, import_mulcalc, run_command  # noqa: E402


def bench_result(workload, trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def check_runs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    per_round = {w: len(workloads.round_ops(w, 0, 0)) * workloads.ops_per_command(w)
                 for w in workloads.WORKLOADS}
    faults = {"verify": len(workloads.FAULT_OPS)}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            res = bench_result(workload, trace)
            assert res["correct"] is True, (workload, trace, res)
            assert res["attempted"] % per_round[workload] == 0, (workload, res["attempted"])
            rounds = res["attempted"] // per_round[workload]
            assert res["failed"] == rounds * faults.get(workload, 0), (workload, res["failed"])
            assert set(res["metrics"]) == names[trace], (workload, trace, set(res["metrics"]))
            print("ok %-8s trace=%d attempted=%d failed=%d"
                  % (workload, trace, res["attempted"], res["failed"]))


def check_oracle_rejects():
    """Outputs of real commands pass; the same outputs with one value
    nudged by 1e-6, or one verdict flipped, are rejected."""
    cli = import_mulcalc()
    for workload in ("verify", "identity"):
        for op in workloads.round_ops(workload, 7, 0):
            if op["fault"] is not None:
                continue
            out = Sink()
            rc, _, _ = run_command(cli, op["argv"], out, Sink())
            text, _ = out.take()
            assert oracle.check_op(workload, op, rc, text) == [], op["argv"]
            first = json.loads(text.splitlines()[0])
            rest = text.splitlines()[1:]
            nudged = dict(first, lhs_log=first["lhs_log"] + 1e-6)
            flipped = dict(first, holds=not first["holds"])
            for altered in (nudged, flipped):
                bad_text = "\n".join([json.dumps(altered)] + rest) + "\n"
                assert oracle.check_op(workload, op, rc, bad_text), (op["argv"], altered)
    print("ok oracle rejects altered outputs")


if __name__ == "__main__":
    check_oracle_rejects()
    check_runs()
