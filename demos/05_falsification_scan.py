"""Seeded falsification scan, driven through the library.

Models are drawn with convex ln f* on random subintervals of [0, 3].
With ln f* kept nonnegative the strict bounds are provably sound and a
scan finds nothing.  Allowing ln f* to dip below zero produces honest
strict-mode violations; every trial carries a 64-bit seed, so any hit
can be rerun bit-identically on its own.

The `mulcalc scan` subcommand is the same loop with jsonl/csv output.
"""

from mulcalc import (GeneratorParams, Interval, Probe, random_star_convex,
                     run_checks)
from mulcalc.cli import trial_seed

import numpy as np


def trial(seed, nonneg):
    """The interval and every bound report of one trial, from its seed."""
    iv_ss, model_ss = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(iv_ss)
    a = rng.uniform(0.0, 2.5)
    iv = Interval(a, a + rng.uniform(0.25, min(2.0, 3.0 - a)))
    model_seed = int(model_ss.generate_state(1, np.uint64)[0])
    model = random_star_convex(GeneratorParams(seed=model_seed, nonneg_star=nonneg), iv)
    return iv, run_checks(Probe(model, iv), check_hypothesis=False)


def run(master_seed, trials, nonneg):
    hits = []
    for i in range(trials):
        seed = trial_seed(master_seed, i)
        iv, reps = trial(seed, nonneg)
        hits.extend((seed, iv, rep) for rep in reps if not rep.holds)
    return hits


print("200 trials, ln f* >= 0 enforced:")
hits = run(master_seed=42, trials=200, nonneg=True)
print("  strict violations:", len(hits))

print("\n200 trials, ln f* allowed negative:")
hits = run(master_seed=7, trials=200, nonneg=False)
print("  strict violations:", len(hits))
for seed, iv, rep in hits[:3]:
    print("  seed=%d %s %s margin=%.6f" % (seed, iv, rep.name, rep.margin))

if hits:
    # replay the first hit standalone from its seed alone
    seed, iv, rep = hits[0]
    iv2, reps = trial(seed, nonneg=False)
    rep2 = next(r for r in reps if r.name == rep.name)
    print("\nreplay of seed %d:" % seed)
    print("  interval identical:", (iv2.a, iv2.b) == (iv.a, iv.b))
    print("  %s margin identical: %s (%.6f)"
          % (rep.name, rep2.margin == rep.margin, rep2.margin))
