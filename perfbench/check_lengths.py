#!/usr/bin/env python3
"""Check that the benchmark's deterministic counts do not depend on run length.

    python3 perfbench/check_lengths.py [--workload W ...] [--seed N]
                                       [--short S] [--long L]

Runs each workload's traced (--trace 1) benchmark twice with the same seed,
for S and for L seconds, and requires every deterministic per-job or
per-pass count to be identical between the two runs.  A count summed over
repetitions instead of divided by them (the way a total of cycles over
benchmark iterations grows with the run) fails here.  Exits 1 on any
difference.  Run from the root of a checkout.
"""

import argparse
import json
import subprocess
import sys

# Counts fixed by the workload and seed alone: the traced replay's (one
# replay pass is the unit) and hpcc's (over a fixed block of passes).
REPLAY_COUNTS = [
    "transport.service_calls_per_job",
    "sim.evals_per_cycle",
    "sim.wake_set_mean",
    "sim.commit_set_mean",
    "sim.max_settle_iterations",
    "replay.sim_cycles_per_job",
    "rtm.dispatch_exec_per_job",
    "rtm.stall_lock_per_job",
    "rtm.stall_unit_busy_per_job",
    "rtm.stall_sync_per_job",
    "rtm.arbiter_contention_per_job",
]
DETERMINISTIC = {
    "tenant_mix": REPLAY_COUNTS,
    "algod_churn": REPLAY_COUNTS,
    "hpcc": [
        "hpcc.triad_words_per_cycle",
        "hpcc.ra_cycles_per_update",
        "hpcc.gemm_macs_per_cycle",
        "hpcc.beff_words_per_cycle",
        "hpcc.beff_retries_per_pass",
    ],
}


def measure(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"{workload} ({seconds} s) exited {out.returncode}:\n"
                 f"{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(DETERMINISTIC))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--short", type=float, default=2)
    parser.add_argument("--long", type=float, default=5)
    args = parser.parse_args()
    failures = 0
    for workload in args.workload or ["tenant_mix", "hpcc", "algod_churn"]:
        short = measure(workload, args.seed, args.short)
        long = measure(workload, args.seed, args.long)
        for name in DETERMINISTIC[workload]:
            a = short[name]["value"]
            b = long[name]["value"]
            same = a == b
            failures += not same
            print(f"{'ok  ' if same else 'DIFF'} {workload:12s} {name:34s} "
                  f"{a!r} vs {b!r}")
    print("all deterministic counts identical" if failures == 0
          else f"{failures} count(s) changed with run length")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
