"""Self-test of the benchmark's own checks, from the checkout root:

    python3 perfbench/selftest.py

1. One pass of each workload on the first instance seed passes every check.
2. Mutation: with one recorded golden value corrupted by 1e-6 relative, the
   same pass must count that operation as failed (ops_failed_frac > 0).
3. The tracer reports a deleted wrap target as absent instead of crashing.

Exits 0 when all hold, 1 otherwise. It also re-runs the seeds golden.json
skips and prints whether the program still fails on them; that line is
information, not a check.
"""

from __future__ import annotations

import json
import os
import sys

import run


TMP = os.path.join(run.OUT, "tmp")


def check_passes(workloads, doc):
    ok = True
    seed = doc["instance_seeds"][0]
    for name, workload in workloads.WORKLOADS.items():
        recorded = doc["values"][name][str(seed)]
        clean = workloads.run_pass(workload, seed, recorded, TMP)
        op = sorted(recorded)[0]
        psi, feas = recorded[op]
        mutated = workloads.run_pass(workload, seed, {**recorded, op: [psi * (1 + 1e-6), feas]}, TMP)
        frac = mutated.failed / len(workload.ops)
        good = clean.failed == 0 and op in mutated.failures and frac > 0
        ok &= good
        print(f"{'ok' if good else 'FAIL'} {name}: clean failed={clean.failed} "
              f"{dict(clean.failures)}; golden[{op}] mutated -> ops_failed_frac={frac:.3g}")
    return ok


def check_absent_target():
    from flagopt import rates
    from tracer import Tracer

    original = rates._penalty_route
    del rates._penalty_route
    try:
        tracer = Tracer()
        tracer.install()
        tracer.uninstall()
    finally:
        rates._penalty_route = original
    good = "rates.penalty_route" in tracer.absent
    print(f"{'ok' if good else 'FAIL'} tracer: absent={tracer.absent}")
    return good


def report_skipped(workloads, doc):
    for seed, reason in sorted(doc["skipped_seeds"].items(), key=lambda kv: int(kv[0])):
        name = reason.split()[0]
        p = workloads.run_pass(workloads.WORKLOADS[name], int(seed), None, TMP)
        state = f"still fails: {dict(p.failures)}" if p.failures else "now passes; re-record golden.json"
        print(f"info skipped seed {seed} ({reason}): {state}")


def main():
    run.prepare_environment()
    import workloads

    with open(os.path.join(run.HERE, "golden.json")) as fh:
        doc = json.load(fh)
    ok = check_passes(workloads, doc)
    ok &= check_absent_target()
    report_skipped(workloads, doc)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
