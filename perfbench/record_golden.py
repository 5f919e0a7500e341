"""Record golden.json: the instance seeds the benchmark draws from, and the
final psi_x and feas_x of every solve operation of every workload on each.

Candidate seeds 0, 1, 2, ... are tried in turn. A seed on which any operation
of any workload fails is listed under "skipped_seeds" with the failure, and
the first INSTANCES seeds on which every operation passes become the instance
seeds. Run it only on a commit whose trajectories are trusted (the values
were first recorded at the seed commit of the benchmark), from the checkout
root:

    python3 perfbench/record_golden.py
"""

from __future__ import annotations

import json
import os

import run

INSTANCES = 16


def main():
    run.prepare_environment()
    import envinfo
    import workloads

    tmp = os.path.join(run.OUT, "tmp")
    values = {name: {} for name in workloads.WORKLOADS}
    seeds, skipped = [], {}
    seed = 0
    while len(seeds) < INSTANCES:
        finals = {}
        # the CLI workload goes first: it is the one that has failed so far
        for name in sorted(workloads.WORKLOADS, key=lambda n: n != "all-kinds-cli"):
            p = workloads.run_pass(workloads.WORKLOADS[name], seed, None, tmp)
            if p.failures:
                op, message = next(iter(p.failures.items()))
                skipped[str(seed)] = f"{name} {op}: {message}"
                break
            finals[name] = {op: list(v) for op, v in sorted(p.finals.items())}
        else:
            seeds.append(seed)
            for name, ops in finals.items():
                values[name][str(seed)] = ops
        print(f"seed {seed}: {skipped.get(str(seed), 'recorded')}", flush=True)
        seed += 1
    doc = {
        "commit": envinfo.git_commit(run.ROOT),
        "instance_seeds": seeds,
        "skipped_seeds": skipped,
        "values": values,
    }
    with open(os.path.join(run.HERE, "golden.json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
