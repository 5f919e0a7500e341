"""flagopt benchmark: gen -> certify -> solve -> verify on three workloads.

Usage, from the root of a flagopt checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

With --trace 0 the run reports the end-to-end metrics: the median set-up time
of SETUP_REPS fresh processes, then the median over the passes that fit in
--seconds of the certify, solve, verify and whole-pass times, and the peak
resident memory. With --trace 1 it alternates untraced and traced passes and
reports the per-layer metrics of the traced ones (see tracer.py) plus the
tracing overhead. Every operation's output is checked; the last line of
standard output is the JSON result. Details go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

# One BLAS thread: at n=400 on a 2-core machine one thread is faster than two,
# and a fixed count keeps runs comparable. Must be set before numpy loads.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 5
WORKLOAD_NAMES = ("qp-n400-fast", "lasso-oracle", "all-kinds-cli")

END_TO_END = (
    ("setup_s", "s"),
    ("certify_s", "s"),
    ("solve_s", "s"),
    ("verify_s", "s"),
    ("total_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (metric, source, stat, unit). A source is a tuple of span names whose stat
# is summed, "counter" for a tracer counter of the same name, or "pass" for a
# value the pass itself measured.
PER_LAYER = (
    ("driver.run.self_s", ("driver.run",), "self_s", "s"),
    ("driver.flag_iterate.calls", ("driver.flag_iterate",), "calls", "count"),
    ("driver.flag_iterate.self_s", ("driver.flag_iterate",), "self_s", "s"),
    ("driver.flag_iterate.us_p50", ("driver.flag_iterate",), "p50", "us"),
    ("driver.flag_iterate.us_p99", ("driver.flag_iterate",), "p99", "us"),
    ("maps.prim_step.calls", ("maps.prim_step",), "calls", "count"),
    ("maps.prim_step.self_s", ("maps.prim_step",), "self_s", "s"),
    ("maps.nice_parts.calls", ("maps.nice_parts",), "calls", "count"),
    ("maps.nice_parts.self_s", ("maps.nice_parts",), "self_s", "s"),
    ("maps.certificate.calls", ("maps.certificate",), "calls", "count"),
    ("maps.certificate.total_s", ("maps.certificate",), "total_s", "s"),
    ("linalg.spectral.calls", ("linalg.lambda_min", "linalg.lambda_max"), "calls", "count"),
    ("linalg.spectral.total_s", ("linalg.lambda_min", "linalg.lambda_max"), "total_s", "s"),
    ("linalg.solve_spd.calls", ("linalg.solve_spd",), "calls", "count"),
    ("linalg.solve_spd.total_s", ("linalg.solve_spd",), "total_s", "s"),
    ("linalg.solve_spd.us_p50", ("linalg.solve_spd",), "p50", "us"),
    ("linalg.solve_spd.flops_computed", "counter", None, "flop"),
    ("linalg.solve_spd.bytes_computed", "counter", None, "B"),
    ("prox.argmin_composite.calls", ("prox.argmin_composite",), "calls", "count"),
    ("prox.argmin_composite.self_s", ("prox.argmin_composite",), "self_s", "s"),
    ("rates.reference_solve.total_s", ("rates.reference_solve",), "total_s", "s"),
    ("rates.penalty_route.total_s", ("rates.penalty_route",), "total_s", "s"),
    ("rates.penalty_route.prox_calls", "counter", None, "count"),
    ("rates.long_run_route.total_s", ("rates.long_run_route",), "total_s", "s"),
    ("rates.long_run_route.iters", "counter", None, "count"),
    ("rates.polish.calls", ("rates.polish",), "calls", "count"),
    ("rates.polish.face_solves", "counter", None, "count"),
    ("rates.kkt_solves", ("rates.solve_kkt",), "calls", "count"),
    ("rates.verify_rates.total_s", ("rates.verify_rates",), "total_s", "s"),
    ("problems.eval_objective.calls", ("problems.eval_objective",), "calls", "count"),
    ("problems.eval_objective.self_s", ("problems.eval_objective",), "self_s", "s"),
    ("problems.constraint_map.calls", ("problems.constraint_map",), "calls", "count"),
    ("problems.constraint_map.self_s", ("problems.constraint_map",), "self_s", "s"),
    ("lagrangian.eval_aug_lagrangian.calls", ("lagrangian.eval_aug_lagrangian",), "calls", "count"),
    ("lagrangian.eval_aug_lagrangian.self_s", ("lagrangian.eval_aug_lagrangian",), "self_s", "s"),
    ("cli.trajectory_to_csv.total_s", ("driver.Trajectory.to_csv",), "total_s", "s"),
    ("cli.trajectory_from_csv.total_s", ("driver.trajectory_from_csv",), "total_s", "s"),
    ("cli.load_problem.total_s", ("problems.load_problem",), "total_s", "s"),
    ("cli.artifact_bytes", "pass", "artifact_bytes", "B"),
    ("gen.generate.total_s", ("gen.generate",), "total_s", "s"),
    ("trace.overhead_frac", "pass", None, "ratio"),
)


def prepare_environment():
    """Fix the BLAS thread count, drop tolerance overrides (the checks use
    the default tolerances) and make flagopt importable from src/. Must run
    before numpy or flagopt is imported."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("FLAGOPT_TOL", None)
    sys.path.insert(0, SRC)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def quantile(sorted_values, q):
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def setup_times(workload, seed):
    """Wall time of SETUP_REPS fresh processes that import flagopt, generate
    the workload's instances and build their configs."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return times


def layer_values(tracer, p):
    """Per-layer values of one traced pass (percentiles are pooled later)."""
    values = {}
    for metric, source, stat, _ in PER_LAYER:
        if source == "counter":
            values[metric] = float(tracer.counters[metric])
        elif source == "pass":
            if stat is not None:
                values[metric] = float(getattr(p, stat))
        elif stat in ("calls", "self_s", "total_s"):
            values[metric] = float(
                sum(getattr(tracer.stats[s], stat) for s in source if s in tracer.stats)
            )
    return values


def measure(workload, seed, seconds, trace, golden):
    import workloads

    tmp = os.path.join(OUT, "tmp")
    passes, traced, layer = [], [], []
    pooled = {}
    tracer = None
    if trace:
        from tracer import KEEP_DURATIONS, Tracer

        tracer = Tracer()
        pooled = {name: [] for name in KEEP_DURATIONS}
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        passes.append(workloads.run_pass(workload, seed, golden, tmp))
        if tracer is not None:
            tracer.install()
            tracer.enabled = True
            try:
                p = workloads.run_pass(workload, seed, golden, tmp, tracer)
            finally:
                tracer.enabled = False
                tracer.uninstall()
            tracer.stop_keeping_spans()  # spans of the first traced pass only
            traced.append(p)
            layer.append(layer_values(tracer, p))
            for name in pooled:
                if name in tracer.stats:
                    pooled[name].extend(tracer.stats[name].durations)
        step = time.perf_counter() - start
        if time.perf_counter() + step > deadline:
            break
    return passes, traced, layer, pooled, tracer


def end_to_end(passes, setup):
    med = statistics.median
    values = {
        "setup_s": med(setup),
        "certify_s": med(p.times["certify_s"] for p in passes),
        "solve_s": med(p.times["solve_s"] for p in passes),
        "verify_s": med(p.times["verify_s"] for p in passes),
        "total_s": med(p.total_s for p in passes),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(passes, traced, layer, pooled):
    metrics = {}
    for metric, source, stat, unit in PER_LAYER:
        if stat in ("p50", "p99"):
            durs = sorted(pooled.get(source[0], []))
            value = quantile(durs, 0.5 if stat == "p50" else 0.99) * 1e6
        elif metric == "trace.overhead_frac":
            value = (
                statistics.median(p.total_s for p in traced)
                / statistics.median(p.total_s for p in passes)
                - 1.0
            )
        else:
            value = statistics.median(v[metric] for v in layer)
        metrics[metric] = {"value": value, "unit": unit}
    return metrics


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_all(args):
    """Run every workload in its own process and print their results."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "flagopt", "__init__.py")):
        print(f"error: no flagopt sources under {SRC}", file=sys.stderr)
        return 2
    prepare_environment()
    if args.workload == "all":
        return run_all(args)

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    with open(os.path.join(HERE, "golden.json")) as fh:
        recorded = json.load(fh)
    seeds = recorded["instance_seeds"]
    inst = seeds[args.seed % len(seeds)]
    if args.setup_probe:
        workload.build(inst)
        return 0
    golden = recorded["values"][workload.name][str(inst)]
    setup = [] if args.trace else setup_times(workload.name, args.seed)
    started = time.perf_counter()
    passes, traced, layer, pooled, tracer = measure(workload, inst, args.seconds, args.trace, golden)
    elapsed = time.perf_counter() - started
    if tracer is None:
        metrics = end_to_end(passes, setup)
        absent = []
    else:
        metrics = per_layer(passes, traced, layer, pooled)
        named = {s for _, source, _, _ in PER_LAYER if isinstance(source, tuple) for s in source}
        absent = sorted(set(tracer.absent) | {s for s in named if s not in tracer.stats})

    import envinfo

    environment = envinfo.record(ROOT, BLAS_THREADS, workload.name, args.seed, inst)
    every = passes + traced
    attempted = sum(len(p.ops) for p in every)
    failures = [(i, op, msg) for i, p in enumerate(every) for op, msg in p.failures.items()]
    failed = len(failures)

    print(f"workload {workload.name} seed {args.seed} (instance {inst}) trace {args.trace}: "
          f"{len(passes)} untraced + {len(traced)} traced passes in {elapsed:.1f} s")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(f"  {'ops_failed_frac':<40} {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    for i, op, msg in failures[:20]:
        print(f"  FAILED pass {i} {op}: {msg}")
    if absent:
        print(f"  absent from the program (reported as 0): {', '.join(absent)}")
    print("env " + json.dumps(environment, sort_keys=True))

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", stem + ".json"), "w") as fh:
        json.dump({
            "environment": environment,
            "metrics": metrics,
            "attempted": attempted,
            "failures": failures,
            "setup_times": setup,
            "passes": [{"total_s": p.total_s, **p.times} for p in passes],
            "traced_passes": [{"total_s": p.total_s, **p.times} for p in traced],
            "absent": absent,
        }, fh, indent=1, sort_keys=True)
    if tracer is not None:
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        tracer.write_spans(os.path.join(OUT, "spans", stem + ".csv"))

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
