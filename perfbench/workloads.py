"""The benchmark's workloads: the user pipeline gen -> certify -> solve ->
verify, run on three kinds of input that load different layers.

qp-n400-fast   one dense eq-qp instance (n=400, m=100, sigma=1), prox-lin-al
               with M = (sigma/2) I + rho A'A, fast mode, exact-KKT reference.
               The per-step dense Cholesky in linalg.solve_spd dominates.
lasso-oracle   one flattened lasso-split instance (n=30, m=20, sigma=0),
               prox-lin-al in classic and ergodic mode, two-route reference
               with polish. The penalty route's prox calls dominate.
all-kinds-cli  all ten map kinds, each on the problem family of its first
               niceness-sampling acceptance case (n <= 20), driven through
               flagopt.cli.main in-process with artifacts in a temporary
               directory. Per-call Python overhead and CSV/JSON I/O dominate.

Inputs come from the benchmark seed only. The seed picks one of the instance
seeds listed in golden.json, so that every run can be checked against the
final values the seed commit recorded for that instance.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import tempfile
import time

import numpy as np

import flagopt as fo
from flagopt import cli

GOLDEN_REL = 1e-8
# Final values below this magnitude are compared with an absolute tolerance
# of GOLDEN_REL * GOLDEN_FLOOR, since a relative one would only test roundoff.
GOLDEN_FLOOR = 1e-6
KKT_TOL = 1e-9
CERTIFY_TOL = 1e-7
STATES, XIS = 100, 20
ITERS = 1000
RHO = 1.0

E2E_PHASES = ("certify_s", "solve_s", "verify_s")


class Pass:
    """One pass of a workload: phase timers, operation outcomes and the final
    trajectory values that are compared with the recorded goldens."""

    def __init__(self, ops, tracer=None):
        self.ops = tuple(ops)
        self.tracer = tracer
        if tracer is not None:
            tracer.op = 0  # the pass's own set-up, before its first operation
        self.times = dict.fromkeys(E2E_PHASES, 0.0)
        self.first = None
        self.last = None
        self.finished = []
        self.failures = {}
        self.finals = {}
        self.artifact_bytes = 0

    def step(self, op, phase, fn, *args, **kwargs):
        """Run one timed call of the pipeline under operation `op`."""
        if self.tracer is not None:
            self.tracer.op = self.ops.index(op) + 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if phase is not None:
                self.times[phase] += end - start
            if self.first is None:
                self.first = start
            self.last = end

    @contextlib.contextmanager
    def untraced(self):
        """Checks run outside the trace so they add nothing to the layers."""
        if self.tracer is None:
            yield
            return
        was, self.tracer.enabled = self.tracer.enabled, False
        try:
            yield
        finally:
            self.tracer.enabled = was

    def check(self, op, ok, message):
        if not ok and op not in self.failures:
            self.failures[op] = message

    def finish(self, op):
        self.finished.append(op)

    @property
    def total_s(self):
        return 0.0 if self.first is None else self.last - self.first

    @property
    def failed(self):
        return len(self.failures)


def check_reference(p, op, prob, ref):
    with p.untraced():
        A = fo.problems.constraint_map(prob)
        resid = fo.kkt_residual(prob, ref.x_star, ref.y_star)
        scale = 1.0 + float(np.linalg.norm(A.T @ ref.y_star)) + float(np.linalg.norm(prob.b))
    p.check(op, resid <= KKT_TOL * scale, f"reference KKT residual {resid:.3e} > {KKT_TOL:g} x {scale:.3g}")


def check_report(p, op, report):
    p.check(op, report["bounds_hold"] is True, f"bounds_hold {report['bounds_hold']}")
    p.check(op, report["condition_P"] == "met", f"condition_P {report['condition_P']}")


def check_certify(p, op, max_scaled):
    p.check(op, max_scaled <= CERTIFY_TOL, f"max scaled residual {max_scaled:.3e} > {CERTIFY_TOL:g}")


def certify(cfg, prob):
    cert = fo.certificate(cfg, prob)
    return cert, fo.sample_niceness(cfg, prob, states=STATES, xis=XIS)


def verify(prob, cfg, cert, ref, traj):
    order = traj.meta["p"]
    m = fo.problems.constraint_map(prob).shape[0]
    B = fo.bound_constant(
        cert.P, ref.x_star, prob.feasible_point, np.zeros(m), traj.meta["mu"], cfg.rho, ref.c, order
    )
    return fo.verify_rates(traj, ref, B, order, cert=cert, prob=prob)


class QpFast:
    name = "qp-n400-fast"
    N, M, SIGMA = 400, 100, 1.0
    ops = ("certify", "solve", "verify")

    def build(self, seed):
        prob = fo.generate(
            fo.GenSpec(family="eq-qp", n=self.N, m=self.M, sigma=self.SIGMA, seed=seed)
        )
        M = 0.5 * prob.sigma * np.eye(self.N) + RHO * (prob.A.T @ prob.A)
        return prob, fo.MapConfig(kind="prox-lin-al", rho=RHO, M=M)

    def pipeline(self, p, seed, workdir):
        prob, cfg = self.build(seed)
        cert, rep = p.step("certify", "certify_s", certify, cfg, prob)
        check_certify(p, "certify", rep["max_scaled_residual"])
        p.finish("certify")
        traj = p.step("solve", "solve_s", fo.run, prob, fo.RunParams(cfg=cfg, mode="fast", iters=ITERS))
        p.finals["solve"] = (float(traj.psi_x[-1]), float(traj.feas_x[-1]))
        p.finish("solve")
        ref = p.step("verify", "verify_s", fo.reference_solve, prob)
        report = p.step("verify", "verify_s", verify, prob, cfg, cert, ref, traj)
        check_reference(p, "verify", prob, ref)
        check_report(p, "verify", report)
        p.finish("verify")


class LassoOracle:
    name = "lasso-oracle"
    N, M = 30, 20
    MODES = ("classic", "ergodic")
    ops = ("certify",) + tuple(f"solve:{m}" for m in MODES) + tuple(f"verify:{m}" for m in MODES)

    def build(self, seed):
        prob = fo.flatten_block(
            fo.generate(fo.GenSpec(family="lasso-split", n=self.N, m=self.M, sigma=0.0, seed=seed))
        )
        return prob, fo.make_config("prox-lin-al", prob, rho=RHO)

    def pipeline(self, p, seed, workdir):
        prob, cfg = self.build(seed)
        cert, rep = p.step("certify", "certify_s", certify, cfg, prob)
        check_certify(p, "certify", rep["max_scaled_residual"])
        p.finish("certify")
        trajs = {}
        for mode in self.MODES:
            op = f"solve:{mode}"
            traj = p.step(op, "solve_s", fo.run, prob, fo.RunParams(cfg=cfg, mode=mode, iters=ITERS))
            trajs[mode] = traj
            p.finals[op] = (float(traj.psi_x[-1]), float(traj.feas_x[-1]))
            p.finish(op)
        # one reference serves both modes, as a user verifying both would do
        ref = p.step("verify:classic", "verify_s", fo.reference_solve, prob)
        for mode in self.MODES:
            op = f"verify:{mode}"
            report = p.step(op, "verify_s", verify, prob, cfg, cert, ref, trajs[mode])
            check_reference(p, op, prob, ref)
            check_report(p, op, report)
            p.finish(op)


# kind -> gen arguments of the family of the kind's first niceness-sampling
# acceptance problem; the seed comes from the benchmark.
CLI_PROBLEMS = {
    "prox-al": ("eq-qp", 20, 5, 1.0, False),
    "prox-lin-al": ("eq-qp", 20, 5, 1.0, False),
    "smooth-prox-al": ("smooth-composite", 12, 4, 1.0, False),
    "smooth-lin-al": ("smooth-composite", 12, 4, 1.0, False),
    "prox-admm": ("block-qp", 12, 4, 1.0, False),
    "prox-lin-admm": ("block-qp", 12, 4, 1.0, False),
    "chambolle-pock": ("block-qp", 12, 4, 1.0, True),
    "prox-jacobi": ("block-qp", 12, 4, 1.0, False),
    "pcpm": ("block-qp", 12, 4, 0.0, False),
    "full-lin-admm": ("block-qp", 12, 4, 0.0, False),
}
CLI_STEPS = ("gen", "certify", "solve", "verify")


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def parse_certify(stdout):
    for line in stdout.splitlines():
        for field in line.split():
            if field.startswith("max-scaled-residual="):
                return float(field.split("=", 1)[1])
    return float("nan")


def last_row(csv_path):
    with open(csv_path) as fh:
        lines = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
    header = lines[0].strip().split(",")
    row = dict(zip(header, (float(v) for v in lines[-1].split(","))))
    return row["psi_x"], row["feas_x"]


class AllKindsCli:
    name = "all-kinds-cli"
    ops = tuple(f"{kind}:{step}" for kind in CLI_PROBLEMS for step in CLI_STEPS)

    def build(self, seed):
        """The problems and configs the CLI would build, for the set-up probe."""
        out = []
        for kind, (family, n, m, sigma, a_id) in CLI_PROBLEMS.items():
            prob = fo.generate(
                fo.GenSpec(family=family, n=n, m=m, sigma=sigma, seed=seed, a_identity=a_id)
            )
            out.append(fo.make_config(kind, prob, rho=RHO))
        return out

    def pipeline(self, p, seed, workdir):
        for kind, (family, n, m, sigma, a_id) in CLI_PROBLEMS.items():
            prob = os.path.join(workdir, f"{kind}.json")
            traj = os.path.join(workdir, f"{kind}.csv")
            report = os.path.join(workdir, f"{kind}.report.json")
            gen = ["gen", family, "--n", str(n), "--m", str(m), "--sigma", str(sigma)]
            gen += ["--seed", str(seed), "--out", prob] + (["--a-identity"] if a_id else [])
            steps = (
                ("gen", None, gen),
                ("certify", "certify_s", ["certify", "--problem", prob, "--map", kind]),
                ("solve", "solve_s", ["solve", "--problem", prob, "--map", kind,
                                      "--mode", "classic", "--iters", str(ITERS), "--out", traj]),
                ("verify", "verify_s", ["verify", "--problem", prob, "--traj", traj,
                                        "--manifest", traj + ".manifest.json", "--out", report]),
            )
            try:
                for step, phase, argv in steps:
                    op = f"{kind}:{step}"
                    rc, stdout = p.step(op, phase, run_cli, argv)
                    p.check(op, rc == 0, f"exit code {rc}: {stdout.strip()[-200:]}")
                    if rc == 0 and step == "certify":
                        check_certify(p, op, parse_certify(stdout))
                    elif rc == 0 and step == "solve":
                        p.finals[op] = last_row(traj)
                    elif rc == 0 and step == "verify":
                        with open(report) as fh:
                            check_report(p, op, json.load(fh))
                    p.finish(op)
            except Exception as exc:  # fails this kind's remaining steps only
                fail_unfinished(p, exc, prefix=f"{kind}:")
        p.artifact_bytes = sum(
            os.path.getsize(os.path.join(workdir, f)) for f in os.listdir(workdir)
        )


WORKLOADS = {w.name: w for w in (QpFast(), LassoOracle(), AllKindsCli())}


def fail_unfinished(p, exc, prefix=""):
    message = f"{type(exc).__name__}: {exc}"
    for op in p.ops:
        if op.startswith(prefix) and op not in p.finished:
            p.check(op, False, message)


def golden_close(value, golden):
    return abs(value - golden) <= GOLDEN_REL * max(abs(golden), GOLDEN_FLOOR)


def run_pass(workload, seed, golden, tmp_root, tracer=None):
    """One pass of `workload` on instance `seed`. golden maps each solve
    operation to its recorded final (psi_x, feas_x); None skips that check,
    for recording."""
    p = Pass(workload.ops, tracer)
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=tmp_root)
    try:
        workload.pipeline(p, seed, workdir)
    except Exception as exc:  # a raising operation fails it and every later one
        fail_unfinished(p, exc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if golden is not None:
        for op, (psi, feas) in p.finals.items():
            want = golden.get(op)
            if want is None:
                p.check(op, False, "no golden value recorded")
                continue
            p.check(op, golden_close(psi, want[0]), f"final psi_x {psi!r} != golden {want[0]!r}")
            p.check(op, golden_close(feas, want[1]), f"final feas_x {feas!r} != golden {want[1]!r}")
    return p
