"""Command-line front end.

Commands: gen (write a problem JSON), solve (run the driver, write a
trajectory CSV plus a run manifest JSON), certify (certificate + residual
sampling suite), verify (reference solve + rate bounds + slope), sweep (grid
over maps x modes). FLAGOPT_TOL overrides the default tolerances. Exit codes:
0 ok, 2 configuration (including not-nice certificates), 3 numerical, 4 I/O.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import linalg
from .driver import MAX_ITERS, MODES, RunParams, mode_p, run, trajectory_from_csv
from .errors import ConfigError, DataError, FlagoptError
from .gen import FAMILIES, GenSpec, generate
from .maps import MAP_KINDS, StepPlan, certificate, make_config, sample_niceness
from .problems import constraint_map, feasibility_residual, load_problem, save_problem
from .rates import bound_constant, reference_solve, verify_rates

CERTIFY_TOL = 1e-7
VERIFY_TOL = 1e-9
MANIFEST_KEYS = (
    "map", "rho", "policy", "iters", "p", "z0", "y0", "mu", "mode", "problem_sha256"
)
# the fields of a verify report that each sweep row carries
SWEEP_KEYS = ("delta", "p", "bounds_hold", "first_violation", "slope", "condition_P")

def env_tol(default):
    raw = os.environ.get("FLAGOPT_TOL")
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"FLAGOPT_TOL is not a number: {raw!r}")


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise DataError(f"{path}: invalid JSON ({exc})") from None


def _build_config(prob, args):
    return make_config(
        args.map,
        prob,
        rho=args.rho,
        policy=args.policy,
        scale=args.scale,
        margin=args.margin,
        alpha=args.alpha,
    )


def cmd_gen(args):
    spec = GenSpec(
        family=args.family,
        n=args.n,
        m=args.m,
        sigma=args.sigma,
        seed=args.seed,
        conditioning=args.conditioning,
        a_identity=args.a_identity,
    )
    prob = generate(spec)
    save_problem(prob, args.out)
    A = constraint_map(prob)
    resid = feasibility_residual(prob, prob.feasible_point)
    print(f"wrote {args.out}")
    print(
        f"family={spec.family} n={A.shape[1]} m={A.shape[0]} sigma={spec.sigma} "
        f"seed={spec.seed} feasible-residual={resid:.3e}"
    )
    return 0


def cmd_solve(args):
    prob, problem_sha256 = load_problem(args.problem, with_sha256=True)
    cfg = _build_config(prob, args)
    params = RunParams(
        cfg=cfg, mode=args.mode, iters=args.iters, mu=args.mu
    )
    traj = run(prob, params)
    traj.to_csv(args.out)
    manifest_path = args.manifest or args.out + ".manifest.json"
    manifest = {
        "map": args.map,
        "policy": args.policy,
        "scale": args.scale,
        "margin": args.margin,
        "alpha": args.alpha,
        "mode": traj.meta["mode"],
        "p": traj.meta["p"],
        "mu": traj.meta["mu"],
        "rho": args.rho,
        "iters": args.iters,
        "delta": traj.meta["delta"],
        "z0": traj.meta["z0"],
        "y0": traj.meta["y0"],
        "subproblems": traj.meta["subproblems"],
        "problem_sha256": problem_sha256,
    }
    _write_json(manifest_path, manifest)
    print(f"wrote {args.out} ({traj.records} rows) and {manifest_path}")
    print(
        f"map={args.map} mode={traj.meta['mode']} p={traj.meta['p']} "
        f"mu={traj.meta['mu']:.6g} delta={traj.meta['delta']:.6g} "
        f"final-feas={traj.feas_x[-1]:.3e}"
    )
    return 0


def cmd_certify(args):
    prob = load_problem(args.problem)
    cfg = _build_config(prob, args)
    plan = StepPlan(cfg, prob)
    cert = plan.cert
    print(f"kind: {cert.kind}")
    print(f"delta: {cert.delta:.12g}")
    print(
        f"P spectrum: [{linalg.lambda_min(cert.P):.6g}, {linalg.lambda_max(cert.P):.6g}]"
    )
    print(
        f"Q spectrum: [{linalg.lambda_min(cert.Q):.6g}, {linalg.lambda_max(cert.Q):.6g}]"
    )
    for cond in cert.conditions:
        print(f"condition: {cond.name}  margin={cond.margin:.6g}")
    report = sample_niceness(
        cfg, prob, states=args.states, xis=args.xis, seed=args.seed, plan=plan
    )
    tol = env_tol(args.tol)
    print(
        f"sampling: p={report['p']} checked={report['checked']} "
        f"max-residual={report['max_residual']:.3e} "
        f"max-scaled-residual={report['max_scaled_residual']:.3e}"
    )
    if report["checked"] == 0:
        print("sampling: no sampled point lies in the domain of Psi; nothing was tested")
    ok = report["checked"] > 0 and report["max_scaled_residual"] <= tol
    print(f"certified: {'yes' if ok else 'no'}")
    return 0 if ok else 3


def _num(v):
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _vector(size):
    return lambda v: type(v) is list and len(v) == size and all(map(_num, v))


def _check_manifest(manifest, prob, problem_sha256):
    """DataError unless every manifest field has its JSON type and a valid value
    (finite numbers, mode in MODES, p 1 or 2, iters in [1, MAX_ITERS], z0 / y0
    sized to the problem) and the problem hash is that of the problem file."""
    if type(manifest) is not dict:
        raise DataError("manifest must be a JSON object")
    m, n = constraint_map(prob).shape
    checks = {key: lambda v: type(v) is str for key in ("map", "policy", "problem_sha256")}
    checks.update(
        rho=_num, mu=_num, scale=_num, margin=_num, alpha=lambda v: v is None or _num(v),
        mode=lambda v: v in MODES, p=lambda v: type(v) is int and v in (1, 2),
        iters=lambda v: type(v) is int and 1 <= v <= MAX_ITERS,
        z0=_vector(n), y0=_vector(m),
    )
    for key, ok in checks.items():
        if key not in manifest:
            if key in MANIFEST_KEYS:
                raise DataError(f"manifest is missing key {key!r}")
        elif not ok(manifest[key]):
            value = f"{manifest[key]!r:.60}"
            raise DataError(f"manifest {key!r} has a wrong type, size or value: {value}")
    if manifest["problem_sha256"] != problem_sha256:
        raise DataError(
            "manifest 'problem_sha256' does not match the problem file: "
            "the trajectory was solved on another problem"
        )


def _rate_report(prob, cfg, traj, ref, record, tol):
    """verify_rates of a run of the map cfg against ref, with B from the map's
    certificate and the run's p, mu, z0 and y0 as `record` (a manifest or
    Trajectory.meta) holds them. The report also carries delta, p, B and c."""
    cert = certificate(cfg, prob)
    p = record["p"]
    z0, y0 = (np.asarray(record[key], dtype=float) for key in ("z0", "y0"))
    B = bound_constant(cert.P, ref.x_star, z0, y0, record["mu"], cfg.rho, ref.c, p)
    report = verify_rates(traj, ref, B, p, tol=tol, cert=cert, prob=prob)
    report.update(delta=cert.delta, p=p, B=B, c=ref.c)
    return report


def _verify_report(prob, problem_sha256, traj, manifest, tol):
    _check_manifest(manifest, prob, problem_sha256)
    cfg = make_config(
        manifest["map"],
        prob,
        rho=manifest["rho"],
        policy=manifest["policy"],
        scale=manifest.get("scale", 1.0),
        margin=manifest.get("margin", 1.0),
        alpha=manifest.get("alpha"),
    )
    p = mode_p(manifest["mode"], cfg, prob)
    if manifest["p"] != p:
        raise DataError(
            f"manifest 'p' is {manifest['p']}, but a {manifest['mode']} run of "
            f"{manifest['map']} on this problem uses p = {p}"
        )
    expected = manifest["iters"] + 1
    if traj.records != expected:
        raise DataError(
            f"trajectory has {traj.records} rows, expected {expected}"
        )
    report = _rate_report(prob, cfg, traj, reference_solve(prob), manifest, tol)
    if manifest["mode"] == "ergodic":
        report["note"] = (
            "ergodic averages certified against the bounds as printed "
            "(B/(2N^p), B/(c N^p)); the underlying combined constant "
            "differs by a factor 2, not reconciled here"
        )
    return report


def cmd_verify(args):
    prob, problem_sha256 = load_problem(args.problem, with_sha256=True)
    traj = trajectory_from_csv(args.traj)
    manifest = _load_json(args.manifest)
    report = _verify_report(prob, problem_sha256, traj, manifest, env_tol(args.tol))
    if args.out:
        _write_json(args.out, report)
        print(f"wrote {args.out}")
    status = "pass" if report["bounds_hold"] else "fail"
    print(
        f"bounds: {status} first-violation={report['first_violation']} "
        f"slope={report['slope']:.3f} condition-P={report['condition_P']}"
    )
    return 0 if report["bounds_hold"] else 3


def cmd_sweep(args):
    prob = load_problem(args.problem)
    kinds = MAP_KINDS if args.maps == "all" else tuple(args.maps.split(","))
    for kind in kinds:
        if kind not in MAP_KINDS:
            raise ConfigError(f"unknown map kind {kind!r}")
    modes = tuple(args.modes.split(","))
    ref = None
    rows = []
    for kind in kinds:
        for mode in modes:
            row = {"map": kind, "mode": mode}
            try:
                cfg = make_config(kind, prob, rho=args.rho)
                traj = run(prob, RunParams(cfg=cfg, mode=mode, iters=args.iters))
                if ref is None:
                    ref = reference_solve(prob)
                rep = _rate_report(prob, cfg, traj, ref, traj.meta, env_tol(VERIFY_TOL))
                row.update({key: rep[key] for key in SWEEP_KEYS})
            except FlagoptError as exc:
                row.update(status=f"skipped: {exc}")
            rows.append(row)
    if args.out:
        _write_json(args.out, {"problem": args.problem, "rho": args.rho, "rows": rows})
        print(f"wrote {args.out}")
    for row in rows:
        if "status" in row:
            print(f"{row['map']:>16} {row['mode']:>8}  {row['status']}")
        else:
            # an unmet condition_P means no bound was checked
            hold = "ok" if row["bounds_hold"] else "VIOLATED"
            print(
                f"{row['map']:>16} {row['mode']:>8}  delta={row['delta']:.3g} "
                f"bounds={'n/a' if row['condition_P'] == 'unmet' else hold} "
                f"slope={row['slope']:.2f} condition-P={row['condition_P']}"
            )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="flagopt",
        description="Accelerated Lagrangian solver and rate-verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a problem instance")
    p_gen.add_argument("family", choices=FAMILIES)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--sigma", type=float, default=1.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--conditioning", type=float, default=10.0)
    p_gen.add_argument("--a-identity", action="store_true")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    def add_map_flags(p):
        p.add_argument("--map", choices=MAP_KINDS, required=True)
        p.add_argument("--rho", type=float, default=1.0)
        p.add_argument("--policy", choices=("identity-scaled", "auto"), default="auto")
        p.add_argument("--scale", type=float, default=1.0)
        p.add_argument("--margin", type=float, default=1.0)
        p.add_argument("--alpha", type=float, default=None)

    p_solve = sub.add_parser("solve", help="run the driver and write a trajectory")
    p_solve.add_argument("--problem", required=True)
    add_map_flags(p_solve)
    p_solve.add_argument("--mode", choices=("fast", "classic", "ergodic"), default="classic")
    p_solve.add_argument("--mu", type=float, default=None)
    p_solve.add_argument("--iters", type=int, default=1000)
    p_solve.add_argument("--out", required=True)
    p_solve.add_argument("--manifest", default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_cert = sub.add_parser("certify", help="certificate plus residual sampling")
    p_cert.add_argument("--problem", required=True)
    add_map_flags(p_cert)
    p_cert.add_argument("--states", type=int, default=100)
    p_cert.add_argument("--xis", type=int, default=20)
    p_cert.add_argument("--seed", type=int, default=0)
    p_cert.add_argument("--tol", type=float, default=CERTIFY_TOL)
    p_cert.set_defaults(func=cmd_certify)

    p_verify = sub.add_parser("verify", help="check rate bounds against a reference")
    p_verify.add_argument("--problem", required=True)
    p_verify.add_argument("--traj", required=True)
    p_verify.add_argument("--manifest", required=True)
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--tol", type=float, default=VERIFY_TOL)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="grid over maps x modes")
    p_sweep.add_argument("--problem", required=True)
    p_sweep.add_argument("--maps", default="all")
    p_sweep.add_argument("--modes", default="classic")
    p_sweep.add_argument("--rho", type=float, default=1.0)
    p_sweep.add_argument("--iters", type=int, default=500)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FlagoptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
