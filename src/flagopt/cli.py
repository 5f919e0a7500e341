"""Command-line front end.

Commands: gen (write a problem JSON), solve (run the driver, write a
trajectory CSV plus a run manifest JSON), certify (certificate + residual
sampling suite), verify (reference solve + rate bounds + slope), sweep (grid
over maps x modes). Exit codes: 0 ok, 2 configuration (including not-nice
certificates), 3 numerical, 4 I/O.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import NamedTuple

from .driver import MAX_ITERS, MODES, RunParams, check_mode, mode_p, run, trajectory_from_csv
from .errors import ConfigError, DataError, FlagoptError, NumericalError
from .gen import FAMILIES, GenSpec, generate
from .maps import MAP_KINDS, StepPlan, certificate, make_config, map_spec, sample_niceness
from .problems import feasibility_residual, load_problem, number, save_problem
from .rates import bound_constant, reference_solve, verify_rates

CERTIFY_TOL = 1e-7
VERIFY_TOL = 1e-9
# the fields of a verify report that each sweep row carries
SWEEP_KEYS = ("delta", "p", "bounds_hold", "first_violation", "slope", "condition_P")


def _num(v, shape=None):
    try:
        number(v, "a manifest number")
    except (TypeError, ConfigError):
        return False
    return True


def _text(v, shape):
    return type(v) is str


def _vector(axis):
    """The check of a list of numbers as long as axis `axis` of A's shape."""
    return lambda v, shape: type(v) is list and len(v) == shape[axis] and all(map(_num, v))


class Field(NamedTuple):
    """A run-manifest field: verify's check of its JSON value, given A's shape
    (None: recorded, not checked); whether a manifest may omit it (a map flag is
    then read at its default); a map flag's argparse keywords."""

    check: object
    optional: bool = False
    flag: dict | None = None


# The run manifest, in the order verify checks it. solve writes the map flags
# from its arguments, problem_sha256 from the bytes it parsed, and the other
# fields from Trajectory.meta.
MANIFEST = {
    "map": Field(_text, flag=dict(choices=MAP_KINDS, required=True)),
    "policy": Field(_text, flag=dict(choices=("identity-scaled", "auto"), default="auto")),
    "problem_sha256": Field(_text),
    "rho": Field(_num, flag=dict(type=float, default=1.0)),
    "mu": Field(_num),
    "scale": Field(_num, True, dict(type=float, default=1.0)),
    "margin": Field(_num, True, dict(type=float, default=1.0)),
    "alpha": Field(lambda v, shape: v is None or _num(v), True, dict(type=float, default=None)),
    "mode": Field(lambda v, shape: v in MODES),
    "p": Field(lambda v, shape: type(v) is int and v in (1, 2)),
    "iters": Field(lambda v, shape: type(v) is int and 1 <= v <= MAX_ITERS),
    "z0": Field(_vector(1)),
    "y0": Field(_vector(0)),
    "delta": Field(_num),
    "subproblems": Field(None, True),
}
MAP_FLAGS = tuple(key for key, field in MANIFEST.items() if field.flag)


def _write_json(path, doc):
    """Write doc as strict JSON; NumericalError, and no file, when it holds a
    NaN or an infinity (which JSON cannot represent)."""
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise NumericalError(f"{path}: not written: it would hold a non-finite number") from None
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise DataError(f"{path}: invalid JSON ({exc})") from None


def _build_config(prob, rec):
    """The map configuration of the map flags in rec: vars() of certify's or
    solve's arguments, or a run manifest (an optional flag may be absent)."""
    flags = {key: rec.get(key, MANIFEST[key].flag.get("default")) for key in MAP_FLAGS}
    return make_config(flags.pop("map"), prob, **flags)


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
    resid = feasibility_residual(prob, prob.feasible_point)
    print(f"wrote {args.out}")
    print(
        f"family={spec.family} n={prob.n} m={prob.m} sigma={spec.sigma} "
        f"seed={spec.seed} feasible-residual={resid:.3e}"
    )
    return 0


def cmd_solve(args):
    prob, problem_sha256 = load_problem(args.problem, with_sha256=True)
    cfg = _build_config(prob, vars(args))
    params = RunParams(
        cfg=cfg, mode=args.mode, iters=args.iters, mu=args.mu
    )
    traj = run(prob, params)
    manifest_path = args.manifest or args.out + ".manifest.json"
    flags = {key: getattr(args, key) for key in MAP_FLAGS}
    record = {**traj.meta, **flags, "problem_sha256": problem_sha256}
    manifest = {key: record[key] for key in MANIFEST}
    # verify's schema: a field it would refuse is refused here, before any file
    _check_manifest(manifest, prob, problem_sha256, error=ConfigError)
    traj.to_csv(args.out)
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
    cfg = _build_config(prob, vars(args))
    plan = StepPlan(cfg, prob)
    cert = plan.cert
    sampling = dict(states=args.states, xis=args.xis, seed=args.seed)
    report = sample_niceness(cfg, prob, plan=plan, **sampling)
    print(f"kind: {cert.kind}")
    print(f"delta: {cert.delta:.12g}")
    for name, (lo, hi) in cert.extremes.items():
        print(f"{name} spectrum: [{lo:.6g}, {hi:.6g}]")
    for cond in cert.conditions:
        print(f"condition: {cond.name}  margin={cond.margin:.6g}")
    print(
        f"sampling: p={report['p']} checked={report['checked']} "
        f"max-residual={report['max_residual']:.3e} "
        f"max-scaled-residual={report['max_scaled_residual']:.3e}"
    )
    if report["checked"] == 0:
        print("sampling: no sampled point lies in the domain of Psi; nothing was tested")
    ok = report["checked"] > 0 and report["max_scaled_residual"] <= args.tol
    print(f"certified: {'yes' if ok else 'no'}")
    return 0 if ok else 3


def _check_manifest(manifest, prob, problem_sha256, error=DataError):
    """`error` (DataError for a manifest read, ConfigError for one solve is
    about to write) unless the manifest holds every MANIFEST field it may not
    omit, each field it holds passes its check (finite numbers, mode in
    MODES, p 1 or 2, iters in [1, MAX_ITERS], z0 / y0 sized to the problem),
    and the problem hash is that of the problem file. Fields are checked in
    MANIFEST order; the first that fails is named."""
    if type(manifest) is not dict:
        raise error("manifest must be a JSON object")
    for key, field in MANIFEST.items():
        if key not in manifest:
            if not field.optional:
                raise error(f"manifest is missing key {key!r}")
        elif field.check and not field.check(manifest[key], prob.A.shape):
            value = f"{manifest[key]!r:.60}"
            raise error(f"manifest {key!r} has a wrong type, size or value: {value}")
    if manifest["problem_sha256"] != problem_sha256:
        raise error(
            "manifest 'problem_sha256' does not match the problem file: "
            "the trajectory was solved on another problem"
        )


def _rate_report(prob, cfg, cert, traj, ref, record, tol):
    """verify_rates of a run of the map cfg against ref, with B from the map's
    certificate cert and the run's p, mu, z0 and y0 as `record` (a manifest
    or Trajectory.meta) holds them. The report also carries delta, p, B and c."""
    p, z0, y0 = record["p"], record["z0"], record["y0"]
    B = bound_constant(cert.P, ref.x_star, z0, y0, record["mu"], cfg.rho, ref.c, p)
    report = verify_rates(traj, ref, B, p, tol=tol, cert=cert, prob=prob)
    report.update(delta=cert.delta, p=p, B=B, c=ref.c)
    return report


def _verify_report(prob, problem_sha256, traj, manifest, tol):
    _check_manifest(manifest, prob, problem_sha256)
    cfg = _build_config(prob, manifest)
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
    cert = certificate(cfg, prob)
    if not abs(manifest["delta"] - cert.delta) <= 1e-12 * cert.delta:
        raise DataError(
            f"manifest 'delta' is {manifest['delta']!r}, not its certificate's {cert.delta!r}"
        )
    ref = reference_solve(prob)
    report = _rate_report(prob, cfg, cert, traj, ref, manifest, tol)
    if manifest["mode"] == "ergodic" and report["condition_P"] == "met":
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
    report = _verify_report(prob, problem_sha256, traj, manifest, args.tol)
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
    modes = tuple(args.modes.split(","))
    for kind in kinds:
        map_spec(kind)
    for mode in modes:
        check_mode(mode)
    ref = None
    rows = []
    for kind in kinds:
        for mode in modes:
            row = {"map": kind, "mode": mode}
            try:
                cfg = make_config(kind, prob, rho=args.rho)
                plan = StepPlan(cfg, prob)
                traj = run(prob, RunParams(cfg=cfg, mode=mode, iters=args.iters), plan=plan)
                if ref is None:
                    ref = reference_solve(prob)
                rep = _rate_report(prob, cfg, plan.cert, traj, ref, traj.meta, VERIFY_TOL)
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


class _Parser(argparse.ArgumentParser):
    """Refuses an argument in one line on stderr and exits 2; subparsers inherit it."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


@functools.cache
def build_parser():
    """The flagopt argument parser, built once per process: parse_args fills a
    fresh namespace on each call, so nothing carries over between calls."""
    parser = _Parser(
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
        for key in MAP_FLAGS:
            p.add_argument(f"--{key}", **MANIFEST[key].flag)

    p_solve = sub.add_parser("solve", help="run the driver and write a trajectory")
    p_solve.add_argument("--problem", required=True)
    add_map_flags(p_solve)
    p_solve.add_argument("--mode", choices=MODES, default="classic")
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
