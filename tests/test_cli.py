import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flagopt
from flagopt import (
    BlockProblem,
    Box,
    ConstrainedProblem,
    Quadratic,
    SmoothTerm,
    load_problem,
    save_problem,
)
from flagopt import cli, maps
from flagopt.cli import main
from flagopt.driver import CSV_COLUMNS, MAX_ITERS, trajectory_from_csv
from flagopt.errors import DataError
from flagopt.maps import MAP_KINDS
from flagopt.rates import reference_solve

PSI_X, FEAS_X = CSV_COLUMNS.index("psi_x"), CSV_COLUMNS.index("feas_x")


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def gen_qp(path, seed=7):
    rc = main(
        [
            "gen", "eq-qp", "--n", "20", "--m", "5", "--sigma", "1",
            "--seed", str(seed), "--out", str(path),
        ]
    )
    assert rc == 0
    return str(path)


def gen_lasso(path, seed=8):
    rc = main(
        [
            "gen", "lasso-split", "--n", "10", "--m", "6", "--sigma", "0",
            "--seed", str(seed), "--out", str(path),
        ]
    )
    assert rc == 0
    return str(path)


@pytest.fixture(scope="module")
def qp_path(tmp_path_factory):
    return gen_qp(tmp_path_factory.mktemp("probs") / "qp.json")


@pytest.fixture(scope="module")
def lasso_path(tmp_path_factory):
    return gen_lasso(tmp_path_factory.mktemp("probs") / "lasso.json")


def solve_fast(qp_path, out, iters=400, extra=()):
    # identity-scaled M = (sigma/2) I with small rho keeps P inside the
    # accelerated-rate window
    return main(
        [
            "solve", "--problem", qp_path, "--map", "prox-lin-al",
            "--mode", "fast", "--policy", "identity-scaled", "--scale", "0.5",
            "--rho", "0.05", "--iters", str(iters), "--out", str(out), *extra,
        ]
    )


class TestGen:
    def test_same_seed_same_bytes(self, tmp_path):
        a = gen_qp(tmp_path / "a.json", seed=11)
        b = gen_qp(tmp_path / "b.json", seed=11)
        assert sha256(a) == sha256(b)

    def test_different_seed_differs(self, tmp_path):
        a = gen_qp(tmp_path / "a.json", seed=11)
        b = gen_qp(tmp_path / "b.json", seed=12)
        assert sha256(a) != sha256(b)

    def test_more_rows_than_columns_rejected(self, tmp_path, capsys):
        rc = main(
            ["gen", "eq-qp", "--n", "5", "--m", "9", "--out", str(tmp_path / "x.json")]
        )
        assert rc == 2
        assert "rows" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,message",
        [("--sigma", "sigma must be >= 0"), ("--conditioning", "conditioning must be >= 1")],
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_scalar_refused(self, tmp_path, capsys, flag, message, value):
        out = tmp_path / "b.json"
        argv = ["gen", "block-qp", "--n", "6", "--m", "3", flag, value, "--seed", "1"]
        rc = main([*argv, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == "" and not out.exists()
        assert captured.err == f"error: {message} and finite, got {value}\n"

    def test_unwritable_path_is_io_error(self, tmp_path):
        rc = main(
            ["gen", "eq-qp", "--n", "5", "--m", "2",
             "--out", str(tmp_path / "no" / "dir" / "x.json")]
        )
        assert rc == 4


# map kind -> (gen family, sigma, extra gen flags) of a problem it certifies on
KIND_FAMILIES = {
    "prox-al": ("eq-qp", "1", []),
    "prox-lin-al": ("eq-qp", "1", []),
    "smooth-prox-al": ("smooth-composite", "1", []),
    "smooth-lin-al": ("smooth-composite", "1", []),
    "prox-admm": ("block-qp", "1", []),
    "prox-lin-admm": ("block-qp", "1", []),
    "chambolle-pock": ("block-qp", "1", ["--a-identity"]),
    "prox-jacobi": ("block-qp", "1", []),
    "pcpm": ("block-qp", "0", []),
    "full-lin-admm": ("block-qp", "0", []),
}


class TestSolve:
    def test_row_count(self, qp_path, tmp_path):
        out = tmp_path / "t.csv"
        rc = solve_fast(qp_path, out, iters=1000)
        assert rc == 0
        assert trajectory_from_csv(out).records == 1001

    def test_runs_without_scipy(self, qp_path, tmp_path):
        # a fresh process: importing the CLI and one solve load no scipy module
        script = (
            "import sys\n"
            "import flagopt.cli\n"
            "def loaded(): return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "assert not loaded(), ('import', loaded())\n"
            "assert flagopt.cli.main(sys.argv[1:]) == 0\n"
            "assert not loaded(), ('solve', loaded())\n"
        )
        args = [
            "solve", "--problem", qp_path, "--map", "prox-lin-al", "--mode", "fast",
            "--policy", "identity-scaled", "--scale", "0.5", "--rho", "0.05",
            "--iters", "50", "--out", str(tmp_path / "t.csv"),
        ]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(flagopt.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize(
        "flags", [["--alpha", "nan"], ["--scale", "nan"], ["--alpha", "inf"]]
    )
    def test_unwritable_manifest_value_writes_nothing(self, qp_path, tmp_path, capsys, flags):
        # prox-al under the auto policy reads neither alpha nor scale, but its
        # manifest records both: a value verify would refuse is refused here
        out = tmp_path / "t.csv"
        argv = ["solve", "--problem", qp_path, "--map", "prox-al", *flags, "--iters", "20"]
        rc = main([*argv, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert f"manifest {flags[0][2:]!r} has a wrong type, size or value" in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", MAP_KINDS)
    def test_every_kind_writes_a_manifest_verify_reads(self, tmp_path, kind):
        family, sigma, flags = KIND_FAMILIES[kind]
        path = str(tmp_path / "p.json")
        gen = ["gen", family, "--n", "8", "--m", "3", "--sigma", sigma, "--seed", "1"]
        assert main([*gen, *flags, "--out", path]) == 0
        out = str(tmp_path / "t.csv")
        solve = ["solve", "--problem", path, "--map", kind, "--iters", "20"]
        assert main([*solve, "--out", out]) == 0
        with open(out + ".manifest.json") as fh:
            manifest = json.load(fh)
        cli._check_manifest(manifest, *load_problem(path, with_sha256=True))

    def test_not_nice_exits_naming_condition(self, lasso_path, tmp_path, capsys):
        # rho lambda_max(B'B) = 2 exceeds lambda_min(M2) = 1
        rc = main(
            [
                "solve", "--problem", lasso_path, "--map", "prox-lin-admm",
                "--policy", "identity-scaled", "--scale", "1.0", "--rho", "2.0",
                "--out", str(tmp_path / "t.csv"),
            ]
        )
        assert rc == 2
        assert "lambda_min(M2) - rho lambda_max(B'B) > 0" in capsys.readouterr().err

    def test_mu_above_delta_rejected_non_ergodic(self, qp_path, tmp_path, capsys):
        rc = main(
            [
                "solve", "--problem", qp_path, "--map", "prox-al",
                "--mode", "classic", "--mu", "2.0",
                "--out", str(tmp_path / "t.csv"),
            ]
        )
        assert rc == 2
        assert "mu" in capsys.readouterr().err

    def test_ergodic_accepts_mu_between_delta_and_one_plus_delta(
        self, qp_path, tmp_path
    ):
        rc = main(
            [
                "solve", "--problem", qp_path, "--map", "prox-al",
                "--mode", "ergodic", "--mu", "1.5", "--iters", "50",
                "--out", str(tmp_path / "t.csv"),
            ]
        )
        assert rc == 0


    def test_overflowing_dual_norm_is_numerical_error(self, tmp_path, capsys):
        # y stays finite but ||y|| overflows from the first iteration on
        prob = str(tmp_path / "p.json")
        rc = main(
            ["gen", "block-qp", "--n", "12", "--m", "4", "--sigma", "1", "--seed", "1",
             "--out", prob]
        )
        assert rc == 0
        capsys.readouterr()
        out = tmp_path / "t.csv"
        rc = main(
            ["solve", "--problem", prob, "--map", "prox-lin-al", "--mode", "classic",
             "--rho", "1e200", "--iters", "50", "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: iteration 1: y_norm") and err.count("\n") == 1
        assert not out.exists()

    def test_iters_above_bound_rejected(self, qp_path, tmp_path, capsys):
        rc = main(
            ["solve", "--problem", qp_path, "--map", "prox-al",
             "--iters", str(MAX_ITERS + 1), "--out", str(tmp_path / "t.csv")]
        )
        assert rc == 2
        assert "iters" in capsys.readouterr().err


class TestCertify:
    def test_pass_prints_certificate(self, qp_path, capsys):
        rc = main(["certify", "--problem", qp_path, "--map", "prox-lin-al"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "delta: 1" in out
        assert "P spectrum" in out
        assert "Q spectrum" in out
        assert "margin" in out
        assert "certified: yes" in out

    def test_certificate_is_built_once(self, qp_path, capsys, monkeypatch):
        # sample_niceness reuses the plan cmd_certify built, and with it the
        # certificate; forcing it to build its own prints the same report
        calls = []
        formula = maps._certify

        def counted(*args):
            calls.append(1)
            return formula(*args)

        monkeypatch.setattr(maps, "_certify", counted)
        argv = ["certify", "--problem", qp_path, "--map", "prox-lin-al", "--states", "10"]
        assert main(argv) == 0
        assert len(calls) == 1
        once = capsys.readouterr().out
        def own(cfg, prob, plan, **kwargs):
            return maps.sample_niceness(cfg, prob, **kwargs)

        monkeypatch.setattr(cli, "sample_niceness", own)
        assert main(argv) == 0
        assert len(calls) == 3
        assert capsys.readouterr().out == once

    @pytest.mark.parametrize(
        "family,n,m,seed,kind",
        [
            ("eq-qp", 20, 5, 2, "prox-lin-al"),
            ("smooth-composite", 12, 4, 8, "smooth-lin-al"),
            ("smooth-composite", 12, 4, 15, "smooth-lin-al"),
        ],
    )
    def test_repeated_extreme_eigenvalue(self, tmp_path, capsys, family, n, m, seed, kind):
        # P = M - rho A'A of these instances has a repeated top eigenvalue,
        # where LAPACK's index-subset eigenvalue drivers fail
        path = str(tmp_path / "p.json")
        rc = main(
            ["gen", family, "--n", str(n), "--m", str(m), "--seed", str(seed), "--out", path]
        )
        assert rc == 0
        rc = main(["certify", "--problem", path, "--map", kind, "--states", "10", "--xis", "4"])
        assert rc == 0, capsys.readouterr().err
        assert "certified: yes" in capsys.readouterr().out

    @pytest.mark.parametrize("flag,value", [("--states", "0"), ("--xis", "-3"), ("--seed", "-1")])
    def test_empty_sampling_rejected(self, tmp_path, capsys, flag, value):
        # refused before the first certificate line; gen refuses a negative
        # seed before it writes a file
        path = str(tmp_path / "p.json")
        gen = ["gen", "eq-qp", "--n", "10", "--m", "3", "--sigma", "1", "--out", path]
        lo = 0 if flag == "--seed" else 1
        message = f"error: {flag[2:]} must be >= {lo}, got {value}\n"
        if flag == "--seed":
            assert main([*gen, flag, value]) == 2
            assert capsys.readouterr() == ("", message)
            assert not (tmp_path / "p.json").exists()
        rc = main([*gen, "--seed", "1"])
        assert rc == 0
        capsys.readouterr()
        rc = main(["certify", "--problem", path, "--map", "prox-lin-al", flag, value])
        assert rc == 2
        assert capsys.readouterr() == ("", message)

    def test_nothing_tested_is_not_certified(self, tmp_path, capsys):
        # a box far narrower than the sampling spread: every sampled point
        # lies outside it, where the inequality holds trivially
        n, m = 8, 3
        rng = np.random.default_rng(0)
        x0 = rng.uniform(-0.5, 0.5, n)
        A = rng.standard_normal((m, n))
        half_sq = Quadratic(H=np.eye(n), q=np.zeros(n), strong_convexity=1.0)
        prob = ConstrainedProblem(
            f=Box(lo=x0 - 1e-6, hi=x0 + 1e-6), A=A, b=A @ x0,
            smooth=SmoothTerm(term=half_sq, lipschitz_grad=1.0), feasible_point=x0,
        )
        path = str(tmp_path / "box.json")
        save_problem(prob, path)
        rc = main(["certify", "--problem", path, "--map", "prox-lin-al", "--states", "10"])
        out = capsys.readouterr().out
        assert rc == 3
        assert "checked=0 " in out
        assert "certified: no" in out

    def test_parser_is_built_once_and_keeps_no_value(self, qp_path, capsys):
        # one parser serves every call in a process; a flag given to one call
        # does not become the next call's default
        argv = ["certify", "--problem", qp_path, "--map", "prox-lin-al", "--states", "5"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main([*argv, "--rho", "0.5"]) == 0
        half = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == default != half
        assert cli.build_parser() is cli.build_parser()

    def test_failed_condition_named(self, lasso_path, capsys):
        rc = main(
            [
                "certify", "--problem", lasso_path, "--map", "prox-lin-admm",
                "--policy", "identity-scaled", "--scale", "1.0", "--rho", "2.0",
            ]
        )
        assert rc == 2
        assert "lambda_min(M2) - rho lambda_max(B'B) > 0" in capsys.readouterr().err


# problem, map kind, policy, and the refusal of --rho 1e308
HUGE_RHO = [
    ("block-qp --n 12 --m 4 --seed 2", "prox-admm", "auto",
     "certificate P2 is not finite at rho = 1e+308"),
    ("block-qp --n 12 --m 4 --seed 2", "prox-admm", "identity-scaled",
     "certificate P2 is not finite at rho = 1e+308"),
    ("block-qp --n 12 --m 4 --seed 2", "prox-jacobi", "identity-scaled",
     "certificate rho lambda_max(A'A) is not finite at rho = 1e+308"),
    ("eq-qp --n 10 --m 3 --seed 1", "prox-lin-al", "identity-scaled",
     "certificate P is not finite at rho = 1e+308"),
    ("smooth-composite --n 12 --m 4 --seed 1", "smooth-lin-al", "identity-scaled",
     "certificate Q overflows when symmetrized"),
    ("block-qp --n 12 --m 4 --sigma 0 --seed 2", "full-lin-admm", "identity-scaled",
     "certificate Q1 overflows when symmetrized"),
    ("lasso-split --n 10 --m 6 --seed 1", "prox-lin-admm", "auto",
     "M2 overflows when symmetrized"),
]


class TestNonFiniteConfig:
    @pytest.mark.parametrize("command", ["certify", "solve"])
    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--rho", "nan"], "rho must be positive and finite, got nan"),
            (["--rho", "inf"], "rho must be positive and finite, got inf"),
            # M = scale * I: these two rows keep the ids they had when the
            # refusal was the check on M's entries
            pytest.param(
                ["--policy", "identity-scaled", "--scale", "nan"],
                "scale must be finite, got nan",
                id="flags2-M has non-finite entries",
            ),
            pytest.param(
                ["--policy", "identity-scaled", "--scale", "inf"],
                "scale must be finite, got inf",
                id="flags3-M has non-finite entries",
            ),
            (["--margin", "nan"], "margin must be finite"),
            # finite, but rho A'A overflows the pencil the step factors
            (["--rho", "1e308"], "prox-al: V(c) = H0 + c K0 overflows at c = 1"),
        ],
    )
    def test_refused_before_any_output(self, qp_path, tmp_path, capsys, command, flags, message):
        # a refused configuration prints one line on stderr and nothing else
        out = tmp_path / "t.csv"
        argv = [command, "--problem", qp_path, "--map", "prox-al", *flags]
        rc = main(argv + (["--out", str(out)] if command == "solve" else []))
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err
        assert captured.out == ""
        assert not out.exists()

    # finite, but rho A_i'A_i overflows the certificate (or the auto weight
    # built from it): refused naming the matrix, without a warning
    @pytest.mark.parametrize("command", ["certify", "solve"])
    @pytest.mark.parametrize(
        "problem,kind,policy,message", HUGE_RHO, ids=[f"{c[1]}-{c[2]}" for c in HUGE_RHO]
    )
    def test_huge_rho_is_one_line(
        self, tmp_path, capsys, command, problem, kind, policy, message
    ):
        path, out = tmp_path / "p.json", tmp_path / "t.csv"
        assert main(["gen", *problem.split(), "--out", str(path)]) == 0
        capsys.readouterr()
        argv = [command, "--problem", str(path), "--map", kind, "--policy", policy]
        argv += ["--rho", "1e308"] + (["--out", str(out)] if command == "solve" else [])
        rc = main(argv)
        captured = capsys.readouterr()
        assert (rc, captured.out, captured.err) == (2, "", f"error: {message}\n")
        assert not out.exists()


def smooth_h_sigma_path(path):
    # smooth-prox-al linearizes h, so h may not declare strong convexity
    h_term = Quadratic(H=np.eye(3), q=np.zeros(3), strong_convexity=0.5)
    h = SmoothTerm(term=h_term, lipschitz_grad=1.0)
    f = Quadratic(H=np.eye(3), q=np.ones(3), strong_convexity=1.0)
    save_problem(ConstrainedProblem(f=f, A=[[1.0, 1.0, 0.0]], b=[1.0], smooth=h), path)


def mixed_regime_path(path):
    # pcpm treats both blocks the same: sigma_f = 1 with sigma_g = 0
    f = Quadratic(H=np.eye(2), q=np.zeros(2), strong_convexity=1.0)
    g = Quadratic(H=np.zeros((2, 2)), q=np.ones(2))
    save_problem(BlockProblem(f_term=f, g_term=g, A=np.eye(2), B=np.eye(2), b=[1.0, 2.0]), path)


def gen_path(*args):
    def write(path):
        assert main(["gen", *args, "--seed", "1", "--out", str(path)]) == 0
    return write


# map kind, problem writer, and the refusal of a kind that does not apply
INAPPLICABLE = [
    ("prox-admm", gen_path("eq-qp", "--n", "6", "--m", "2"),
     "prox-admm requires a two-block problem"),
    ("smooth-lin-al", gen_path("eq-qp", "--n", "6", "--m", "2"),
     "smooth-lin-al requires a smooth objective part"),
    ("smooth-prox-al", smooth_h_sigma_path,
     "smooth-prox-al handles the smooth part by gradient linearization; "
     "its declared strong-convexity contribution must be zero"),
    ("chambolle-pock", gen_path("block-qp", "--n", "8", "--m", "3"),
     "chambolle-pock requires the first block map A = I"),
    ("pcpm", mixed_regime_path,
     "pcpm treats both blocks the same: sigma_f and sigma_g must share the regime "
     "(both zero or both positive)"),
]


@pytest.mark.parametrize("kind,write,message", INAPPLICABLE, ids=[c[0] for c in INAPPLICABLE])
def test_inapplicable_kind_is_refused(tmp_path, capsys, kind, write, message):
    # certify and solve refuse in one line before any output or file; a sweep
    # row names the same refusal
    path = tmp_path / "p.json"
    write(path)
    capsys.readouterr()
    out = tmp_path / "t.csv"
    for command in (["certify"], ["solve", "--iters", "20", "--out", str(out)]):
        rc = main([*command, "--problem", str(path), "--map", kind])
        captured = capsys.readouterr()
        assert (rc, captured.out, captured.err) == (2, "", f"error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.json"]
    report = tmp_path / "sweep.json"
    assert main(["sweep", "--problem", str(path), "--maps", kind, "--out", str(report)]) == 0
    with open(report) as fh:
        (row,) = json.load(fh)["rows"]
    assert row == {"map": kind, "mode": "classic", "status": f"skipped: {message}"}


class TestVerify:
    def run_pipeline(self, qp_path, tmp_path, iters=400):
        traj = tmp_path / "t.csv"
        report = tmp_path / "report.json"
        assert solve_fast(qp_path, traj, iters=iters) == 0
        rc = main(
            [
                "verify", "--problem", qp_path, "--traj", str(traj),
                "--manifest", str(traj) + ".manifest.json",
                "--out", str(report),
            ]
        )
        return rc, traj, report

    def test_report_schema(self, qp_path, tmp_path):
        rc, _, report_path = self.run_pipeline(qp_path, tmp_path)
        assert rc == 0
        with open(report_path) as fh:
            report = json.load(fh)
        assert report["bounds_hold"] is True
        assert report["first_violation"] is None
        assert isinstance(report["slope"], float)
        assert report["slope"] <= -1.8
        assert report["condition_P"] in ("met", "unmet")
        assert report["condition_P"] == "met"
        assert report["B"] > 0

    def test_truncated_trajectory_is_io_error(self, qp_path, tmp_path, capsys):
        rc, traj, _ = self.run_pipeline(qp_path, tmp_path, iters=100)
        assert rc == 0
        lines = Path(traj).read_text().splitlines(keepends=True)
        with open(traj, "w") as fh:
            fh.writelines(lines[:-5])
        rc = main(
            [
                "verify", "--problem", qp_path, "--traj", str(traj),
                "--manifest", str(traj) + ".manifest.json",
            ]
        )
        err = capsys.readouterr().err
        assert rc == 4
        assert "96" in err and "101" in err

    def test_non_numeric_cell_is_io_error(self, qp_path, tmp_path, capsys):
        rc, traj, _ = self.run_pipeline(qp_path, tmp_path, iters=20)
        assert rc == 0
        text = Path(traj).read_text().splitlines()
        text[-1] = "abc" + text[-1][text[-1].index(","):]
        with open(traj, "w") as fh:
            fh.write("\n".join(text) + "\n")
        rc = main(
            [
                "verify", "--problem", qp_path, "--traj", str(traj),
                "--manifest", str(traj) + ".manifest.json",
            ]
        )
        err = capsys.readouterr().err
        assert rc == 4
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_manifest_that_is_not_an_object_is_io_error(self, qp_path, tmp_path, capsys):
        rc, traj, _ = self.run_pipeline(qp_path, tmp_path, iters=20)
        assert rc == 0
        manifest_path = str(traj) + ".manifest.json"
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        with open(manifest_path, "w") as fh:
            json.dump(sorted(manifest), fh)
        rc = main(
            ["verify", "--problem", qp_path, "--traj", str(traj), "--manifest", manifest_path]
        )
        assert rc == 4
        assert capsys.readouterr().err == "error: manifest must be a JSON object\n"

    @pytest.mark.parametrize(
        "case,text,message",
        [
            ("empty", "", "empty trajectory file"),
            (
                "header",
                "# written now\nk,t,rho_k\n0,1,1\n",
                "unexpected columns ['k', 't', 'rho_k']",
            ),
            ("no-rows", "# written now\n" + ",".join(CSV_COLUMNS) + "\n", "no trajectory rows"),
            (
                "ten-columns",
                ",".join(CSV_COLUMNS) + "\n" + "0,1,1,1,1,1,1,1,1,1\n" * 3,
                "malformed trajectory rows",
            ),
        ],
    )
    def test_unreadable_trajectory_is_io_error(
        self, qp_path, tmp_path, capsys, case, text, message
    ):
        rc, traj, _ = self.run_pipeline(qp_path, tmp_path, iters=20)
        assert rc == 0
        Path(traj).write_text(text)
        with pytest.raises(DataError) as exc:
            trajectory_from_csv(traj)
        assert str(exc.value) == f"{traj}: {message}"
        capsys.readouterr()
        rc = main(
            [
                "verify", "--problem", qp_path, "--traj", str(traj),
                "--manifest", str(traj) + ".manifest.json",
            ]
        )
        err = capsys.readouterr().err
        assert rc == 4
        assert err == f"error: {traj}: {message}\n"

    def test_manifest_missing_key_is_io_error(self, qp_path, tmp_path, capsys):
        rc, traj, _ = self.run_pipeline(qp_path, tmp_path, iters=20)
        assert rc == 0
        manifest_path = str(traj) + ".manifest.json"
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        del manifest["mu"]
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        rc = main(
            ["verify", "--problem", qp_path, "--traj", str(traj), "--manifest", manifest_path]
        )
        err = capsys.readouterr().err
        assert rc == 4
        assert err.count("\n") == 1 and "'mu'" in err

    @pytest.mark.parametrize(
        "key,value",
        [
            ("z0", [0.0]),
            ("y0", [0.0] * 6),
            ("iters", "20"),
            ("iters", MAX_ITERS + 1),
            ("p", True),
            ("mu", None),
            ("rho", float("nan")),
            ("z0", ["0"] * 20),
            ("alpha", "1"),
            ("p", 3),
            ("mode", "turbo"),
            ("delta", "1.0"),
            ("delta", -5.0),
        ],
    )
    def test_manifest_bad_value_is_io_error(self, qp_path, tmp_path, capsys, key, value):
        rc, traj, _ = self.run_pipeline(qp_path, tmp_path, iters=20)
        assert rc == 0
        manifest_path = str(traj) + ".manifest.json"
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        assert manifest["subproblems"] == [
            {
                "route": "pencil-eigh",
                "factorizations": {"cholesky": 1, "pencil-eigh": 1},
                "refinements": 0,
            }
        ]
        manifest[key] = value
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        capsys.readouterr()
        rc = main(
            ["verify", "--problem", qp_path, "--traj", str(traj), "--manifest", manifest_path]
        )
        err = capsys.readouterr().err
        assert rc == 4
        assert err.count("\n") == 1 and repr(key) in err

    def test_manifest_p_must_match_mode(self, qp_path, tmp_path, capsys):
        # a fast run runs at p = 2; checked against the weaker p = 1 bound
        # instead, it would pass whatever its O(1/N^2) bound says
        rc, traj, _ = self.run_pipeline(qp_path, tmp_path)
        assert rc == 0
        manifest_path = str(traj) + ".manifest.json"
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        assert manifest["mode"] == "fast" and manifest["p"] == 2
        manifest["p"] = 1
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        capsys.readouterr()
        rc = main(
            ["verify", "--problem", qp_path, "--traj", str(traj), "--manifest", manifest_path]
        )
        err = capsys.readouterr().err
        assert rc == 4
        assert err.count("\n") == 1 and "'p'" in err and "fast" in err

    def test_manifest_delta_must_be_the_certificates(self, qp_path, tmp_path, capsys):
        # delta is compared with the rebuilt certificate's to 1e-12 relative;
        # subproblems is recorded and not checked
        traj = tmp_path / "t.csv"
        argv = ["solve", "--problem", qp_path, "--map", "prox-lin-al", "--iters", "200"]
        assert main([*argv, "--out", str(traj)]) == 0
        manifest_path = Path(str(traj) + ".manifest.json")
        manifest = json.loads(manifest_path.read_text())
        delta = manifest["delta"]
        verify = ["verify", "--problem", qp_path, "--traj", str(traj)]
        verify += ["--manifest", str(manifest_path)]
        for value, rc in ((delta * (1 + 1e-13), 0), (delta * (1 + 1e-9), 4), (-5.0, 4)):
            edited = dict(manifest, delta=value, subproblems="anything")
            manifest_path.write_text(json.dumps(edited))
            capsys.readouterr()
            assert main(verify) == rc
            err = capsys.readouterr().err
            assert err == "" if rc == 0 else err.count("\n") == 1 and "'delta'" in err
        del manifest["delta"]
        manifest_path.write_text(json.dumps(manifest))
        assert main(verify) == 4
        assert capsys.readouterr().err == "error: manifest is missing key 'delta'\n"

    def test_k_column_must_count_rows(self, tmp_path, capsys):
        # a gap held at 0.4 B breaks B / (2k) from k = 2 on; rows relabelled
        # k = 1 would each be checked against B / 2 and pass
        prob = str(tmp_path / "p.json")
        rc = main(
            ["gen", "eq-qp", "--n", "10", "--m", "3", "--sigma", "1", "--seed", "1", "--out", prob]
        )
        assert rc == 0
        traj = tmp_path / "t.csv"
        rc = main(
            [
                "solve", "--problem", prob, "--map", "prox-lin-al", "--mode", "classic",
                "--iters", "200", "--out", str(traj),
            ]
        )
        assert rc == 0
        report = tmp_path / "r.json"
        verify = [
            "verify", "--problem", prob, "--traj", str(traj),
            "--manifest", str(traj) + ".manifest.json", "--out", str(report),
        ]
        assert main(verify) == 0
        B = json.loads(report.read_text())["B"]
        held = reference_solve(load_problem(prob)).psi_star + 0.4 * B
        lines = traj.read_text().splitlines()
        columns = lines[0].split(",")
        k, psi = columns.index("k"), columns.index("psi_x")
        rows = [line.split(",") for line in lines[1:]]

        def rewrite(col, value):
            for row in rows[1:]:
                row[col] = value
            traj.write_text("\n".join(lines[:1] + [",".join(row) for row in rows]) + "\n")

        rewrite(psi, repr(held))
        assert main(verify) == 3
        rewrite(k, "1")
        capsys.readouterr()
        assert main(verify) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "column k" in err

    def test_trajectory_of_another_problem_is_io_error(self, qp_path, tmp_path, capsys):
        rc, traj, _ = self.run_pipeline(qp_path, tmp_path, iters=20)
        assert rc == 0
        other = gen_qp(tmp_path / "other.json", seed=8)  # same shape, other data
        capsys.readouterr()
        rc = main(
            [
                "verify", "--problem", other, "--traj", str(traj),
                "--manifest", str(traj) + ".manifest.json",
            ]
        )
        err = capsys.readouterr().err
        assert rc == 4
        assert err.count("\n") == 1 and "'problem_sha256'" in err

    def test_hash_is_of_the_bytes_solved(self, qp_path, tmp_path, monkeypatch, capsys):
        # the problem file is rewritten while the solve runs: the manifest
        # must name the problem that was solved, not the file's later bytes
        import flagopt.cli as cli

        solved = tmp_path / "solved.json"
        with open(qp_path, "rb") as src, open(solved, "wb") as dst:
            dst.write(src.read())
        later = gen_qp(tmp_path / "later.json", seed=8)
        real_run = cli.run

        def run_then_rewrite(prob, params):
            with open(later, "rb") as src, open(solved, "wb") as dst:
                dst.write(src.read())
            return real_run(prob, params)

        monkeypatch.setattr(cli, "run", run_then_rewrite)
        traj = tmp_path / "t.csv"
        assert solve_fast(str(solved), traj, iters=20) == 0
        with open(str(traj) + ".manifest.json") as fh:
            assert json.load(fh)["problem_sha256"] == sha256(qp_path) != sha256(solved)
        verify = ["verify", "--traj", str(traj), "--manifest", str(traj) + ".manifest.json"]
        capsys.readouterr()
        assert main([*verify, "--problem", str(solved)]) == 4
        assert "'problem_sha256'" in capsys.readouterr().err
        assert main([*verify, "--problem", qp_path]) == 0

    def test_manifest_without_problem_hash_is_io_error(self, qp_path, tmp_path, capsys):
        rc, traj, _ = self.run_pipeline(qp_path, tmp_path, iters=20)
        assert rc == 0
        manifest_path = str(traj) + ".manifest.json"
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        assert manifest["problem_sha256"] == sha256(qp_path)
        del manifest["problem_sha256"]
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        capsys.readouterr()
        rc = main(
            ["verify", "--problem", qp_path, "--traj", str(traj), "--manifest", manifest_path]
        )
        err = capsys.readouterr().err
        assert rc == 4
        assert err.count("\n") == 1 and "'problem_sha256'" in err

    def tampered(self, qp_path, tmp_path, edit):
        # a 100-iteration fast run whose CSV rows edit(fields, last) rewrites
        # in place; returns the verify arguments
        rc, traj, _ = self.run_pipeline(qp_path, tmp_path, iters=100)
        assert rc == 0
        lines = Path(traj).read_text().splitlines()
        first = lines.index(",".join(CSV_COLUMNS)) + 1
        for i in range(first, len(lines)):
            fields = lines[i].split(",")
            edit(fields, i == len(lines) - 1)
            lines[i] = ",".join(fields)
        Path(traj).write_text("\n".join(lines) + "\n")
        return [
            "verify", "--problem", qp_path, "--traj", str(traj),
            "--manifest", str(traj) + ".manifest.json",
        ]

    def test_tampered_trajectory_fails_then_tol_loosens(
        self, qp_path, tmp_path, monkeypatch, capsys
    ):
        def raise_last_psi(fields, last):
            if last:
                fields[PSI_X] = repr(float(fields[PSI_X]) + 1e6)

        args = self.tampered(qp_path, tmp_path, raise_last_psi)
        assert main(args) == 3
        assert "fail" in capsys.readouterr().out
        monkeypatch.setenv("FLAGOPT_TOL", "1e9")  # no environment variable sets a tolerance
        assert main(args) == 3
        report = tmp_path / "r.json"
        assert main([*args, "--tol", "1e9", "--out", str(report)]) == 0
        # the report records the tolerance its verdict allowed
        doc = json.loads(report.read_text())
        assert doc["bounds_hold"] is True and doc["tol"] == 1e9
        assert doc["max_gap_excess"] > 1e5

    def test_nan_trajectory_fails_the_bound_check(self, qp_path, tmp_path, capsys):
        # NaN compares false with any bound: the check must read
        # "not gap <= bound", or a NaN run would pass
        def nan_values(fields, last):
            fields[PSI_X] = fields[FEAS_X] = "nan"

        args = self.tampered(qp_path, tmp_path, nan_values)
        capsys.readouterr()
        assert main(args) == 3
        assert "bounds: fail first-violation=1 " in capsys.readouterr().out

    def test_all_nan_run_writes_a_failing_report(self, qp_path, tmp_path, capsys):
        # no row of a NaN run is finite, so the report has no largest excess
        # over the bound: null, which strict JSON holds (not -inf)
        def nan_values(fields, last):
            fields[PSI_X] = fields[FEAS_X] = "nan"

        report = tmp_path / "r.json"
        args = self.tampered(qp_path, tmp_path, nan_values)
        capsys.readouterr()
        assert main([*args, "--out", str(report)]) == 3
        assert capsys.readouterr().err == ""
        doc = json.loads(report.read_text())
        assert doc["bounds_hold"] is False and doc["first_violation"] == 1
        assert doc["max_gap_excess"] is None and doc["max_feas_excess"] is None

    def test_manifest_without_flag_defaults_gives_the_same_report(self, lasso_path, tmp_path):
        # scale, margin and alpha are read with the flags' defaults when absent
        traj = tmp_path / "t.csv"
        argv = ["solve", "--problem", lasso_path, "--map", "prox-lin-al", "--iters", "100"]
        assert main([*argv, "--out", str(traj)]) == 0
        manifest_path = tmp_path / "t.csv.manifest.json"
        reports = []
        for strip in (False, True):
            if strip:
                manifest = json.loads(manifest_path.read_text())
                for key in ("scale", "margin", "alpha"):
                    del manifest[key]
                manifest_path.write_text(json.dumps(manifest))
            report = tmp_path / f"report-{strip}.json"
            rc = main(
                [
                    "verify", "--problem", lasso_path, "--traj", str(traj),
                    "--manifest", str(manifest_path), "--out", str(report),
                ]
            )
            assert rc == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]

    def test_ergodic_report_notes_constant_discrepancy(self, qp_path, tmp_path):
        traj = tmp_path / "e.csv"
        report_path = tmp_path / "e.json"
        rc = main(
            [
                "solve", "--problem", qp_path, "--map", "prox-lin-al",
                "--mode", "ergodic", "--policy", "identity-scaled",
                "--scale", "0.5", "--rho", "0.05", "--iters", "300",
                "--out", str(traj),
            ]
        )
        assert rc == 0
        rc = main(
            [
                "verify", "--problem", qp_path, "--traj", str(traj),
                "--manifest", str(traj) + ".manifest.json",
                "--out", str(report_path),
            ]
        )
        assert rc == 0
        with open(report_path) as fh:
            report = json.load(fh)
        assert report["bounds_hold"] is True
        assert "factor 2" in report["note"]

    def test_unmet_ergodic_report_keeps_the_inapplicable_note(self, tmp_path, capsys):
        # prox-al under the auto policy has lambda_max(P) > sigma/2 here, so
        # no bound is checked and the report must not say "certified"
        prob, traj, report_path = (str(tmp_path / name) for name in ("p.json", "e.csv", "e.json"))
        gen = ["gen", "eq-qp", "--n", "10", "--m", "3", "--seed", "1", "--out", prob]
        assert main(gen) == 0
        solve = ["solve", "--problem", prob, "--map", "prox-al", "--mode", "ergodic"]
        assert main([*solve, "--iters", "200", "--out", traj]) == 0
        capsys.readouterr()
        rc = main(
            [
                "verify", "--problem", prob, "--traj", traj,
                "--manifest", traj + ".manifest.json", "--out", report_path,
            ]
        )
        assert rc == 3 and "condition-P=unmet" in capsys.readouterr().out
        with open(report_path) as fh:
            report = json.load(fh)
        assert report["condition_P"] == "unmet" and report["bounds_hold"] is False
        assert report["note"] == "accelerated bound inapplicable: lambda_max(P) > sigma/2"


NOT_UTF8 = b"\xff\xfe\x00{\x81}"


def edit_problem(edit):
    """Problem bytes: the eq-qp document with edit applied to its JSON."""

    def make(qp_path):
        with open(qp_path) as fh:
            doc = json.load(fh)
        edit(doc)
        return json.dumps(doc).encode()

    return make


def ragged_row(doc):
    doc["A"][0] = doc["A"][0][:-1]


# (command, artifact overwritten, its bytes from the eq-qp problem path (None
# removes the file), a fragment of the one error line)
MALFORMED = {
    "problem-not-utf8": ("certify", "problem", lambda qp: NOT_UTF8, "malformed problem JSON"),
    "manifest-not-utf8": ("verify", "manifest", lambda qp: NOT_UTF8, "invalid JSON"),
    "traj-not-utf8": ("verify", "traj", lambda qp: NOT_UTF8, "not a UTF-8 text file"),
    "problem-top-level-list": (
        "certify", "problem", lambda qp: b"[1, 2]", "problem JSON must be an object"
    ),
    "problem-f-string": (
        "certify", "problem", edit_problem(lambda d: d.update(f="abc")), "malformed problem JSON"
    ),
    "problem-A-ragged-row": (
        "certify", "problem", edit_problem(ragged_row), "malformed problem JSON"
    ),
    "problem-A-string": (
        "certify", "problem", edit_problem(lambda d: d.update(A="abc")), "malformed problem JSON"
    ),
    "problem-n-m-not-the-shape-of-A": (
        "certify", "problem", edit_problem(lambda d: d.update(n=999, m=-3)),
        "has n = 999, m = -3; A is (5, 20)",
    ),
    "problem-unknown-term-kind": (
        "certify", "problem", edit_problem(lambda d: d["f"].update(kind="cubic")),
        "unknown term kind 'cubic'",
    ),
    "problem-term-missing-field": (
        "certify", "problem", edit_problem(lambda d: d["f"].pop("H")),
        "term JSON missing field 'H'",
    ),
    "problem-missing-field": (
        "certify", "problem", edit_problem(lambda d: d.pop("b")), "problem JSON missing field 'b'"
    ),
    "problem-block-with-smooth-term": (
        "certify", "problem",
        edit_problem(lambda d: d.update(block={"n1": 10}, h={"term": d["f"], "lipschitz_grad": 1})),
        "block problems do not carry a smooth term",
    ),
    "problem-smooth-term-not-quadratic": (
        "certify", "problem",
        edit_problem(
            lambda d: d.update(h={"term": {"kind": "zero", "dim": 20}, "lipschitz_grad": 1})
        ),
        "smooth term must be quadratic",
    ),
    "problem-unreadable": ("certify", "problem", lambda qp: None, "cannot read problem file"),
    "problem-boolean-strong-convexity": (
        "certify", "problem", edit_problem(lambda d: d["f"].update(strong_convexity=True)),
        "strong_convexity must be a number, got True",
    ),
    "problem-string-entry-of-b": (
        "certify", "problem", edit_problem(lambda d: d["b"].__setitem__(0, "0.0")),
        "an entry of b must be a number, got '0.0'",
    ),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exits_4_with_one_line(self, qp_path, tmp_path, capsys, case):
        command, artifact, content, message = MALFORMED[case]
        paths = {
            "problem": tmp_path / "p.json",
            "traj": tmp_path / "t.csv",
            "manifest": tmp_path / "t.csv.manifest.json",
        }
        paths["problem"].write_bytes(Path(qp_path).read_bytes())
        assert solve_fast(str(paths["problem"]), paths["traj"], iters=20) == 0
        data = content(qp_path)
        if data is None:
            paths[artifact].unlink()
        else:
            paths[artifact].write_bytes(data)
        argv = [command, "--problem", str(paths["problem"])]
        if command == "certify":
            argv += ["--map", "prox-lin-al", "--states", "5"]
        else:
            argv += ["--traj", str(paths["traj"]), "--manifest", str(paths["manifest"])]
        capsys.readouterr()
        rc = main(argv)
        captured = capsys.readouterr()
        err = captured.err
        assert rc == 4, err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err and captured.out == "", err

    def test_invalid_well_formed_problem_exits_2(self, qp_path, tmp_path, capsys):
        # a valid JSON document whose A has one column too few for f
        path = tmp_path / "p.json"
        path.write_bytes(edit_problem(lambda d: d.update(A=[r[:-1] for r in d["A"]]))(qp_path))
        rc = main(["certify", "--problem", str(path), "--map", "prox-lin-al"])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1, err

    def test_nan_strong_convexity_with_a_recorded_sigma_exits_2(self, tmp_path, capsys):
        # lambda_min(H) = 0.01: a NaN declaration must not carry a recorded
        # sigma of 10 into a fast run
        path = tmp_path / "p.json"
        argv = ["gen", "eq-qp", "--n", "10", "--m", "3", "--sigma", "0.01", "--seed", "1"]
        assert main([*argv, "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc["f"]["strong_convexity"] = float("nan")
        doc["sigma"] = 10.0
        path.write_text(json.dumps(doc))
        traj = tmp_path / "t.csv"
        commands = (
            ["certify", "--problem", str(path), "--map", "prox-al"],
            ["solve", "--problem", str(path), "--map", "prox-al", "--mode", "fast",
             "--out", str(traj)],
        )
        for argv in commands:
            capsys.readouterr()
            rc = main(argv)
            captured = capsys.readouterr()
            assert rc == 2 and captured.out == "" and not traj.exists()
            assert captured.err == "error: strong_convexity must be >= 0 and finite, got nan\n"

    def test_block_file_with_a_wrong_sigma_exits_2(self, tmp_path, capsys):
        # a block file's sigma must be min(sigma_f, sigma_g), as a flat file's
        # must be its declared sum
        path = tmp_path / "bq.json"
        argv = ["gen", "block-qp", "--n", "12", "--m", "4", "--sigma", "1", "--seed", "2"]
        assert main([*argv, "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc["sigma"] = 7.0
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["certify", "--problem", str(path), "--map", "prox-lin-admm"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("error: sigma 7.0 does not equal")
        assert captured.err.count("\n") == 1


ARGUMENT_ERRORS = {
    "negative-infinite-rho": ["--map", "prox-al", "--rho", "-inf"],
    "missing-map": [],
    "unknown-map": ["--map", "gradient-descent"],
}


class TestArgumentErrors:
    @pytest.mark.parametrize("case", [*sorted(ARGUMENT_ERRORS), "unknown-command"])
    def test_one_line_and_exit_2(self, qp_path, capsys, case):
        if case == "unknown-command":
            argv = ["polish", "--problem", qp_path]
        else:
            argv = ["certify", "--problem", qp_path, *ARGUMENT_ERRORS[case]]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
        assert captured.out == ""


class TestRoundTrip:
    def test_pipeline_reproducible_byte_for_byte(self, tmp_path):
        outputs = []
        for tag in ("one", "two"):
            d = tmp_path / tag
            d.mkdir()
            prob = gen_qp(d / "qp.json", seed=21)
            traj = d / "t.csv"
            report = d / "r.json"
            assert solve_fast(prob, traj, iters=200) == 0
            rc = main(
                [
                    "verify", "--problem", prob, "--traj", str(traj),
                    "--manifest", str(traj) + ".manifest.json",
                    "--out", str(report),
                ]
            )
            assert rc == 0
            outputs.append((d, prob, traj, report))
        (d1, p1, t1, r1), (d2, p2, t2, r2) = outputs
        assert sha256(p1) == sha256(p2)
        assert sha256(t1) == sha256(t2)
        assert sha256(str(t1) + ".manifest.json") == sha256(str(t2) + ".manifest.json")
        assert sha256(r1) == sha256(r2)


class TestSweep:
    def test_grid_rows(self, qp_path, tmp_path):
        out = tmp_path / "sweep.json"
        rc = main(
            [
                "sweep", "--problem", qp_path,
                "--maps", "prox-al,prox-lin-al", "--modes", "classic",
                "--rho", "1.0", "--iters", "200", "--out", str(out),
            ]
        )
        assert rc == 0
        with open(out) as fh:
            doc = json.load(fh)
        assert len(doc["rows"]) == 2
        for row in doc["rows"]:
            assert row["bounds_hold"] is True
            assert row["condition_P"] == "met"

    @pytest.mark.parametrize("mode", ["classic", "fast", "ergodic"])
    def test_row_matches_verify_report(self, qp_path, tmp_path, capsys, mode):
        # a sweep row is the verify report of the same map, mode and problem
        out, traj, report = tmp_path / "sweep.json", tmp_path / "t.csv", tmp_path / "r.json"
        common = ["--problem", qp_path, "--iters", "150"]
        sweep = ["sweep", *common, "--maps", "prox-lin-al", "--modes", mode, "--out", str(out)]
        assert main(sweep) == 0
        printed = capsys.readouterr().out
        solve = ["solve", *common, "--map", "prox-lin-al", "--mode", mode, "--out", str(traj)]
        assert main(solve) == 0
        rc = main(
            [
                "verify", "--problem", qp_path, "--traj", str(traj),
                "--manifest", str(traj) + ".manifest.json", "--out", str(report),
            ]
        )
        with open(out) as fh:
            (row,) = json.load(fh)["rows"]
        with open(report) as fh:
            rep = json.load(fh)
        keys = ("delta", "p", "bounds_hold", "first_violation", "slope", "condition_P")
        assert {key: row[key] for key in keys} == {key: rep[key] for key in keys}
        assert rc == (0 if rep["bounds_hold"] else 3)
        if rep["condition_P"] == "unmet":
            # no bound was checked, so the sweep says neither ok nor VIOLATED
            assert "bounds=n/a" in printed and rep["first_violation"] is None

    def test_row_certifies_once(self, qp_path, capsys, monkeypatch):
        # the row's report reads the certificate of the plan its run stepped
        calls = []
        formula = maps._certify

        def counted(*args):
            calls.append(1)
            return formula(*args)

        monkeypatch.setattr(maps, "_certify", counted)
        argv = ["sweep", "--problem", qp_path, "--maps", "prox-lin-al", "--iters", "50"]
        assert main(argv) == 0
        assert "condition-P=met" in capsys.readouterr().out
        assert len(calls) == 1

    def test_two_block_map_on_a_flat_file_is_a_skipped_row(self, qp_path, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        argv = ["sweep", "--problem", qp_path, "--maps", "prox-admm", "--iters", "50"]
        assert main(argv + ["--out", str(out)]) == 0
        status = "skipped: prox-admm requires a two-block problem"
        with open(out) as fh:
            assert json.load(fh)["rows"] == [
                {"map": "prox-admm", "mode": "classic", "status": status}
            ]
        printed = capsys.readouterr().out.splitlines()
        assert printed == [f"wrote {out}", f"{'prox-admm':>16} {'classic':>8}  {status}"]

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            (
                "--modes",
                "classic,turbo",
                "unknown mode 'turbo' (choose from fast, classic, ergodic)",
            ),
            (
                "--maps",
                "prox-al,bogus",
                f"unknown map kind 'bogus' (choose from {', '.join(MAP_KINDS)})",
            ),
        ],
    )
    def test_unknown_list_entry_refused_before_any_row(
        self, qp_path, tmp_path, capsys, flag, value, message
    ):
        out = tmp_path / "sweep.json"
        rc = main(["sweep", "--problem", qp_path, flag, value, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == "" and not out.exists()
        assert captured.err == f"error: {message}\n"

    def test_unknown_map_rejected(self, qp_path, capsys):
        rc = main(["sweep", "--problem", qp_path, "--maps", "nope"])
        assert rc == 2
        assert "unknown map" in capsys.readouterr().err
