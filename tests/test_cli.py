import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flagopt
from flagopt import Box, ConstrainedProblem, Quadratic, SmoothTerm, load_problem, save_problem
from flagopt import cli, maps
from flagopt.cli import main
from flagopt.driver import MAX_ITERS, trajectory_from_csv
from flagopt.rates import reference_solve


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

    def test_unwritable_path_is_io_error(self, tmp_path):
        rc = main(
            ["gen", "eq-qp", "--n", "5", "--m", "2",
             "--out", str(tmp_path / "no" / "dir" / "x.json")]
        )
        assert rc == 4


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
        spec = maps.KINDS["prox-lin-al"]

        def counted(*args):
            calls.append(1)
            return spec.certify(*args)

        monkeypatch.setitem(maps.KINDS, "prox-lin-al", dataclasses.replace(spec, certify=counted))
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

    @pytest.mark.parametrize("flag,value", [("--states", "0"), ("--xis", "-3")])
    def test_empty_sampling_rejected(self, tmp_path, capsys, flag, value):
        path = str(tmp_path / "p.json")
        rc = main(
            ["gen", "eq-qp", "--n", "10", "--m", "3", "--sigma", "1", "--seed", "1", "--out", path]
        )
        assert rc == 0
        capsys.readouterr()
        rc = main(["certify", "--problem", path, "--map", "prox-lin-al", flag, value])
        captured = capsys.readouterr()
        assert rc == 2
        assert "certified" not in captured.out
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and f"{flag[2:]} >= 1, got {value}" in err[0]

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

    def test_failed_condition_named(self, lasso_path, capsys):
        rc = main(
            [
                "certify", "--problem", lasso_path, "--map", "prox-lin-admm",
                "--policy", "identity-scaled", "--scale", "1.0", "--rho", "2.0",
            ]
        )
        assert rc == 2
        assert "lambda_min(M2) - rho lambda_max(B'B) > 0" in capsys.readouterr().err


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
                "factorizations": {"cholesky": 1, "pencil-eigh": 1, "per-step": 0},
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
        columns = lines[1].split(",")
        k, psi = columns.index("k"), columns.index("psi_x")
        rows = [line.split(",") for line in lines[2:]]

        def rewrite(col, value):
            for row in rows[1:]:
                row[col] = value
            traj.write_text("\n".join(lines[:2] + [",".join(row) for row in rows]) + "\n")

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

    def test_tampered_trajectory_fails_then_env_tol_loosens(
        self, qp_path, tmp_path, monkeypatch, capsys
    ):
        rc, traj, _ = self.run_pipeline(qp_path, tmp_path, iters=100)
        assert rc == 0
        lines = Path(traj).read_text().splitlines()
        fields = lines[-1].split(",")
        fields[3] = repr(float(fields[3]) + 1e6)  # psi_x column
        lines[-1] = ",".join(fields)
        with open(traj, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        args = [
            "verify", "--problem", qp_path, "--traj", str(traj),
            "--manifest", str(traj) + ".manifest.json",
        ]
        assert main(args) == 3
        assert "fail" in capsys.readouterr().out
        monkeypatch.setenv("FLAGOPT_TOL", "1e9")
        assert main(args) == 0

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


# (command, artifact overwritten, its bytes from the eq-qp problem path)
MALFORMED = {
    "problem-not-utf8": ("certify", "problem", lambda qp: NOT_UTF8),
    "manifest-not-utf8": ("verify", "manifest", lambda qp: NOT_UTF8),
    "traj-not-utf8": ("verify", "traj", lambda qp: NOT_UTF8),
    "problem-top-level-list": ("certify", "problem", lambda qp: b"[1, 2]"),
    "problem-f-string": ("certify", "problem", edit_problem(lambda d: d.update(f="abc"))),
    "problem-A-ragged-row": ("certify", "problem", edit_problem(ragged_row)),
    "problem-A-string": ("certify", "problem", edit_problem(lambda d: d.update(A="abc"))),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exits_4_with_one_line(self, qp_path, tmp_path, capsys, case):
        command, artifact, content = MALFORMED[case]
        paths = {
            "problem": tmp_path / "p.json",
            "traj": tmp_path / "t.csv",
            "manifest": tmp_path / "t.csv.manifest.json",
        }
        paths["problem"].write_bytes(Path(qp_path).read_bytes())
        assert solve_fast(str(paths["problem"]), paths["traj"], iters=20) == 0
        paths[artifact].write_bytes(content(qp_path))
        argv = [command, "--problem", str(paths["problem"])]
        if command == "certify":
            argv += ["--map", "prox-lin-al", "--states", "5"]
        else:
            argv += ["--traj", str(paths["traj"]), "--manifest", str(paths["manifest"])]
        capsys.readouterr()
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 4, err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_invalid_well_formed_problem_exits_2(self, qp_path, tmp_path, capsys):
        # a valid JSON document whose A has one column too few for f
        path = tmp_path / "p.json"
        path.write_bytes(edit_problem(lambda d: d.update(A=[r[:-1] for r in d["A"]]))(qp_path))
        rc = main(["certify", "--problem", str(path), "--map", "prox-lin-al"])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1, err


class TestRoundTrip:
    def strip_comments(self, path):
        with open(path) as fh:
            return [ln for ln in fh if not ln.startswith("#")]

    def test_pipeline_reproducible_up_to_timestamp(self, tmp_path):
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
        assert self.strip_comments(t1) == self.strip_comments(t2)
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

    def test_unknown_map_rejected(self, qp_path, capsys):
        rc = main(["sweep", "--problem", qp_path, "--maps", "nope"])
        assert rc == 2
        assert "unknown map" in capsys.readouterr().err
