import hashlib
import json

import numpy as np
import pytest

from flagopt.cli import main
from flagopt.driver import trajectory_from_csv


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
        lines = open(traj).read().splitlines(keepends=True)
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
        text = open(traj).read().splitlines()
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

    def test_tampered_trajectory_fails_then_env_tol_loosens(
        self, qp_path, tmp_path, monkeypatch, capsys
    ):
        rc, traj, _ = self.run_pipeline(qp_path, tmp_path, iters=100)
        assert rc == 0
        lines = open(traj).read().splitlines()
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

    def test_unknown_map_rejected(self, qp_path, capsys):
        rc = main(["sweep", "--problem", qp_path, "--maps", "nope"])
        assert rc == 2
        assert "unknown map" in capsys.readouterr().err
