import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from slepian import cli


def run_cli(*args: str, env=None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "slepian", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def read_csv(path: Path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestEigs:
    def test_scalar_case(self, tmp_path):
        out = tmp_path / "eigs.csv"
        cp = run_cli("eigs", "--N", "1", "--W", "0.2", "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        header, rows = read_csv(out)
        assert header == ["k", "lambda_discrete", "method", "N", "W"]
        assert len(rows) == 1
        assert float(rows[0][1]) == pytest.approx(0.4, abs=1e-15)

    def test_descending_and_trace(self, tmp_path):
        out = tmp_path / "eigs.csv"
        cp = run_cli("eigs", "--N", "60", "--W", "0.3", "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        _, rows = read_csv(out)
        values = [float(r[1]) for r in rows]
        assert len(values) == 60
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert abs(sum(values) - 36.0) <= 1e-9

    def test_invalid_bandwidth_no_file(self, tmp_path):
        out = tmp_path / "eigs.csv"
        cp = run_cli("eigs", "--N", "10", "--W", "0.7", "--out", str(out))
        assert cp.returncode == 1
        assert not out.exists()

    def test_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            cp = run_cli("eigs", "--N", "24", "--W", "0.17", "--out", str(out))
            assert cp.returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_with_classical_column(self, tmp_path):
        out = tmp_path / "fig.csv"
        cp = run_cli("eigs", "--N", "30", "--W", "0.1", "--with-classical",
                     "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        header, rows = read_csv(out)
        assert header[-1] == "lambda_classical"
        # discrete and classical eigenvalues track each other at the top
        assert float(rows[0][1]) == pytest.approx(float(rows[0][5]), abs=1e-3)


class TestTable1:
    REFERENCE = {0.1: 4.15e-3, 0.2: 1.65e-2, 0.3: 3.98e-2, 0.4: 8.51e-2}

    def test_rows_and_values(self, tmp_path):
        out = tmp_path / "table1.csv"
        cp = run_cli("table1", "--out", str(out), "--strict")
        assert cp.returncode == 0, cp.stderr
        header, rows = read_csv(out)
        assert header == ["W", "c", "l2_diff"]
        assert len(rows) == 4
        for row in rows:
            W = float(row[0])
            assert float(row[1]) == pytest.approx(math.pi * 60 * W, rel=1e-12)
            ref = self.REFERENCE[round(W, 3)]
            assert abs(float(row[2]) - ref) / ref <= 0.02


class TestBounds:
    def test_small_grid_passes(self, tmp_path):
        out = tmp_path / "report.json"
        cp = run_cli("bounds", "--N", "30", "--W", "0.1,0.3", "--eps", "0.05",
                     "--out", str(out), "--strict")
        assert cp.returncode == 0, cp.stderr
        payload = json.loads(out.read_text())
        assert payload["pass"] is True
        assert payload["checks"]

    def test_malformed_grid(self):
        cp = run_cli("bounds", "--W", "0.1,oops")
        assert cp.returncode == 1

    def test_out_of_range_band_skips_tail_checks(self, tmp_path):
        out = tmp_path / "report.json"
        cp = run_cli("bounds", "--N", "30", "--W", "0.3", "--eps", "0.05",
                     "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        payload = json.loads(out.read_text())
        tail = [c for c in payload["checks"]
                if c["name"] == "eigenvalue_tail_bound"]
        assert tail and all(c["skipped"] for c in tail)
        assert payload["pass"] is True


class TestProject:
    def test_example2_preset(self, tmp_path):
        out = tmp_path / "proj.json"
        cp = run_cli("project", "--preset", "example2", "--out", str(out),
                     "--strict")
        assert cp.returncode == 0, cp.stderr
        payload = json.loads(out.read_text())
        assert payload["residual_sup"] <= 1e-8
        assert (tmp_path / "proj.csv").exists()

    def test_example3_at_plunge_truncation(self, tmp_path):
        out = tmp_path / "proj.json"
        cp = run_cli("project", "--preset", "example3", "--K", "36",
                     "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        payload = json.loads(out.read_text())
        assert abs(payload["residual_l2"] - 2.43e-2) / 2.43e-2 <= 0.10

    def test_native_basis_reports_sobolev_check(self, tmp_path):
        out = tmp_path / "native.json"
        cp = run_cli("project", "--target", "weierstrass", "--s", "1.0",
                     "--N", "60", "--W", "0.3", "--K", "50",
                     "--basis", "native", "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        payload = json.loads(out.read_text())
        assert payload["interval"] == "native"
        assert payload["sobolev_ok"] is True

    def test_empty_samples_file(self, tmp_path):
        samples = tmp_path / "empty.csv"
        samples.write_text("x,f\n")
        cp = run_cli("project", "--target", "samples", "--samples-file",
                     str(samples), "--N", "16", "--W", "0.2")
        assert cp.returncode == 1

    @pytest.mark.parametrize("row", ["0.5,nan", "nan,1.0", "0.5,inf"])
    def test_non_finite_samples_file(self, tmp_path, row):
        samples = tmp_path / "bad.csv"
        samples.write_text(f"x,f\n-1.0,0.0\n{row}\n1.0,1.0\n")
        out = tmp_path / "proj.json"
        cp = run_cli("project", "--target", "samples", "--samples-file",
                     str(samples), "--N", "16", "--W", "0.2", "--out", str(out))
        assert cp.returncode == 1
        assert cp.stderr == "slepian: samples must be finite\n"
        assert not out.exists()

    def test_overflowing_weierstrass(self, tmp_path):
        out = tmp_path / "proj.json"
        cp = run_cli("project", "--target", "weierstrass", "--s", "0.01",
                     "--N", "16", "--W", "0.2", "--out", str(out))
        assert cp.returncode == 1
        assert len(cp.stderr.splitlines()) == 1 and "overflow" in cp.stderr
        assert not out.exists()

    def test_samples_projection(self, tmp_path):
        samples = tmp_path / "data.csv"
        rows = ["x,f"] + [f"{x},{x * x}" for x in
                          [i / 10 - 1 for i in range(21)]]
        samples.write_text("\n".join(rows) + "\n")
        out = tmp_path / "proj.json"
        cp = run_cli("project", "--target", "samples", "--samples-file",
                     str(samples), "--N", "16", "--W", "0.2", "--K", "16",
                     "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        payload = json.loads(out.read_text())
        assert payload["residual_l2"] < 0.1


class TestCount:
    def test_against_bound_and_recount(self, tmp_path):
        out = tmp_path / "count.txt"
        cp = run_cli("count", "--N", "60", "--W", "0.3", "--eps", "0.05",
                     "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        data = dict(line.split("=") for line in
                    out.read_text().strip().splitlines())
        measured = int(data["measured_count"])
        assert measured <= float(data["count_bound"]) <= 15.86
        eigs_out = tmp_path / "eigs.csv"
        run_cli("eigs", "--N", "60", "--W", "0.3", "--out", str(eigs_out))
        _, rows = read_csv(eigs_out)
        recount = sum(1 for r in rows if 0.05 <= float(r[1]) <= 0.95)
        assert recount == measured

    def test_eps_range(self):
        cp = run_cli("count", "--N", "60", "--W", "0.3", "--eps", "0.5")
        assert cp.returncode == 1


class TestOtherCommands:
    def test_symmetry(self, tmp_path):
        out = tmp_path / "sym.txt"
        cp = run_cli("symmetry", "--N", "40", "--W", "0.15", "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        defect = float(out.read_text().split("=")[1])
        assert defect <= 1e-10

    def test_projector_distance(self, tmp_path):
        out = tmp_path / "pd.txt"
        cp = run_cli("projector-distance", "--N", "60", "--W", "0.1",
                     "--K", "6", "--b", "1.0", "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        data = dict(line.split("=") for line in
                    out.read_text().strip().splitlines())
        assert 0.0 <= float(data["distance"]) <= 1.0
        assert data["condition_ok"] == "true"

    def test_turan(self, tmp_path):
        out = tmp_path / "turan.txt"
        cp = run_cli("turan", "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        data = dict(line.split("=") for line in
                    out.read_text().strip().splitlines())
        assert float(data["formula_value"]) == pytest.approx(1.0206, abs=1e-3)
        assert float(data["empirical"]) > 0

    def test_help(self):
        cp = run_cli("--help")
        assert cp.returncode == 0
        for name in ("eigs", "table1", "bounds", "project", "count",
                     "symmetry", "projector-distance", "turan"):
            assert name in cp.stdout


class TestConfigAndExitCodes:
    def test_config_file_grids(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_grid = 30\nw_grid = 0.1\neps_grid = 0.05\n"
                       "# comment line\ntol_trace_rel = 1e-10\n")
        out = tmp_path / "report.json"
        cp = run_cli("--config", str(cfg), "bounds", "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        payload = json.loads(out.read_text())
        params = {(c["params"]["N"], c["params"]["W"])
                  for c in payload["checks"]
                  if c["name"] == "trace_identity"}
        assert params == {(30, 0.1)}
        # the tolerance override is installed and recorded in the report
        assert payload["tolerances"]["trace_rel"] == pytest.approx(1e-10)

    def test_config_env_var(self, tmp_path):
        import os
        cfg = tmp_path / "run.cfg"
        cfg.write_text("w_grid = 0.2\nn_grid = 30\neps_grid = 0.2\n")
        out = tmp_path / "report.json"
        env = dict(os.environ, SLEPIAN_CONFIG=str(cfg))
        cp = run_cli("bounds", "--out", str(out), env=env)
        assert cp.returncode == 0, cp.stderr
        payload = json.loads(out.read_text())
        ws = {c["params"]["W"] for c in payload["checks"]
              if c["name"] == "trace_identity"}
        assert ws == {0.2}

    def test_tolerance_override_drives_strict_failure(self, tmp_path):
        # an absurdly tight identity tolerance must fail the check and, under
        # --strict, surface as exit code 3
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_grid = 30\nw_grid = 0.1\neps_grid = 0.05\n"
                       "tol_symmetry_identity = 1e-30\n")
        out = tmp_path / "report.json"
        cp = run_cli("--config", str(cfg), "bounds", "--out", str(out),
                     "--strict")
        assert cp.returncode == 3
        payload = json.loads(out.read_text())
        assert payload["pass"] is False
        failing = [c for c in payload["checks"]
                   if c["name"] == "symmetry_identity"]
        assert failing and not failing[0]["satisfied"]

    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        cp = run_cli("--config", str(cfg), "symmetry", "--N", "4", "--W", "0.1")
        assert cp.returncode == 1

    @pytest.mark.parametrize("key", ["nystrom_order", "projection_order",
                                     "out_dir"])
    def test_order_keys_rejected(self, tmp_path, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 200\n")
        cp = run_cli("--config", str(cfg), "symmetry", "--N", "4", "--W", "0.1")
        assert cp.returncode == 1
        assert f"unknown config key: {key}" in cp.stderr

    def test_numerical_failure_maps_to_exit_2(self, monkeypatch):
        from slepian.numkit import NumericalFailure

        def boom(*args, **kwargs):
            raise NumericalFailure("forced failure")

        monkeypatch.setattr(cli, "spectrum", boom)
        code = cli.main(["eigs", "--N", "8", "--W", "0.2"])
        assert code == 2

    def test_missing_subcommand_usage(self):
        cp = run_cli()
        assert cp.returncode == 1
