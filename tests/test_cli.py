import dataclasses
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_mode_order
from slepian import cli, config, discrete, numkit
from slepian.bounds import verify_all
from slepian.config import Tolerances


README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*args: str, env=None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "slepian", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def _no_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


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

    def test_descending_and_trace(self, tmp_path, spec60_03):
        # mode k has parity (-1)^k; the values descend where they are resolved
        out = tmp_path / "eigs.csv"
        cp = run_cli("eigs", "--N", "60", "--W", "0.3", "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        _, rows = read_csv(out)
        values = np.array([float(r[1]) for r in rows])
        assert len(values) == 60
        assert np.max(np.abs(values - spec60_03.values)) <= 1e-15
        assert_mode_order(values)
        assert_mode_order(spec60_03.values, spec60_03.dpss)
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

    def test_bounds_below_unit_bandwidth_skipped_under_strict(self, tmp_path):
        # c = pi N W = 0.0157: the plunge and HS bounds do not apply
        out = tmp_path / "report.json"
        cp = run_cli("bounds", "--N", "5", "--W", "0.001", "--eps", "0.05",
                     "--out", str(out), "--strict")
        assert cp.returncode == 0, cp.stderr
        checks = json.loads(out.read_text())["checks"]
        skipped = {c["name"]: c["note"] for c in checks if c["skipped"]}
        for name in ("plunge_mass", "plunge_count", "plunge_count_improvement",
                     "hs_norm_lower_bound"):
            assert skipped[name].endswith("below 1"), (name, skipped.get(name))

    @pytest.mark.parametrize("N", ["2", "30"])
    def test_reflection_rounding_to_half_is_skipped(self, N, capsys):
        # 1/2 - 1e-300 is 1/2 in double precision
        assert cli.main(["bounds", "--N", N, "--W", "1e-300", "--eps", "0.05",
                         "--strict"]) == 0
        out, err = capsys.readouterr()
        # both route checks read the Toeplitz spectrum at 1/2 - W
        for name in ("symmetry_identity", "cross_route_agreement"):
            check, = [c for c in json.loads(out)["checks"] if c["name"] == name]
            assert (check["skipped"], check["note"], err) == (
                True, "1/2 - W rounds to 1/2 at W=1e-300", "")

    def test_subnormal_eps_is_a_skip_and_the_report_finite(self, capsys):
        # 1e-320 is below the smallest normal double: both count bounds skip
        # rather than report inf, and the file holds no Infinity or NaN token
        assert cli.main(["bounds", "--N", "60", "--W", "0.3", "--eps", "1e-320",
                         "--strict"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert not re.search(r"\b(inf|infinity|nan)\b", out, re.IGNORECASE)
        checks = json.loads(out, parse_constant=_no_constant)["checks"]
        notes = {c["name"]: c["note"] for c in checks if c["skipped"]}
        for name in ("plunge_count", "plunge_count_improvement"):
            assert notes[name] == "eps=1e-320 outside (0, 1/2) or not a normal double"

    @pytest.mark.parametrize("N,W", [("1", "1e-13"), ("2", "1e-13"), ("30", "1e-15")])
    def test_no_eigenvalue_above_the_check_floor(self, N, W, capsys):
        # every eigenvalue is below floor_checks, so no route comparison is made
        assert cli.main(["bounds", "--N", N, "--W", W, "--eps", "0.05",
                         "--strict"]) == 0
        out, err = capsys.readouterr()
        cross, = [c for c in json.loads(out)["checks"]
                  if c["name"] == "cross_route_agreement"]
        assert (cross["measured"], cross["satisfied"], err) == (0.0, True, "")


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

    @pytest.mark.parametrize("preset,target", sorted(cli.PRESETS.items()))
    def test_preset_sets_only_the_target(self, preset, target, tmp_path):
        # N, W, K and the basis keep their defaults, so K follows --N
        by_preset, by_target = tmp_path / "preset.json", tmp_path / "target.json"
        assert cli.main(["project", "--preset", preset, "--N", "30",
                         "--out", str(by_preset)]) == 0
        assert cli.main(["project", "--target", target, "--N", "30",
                         "--out", str(by_target)]) == 0
        payload = json.loads(by_preset.read_text())
        assert (payload["K"], payload["N"], payload["target"]) == (30, 30, target)
        assert by_preset.read_text() == by_target.read_text()
        csv = by_preset.with_suffix(".csv").read_text().splitlines()
        assert len(csv) == 31
        assert csv == by_target.with_suffix(".csv").read_text().splitlines()

    def test_preset_with_target_is_one_line(self, tmp_path):
        out = tmp_path / "proj.json"
        cp = run_cli("project", "--preset", "example2", "--target",
                     "weierstrass", "--strict", "--out", str(out))
        assert (cp.returncode, cp.stdout) == (1, "")
        assert cp.stderr == "slepian: give exactly one of --target and --preset\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--alpha", "200"], ["--N", "30"]],
                             ids=["alpha200", "N30"])
    def test_example2_verdict_only_for_the_paper_example(self, tmp_path, argv):
        # a run that is not the paper's example 2 is not held to its tolerance
        out = tmp_path / "proj.json"
        cp = run_cli("project", "--preset", "example2", *argv, "--strict",
                     "--out", str(out))
        assert (cp.returncode, cp.stderr) == (0, "")
        assert json.loads(out.read_text())["residual_sup"] > Tolerances().example2_sup

    def test_sweep_csv_matches_standalone_projections(self, tmp_path,
                                                      get_spectrum):
        from slepian.approximation import TestFunction, project_dilated
        out = tmp_path / "w1.json"
        cp = run_cli("project", "--preset", "example3", "--K", "36",
                     "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        header, rows = read_csv(tmp_path / "w1.csv")
        assert header == ["K", "residual_l2", "residual_sup"]
        assert [int(r[0]) for r in rows] == list(range(1, 37))
        f, disc = TestFunction.weierstrass(1.0), get_spectrum(60, 0.3)
        for K, l2, sup in rows:
            alone = project_dilated(f, disc, int(K))
            assert float(l2) == pytest.approx(alone.residual_l2, abs=1e-12)
            assert float(sup) == pytest.approx(alone.residual_sup, abs=1e-12)
        # the JSON result is the last sweep row, written with the same format
        payload = json.loads(out.read_text())
        assert rows[-1][1:] == [cli.fmt(payload["residual_l2"]),
                                cli.fmt(payload["residual_sup"])]
        # a real target on real modes: every imaginary entry is exactly 0.0
        assert {im for _, im in payload["coefficients"]} == {0.0}

    @pytest.mark.parametrize("basis", ["dilated", "native"])
    def test_stdout_is_the_out_json(self, tmp_path, capsys, basis):
        # without --out only K is fitted; the JSON is the --out sweep's last row
        argv = ["project", "--target", "weierstrass", "--K", "36", "--basis", basis]
        out = tmp_path / "proj.json"
        assert cli.main([*argv, "--out", str(out)]) == 0
        assert cli.main(argv) == 0
        assert capsys.readouterr() == (out.read_text(), "")
        payload = json.loads(out.read_text())
        _, rows = read_csv(tmp_path / "proj.csv")
        assert rows[-1] == ["36", cli.fmt(payload["residual_l2"]),
                            cli.fmt(payload["residual_sup"])]

    def test_no_lambda_floor_option(self, tmp_path, capsys):
        # the dilated fit always spans the first K modes
        out = tmp_path / "proj.json"
        with pytest.raises(SystemExit) as exc:
            cli.main(["project", "--target", "sinc", "--N", "16", "--W", "0.2",
                      "--lambda-floor", "1e-13", "--out", str(out)])
        stdout, stderr = capsys.readouterr()
        assert (exc.value.code, stdout) == (1, "")
        assert "unrecognized arguments: --lambda-floor" in stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("basis", ["dilated", "native"])
    def test_json_has_no_floor_keys(self, tmp_path, basis):
        out = tmp_path / "proj.json"
        assert cli.main(["project", "--target", "weierstrass", "--N", "16",
                         "--W", "0.2", "--basis", basis, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["interval"] == basis
        assert "excluded" not in payload and "lambda_floor" not in payload

    def test_native_basis_reports_sobolev_check(self, tmp_path):
        out = tmp_path / "native.json"
        cp = run_cli("project", "--target", "weierstrass", "--s", "1.0",
                     "--N", "60", "--W", "0.3", "--K", "50",
                     "--basis", "native", "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        payload = json.loads(out.read_text())
        assert payload["interval"] == "native"
        assert payload["sobolev_ok"] is True

    @pytest.mark.parametrize("s", ["0.5", "2"])
    def test_native_basis_notes_unavailable_sobolev_norm(self, tmp_path, s):
        out = tmp_path / "native.json"
        cp = run_cli("project", "--target", "weierstrass", "--s", s,
                     "--N", "60", "--W", "0.3", "--K", "50",
                     "--basis", "native", "--strict", "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        payload = json.loads(out.read_text())
        assert (payload["sobolev_ok"], payload["sobolev_rhs"]) == (None, None)
        assert payload["note"] == (
            f"Sobolev norm unavailable: the H^{float(s)} norm is computed only "
            f"for a cosine sum at s in {{0, 1}}")

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

    @pytest.mark.parametrize("argv,message", [
        (["--target", "samples", "--samples-file", "{samples}"],
         "slepian: {samples}:3: expected 'x,f' with two numbers, got '0.1'"),
        (["--target", "sinc", "--alpha", "inf"],
         "slepian: alpha must be positive and finite, got inf"),
        (["--target", "weierstrass", "--s", "inf"],
         "slepian: s must be positive and finite, got inf")])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_bad_input_is_one_line(self, tmp_path, argv, message, to_file):
        samples = tmp_path / "rows.csv"
        samples.write_text("x,f\n-1.0,0.0\n0.1\n1.0,1.0\n")
        out = tmp_path / "proj.json"
        argv = [a.format(samples=samples) for a in argv]
        cp = run_cli("project", "--N", "16", "--W", "0.2", *argv,
                     *(["--out", str(out)] if to_file else []))
        assert (cp.returncode, cp.stdout) == (1, "")
        assert cp.stderr.splitlines() == [message.format(samples=samples)]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.csv"]

    @pytest.mark.parametrize("text", ["x,f\n", "# a comment\n\n# another\n"])
    def test_samples_file_without_rows(self, tmp_path, capsys, text):
        samples = tmp_path / "empty.csv"
        samples.write_text(text)
        assert cli.main(["project", "--target", "samples", "--samples-file",
                         str(samples), "--N", "16", "--W", "0.2"]) == 1
        assert capsys.readouterr() == ("", f"slepian: no sample rows in {samples}\n")

    def test_samples_target_needs_a_file(self, capsys):
        assert cli.main(["project", "--target", "samples", "--N", "16", "--W", "0.2"]) == 1
        assert capsys.readouterr() == (
            "", "slepian: --samples-file is required for --target samples\n")

    def test_samples_row_with_extra_cells(self, tmp_path, capsys):
        samples = tmp_path / "rows.csv"
        samples.write_text("x,f\n-1.0,0.0\n0.1,0.2,junk\n1.0,1.0\n")
        assert cli.main(["project", "--target", "samples", "--samples-file",
                         str(samples), "--N", "16", "--W", "0.2"]) == 1
        assert capsys.readouterr() == (
            "", f"slepian: {samples}:3: expected 'x,f' with two numbers, "
                "got '0.1,0.2,junk'\n")

    @pytest.mark.parametrize("basis,rows,interval", [
        ("dilated", "0.0,1.0\n0.5,2.0", "[-1.0, 1.0]"),
        ("dilated", "-1.0,1.0\n0.999,2.0", "[-1.0, 1.0]"),
        ("native", "-0.4,1.0\n0.5,2.0", "[-0.5, 0.5]")],
        ids=["right-half", "short-of-one", "native"])
    def test_samples_must_cover_fitted_interval(self, tmp_path, capsys, basis,
                                                rows, interval):
        # np.interp would extend the end values as constants past the samples
        samples = tmp_path / "part.csv"
        samples.write_text(f"x,f\n{rows}\n")
        out = tmp_path / "proj.json"
        assert cli.main(["project", "--target", "samples", "--samples-file",
                         str(samples), "--N", "16", "--W", "0.2", "--basis",
                         basis, "--out", str(out)]) == 1
        lo, hi = (float(r.split(",")[0]) for r in rows.split("\n"))
        assert capsys.readouterr() == (
            "", f"slepian: samples span x in [{lo}, {hi}], which does not "
                f"cover the fitted interval {interval}\n")
        assert not out.exists()

    def test_samples_on_native_interval_accepted(self, tmp_path, capsys):
        samples = tmp_path / "half.csv"
        samples.write_text("x,f\n-0.5,1.0\n0.0,0.0\n0.5,1.0\n")
        assert cli.main(["project", "--target", "samples", "--samples-file",
                         str(samples), "--N", "16", "--W", "0.2", "--basis",
                         "native"]) == 0
        assert json.loads(capsys.readouterr().out)["interval"] == "native"

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

    @pytest.mark.parametrize("N,W,message", [
        ("1", "0.3", "slepian: c=pi N W=0.942478 below 1"),
        ("5", "0.001", "slepian: c=pi N W=0.015708 below 1"),
        ("1", "0.4", "slepian: N=1 must be >= 2")])
    def test_bound_out_of_range_is_a_usage_error(self, N, W, message):
        cp = run_cli("count", "--N", N, "--W", W, "--eps", "0.05")
        assert cp.returncode == 1
        assert cp.stdout == ""
        assert cp.stderr.splitlines() == [message]


class TestOtherCommands:
    def test_symmetry(self, tmp_path):
        out = tmp_path / "sym.txt"
        cp = run_cli("symmetry", "--N", "40", "--W", "0.15", "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        defect = float(out.read_text().split("=")[1])
        assert defect <= 1e-10
        # the tridiag route at W against the Toeplitz route's values alone at
        # 1/2 - W, within 1e-15 of the defect against its full spectrum there
        spec = cli.spectrum(cli.DiscreteParams(40, 0.15))
        mu = discrete.mirror_values(spec.params)
        assert defect == np.max(np.abs(mu - (1.0 - spec.values[::-1])))
        mirror = cli.spectrum(cli.DiscreteParams(40, 0.5 - 0.15), "toeplitz")
        assert abs(defect - cli.symmetry_defect(spec, mirror)) <= 1e-15

    @pytest.mark.parametrize("N", ["60", "61"])
    def test_symmetry_solves_no_eigenvectors_of_the_mirror(self, monkeypatch, capsys, N):
        def forbidden(*args, **kwargs):
            raise AssertionError("symmetry called eig_sym")

        for module in (numkit, discrete):
            monkeypatch.setattr(module, "eig_sym", forbidden)
        assert cli.main(["symmetry", "--N", N, "--W", "0.3"]) == 0
        assert capsys.readouterr().out.startswith("symmetry_defect=")

    @pytest.mark.parametrize("eps,code", [("2.2250738585072014e-308", 0),
                                          ("1e-320", 1)])
    def test_count_at_tiny_eps_prints_no_infinity(self, eps, code):
        # the smallest normal eps gives finite bounds; a subnormal one is the
        # formula's one-line reason, never inf
        cp = run_cli("count", "--N", "60", "--W", "0.3", "--eps", eps)
        assert cp.returncode == code, cp.stderr
        assert len(cp.stderr.splitlines()) <= code
        assert not re.search(r"\b(inf|infinity|nan)\b", cp.stdout, re.IGNORECASE)
        if code:
            assert cp.stderr == (f"slepian: eps={float(eps)} outside (0, 1/2) "
                                 f"or not a normal double\n")
        else:
            values = dict(line.split("=") for line in cp.stdout.splitlines())
            assert all(math.isfinite(float(v)) for v in values.values())

    def test_projector_distance(self, tmp_path):
        out = tmp_path / "pd.txt"
        cp = run_cli("projector-distance", "--N", "60", "--W", "0.1",
                     "--K", "6", "--b", "1.0", "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        data = dict(line.split("=") for line in
                    out.read_text().strip().splitlines())
        assert 0.0 <= float(data["distance"]) <= 1.0
        assert data["condition_ok"] == "true"

    def test_projector_distance_inside_a_cluster(self):
        # at (60, 0.3) the sinc-kernel values of modes 10 and 11 are both 1 to
        # rounding; psi_n follow the prolate operator's separated chi_n
        cp = run_cli("projector-distance", "--N", "60", "--W", "0.3", "--K", "11",
                     "--strict")
        assert (cp.returncode, cp.stderr) == (0, ""), cp.stderr
        assert re.fullmatch(r"distance=\S+\n", cp.stdout)

    def test_readme_commands_make_no_nystrom_solve(self, tmp_path, monkeypatch):
        # the benchmark's tracer wraps every binding of nystrom_spectrum and
        # keys its calls by parameters it no longer has; no README command
        # may reach that route
        def forbidden(*args, **kwargs):
            raise AssertionError("a README command made a Nystrom solve")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "slepian" and hasattr(module, "nystrom_spectrum"):
                monkeypatch.setattr(module, "nystrom_spectrum", forbidden)
        monkeypatch.chdir(tmp_path)
        block = README.read_text().split("## Command line\n\n```sh\n")[1].split("```")[0]
        commands = [line.split("#")[0].split()[1:] for line in block.splitlines()]
        assert len(commands) == 10
        for argv in commands:
            assert cli.main(argv) == 0, argv

    def test_projector_distance_large_b(self):
        cp = run_cli("projector-distance", "--N", "60", "--W", "0.1",
                     "--K", "6", "--b", "300", "--strict")
        assert (cp.returncode, cp.stderr) == (0, ""), cp.stderr
        data = dict(line.split("=") for line in cp.stdout.strip().splitlines())
        assert math.isfinite(float(data["bound"]))
        assert data["condition_ok"] == "false"

    def test_readme_bound_bits(self):
        # b = 1.0: the capped exponential leaves e^pi as it was
        cp = run_cli("projector-distance", "--N", "60", "--W", "0.1",
                     "--K", "6", "--b", "1.0")
        assert "bound=6.0742682593283789e-02" in cp.stdout.splitlines()

    def test_projector_distance_non_finite_bound(self):
        cp = run_cli("projector-distance", "--N", "60", "--W", "0.1",
                     "--K", "6", "--b", "1e308")
        assert (cp.returncode, cp.stdout) == (1, "")
        assert cp.stderr.splitlines() == ["slepian: b=1e+308 gives a non-finite bound"]

    @pytest.mark.parametrize("W,K,bound", [
        ("1e-5", "1", "bound=-1.3291516692353687e-10"),   # log c + 2 log 2 + pi < 0
        ("1e-110", "0", "bound=-0.0000000000000000e+00")])   # W^3 underflows
    def test_projector_distance_non_positive_bound(self, W, K, bound):
        cp = run_cli("projector-distance", "--N", "60", "--W", W, "--K", K,
                     "--b", "1", "--strict")
        assert (cp.returncode, cp.stderr) == (0, ""), cp.stderr
        lines = cp.stdout.splitlines()
        assert lines[1:] == [bound, "condition_ok=false"]

    @pytest.mark.parametrize("argv", [
        ("projector-distance", "--N", "60", "--W", "1e-320", "--K", "0", "--b", "1"),
        ("eigs", "--N", "2000", "--W", "5e-324")])
    def test_subnormal_w_is_one_line(self, argv):
        # a usage error, not the trace-identity failure (exit 2) it was
        cp = run_cli(*argv)
        assert (cp.returncode, cp.stdout) == (1, "")
        assert cp.stderr.splitlines() == [
            f"slepian: W must lie strictly in (0, 0.5) and be a normal double, "
            f"got {float(argv[4])!r}"]

    @pytest.mark.parametrize("W", ["1e-300", "1e-17"])
    def test_symmetry_rounding_to_half_is_one_line(self, W):
        cp = run_cli("symmetry", "--N", "30", "--W", W)
        assert (cp.returncode, cp.stdout) == (1, "")
        assert cp.stderr.splitlines() == [
            f"slepian: 1/2 - W rounds to 1/2 at W={float(W):g}"]

    @pytest.mark.parametrize("b,message", [
        ("inf", "slepian: b must be finite, got inf"),
        ("0.1", "slepian: b must exceed log(3)/pi = 0.3497")])
    def test_projector_distance_bad_b(self, b, message):
        cp = run_cli("projector-distance", "--N", "60", "--W", "0.1",
                     "--K", "6", "--b", b)
        assert (cp.returncode, cp.stdout) == (1, "")
        assert cp.stderr.splitlines() == [message]

    def test_turan(self, tmp_path):
        out = tmp_path / "turan.txt"
        cp = run_cli("turan", "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        data = dict(line.split("=") for line in
                    out.read_text().strip().splitlines())
        assert float(data["formula_value"]) == pytest.approx(1.0206, abs=1e-3)
        assert float(data["empirical"]) > 0

    def test_turan_defaults_are_the_library_defaults(self):
        from slepian import bounds
        args = cli.build_parser().parse_args(["turan"])
        assert (args.W, args.N_list) == (bounds.TURAN_W, bounds.TURAN_N_LIST)
        turan, = [c for c in verify_all((30,), (0.1,), (0.05,)).checks
                  if c.name == "concentration_constant"]
        assert turan.params["W"] == bounds.TURAN_W
        assert sorted(map(int, turan.params["per_n"])) == list(bounds.TURAN_N_LIST)

    def test_help(self):
        cp = run_cli("--help")
        assert cp.returncode == 0
        for name in ("eigs", "table1", "bounds", "project", "count",
                     "symmetry", "projector-distance", "turan"):
            assert name in cp.stdout


class TestConfigAndExitCodes:
    def test_config_env_var(self, tmp_path):
        # the CLI reads no tolerance from its environment: SLEPIAN_CONFIG is
        # not read, so its 1e-30 tolerance does not fail the reflection checks
        import os
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol_cross_route = 1e-30\n")
        out = tmp_path / "report.json"
        env = dict(os.environ, SLEPIAN_CONFIG=str(cfg))
        cp = run_cli("bounds", "--N", "30", "--W", "0.2", "--eps", "0.2",
                     "--out", str(out), "--strict", env=env)
        assert (cp.returncode, cp.stderr) == (0, "")
        payload = json.loads(out.read_text())
        assert payload["tolerances"] == dataclasses.asdict(Tolerances())

    def test_tolerance_override_drives_strict_failure(self, tmp_path, capsys, monkeypatch):
        # an absurdly tight identity tolerance must fail the check and, under
        # --strict, surface as exit code 3
        out = tmp_path / "report.json"
        monkeypatch.setattr(config, "TOLERANCES",
                            dataclasses.replace(config.TOLERANCES, cross_route=1e-30))
        code = cli.main(["bounds", "--N", "30", "--W", "0.1", "--eps", "0.05",
                         "--out", str(out), "--strict"])
        assert code == 3
        payload = json.loads(out.read_text())
        assert payload["pass"] is False
        assert payload["tolerances"]["cross_route"] == 1e-30
        # both reflection-pair entries read the one tolerance
        failing = sorted(c["name"] for c in payload["checks"] if not c["satisfied"])
        assert failing == ["cross_route_agreement", "symmetry_identity"]

    @pytest.mark.parametrize("argv,tolerance,stderr,files", [
        (["table1", "--out", "t1.csv"], "table1_rel",
         r"table1: worst relative deviation 8\.840e-04 exceeds 1e-30\n",
         ["t1.csv"]),
        # the example 2 residual is rounding noise (its digits follow the
        # BLAS thread count), so only its size below the default is pinned
        (["project", "--preset", "example2", "--out", "e2.json"],
         "example2_sup",
         r"project: sup residual (?P<value>\S+) exceeds 1e-30\n",
         ["e2.csv", "e2.json"]),
        (["bounds", "--N", "30", "--W", "0.1", "--eps", "0.05", "--out", "sy.json"],
         "cross_route",
         r"bounds: failing checks: \['cross_route_agreement', 'symmetry_identity'\]\n",
         ["sy.json"])], ids=["table1-flag", "project-flag", "bounds-flag"])
    def test_strict_verdicts(self, tmp_path, capsys, monkeypatch, argv, tolerance,
                             stderr, files):
        # the output is written first, then the verdict goes to stderr
        argv = argv[:-1] + [str(tmp_path / argv[-1])]
        monkeypatch.setattr(config, "TOLERANCES",
                            dataclasses.replace(config.TOLERANCES, **{tolerance: 1e-30}))
        assert cli.main([*argv, "--strict"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        verdict = re.fullmatch(stderr, err)
        assert verdict, err
        if "value" in verdict.groupdict():
            assert 0 < float(verdict["value"]) < Tolerances().example2_sup
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
        # without --strict the same failure is only recorded in the output
        assert cli.main(argv) == 0
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("argv", [["--config", "x.cfg", "bounds"],
                                      ["bounds", "--config", "x.cfg"]],
                             ids=["before", "after"])
    def test_no_config_option(self, tmp_path, argv):
        # every command runs at the Tolerances() defaults: no file sets them
        out = tmp_path / "r.json"
        cp = run_cli(*argv, "--out", str(out))
        assert (cp.returncode, cp.stdout) == (1, "")
        assert "Traceback" not in cp.stderr and "error:" in cp.stderr
        assert not out.exists()

    def test_tolerances_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Tolerances().trace_rel = 1.0

    def test_scipy_without_dstevd_is_one_line(self):
        # a stand-in _flapack without the routine: import slepian succeeds,
        # and the first solve's ImportError is a one-line usage exit
        code = ("import runpy, sys, types; name = 'scipy.linalg._flapack'; "
                "sys.modules[name] = types.ModuleType(name); "
                "sys.argv[1:] = ['count', '--N', '60', '--W', '0.3', '--eps', '0.05']; "
                "runpy.run_module('slepian', run_name='__main__')")
        cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (cp.returncode, cp.stdout) == (1, "")
        assert re.fullmatch(r"slepian: scipy \S+ has no LAPACK dstevd in "
                            r"scipy\.linalg\._flapack; slepian needs scipy>=1\.17\n",
                            cp.stderr), cp.stderr

    def test_bounds_default_grid_is_verify_all_default(self, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["bounds", "--out", str(out)]) == 0
        assert out.read_text() == verify_all().to_json() + "\n"

    def test_numerical_failure_maps_to_exit_2(self, monkeypatch):
        from slepian.numkit import NumericalFailure

        def boom(*args, **kwargs):
            raise NumericalFailure("forced failure")

        monkeypatch.setattr(cli, "spectrum", boom)
        code = cli.main(["eigs", "--N", "8", "--W", "0.2"])
        assert code == 2

    def test_out_of_memory_maps_to_exit_2(self, monkeypatch, capsys):
        # raised, never allocated: a real huge request may reach the OOM killer
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(cli, "spectrum", exhausted)
        assert cli.main(["eigs", "--N", "8", "--W", "0.2"]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == (
            "", "slepian: out of memory: Unable to allocate 745. GiB for an array\n")

    @pytest.mark.parametrize("argv", [
        ["bounds", "--N", "30", "--W", "0.2", "--eps", "0.05"],
        ["project", "--preset", "example2"],
        ["count", "--N", "60", "--W", "0.3", "--eps", "0.05"],
        ["symmetry", "--N", "60", "--W", "0.3"],
        ["projector-distance", "--N", "60", "--W", "0.1", "--K", "6"]])
    def test_method_only_on_eigs(self, argv, capsys):
        # every other command runs on the tridiag route
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--method", "toeplitz"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (1, "")
        assert "unrecognized arguments: --method toeplitz" in err

    @pytest.mark.parametrize("argv, message", [
        (["count", "--N", "60", "--W", "0.3", "--eps", "0.05", "--method", "toeplitz"],
         "slepian: error: unrecognized arguments: --method toeplitz"),
        (["turan", "--N-list", "True,3"],
         "slepian turan: error: argument --N-list: expected comma-separated "
         "integers: True,3"),
        ([], "slepian: error: the following arguments are required: command")])
    def test_argparse_error_is_one_line(self, argv, message, capsys):
        # no usage lines above the error, as for every other usage error
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert (exc.value.code, capsys.readouterr()) == (1, ("", message + "\n"))

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_eigs_keeps_method(self, capsys):
        assert cli.main(["eigs", "--N", "8", "--W", "0.2",
                         "--method", "toeplitz"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 8
        assert {row.split(",")[2] for row in rows} == {"toeplitz"}

    def test_missing_subcommand_usage(self):
        cp = run_cli()
        assert cp.returncode == 1
