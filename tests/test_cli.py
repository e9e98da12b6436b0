import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import floatcyl
from floatcyl.cli import main

PI = math.pi
# children import the floatcyl these tests import
SRC = str(Path(floatcyl.__file__).resolve().parents[1])


def run_child(args):
    """Run the test interpreter on args, with this floatcyl importable."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=SRC + os.pathsep + path if path else SRC)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def csv_rows(text):
    lines = [l for l in text.strip().split("\n") if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:]]
    return header, rows


def meta_of(text):
    out = {}
    for line in text.strip().split("\n"):
        if line.startswith("# ") and ": " in line:
            k, v = line[2:].split(": ", 1)
            out[k] = v
    return out


class TestEquilibria:
    def test_two_configuration_example(self, capsys):
        code, out = run_cli(capsys, ["equilibria", "--gamma", "1.5707963",
                                     "--A", "3.8", "--C", "2"])
        assert code == 0
        header, rows = csv_rows(out)
        assert header[0] == "phi0_rad"
        assert len(rows) == 2
        assert float(rows[0][0]) == pytest.approx(2.3915, abs=1e-3)
        assert float(rows[1][0]) == pytest.approx(3.0178, abs=1e-3)
        assert rows[0][2] == "stable"
        assert rows[1][2] == "unstable"
        assert rows[0][3] == "true"
        # default output is pinned byte for byte
        assert out == (
            "# schema: 1\n"
            "# command: equilibria\n"
            "# input_mode: dimensionless\n"
            "# mass_ratio: 3.8\n"
            "# capillary_ratio: 2\n"
            "# contact_angle: 1.5707963\n"
            "phi0_rad,height_over_a,stability,valid,intersection_margin,"
            "overhang_regime\n"
            "2.39151833155,-1.13057857858,stable,true,,not_applicable\n"
            "3.0177929157,-1.65435725444,unstable,true,,not_applicable\n")

    def test_no_equilibrium_exit_code(self, capsys):
        code, out = run_cli(capsys, ["equilibria", "--gamma", "0",
                                     "--A", "4", "--C", "1"])
        assert code == 3
        _, rows = csv_rows(out)
        assert rows == []

    def test_invalid_only_exit_code(self, capsys):
        # fully nonwetting neutral-buoyancy: the pi root is invalid but the
        # smaller root floats, so the command succeeds
        code, out = run_cli(capsys, ["equilibria", "--gamma", str(PI),
                                     "--A", str(PI), "--C", "1"])
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 2
        assert rows[1][3] == "false"

    def test_physical_mode(self, capsys):
        code, out = run_cli(capsys, [
            "equilibria", "--gamma", "1.5707963267948966",
            "--m", "1.2", "--rho", "1", "--sigma", "72", "--g", "980",
            "--a", "0.5641895835477563"])
        assert code == 0
        meta = meta_of(out)
        assert meta["input_mode"] == "physical"
        assert float(meta["mass_ratio"]) == pytest.approx(1.2 * PI, rel=1e-6)
        assert float(meta["capillary_ratio"]) == pytest.approx(2.08148, abs=1e-4)
        _, rows = csv_rows(out)
        assert len(rows) == 2
        assert rows[0][2] == "stable" and rows[1][2] == "unstable"

    def test_mode_exclusivity(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["equilibria", "--gamma", "1", "--A", "3", "--C", "1",
                  "--m", "1", "--rho", "1", "--sigma", "1", "--g", "1",
                  "--a", "1"])
        assert exc.value.code == 2

    def test_incomplete_physical_set(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["equilibria", "--gamma", "1", "--m", "1.2", "--rho", "1"])
        assert exc.value.code == 2

    def test_exploratory_flag(self, capsys):
        code, _ = run_cli(capsys, ["equilibria", "--gamma", "0.785398",
                                   "--A", "-10", "--C", "0.5"])
        assert code == 4  # negative mass ratio needs --exploratory
        capsys.readouterr()
        code, out = run_cli(capsys, ["equilibria", "--gamma", "0.785398",
                                     "--A", "-10", "--C", "0.5",
                                     "--exploratory"])
        assert code == 0
        _, rows = csv_rows(out)
        assert [r[2] for r in rows] == ["unstable", "stable"]

    def test_degrees(self, capsys):
        _, out_rad = run_cli(capsys, ["equilibria", "--gamma",
                                      str(PI / 2), "--A", "3.8", "--C", "2"])
        capsys.readouterr()
        _, out_deg = run_cli(capsys, ["equilibria", "--gamma", "90",
                                      "--degrees", "--A", "3.8", "--C", "2"])
        assert csv_rows(out_rad)[1] == csv_rows(out_deg)[1]


class TestCurves:
    def test_deterministic_output(self, capsys):
        argv = ["curves", "--gamma", "1.5707963", "--A", "4", "--C", "1",
                "--resolution", "50"]
        _, first = run_cli(capsys, argv)
        capsys.readouterr()
        _, second = run_cli(capsys, argv)
        assert first == second
        header, rows = csv_rows(first)
        assert header == ["phi0_rad", "force_over_sigma",
                          "energy_over_sigma_a", "height_over_a"]
        assert len(rows) == 50

    def test_json_schema(self, capsys):
        _, out = run_cli(capsys, ["curves", "--gamma", "1.0", "--A", "2",
                                  "--C", "1", "--resolution", "10",
                                  "--format", "json"])
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["command"] == "curves"
        assert len(payload["rows"]) == 10

    def test_endpoint_values_in_output(self, capsys):
        _, out = run_cli(capsys, ["curves", "--gamma", "0.9", "--A", "2.5",
                                  "--C", "1.5", "--resolution", "11"])
        _, rows = csv_rows(out)
        f0 = float(rows[0][1])
        fpi = float(rows[-1][1])
        assert f0 == pytest.approx(-2.5 * 2.25 - 2 * math.sin(0.9), rel=1e-9)
        assert fpi == pytest.approx(2 * math.sin(0.9) + 2.25 * (PI - 2.5),
                                    rel=1e-9)


class TestProfile:
    def test_contact_sample(self, capsys):
        _, out = run_cli(capsys, ["profile", "--gamma", "0.785398",
                                  "--A", "1", "--C", "2", "--phi0", "0.4",
                                  "--resolution", "50"])
        meta = meta_of(out)
        _, rows = csv_rows(out)
        assert len(rows) == 50
        assert float(rows[0][1]) == pytest.approx(math.sin(0.4), rel=1e-9)
        assert meta["flat"] == "false"

    def test_flat_interface(self, capsys):
        _, out = run_cli(capsys, ["profile", "--gamma", str(PI / 2),
                                  "--A", "1", "--C", "1",
                                  "--phi0", str(PI / 2)])
        meta = meta_of(out)
        assert meta["flat"] == "true"
        _, rows = csv_rows(out)
        assert len(rows) == 2


class TestAstar:
    def test_neutral_angle_with_series(self, capsys):
        code, out = run_cli(capsys, ["astar", "--gamma", "1.5707963",
                                     "--C", "1"])
        assert code == 0
        _, rows = csv_rows(out)
        row = rows[0]
        a_star = float(row[1])
        assert a_star == pytest.approx(5.80926, abs=1e-4)
        assert float(row[3]) == pytest.approx(2 + 2 + PI - 2 * math.sqrt(2),
                                              abs=1e-6)
        assert row[5] != ""  # large-C series present
        # default output is pinned byte for byte
        assert out == (
            "# schema: 1\n"
            "# command: astar\n"
            "# contact_angle: 1.5707963\n"
            "# capillary_ratio: 1\n"
            "capillary_ratio,critical_mass_ratio,phi0_star_rad,"
            "small_c_mass_ratio,small_c_phi0_rad,large_c_mass_ratio,"
            "large_c_phi0_rad\n"
            "1,5.80925871956,2.70094925288,4.31316552884,2.90242117983,"
            "5.38398309427,2.90475377422\n")

    def test_other_angle_numeric_only(self, capsys):
        code, out = run_cli(capsys, ["astar", "--gamma", "2.356194490192345",
                                     "--C", "1"])
        assert code == 0
        _, rows = csv_rows(out)
        row = rows[0]
        assert float(row[1]) == pytest.approx(4.5 + 3 * PI / 4, abs=1e-8)
        assert row[3] == "" and row[5] == ""

    def test_regime_error_exit_code(self, capsys):
        code, _ = run_cli(capsys, ["astar", "--gamma", "0.785398",
                                   "--C", "0.5"])
        assert code == 4


class TestRegionMap:
    def test_csv_cells(self, capsys):
        code, out = run_cli(capsys, [
            "region-map", "--gamma", "1.5707963", "--a-max", "8",
            "--c-max", "3", "--resolution", "6"])
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["mass_ratio", "capillary_ratio", "label"]
        assert len(rows) == 36
        labels = {r[2] for r in rows}
        assert labels <= {"zero", "one", "two", "one_valid_one_invalid"}

    def test_pinned_digest(self, capsys):
        # the whole CSV, byte for byte, captured before the block solver
        code, out = run_cli(capsys, ["region-map", "--gamma", "2.3561945",
                                     "--resolution", "40"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "9928b5187cf1aa79db39c3a75bcc9ac1719932a5c5edbdc9d0884f5639b71271")

    def test_json_payload(self, capsys):
        _, out = run_cli(capsys, [
            "region-map", "--gamma", "1.5707963", "--a-max", "8",
            "--c-max", "3", "--resolution", "5", "--format", "json"])
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert len(payload["a_axis"]) == 5
        assert len(payload["labels"]) == 5
        assert any(c["kind"] == "endpoint" for c in payload["curves"])


class TestVerify:
    def test_all_checks_pass(self, capsys):
        code, out = run_cli(capsys, ["verify", "--samples", "15",
                                     "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["reports"]
        assert all(r["passed"] for r in payload["reports"])

    def test_csv_format(self, capsys):
        code, out = run_cli(capsys, ["verify", "--samples", "10"])
        assert code == 0
        header, rows = csv_rows(out)
        assert header[0] == "name"
        assert all(r[-1] == "true" for r in rows)


class TestPlumbing:
    def test_usage_error(self):
        for argv in (
                ["equilibria", "--A", "3.8", "--C", "2"],  # missing --gamma
                # counts below the library's minimum
                ["curves", "--gamma", "1", "--A", "1", "--C", "1",
                 "--resolution", "0"],
                ["curves", "--gamma", "1", "--A", "1", "--C", "1",
                 "--resolution", "-5"],
                ["profile", "--gamma", "1", "--A", "1", "--C", "1",
                 "--phi0", "0.5", "--resolution", "1"],
                ["region-map", "--gamma", "1", "--resolution", "1"],
                ["verify", "--samples", "0"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv

    @pytest.mark.parametrize("argv,field", [
        (["equilibria", "--gamma", "1", "--A", "1", "--C", "inf"],
         "capillary_ratio"),
        (["equilibria", "--gamma", "1", "--A", "1", "--C", "1e300"],
         "capillary_ratio"),
        (["equilibria", "--gamma", "1", "--C", "1", "--A", "inf"],
         "mass_ratio"),
        (["equilibria", "--gamma", "1", "--C", "1", "--A", "1e300"],
         "mass_ratio"),
        (["astar", "--gamma", "2", "--C", "inf"], "capillary_ratio"),
        (["astar", "--gamma", "2", "--C", "1e300"], "capillary_ratio"),
        (["profile", "--gamma", "1", "--A", "1", "--C", "1", "--phi0", "nan"],
         "phi0"),
        # the window is checked before any grid work, so no NumPy warning
        (["region-map", "--gamma", "2", "--resolution", "4",
          "--a-max", "1e300"], "mass_ratio"),
        (["region-map", "--gamma", "2", "--resolution", "4",
          "--c-max", "inf"], "capillary_ratio"),
        # a NaN bound fails the window test and is named there
        (["region-map", "--gamma", "2", "--resolution", "4",
          "--a-min", "nan"], "a_range"),
        (["region-map", "--gamma", "2", "--resolution", "4",
          "--a-max", "nan"], "a_range"),
        (["region-map", "--gamma", "2", "--resolution", "4",
          "--c-min", "nan"], "c_range"),
        (["region-map", "--gamma", "2", "--resolution", "4",
          "--c-max", "nan"], "c_range"),
    ])
    def test_nonfinite_input_is_domain_error(self, argv, field):
        proc = run_child(["-m", "floatcyl.cli", *argv])
        assert proc.returncode == 4
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert field in lines[0]

    def test_import_leaves_scipy_unloaded(self):
        # SciPy serves only the oracle suite and loads on its first use
        proc = run_child(
            ["-c",
             "import sys, floatcyl.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "eq.csv"
        code, out = run_cli(capsys, ["equilibria", "--gamma", "1.5707963",
                                     "--A", "3.8", "--C", "2",
                                     "--out", str(path)])
        assert code == 0
        assert out == ""
        text = path.read_text()
        assert "phi0_rad" in text

    def test_module_invocation(self):
        proc = run_child(
            ["-m", "floatcyl.cli", "equilibria",
             "--gamma", "1.5707963", "--A", "3.8", "--C", "2"])
        assert proc.returncode == 0
        assert "stable" in proc.stdout
