import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from datetime import datetime, timedelta
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import floatcyl
from floatcyl.cli import _emit_table, main
from floatcyl.model import (DimensionlessParams, center_height, total_energy,
                            total_force)

PI = math.pi
# children import the floatcyl these tests import
SRC = str(Path(floatcyl.__file__).resolve().parents[1])
README = Path(__file__).resolve().parents[1] / "README.md"


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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_float_rows_match_the_array_kernels(self, capsys, fmt):
        # curves runs each point on floats; its bytes equal the rows of
        # np.linspace through the array kernels (JSON prints every bit)
        rng = np.random.default_rng(21)
        cases = [(g, 4.0, 1.0) for g in (0.0, PI / 2, PI)] + [
            (rng.uniform(0.0, PI), rng.uniform(0.05, 15.0),
             math.exp(rng.uniform(math.log(1e-2), math.log(1e2))))
            for _ in range(3)]
        columns = ["phi0_rad", "force_over_sigma", "energy_over_sigma_a",
                   "height_over_a"]
        for g, a, c in cases:
            p = DimensionlessParams(a, c, g)
            meta = {"input_mode": "dimensionless", "mass_ratio": a,
                    "capillary_ratio": c, "contact_angle": g}
            for n in (1, 2, 3, 200, 400, 1000):
                grid = np.linspace(0.0, PI, n)
                rows = np.column_stack([grid, total_force(grid, p),
                                        total_energy(grid, p).total,
                                        center_height(grid, p)]).tolist()
                _emit_table(SimpleNamespace(format=fmt, out=None,
                                            timestamp=False),
                            "curves", meta, columns, rows)
                want = capsys.readouterr().out
                code, out = run_cli(capsys, [
                    "curves", "--gamma", repr(g), "--A", repr(a), "--C",
                    repr(c), "--resolution", str(n), "--format", fmt])
                assert code == 0
                assert out == want, (g, a, c, n)


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

    def test_json_one_ulp_below_pi(self):
        # the endpoint curve's first sample was (pi, inf) there, printed as
        # Infinity, with NumPy's divide-by-zero warning on stderr
        proc = run_child(["-m", "floatcyl.cli", "region-map", "--gamma",
                          "3.1415926535897927", "--resolution", "4",
                          "--format", "json"])
        assert proc.returncode == 0
        assert proc.stderr == ""

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        payload = json.loads(proc.stdout, parse_constant=reject)
        endpoint = [c for c in payload["curves"] if c["kind"] == "endpoint"]
        assert endpoint and all(a > PI for a, _ in endpoint[0]["points"])


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

    @pytest.mark.parametrize("argv,digest", [
        (["verify", "--samples", "12"],
         "5e12d124988a1ee894a9148e8d3ebb31f421a6428c7cb28c59194021706146d8"),
        (["verify", "--samples", "12", "--seed", "3", "--format", "json"],
         "533a753e3d935a2f1509d16a0083d44f2648d3dc30b9f19ee1f1c4a4601e59f2"),
    ], ids=["csv", "json"])
    def test_pinned_digest(self, capsys, argv, digest):
        # every report's floats and their order, byte for byte
        code, out = run_cli(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv,digest", [
        (["verify", "--samples", "1"],
         "2bb74506e685e12cc55f91e76743d97e46ca8b650e5eaa3e0b6fccd14d3cba8f"),
        (["verify", "--samples", "37", "--seed", "5"],
         "f132bb8dc2df90d5fbc205a0d2e9cfbd1fe8d956c7b5eb0b6d0983a38d6828a7"),
        (["verify", "--samples", "250", "--seed", "11", "--format", "json"],
         "44547be8451434ba8d2a19e0b2008434a76f23f0d515671accd2b6a0d6f5d44b"),
    ], ids=["one", "seed5", "seed11-json"])
    def test_pinned_digest_more_draws(self, capsys, argv, digest):
        # captured while SciPy's quad still ran the quadrature
        code, out = run_cli(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestReadmeCommands:
    # each README command's exit code and the SHA-256 of what it writes:
    # its stdout, or its --out file
    PINNED = [
        ("equilibria --gamma 1.5707963 --A 3.8 --C 2", 0,
         "7a94b5d33364eb2221e32ca2510ffe6400d3e07b3b5e8b7cd0bd53bb25ee8423"),
        ("equilibria --gamma 1.5707963 --m 1.2 --rho 1 --sigma 72 --g 980 "
         "--a 0.56418958", 0,
         "a5547cb4ad79c5bdc258cdf15303951726b3176b23210a76e670ef381a76e8cb"),
        ("equilibria --gamma 0.7853982 --A 2 --C 1", 0,
         "6c265be9810177571038aea8acdc90baa53ae531649487ccc882281d8f3ad6b7"),
        ("equilibria --gamma 1 --A 10 --C 2", 3,
         "4205b0f981e607f6c5fc254a4c2e78542e866f02908b0fdf7679423acdddcba8"),
        ("curves --gamma 1.5707963 --A 4 --C 1 --resolution 400 --out "
         "curves.csv", 0,
         "baefd757faad2013c059b75831004eb71ba349278794c4a9db2cb758b1ed0966"),
        ("profile --gamma 0.7853982 --A 1 --C 2 --phi0 0.4", 0,
         "83d70802701d978cdcc750b4f7e253c470e9b936fafd39ead0933f5b45446787"),
        ("astar --gamma 1.5707963 --C 1", 0,
         "c0c578e2966ac5365624d7afe37d4b8bf1376182399b9c60070856932a46a6ab"),
        ("region-map --gamma 2.3561945 --resolution 200 --format json --out "
         "map.json", 0,
         "6ed5089eb7af3d48756b2dc2c2aa00d1e9c593df52b5f29c63056d3cba522a67"),
        ("verify --samples 100 --format json", 0,
         "e0e8acc0e3a389ca0160334f9fb1ccf0fef6e2f597be36443e0f1d329d55ef78"),
    ]

    def test_every_command_is_pinned(self):
        section = README.read_text().split("## Command line", 1)[1]
        block = section.split("```\n", 2)[1].replace("\\\n", " ")
        assert [shlex.join(shlex.split(line)[1:])
                for line in block.splitlines()
                if line.startswith("floatcyl ")] == [
                    command for command, _, _ in self.PINNED]

    @pytest.mark.parametrize("command,code,digest", PINNED,
                             ids=[command for command, _, _ in PINNED])
    def test_output_bytes(self, capsys, tmp_path, command, code, digest):
        argv = shlex.split(command)
        out = None
        if "--out" in argv:
            i = argv.index("--out") + 1
            out = argv[i] = str(tmp_path / argv[i])
        assert main(argv) == code
        stdout = capsys.readouterr().out
        if out:
            assert stdout == ""
            data = Path(out).read_bytes()
        else:
            data = stdout.encode()
        assert hashlib.sha256(data).hexdigest() == digest


class TestTimestamp:
    ISO = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(\.\d+)?\+00:00")

    @pytest.mark.parametrize("argv,where", [
        (["equilibria", "--gamma", "1.5707963", "--A", "3.8", "--C", "2"],
         "csv"),
        (["equilibria", "--gamma", "1.5707963", "--A", "3.8", "--C", "2",
          "--format", "json"], "meta"),
        (["region-map", "--gamma", "2", "--resolution", "3"], "csv"),
        (["region-map", "--gamma", "2", "--resolution", "3",
          "--format", "json"], "top"),
        (["verify", "--samples", "2", "--format", "json"], "top"),
    ])
    def test_timestamp_lands_in_the_header(self, capsys, argv, where):
        _, plain = run_cli(capsys, argv)
        _, stamped = run_cli(capsys, argv + ["--timestamp"])
        stamps = [m.group(0) for m in self.ISO.finditer(stamped)]
        assert len(stamps) == 1
        # an aware UTC time, as the documented generation timestamp
        assert datetime.fromisoformat(stamps[0]).utcoffset() == timedelta(0)
        stamped = stamped.replace(stamps[0], "<ts>")
        if where == "csv":
            lines = plain.split("\n")
            last = max(i for i, l in enumerate(lines) if l.startswith("#"))
            lines.insert(last + 1, "# generated_at: <ts>")
            assert stamped == "\n".join(lines)
            return
        want = json.loads(plain)
        (want["meta"] if where == "meta" else want)["generated_at"] = "<ts>"
        assert json.loads(stamped) == want


class TestPlumbing:
    def test_usage_error(self, capsys):
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
                ["verify", "--samples", "0"],
                ["verify", "--seed", "-1"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
        # the last one names its flag, not NumPy's seed check
        assert "argument --seed" in capsys.readouterr().err

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
        # C**2 underflows to 0, or A* overflows
        (["astar", "--gamma", "2", "--C", "1e-200"], "capillary_ratio"),
        (["astar", "--gamma", "2", "--C", "1e-160"], "capillary_ratio"),
    ])
    def test_nonfinite_input_is_domain_error(self, argv, field):
        proc = run_child(["-m", "floatcyl.cli", *argv])
        assert proc.returncode == 4
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert field in lines[0]

    @pytest.mark.parametrize("c", ["1e150", "1e300"])
    def test_astar_scale_error_names_capillary_ratio(self, c):
        # astar takes no mass ratio, so its message names C alone
        proc = run_child(["-m", "floatcyl.cli", "astar", "--gamma", "2",
                          "--C", c])
        assert proc.returncode == 4
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "capillary_ratio" in lines[0]
        assert "mass_ratio" not in lines[0]

    @pytest.mark.parametrize("argv", [
        ["equilibria", "--gamma", "1", "--A", "1", "--C", "1"],
        ["verify", "--samples", "1"],
    ], ids=["equilibria", "verify"])
    def test_unopenable_output_is_usage_error(self, tmp_path, argv):
        path = str(tmp_path / "missing" / "out.csv")
        proc = run_child(["-m", "floatcyl.cli", *argv, "--out", path])
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "--out" in lines[0] and path in lines[0]
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["region-map", "--gamma", "1", "--resolution", "2",
         "--c-min", "1e-200"],
        ["region-map", "--gamma", "1", "--resolution", "2",
         "--c-max", "1e-170"],
        ["region-map", "--gamma", "2.5", "--resolution", "2",
         "--c-max", "1e-170"],
    ])
    def test_tiny_capillary_window(self, argv):
        # a C**2 that underflows bounds no curve, and no tangency sample
        # lies below the window's top
        proc = run_child(["-m", "floatcyl.cli", *argv])
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_import_leaves_scipy_unloaded(self):
        # SciPy serves only the oracle suite and loads on its first use
        proc = run_child(
            ["-c",
             "import sys, floatcyl.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv,loaded,code", [
        (["curves", "--gamma", "1", "--A", "1", "--C", "1"], [], 0),
        (["curves", "--gamma", "1", "--A", "1", "--C", "1", "--format",
          "json"], [], 0),
        (["profile", "--gamma", "1", "--A", "1", "--C", "1", "--phi0", "0.5"],
         ["numpy"], 0),
        (["equilibria", "--gamma", "1", "--A", "1", "--C", "1"],
         ["equilibria", "intersection"], 0),
        # nor does a weight past the force's closed-form ceiling
        (["equilibria", "--gamma", "1", "--A", "10", "--C", "2"],
         ["equilibria", "intersection"], 3),
        (["equilibria", "--gamma", "1.5707963", "--m", "12", "--rho", "1",
          "--sigma", "72", "--g", "980", "--a", "0.56418958"],
         ["equilibria", "intersection"], 3),
        (["astar", "--gamma", "2", "--C", "1"], ["equilibria"], 0),
        (["astar", "--gamma", "1.5707963", "--C", "1"], ["equilibria"], 0),
        (["astar", "--gamma", "1.2", "--C", "2"], ["equilibria"], 0),
        (["astar", "--gamma", "0.785398", "--C", "0.5"], ["equilibria"], 4),
        (["verify", "--samples", "1"], ["numpy", "oracles"], 0),
        (["region-map", "--gamma", "2", "--resolution", "4"],
         ["equilibria", "intersection", "numpy", "regions"], 0),
    ], ids=["curves", "curves-json", "profile", "equilibria",
            "equilibria-rootless", "equilibria-rootless-physical", "astar",
            "astar-series", "astar-gamma-1.2", "astar-error", "verify",
            "region-map"])
    def test_command_loads_only_its_modules(self, argv, loaded, code):
        # every command builds its parameters in model; the rest of the
        # library, and NumPy, load only where the command runs them:
        # astar, curves and equilibria pass no array, so NumPy never loads
        proc = run_child(
            ["-c",
             "import sys; from floatcyl.cli import main; "
             f"code = main({argv!r}); "
             "print(sorted(m for m in sys.modules if m == 'numpy' "
             "or m.split('.')[0] == 'floatcyl'), file=sys.stderr); "
             "sys.exit(code)"])
        assert proc.returncode == code, proc.stderr
        want = ["floatcyl", "floatcyl.cli", "floatcyl.model",
                *(m if m == "numpy" else f"floatcyl.{m}" for m in loaded)]
        if code != 4:
            assert proc.stderr.strip() == repr(sorted(want))
        else:
            lines = proc.stderr.splitlines()
            assert len(lines) == 2 and lines[0].startswith("error: ")
            assert lines[1] == repr(sorted(want))

    def test_model_and_equilibria_import_without_numpy(self):
        # nor does find_equilibria load it, on a cell past the ceiling or
        # on a cell with two roots
        proc = run_child(
            ["-c",
             "import math, sys, floatcyl.model, floatcyl.equilibria; "
             "from floatcyl.equilibria import find_equilibria; "
             "from floatcyl.model import DimensionlessParams as P; "
             "print('numpy' in sys.modules); "
             "print(find_equilibria(P(10.0, 2.0, 1.0))); "
             "print(len(find_equilibria(P(3.8, 2.0, math.pi / 2)))); "
             "print('numpy' in sys.modules)"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "[]", "2", "False"]

    def test_bare_import_loads_no_submodule(self):
        proc = run_child(
            ["-c",
             "import sys, floatcyl; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'floatcyl'))"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['floatcyl']"

    def test_regime_error_in_a_fresh_process(self):
        # NoSecondCriticalPointError comes from a module loaded by the
        # command itself, and still exits 4
        proc = run_child(["-m", "floatcyl.cli", "astar", "--gamma", "0.785398",
                          "--C", "0.5"])
        assert proc.returncode == 4
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_unmapped_error_propagates(self, monkeypatch):
        import floatcyl.equilibria as equilibria

        def broken(params):
            raise RuntimeError("not a domain error")

        monkeypatch.setattr(equilibria, "find_equilibria", broken)
        with pytest.raises(RuntimeError, match="not a domain error"):
            main(["equilibria", "--gamma", "1", "--A", "1", "--C", "1"])

    def test_verify_leaves_scipy_unloaded(self):
        # the oracle suite's quadrature is in-repo: verify needs no SciPy
        proc = run_child(
            ["-c",
             "import sys; from floatcyl.cli import main; "
             "code = main(['verify', '--samples', '5']); "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),"
             " file=sys.stderr); sys.exit(code)"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip() == "[]"

    def test_astar_too_large_for_the_slope(self):
        # from 4 sin(gamma/2) <= C 2^-52 (C of about 1.5e16 here) the slope
        # at pi rounds to zero against C^2
        proc = run_child(["-m", "floatcyl.cli", "astar", "--gamma", "2",
                          "--C", "1e20"])
        assert proc.returncode == 4
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "capillary_ratio=1e+20 is too large" in lines[0]
        assert "threshold" not in lines[0]

    def test_astar_within_rounding_of_the_threshold(self):
        # a C one ulp above the threshold, where _slope(pi) rounds to 0,
        # prints the maximum, as a 50-digit bisection finds it
        from test_equilibria import mp_maximum
        c, g = 1.7735822913560129, 0.5
        proc = run_child(["-m", "floatcyl.cli", "astar", "--gamma", repr(g),
                          "--C", repr(c)])
        assert proc.returncode == 0
        assert proc.stderr == ""
        _, rows = csv_rows(proc.stdout)
        assert rows == [[f"{float(v):.12g}" for v in (c, *mp_maximum(c, g))]
                        + [""] * 4]

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
