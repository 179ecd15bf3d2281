"""CLI surface tests.

Every table the CLI prints is cross-checked against the library call
it wraps, so these tests guard the plumbing (parsing, serialization,
exit codes, determinism) rather than the numerics, which have their
own suites.  JSON output is validated against the schema shipped with
the package.
"""

import csv
import io
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import conires
from conires import errors, quantization
from conires.actions import action_S01, action_S2inf
from conires.cli import RunConfig, main
from conires.model import turning_points
from conires.quantization import Band, pplus_levels, resonance_set, \
    solve_resonance


def run_cli(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def rows_of(text):
    return list(csv.DictReader(io.StringIO(text)))


def schema():
    raw = resources.files("conires").joinpath(
        "schemas/output.schema.json").read_text(encoding="utf-8")
    return json.loads(raw)


def assert_valid_json(text):
    doc = json.loads(text)
    jsonschema.validate(doc, schema())
    return doc


class TestImports:
    def test_cli_import_leaves_ode_solvers_unloaded(self):
        # the Bohr-Sommerfeld path needs neither scipy.integrate nor
        # scipy.optimize, so importing the CLI must not load them
        src = str(Path(conires.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys, conires.cli; "
                "print(sorted(m for m in ('scipy.integrate', "
                "'scipy.optimize') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_pplus_oracle_leaves_ode_solvers_unloaded(self, tmp_path):
        # the radial oracle is one numpy eigensolve: no ODE solver, no
        # root bracketing
        src = str(Path(conires.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        table = tmp_path / "pplus.csv"
        code = ("import sys; from conires.cli import main; "
                f"code = main(['pplus', '--h', '0.01', '--l', '1', "
                f"'--oracle', '--output', {str(table)!r}]); "
                "print(code, sorted(m for m in ('scipy.integrate', "
                "'scipy.optimize') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "0 []"
        assert len(rows_of(table.read_text())) == 4

    def test_package_names_resolve(self):
        assert conires.jost_cplus is conires.ode_oracle.jost_cplus
        assert conires.transfer_T1 is conires.wkb.transfer_T1
        with pytest.raises(AttributeError):
            conires.no_such_name


class TestRunConfig:
    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            RunConfig("actions", {}, tolerances={"tol": 0.0})

    def test_rejects_bad_band(self):
        with pytest.raises(ValueError):
            RunConfig("resonances", {}, band=(2.0, 1.0))
        with pytest.raises(ValueError):
            RunConfig("resonances", {}, band=(-1.0, 1.0))

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            RunConfig("actions", {}, fmt="xml")


class TestTurningPoints:
    def test_matches_library(self, capsys):
        code, out = run_cli(
            ["turning-points", "--E", "2", "--nu", "0.5"], capsys)
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 3
        tp = turning_points(2.0, 0.5)
        for j, row in enumerate(rows):
            assert int(row["root"]) == j
            assert abs(float(row["r_re"]) - tp.r[j].real) <= 1e-14
            assert abs(float(row["x_re"]) - tp.x_roots[j].real) <= 1e-14
            assert float(row["residual"]) <= 1e-12
            assert row["degenerate"] == "false"
        r_vals = sorted(float(row["r_re"]) for row in rows)
        for got, want in zip(r_vals, (0.2587, 1.2670, 1.5257)):
            assert abs(got - want) <= 1e-3

    def test_degenerate_flag(self, capsys):
        code, out = run_cli(
            ["turning-points", "--E", "2", "--nu", "0"], capsys)
        assert code == 0
        assert all(row["degenerate"] == "true" for row in rows_of(out))

    def test_json_schema(self, capsys):
        code, out = run_cli(
            ["turning-points", "--E", "2", "--nu", "0.5",
             "--format", "json"], capsys)
        assert code == 0
        doc = assert_valid_json(out)
        assert doc["command"] == "turning-points"
        assert set(doc["rows"][0]["x"]) == {"re", "im"}
        assert doc["meta"]["degenerate"] is False

    def test_missing_argument_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["turning-points", "--E", "2"])
        assert err.value.code == 2

    def test_unparsable_number_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["turning-points", "--E", "abc", "--nu", "0.5"])
        assert err.value.code == 2


class TestActions:
    def test_matches_library(self, capsys):
        code, out = run_cli(
            ["actions", "--E", "1", "--nu", "0.01"], capsys)
        assert code == 0
        rows = {r["quantity"]: r for r in rows_of(out)}
        assert set(rows) == {"S01", "S2inf"}
        for name, fn in (("S01", action_S01), ("S2inf", action_S2inf)):
            want = fn((1.0, 0.01))
            got = complex(float(rows[name]["value_re"]),
                          float(rows[name]["value_im"]))
            assert abs(got - want.value) <= 1e-14
            assert float(rows[name]["est_error"]) > 0.0

    def test_complex_energy_accepted(self, capsys):
        code, out = run_cli(
            ["actions", "--E", "1.5-0.1j", "--nu", "0.05",
             "--format", "json"], capsys)
        assert code == 0
        doc = assert_valid_json(out)
        want = action_S01((1.5 - 0.1j, 0.05)).value
        got = doc["rows"][0]["value"]
        assert abs(complex(got["re"], got["im"]) - want) <= 1e-14


class TestResonances:
    def test_band_bs_matches_resonance_set(self, capsys):
        code, out = run_cli(
            ["resonances", "--h", "0.1", "--nutilde-max", "1.5",
             "--band", "2.0,3.5", "--refine", "bs"], capsys)
        assert code == 0
        rows = rows_of(out)
        recs = resonance_set(Band(2.0, 3.5, h=0.1, nu_tilde_max=1.5),
                             refine="bs")
        want = {(r.k, r.nu_tilde): r.lam for r in recs}
        assert len(rows) == len(want)
        for row in rows:
            key = (int(row["k"]), float(row["nu_tilde"]))
            got = complex(float(row["lambda_re"]), float(row["lambda_im"]))
            assert abs(got - want[key]) <= 1e-12
            assert row["method"] == "bs-newton"
            assert row["error"] == ""

    def test_rows_sorted_by_family_h_k(self, capsys):
        code, out = run_cli(
            ["resonances", "--h", "0.1", "--nutilde-max", "2.5",
             "--band", "2.0,4.0"], capsys)
        assert code == 0
        keys = [(float(r["nu_tilde"]), float(r["h"]), int(r["k"]))
                for r in rows_of(out)]
        assert keys == sorted(keys)

    def test_lattice_mode_has_no_residual(self, capsys):
        code, out = run_cli(
            ["resonances", "--h", "0.1", "--nutilde-max", "0.5",
             "--band", "2.0,3.0", "--refine", "lattice"], capsys)
        assert code == 0
        for row in rows_of(out):
            assert row["method"] == "lattice"
            assert row["residual"] == ""
            assert int(row["iterations"]) == 0

    def test_h_sweep_and_krange(self, capsys):
        code, out = run_cli(
            ["resonances", "--h-sweep", "0.01,0.1,3", "--kmin", "11",
             "--kmax", "12", "--nutilde-min", "1.5",
             "--nutilde-max", "2.5", "--refine", "lattice"], capsys)
        assert code == 0
        rows = rows_of(out)
        # 3 h values x 2 families x 2 branch indices, all brackets positive
        assert len(rows) == 12
        hs = sorted({float(r["h"]) for r in rows})
        assert len(hs) == 3
        assert abs(hs[1] / hs[0] - hs[2] / hs[1]) <= 1e-12
        assert {float(r["nu_tilde"]) for r in rows} == {1.5, 2.5}

    def test_figure_data_and_plot_script(self, tmp_path, capsys):
        fig = tmp_path / "fan.csv"
        script = tmp_path / "fan.gp"
        code, _ = run_cli(
            ["resonances", "--h", "0.1", "--nutilde-max", "1.5",
             "--band", "2.0,3.0", "--refine", "lattice",
             "--figure-data", str(fig), "--plot-script", str(script),
             "--output", str(tmp_path / "table.csv")], capsys)
        assert code == 0
        lines = fig.read_text().splitlines()
        assert lines[0] == "nu_tilde,k,h,lambda_re,lambda_im"
        assert len(lines) > 1
        for line in lines[1:]:
            nt, k, h, lre, lim = line.split(",")
            assert float(lim) < 0.0
        text = script.read_text()
        assert str(fig) in text
        assert "0.5" in text and "1.5" in text

    def test_seed_file(self, tmp_path, capsys):
        want = solve_resonance(4, 0.5, 0.1)
        seeds = tmp_path / "seeds.json"
        seeds.write_text(json.dumps(
            [{"re": want.E.real, "im": want.E.imag}]))
        code, out = run_cli(
            ["resonances", "--h", "0.1", "--nutilde", "0.5",
             "--seed-file", str(seeds), "--refine", "bs"], capsys)
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 1
        got = complex(float(rows[0]["lambda_re"]),
                      float(rows[0]["lambda_im"]))
        assert abs(got - want.lam) <= 1e-9
        assert int(rows[0]["k"]) == 4

    def test_outputs_byte_identical(self, tmp_path, capsys):
        argv = ["resonances", "--h", "0.01", "--nutilde-max", "2.5",
                "--band", "1.0,1.5", "--refine", "bs", "--format", "json"]
        a, b = (tmp_path / n for n in ("a.json", "b.json"))
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert_valid_json(a.read_text())

    def test_partial_result_exit_code(self, capsys):
        # (k = 1, nu_tilde = 5/2) fails at h = 0.1 (scipy's R_J has no
        # value on its Newton path); every other root converges
        common = ["resonances", "--h", "0.1", "--nutilde-max", "2.5",
                  "--refine", "bs"]
        for selector in (["--band", "0.1,0.5"],
                         ["--kmin", "0", "--kmax", "2"]):
            code, out = run_cli(common + selector, capsys)
            assert code == 4
            failed = [r for r in rows_of(out) if r["error"]]
            assert [(r["k"], r["nu_tilde"]) for r in failed] == [("1", "2.5")]
            name = failed[0]["error"].split(":")[0]
            assert issubclass(getattr(errors, name), errors.ConiresError)
            assert len(rows_of(out)) > len(failed)

    def test_krange_failure_becomes_error_row(self, capsys, monkeypatch):
        solve = quantization.solve_resonance

        def flaky(k, *args, **kwargs):
            if k == 5:
                raise ZeroDivisionError("injected")
            return solve(k, *args, **kwargs)

        monkeypatch.setattr(quantization, "solve_resonance", flaky)
        code, out = run_cli(
            ["resonances", "--h", "0.1", "--nutilde-max", "0.5",
             "--kmin", "4", "--kmax", "6", "--refine", "bs"], capsys)
        assert code == 4
        rows = {int(r["k"]): r for r in rows_of(out)}
        assert rows[5]["error"] == "ZeroDivisionError: injected"
        assert rows[4]["error"] == rows[6]["error"] == ""

    def test_empty_band_is_numeric_failure(self, capsys):
        code = main(["resonances", "--h", "0.1", "--nutilde-max", "0.5",
                     "--band", "9.0,9.01", "--refine", "bs"])
        capsys.readouterr()
        assert code == 3

    def test_selector_usage_errors(self, capsys):
        bad = [
            ["resonances", "--nutilde-max", "0.5", "--band", "1,2"],
            ["resonances", "--h", "0.1", "--h-sweep", "0.01,0.1,3",
             "--nutilde-max", "0.5", "--band", "1,2"],
            ["resonances", "--h", "0.1", "--nutilde-max", "0.5"],
            ["resonances", "--h", "0.1", "--nutilde-max", "0.5",
             "--band", "1,2", "--kmin", "3", "--kmax", "5"],
            ["resonances", "--h", "0.1", "--band", "1,2"],
            ["resonances", "--h", "0.1", "--nutilde-max", "0.5",
             "--band", "1,2", "--plot-script", "x.gp"],
        ]
        for argv in bad:
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2
            capsys.readouterr()

    def test_bad_seed_file_is_usage_error(self, tmp_path, capsys):
        seeds = tmp_path / "seeds.json"
        seeds.write_text("not json")
        with pytest.raises(SystemExit) as err:
            main(["resonances", "--h", "0.1", "--nutilde", "0.5",
                  "--seed-file", str(seeds), "--refine", "bs"])
        assert err.value.code == 2
        capsys.readouterr()


class TestVerifyOde:
    def test_three_routes_side_by_side(self, capsys):
        code, out = run_cli(
            ["verify-ode", "--h", "0.2", "--nutilde", "0.5", "--k", "2"],
            capsys)
        assert code == 0
        row = rows_of(out)[0]
        bs = solve_resonance(2, 0.5, 0.2)
        got_bs = complex(float(row["lambda_bs_re"]),
                         float(row["lambda_bs_im"]))
        assert abs(got_bs - bs.lam) <= 1e-12
        assert float(row["gap_bs_lat"]) <= 0.5 * 0.2
        # The Jost-zero ladder sits half a lattice spacing from the BS
        # root; the gap over h approaches 3 pi / 4 from above.
        assert abs(float(row["gap_ode_bs_over_h"]) - 0.75 * math.pi) <= 0.05
        assert float(row["residual_ode"]) <= 1e-8
        assert row["error"] == ""

    def test_partial_failure_exits_4(self, capsys):
        # nu_tilde = 1 is fine for the BS route but not a half-integer,
        # so the ODE oracle refuses it; the table still carries the BS
        # and lattice columns.
        code, out = run_cli(
            ["verify-ode", "--h", "0.1", "--nutilde", "1.0", "--k", "4"],
            capsys)
        assert code == 4
        row = rows_of(out)[0]
        assert row["lambda_bs_re"] != ""
        assert row["lambda_ode_re"] == ""
        assert "ValueError" in row["error"]


class TestPplus:
    def test_predictions_match_library(self, capsys):
        code, out = run_cli(
            ["pplus", "--h", "0.01", "--l", "1", "--kmax", "3"], capsys)
        assert code == 0
        rows = rows_of(out)
        assert [int(r["k"]) for r in rows] == [0, 1, 2, 3]
        for row in rows:
            want = pplus_levels(0.01, 1, [int(row["k"])])[0]
            assert abs(float(row["E_pred"]) - want) <= 1e-14
            assert row["E_oracle"] == ""

    def test_oracle_deltas(self, capsys):
        code, out = run_cli(
            ["pplus", "--h", "0.05", "--l", "1", "--kmax", "3",
             "--oracle", "--format", "json"], capsys)
        assert code == 0
        doc = assert_valid_json(out)
        assert doc["meta"]["oracle_error"] is None
        assert len(doc["meta"]["oracle_values"]) >= 2
        # Physical pairings (k >= 1) land within a few times 1e-2 at
        # h = 0.05; the k = 0 entry has no partner of its own and picks
        # up a much larger delta.
        deltas = {row["k"]: abs(row["delta"]) for row in doc["rows"]}
        assert deltas[1] <= 0.05
        assert deltas[2] <= 0.05
        assert deltas[0] >= 5 * deltas[1]
