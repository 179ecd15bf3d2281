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
from conires.cli import main
from conires.model import turning_points
from conires.quantization import Band, pplus_levels, resonance_set, \
    solve_resonance
from test_pins import CLI_PINS, SEED_PINS, SEEDS


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


# Runs pinned commands in order in one fresh interpreter and prints, for
# each, its exit code, the digest of its output and whether numpy is
# loaded after it.  With "no-numpy", numpy is made unimportable first.
_RUN_PINNED = """\
import contextlib, hashlib, io, json, sys
if sys.argv[2] == "no-numpy":
    sys.modules["numpy"] = None
from conires.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    runs.append([code, hashlib.sha256(out.getvalue().encode()).hexdigest(),
                 sys.modules.get("numpy") is not None])
print(json.dumps(runs))
"""


def _run_pinned(commands, tmp_path, mode):
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps(SEEDS))
    argvs = [cmd.split() + (["--seed-file", str(seeds)]
                            if cmd in SEED_PINS else [])
             for cmd in commands]
    src = str(Path(conires.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _RUN_PINNED,
                          json.dumps(argvs), mode], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


class TestImports:
    def test_cli_import_leaves_ode_solvers_unloaded(self):
        # importing the CLI loads no scipy module: scipy.linalg loads on
        # the first locator solve, and the ODE solvers and scipy.special
        # only in wkb's amplitude sweeps and loggamma
        src = str(Path(conires.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys, conires.cli; "
                "print(sorted(m for m in ('scipy.integrate', 'scipy.linalg', "
                "'scipy.optimize', 'scipy.special') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_verify_ode_leaves_ode_solvers_unloaded(self, tmp_path):
        # the Jost solve is Taylor series and an asymptotic series from
        # end to end: a certified ODE zero loads no scipy ODE solver; the
        # locator's band LU comes from scipy.linalg.lapack and loads no
        # scipy.sparse
        src = str(Path(conires.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        table = tmp_path / "verify.csv"
        code = ("import sys; from conires.cli import main; "
                "code = main(['verify-ode', '--h', '0.2', '--nutilde', "
                f"'0.5', '--k', '2', '--output', {str(table)!r}]); "
                "print(code, 'scipy.integrate' in sys.modules, "
                "'scipy.sparse' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "0 False False"
        assert len(rows_of(table.read_text())) == 1

    def test_pplus_oracle_leaves_ode_solvers_unloaded(self, tmp_path):
        # the radial oracle is one numpy eigensolve: no ODE solver, no
        # root bracketing, no Carlson integral
        src = str(Path(conires.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        table = tmp_path / "pplus.csv"
        code = ("import sys; from conires.cli import main; "
                f"code = main(['pplus', '--h', '0.01', '--l', '1', "
                f"'--oracle', '--output', {str(table)!r}]); "
                "print(code, sorted(m for m in ('scipy.integrate', "
                "'scipy.linalg', 'scipy.optimize', 'scipy.special') "
                "if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "0 []"
        assert len(rows_of(table.read_text())) == 4

    def test_actions_leave_mpmath_unloaded(self):
        # mpmath is a test-only dependency: every closed-form action,
        # including I(mu) at arg mu = 0.9 pi, off the AGM kernel's domain,
        # where R_J comes from the duplication algorithm, and S2inf at
        # complex E, stays clear of it
        src = str(Path(conires.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import cmath, math, sys; from conires import actions as a; "
                "a.action_S01_pair((1.3, 0.2)); a.tunnel_T(0.1); "
                "a.action_I(0.1 * cmath.exp(0.9j * math.pi)); "
                "a.action_Iplus(0.05); a.action_S12(1.0, 0.01, 1); "
                "a.action_S2inf((1.5 - 0.1j, 0.05)); "
                "print('mpmath' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_bs_sweep_and_actions_load_no_scipy(self):
        # the closed-form actions take R_F, R_D and R_J from their own AGM
        # kernel: a Bohr-Sommerfeld band sweep and the actions command
        # load no scipy module at all
        src = str(Path(conires.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import contextlib, io, sys; from conires.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    codes = [main(['resonances', '--h', '0.005', '--band', "
                "'1,4', '--nutilde-max', '2.5', '--refine', 'bs']), "
                "main(['actions', '--E', '1.5-0.1j', '--nu', '0.05'])]\n"
                "print(codes, sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[0, 0] []"

    def test_import_loads_every_module_but_not_numpy(self):
        # numpy loads on the first array call; every submodule still
        # loads with the package and the CLI (perfbench's tracer rebinds
        # names there)
        src = str(Path(conires.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys, conires.cli; print('numpy' in sys.modules, all("
                "'conires.' + m in sys.modules for m in ('cli', "
                "'quantization', 'actions', 'quadrature', 'model', "
                "'ode_oracle')))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False True"

    def test_scalar_routes_run_without_numpy(self, tmp_path):
        # turning-points, actions and resonances with lattice or bs
        # refinement (band and seed-file modes) build no array: with
        # numpy unimportable each prints its pinned bytes
        pins = {**CLI_PINS, **SEED_PINS}
        scalar = [cmd for cmd in pins
                  if not cmd.startswith(("verify-ode", "pplus"))
                  and "--refine ode" not in cmd]
        assert len(scalar) == 11
        runs = _run_pinned(scalar, tmp_path, "no-numpy")
        assert runs == [[0, pins[cmd], False] for cmd in scalar]

    def test_array_routes_load_numpy_on_first_use(self, tmp_path):
        # after a numpy-free command, the first locator solve and the
        # first radial eigensolve load numpy and build their tables:
        # both print their pinned bytes
        commands = ["turning-points --E 2 --nu 0.5",
                    "verify-ode --h 0.2 --nutilde 0.5 --k 2",
                    "pplus --h 0.01 --l 1 --oracle"]
        runs = _run_pinned(commands, tmp_path, "numpy")
        assert runs == [[0, CLI_PINS[cmd], loaded]
                        for cmd, loaded in zip(commands, (False, True, True))]

    def test_package_names_resolve(self):
        assert conires.jost_cplus is conires.ode_oracle.jost_cplus
        for n in conires.wkb.__all__:
            assert getattr(conires, n) is getattr(conires.wkb, n)
        with pytest.raises(AttributeError):
            conires.no_such_name


class TestUsageErrors:
    @pytest.mark.parametrize("band", ["2,1", "0,1", "-1,1"])
    def test_rejects_bad_band(self, band, capsys):
        # the band rule is checked before any job runs, in every h mode;
        # "--band -1,1" would read -1,1 as an option, hence --band=
        for h in (["--h", "0.1"], ["--h-sweep", "0.05,0.1,2"]):
            assert main(["resonances"] + h + ["--nutilde-max", "1.5",
                                               f"--band={band}"]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert "band must satisfy 0 < a < b" in err

    def test_rejects_unknown_format(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["actions", "--E", "1", "--nu", "0.1", "--format", "xml"])
        assert err.value.code == 2
        assert "invalid choice: 'xml'" in capsys.readouterr().err


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

    def test_huge_energy_is_degenerate_error(self, capsys):
        # |E|^6 leaves the float range past |E| ~ 2.4e51: the turning
        # points are reported degenerate (exit 3), not as an overflow
        assert main(["turning-points", "--E", "1e52", "--nu", "0.1"]) == 3
        assert "turning points degenerate" in capsys.readouterr().err
        code, out = run_cli(
            ["turning-points", "--E", "1e51", "--nu", "0.1"], capsys)
        assert code == 0
        assert all(row["degenerate"] == "true" for row in rows_of(out))

    @pytest.mark.parametrize("nu", ["1.4e154", "1e200"])
    def test_huge_coupling_is_degenerate_error(self, nu, capsys):
        # nu^2 leaves the float range past nu ~ 1.3e154: a typed error
        # (exit 3), not an OverflowError
        assert main(["turning-points", "--E", "1", "--nu", nu]) == 3
        assert "nu^2 leaves the floating-point range" in \
            capsys.readouterr().err

    def test_overflowing_discriminant_is_degenerate_error(self, capsys):
        # the discriminant's 27 nu^4 overflows to inf, without raising,
        # past nu ~ 5e76: a typed error (exit 3) and no rows, not nan rows
        assert main(["turning-points", "--E", "1", "--nu", "1e78"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "the discriminant leaves the floating-point range" in err

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

    def test_supercritical_coupling_has_no_turning_points(self, capsys):
        # mu = nu E^{-3/2} = 0.5 is beyond the critical 0.385: refused
        # like action_I, not as a non-finite Carlson value
        assert main(["actions", "--E", "1", "--nu", "0.5"]) == 3
        err = capsys.readouterr().err
        assert "beyond the critical value" in err
        assert "Carlson" not in err

    @pytest.mark.parametrize("E", ["1e20", "1e52", "1e134+1e134j"])
    def test_huge_energy_is_degenerate_error(self, E, capsys):
        # E^3 and |E|^6 overflow past 1e51 and 1e102: the same typed
        # error as at 1e20, where they do not
        assert main(["actions", "--E", E, "--nu", "0.1"]) == 3
        assert "turning points degenerate" in capsys.readouterr().err

    @pytest.mark.parametrize("nu", ["1.4e154", "1e200"])
    def test_huge_coupling_is_degenerate_error(self, nu, capsys):
        # nu^2 overflows past nu ~ 1.3e154: the same typed error as for
        # huge E, not an OverflowError
        assert main(["actions", "--E", "1", "--nu", nu]) == 3
        assert "nu^2 leaves the floating-point range" in \
            capsys.readouterr().err


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
        # (k = 1, nu_tilde = 5/2) fails at h = 0.1 (its Newton path leaves
        # R_J's principal domain, Re p <= 0, and S01 refuses); every other
        # root converges
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

    @staticmethod
    def _usage_error_in_every_mode(params, capsys):
        for selector in (["--band", "1,2"], ["--kmin", "1", "--kmax", "3"]):
            with pytest.raises(SystemExit) as err:
                main(["resonances"] + params + selector)
            assert err.value.code == 2
            capsys.readouterr()

    def test_nonpositive_h_is_usage_error(self, capsys):
        for h in ("0", "-0.1", "nan", "inf"):
            self._usage_error_in_every_mode(
                ["--h", h, "--nutilde-max", "1.5"], capsys)

    def test_nutilde_max_below_half_is_usage_error(self, capsys):
        self._usage_error_in_every_mode(
            ["--h", "0.1", "--nutilde-max", "0.2"], capsys)

    def test_nutilde_min_above_max_is_usage_error(self, capsys):
        self._usage_error_in_every_mode(
            ["--h", "0.1", "--nutilde-min", "2.5", "--nutilde-max", "1.5"],
            capsys)

    def test_band_solves_no_family_below_min(self, capsys, monkeypatch):
        argv = ["resonances", "--h", "0.1", "--nutilde-max", "2.5",
                "--band", "2.0,4.0", "--refine", "bs"]
        code, out = run_cli(argv, capsys)
        assert code == 0
        want = [r for r in rows_of(out) if float(r["nu_tilde"]) >= 1.5]
        solved = []
        job = quantization._sweep_job

        def counted(k, nt, *args):
            solved.append(nt)
            return job(k, nt, *args)

        monkeypatch.setattr(quantization, "_sweep_job", counted)
        code, out = run_cli(argv + ["--nutilde-min", "1.5"], capsys)
        assert code == 0
        assert solved and min(solved) == 1.5
        assert len(solved) == len(want)
        assert rows_of(out) == want

    def test_selector_usage_errors(self, tmp_path, capsys):
        seeds, empty = tmp_path / "seeds.json", tmp_path / "empty.json"
        seeds.write_text("[1.9]")
        empty.write_text("[]")
        seed = ["--h", "0.1", "--nutilde", "0.5", "--seed-file", str(seeds),
                "--refine", "bs"]
        one_h = "resonances needs exactly one of --h or --h-sweep"
        one_mode = "resonances needs exactly one of --band or --kmin/--kmax"
        excludes = "--seed-file excludes --band and --kmin/--kmax"
        sweep = "--h-sweep needs 0 < lo < hi and n >= 2"
        krange = "--kmin and --kmax must both be given with kmin <= kmax"
        idle_in_seed_mode = "--seed-file excludes --nutilde-max and " \
            "--nutilde-min"
        idle_in_sweep = "--nutilde requires --seed-file; a sweep takes " \
            "--nutilde-max"
        bad = [
            (["--nutilde-max", "0.5", "--band", "1,2"], one_h),
            (["--h", "0.1", "--h-sweep", "0.01,0.1,3", "--nutilde-max", "0.5",
              "--band", "1,2"], one_h),
            (["--h", "0.1", "--nutilde-max", "0.5"], one_mode),
            (["--h", "0.1", "--nutilde-max", "0.5", "--band", "1,2",
              "--kmin", "3", "--kmax", "5"], one_mode),
            (["--h", "0.1", "--band", "1,2"],
             "resonances needs --nutilde-max (or --seed-file)"),
            (["--h", "0.1", "--nutilde-max", "0.5", "--band", "1,2",
              "--plot-script", "x.gp"],
             "--plot-script requires --figure-data"),
            (seed + ["--band", "1,2"], excludes),
            (seed + ["--kmin", "1"], excludes),
            (["--h", "0.1", "--seed-file", str(seeds), "--refine", "bs"],
             "--seed-file requires --nutilde"),
            (seed + ["--refine", "lattice"],
             "--seed-file requires --refine bs or ode"),
            (["--h-sweep", "0.01,0.1,3", "--nutilde", "0.5", "--seed-file",
              str(seeds), "--refine", "bs"],
             "--seed-file requires a single --h"),
            (["--h", "0.1", "--nutilde", "0.5", "--seed-file", str(empty),
              "--refine", "bs"], "seed file contains no seeds"),
            (["--h-sweep", "0.1,0.01,3", "--nutilde-max", "1.5",
              "--band", "1,2"], sweep),
            (["--h-sweep", "0.01,0.1,1", "--nutilde-max", "1.5",
              "--band", "1,2"], sweep),
            (["--h", "0.1", "--nutilde-max", "1.5", "--kmin", "3"], krange),
            (["--h", "0.1", "--nutilde-max", "1.5", "--kmin", "5",
              "--kmax", "3"], krange),
            # options that select nothing in their mode
            (seed + ["--nutilde-max", "0.2"], idle_in_seed_mode),
            (seed + ["--nutilde-min", "0.5"], idle_in_seed_mode),
            (["--h", "0.1", "--band", "1,2", "--nutilde-max", "0.5",
              "--nutilde", "7.5"], idle_in_sweep),
        ]
        for argv, message in bad:
            with pytest.raises(SystemExit) as err:
                main(["resonances"] + argv)
            assert err.value.code == 2
            out, stderr = capsys.readouterr()
            assert out == ""
            assert stderr.endswith(f"error: {message}\n"), (argv, stderr)

    @pytest.mark.parametrize("nutilde, refine", [("0.7", "ode"),
                                                 ("-0.5", "bs")])
    def test_seed_nutilde_rejected_by_route_is_usage_error(
            self, tmp_path, capsys, nutilde, refine):
        # the ODE oracle takes half-integers only, BS any positive value
        seeds = tmp_path / "seeds.json"
        seeds.write_text("[1.9]")
        with pytest.raises(SystemExit) as err:
            main(["resonances", "--h", "0.1", "--nutilde", nutilde,
                  "--seed-file", str(seeds), "--refine", refine])
        assert err.value.code == 2
        capsys.readouterr()

    def test_idle_options_are_checked_last(self, tmp_path, capsys):
        # an invocation that a selector rule rejected before the idle-
        # option rules existed keeps that rule's message
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        with pytest.raises(SystemExit) as err:
            main(["resonances", "--h", "0.1", "--nutilde", "0.5",
                  "--refine", "bs", "--seed-file", str(empty),
                  "--nutilde-max", "0.2"])
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: seed file contains no seeds\n")
        # the band rule is Band's ValueError, without a usage line
        assert main(["resonances", "--h", "0.1", "--band", "2,1",
                     "--nutilde-max", "0.5", "--nutilde", "0.5"]) == 2
        assert capsys.readouterr().err == \
            "error: band must satisfy 0 < a < b, got a=2.0, b=1.0\n"

    @pytest.mark.parametrize("text", ['["abc"]', '{"a": 1}', '"2.0"',
                                      '{"1.9": 0}'],
                             ids=["string", "object", "bare-string",
                                  "numeric-key"])
    def test_seed_file_not_a_list_of_numbers(self, tmp_path, capsys, text):
        # a string or an object is iterable but not a list of seeds, and
        # float("abc") raises ValueError: each is a usage error
        seeds = tmp_path / "seeds.json"
        seeds.write_text(text)
        with pytest.raises(SystemExit) as err:
            main(["resonances", "--h", "0.1", "--nutilde", "0.5",
                  "--seed-file", str(seeds), "--refine", "bs"])
        assert err.value.code == 2
        out, stderr = capsys.readouterr()
        assert out == ""
        assert stderr.startswith("usage: ")
        assert "\nconires: error: cannot read seed file: " in stderr

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

    def test_outputs_byte_identical(self, tmp_path, capsys):
        argv = ["verify-ode", "--h", "0.2", "--nutilde", "0.5", "--k", "2",
                "--format", "json"]
        a, b = (tmp_path / n for n in ("a.json", "b.json"))
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert_valid_json(a.read_text())

    def test_partial_failure_exits_4(self, capsys, monkeypatch):
        # an ODE-route failure leaves the lattice and BS columns in the
        # table and turns the exit code to 4
        def fail(*args, **kwargs):
            raise errors.NoPlateau("no plateau")

        monkeypatch.setattr("conires.cli.find_resonance_ode", fail)
        code, out = run_cli(
            ["verify-ode", "--h", "0.1", "--nutilde", "1.5", "--k", "4"],
            capsys)
        assert code == 4
        row = rows_of(out)[0]
        assert row["lambda_bs_re"] != ""
        assert row["lambda_ode_re"] == ""
        assert "NoPlateau" in row["error"]

    def test_non_half_integer_nutilde_is_usage_error(self, capsys):
        # the ODE oracle refuses it, so no route runs
        with pytest.raises(SystemExit) as err:
            main(["verify-ode", "--h", "0.1", "--nutilde", "0.7", "--k", "3"])
        assert err.value.code == 2
        capsys.readouterr()


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

    @pytest.mark.parametrize("oracle", [[], ["--oracle"]],
                             ids=["closed-form", "oracle"])
    def test_negative_kmax_is_usage_error(self, oracle, capsys):
        # no level is asked for: refused before any eigensolve runs
        with pytest.raises(SystemExit) as err:
            main(["pplus", "--h", "0.01", "--l", "1", "--kmax", "-1"] + oracle)
        assert err.value.code == 2
        out, stderr = capsys.readouterr()
        assert out == ""
        assert "--kmax must be at least 0, got -1" in stderr

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

    def test_csv_without_rows_notes_the_oracle_levels(self, capsys):
        # at l = 10 no prediction is positive: the CSV stays a bare
        # header, and stderr gives the count of oracle levels and where
        # to read them
        argv = ["pplus", "--h", "0.01", "--l", "10", "--oracle"]
        assert main(argv + ["--format", "json"]) == 0
        levels = json.loads(capsys.readouterr().out)["meta"]["oracle_values"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert out == "k,E_pred,E_oracle,delta\n"
        assert err == (f"note: no closed-form level at l=10 up to k=3; the "
                       f"{len(levels)} oracle levels are in --format json's "
                       "meta.oracle_values\n")
        assert len(levels) == 3

    @pytest.mark.parametrize("l", range(4, 11))
    def test_oracle_window_reaches_ground_state(self, l, capsys):
        # at the default kmax every prediction lies below the ground
        # state from l = 4 (at l = 10 none is positive), so the window
        # widens to 1.3 times the Langer ground state, which e_0 exceeds
        h = 0.01
        code, out = run_cli(["pplus", "--h", str(h), "--l", str(l),
                             "--oracle", "--format", "json"], capsys)
        assert code == 0
        doc = assert_valid_json(out)
        assert doc["meta"]["oracle_error"] is None
        langer = (0.75 * math.pi * (l + 1) * h) ** (2.0 / 3.0)
        assert langer < doc["meta"]["oracle_values"][0] < 1.3 * langer
