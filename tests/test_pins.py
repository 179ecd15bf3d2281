"""Byte pins of the program's outputs.

Each pin is the SHA-256 digest of what one CLI invocation prints, or of
the repr of a library value: the amplitude terms that acceptance
criterion 7 computes (the amplitude sweep carries sqrt(g+ g-) on the
branch of model.SymbolBranch, so these also hold that branch), the
labeled cubic roots at complex E and the scaled actions I and T at
complex mu.
They hold a refactoring to its promise of unchanged output bytes: a
change that only restructures code leaves every digest as it is.

Changing a pin is a spec revision, not a test fix.  It must be argued
in CHANGES.md: which outputs move, by how much, and why the new values
are the right ones.
"""

import cmath
import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conires
from conires.actions import action_I, tunnel_T
from conires.cli import main
from conires.model import ModelParams, cubic_roots
from conires.wkb import amplitude_recurrence, origin_series


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


CLI_PINS = {
    "resonances --h 0.01 --band 1,2 --nutilde-max 1.5 --refine bs":
        "8d68bd81d2f38ba7bb4680bd34e5dcd5d5b0d3c4ab38f423122669742ef23bab",
    "verify-ode --h 0.2 --nutilde 0.5 --k 2":
        "06a0bf4b8c431150619edb27297b08ee79afb5664e5a311484331eb0de48d5b2",
    "actions --E 1.3-0.1j --nu 0.2":
        "74c313d750ab22d46f2201a9485e3767f7ad7fd6882c2f7f13f10b173fb95368",
    "pplus --h 0.01 --l 1 --oracle":
        "86c5e5570724ef9f1efa8ec994b0c4a165245557afac831d05d5fadbedcff6f9",
    "turning-points --E 2 --nu 0.5":
        "f8b1299afc711f45f6ac1017553ce45bbf1d634db73ad6fdf619381bcbd7393d",
    "resonances --h-sweep 0.01,0.1,3 --kmin 11 --kmax 12 --nutilde-min 1.5 "
    "--nutilde-max 2.5":
        "cf0f936c0c35aa074644d308d3c54b32c51c8b9d4162f9c6df8173ba314794e7",
    "resonances --h 0.01 --band 1,2 --nutilde-max 1.5 --refine bs "
    "--format json":
        "140ba8746713eb209c80cae94346410489ade801729b5a56f457f78b8211b16f",
    "verify-ode --h 0.2 --nutilde 0.5 --k 2 --format json":
        "ae6bacd1e5182a61b0eca3c45a76153b9ea8e3af11b771dc16e2d808e7efcd28",
    "actions --E 1.3-0.1j --nu 0.2 --format json":
        "cd79513c965e7962122f210b9fc0bd2872f0640c62640d6c57264224a6cc0dae",
    "pplus --h 0.01 --l 1 --oracle --format json":
        "082417cae3899176590d9715af5aa57b835b3c27988f22a5d6ba570a9d535189",
    "pplus --h 0.005 --l 2 --oracle --format json":
        "d03a35cc81fb6b47ac17a1379f274566498e2123e13223b9464c060f95702961",
    "turning-points --E 2 --nu 0.5 --format json":
        "0c05309f42e4a5c8b9455b384fbe92167600237114182e364b6cdfce84e5bd5a",
    "resonances --h-sweep 0.01,0.1,3 --kmin 11 --kmax 12 --nutilde-min 1.5 "
    "--nutilde-max 2.5 --format json":
        "2baa0aa267abf5b4fe146ce32e8d70a0d652d5373a37d487b3a8e583614726f5",
    "resonances --h 0.1 --kmin 3 --kmax 4 --nutilde-max 0.5 --refine ode":
        "c77d48521a028a8308c4f6173342bca46d0c61a2701b6ab644b655639ac37cc3",
    "resonances --h 0.1 --kmin 3 --kmax 4 --nutilde-max 0.5 --refine ode "
    "--format json":
        "d031648ec0d66aacc53c66381cfb52197f2f183e45101c4b75c9b3bfac886bb7",
    # the bs-sweep benchmark's family at production h: about 380 Newton
    # roots through the AGM Carlson kernel
    "resonances --h 0.005 --band 1,4 --nutilde-max 2.5 --refine bs":
        "5d33e241372824aa1b816fa39dd88ebc86c486baf49ec2f58d6649abb4996749",
}
# Every pin that runs a numpy eigensolve or band solve holds at one BLAS
# thread as well: the ODE pins (test_ode_pins_at_one_blas_thread) and the
# three pplus --oracle pins (test_pplus_pins_at_one_blas_thread), whose
# radial eigensolve forms its products by einsum and stays below the
# sizes where LAPACK's symmetric eigensolver rounds by thread count.

# resonances --seed-file mode, the file holding SEEDS
SEEDS = [{"re": 1.74, "im": -0.077}, 2.0]
SEED_PINS = {
    "resonances --h 0.1 --nutilde 0.5 --refine ode":
        "75349ed665e653a6ccf70ef43ace10573e4148e8a3fcf9e8b9689d8dac1e72af",
    "resonances --h 0.1 --nutilde 0.5 --refine ode --format json":
        "26f3c63c44c0a7752236eaf381488eb618252de6b75a3b26165acc92ab900603",
    "resonances --h 0.1 --nutilde 0.5 --refine bs":
        "611237bccc3614aec611e0a07778f0f5918adb51a7f85bdbabf5fc2b0763b75e",
    "resonances --h 0.1 --nutilde 0.5 --refine bs --format json":
        "e1758984c022b25e344357f72e53c19b26d959a3b6f2c915bca37328aca82244",
}

# The six ODE pins' outputs without the ODE residual column (residual_ode
# of verify-ode, residual of resonances rows).  That residual is the
# certified zero's |c+| over its ring median, a reading at the noise
# level that moves with any change to how the Jost solve rounds.
# Everything else, the certified lambda included, keeps these digests
# through such a change, which then re-pins only the digests above.
LAMBDA_PINS = {
    "verify-ode --h 0.2 --nutilde 0.5 --k 2":
        "043941debab435d122020a0d00002b45257d25de6dc842fedcdcfc1daf7b2cbc",
    "verify-ode --h 0.2 --nutilde 0.5 --k 2 --format json":
        "de194068bd925f7e56e946263032c72a3f05419b66bc1350809bb7dadf9e265d",
    "resonances --h 0.1 --kmin 3 --kmax 4 --nutilde-max 0.5 --refine ode":
        "2e47361e9179ef6608072fff7d8dfded36ad3fff51ba3558d48c9ea7ec9217b1",
    "resonances --h 0.1 --kmin 3 --kmax 4 --nutilde-max 0.5 --refine ode "
    "--format json":
        "3c7c738a314ddca3aa4b87eb31cd39c0636d371ef7dd83ea1749f5a304b83b52",
    "resonances --h 0.1 --nutilde 0.5 --refine ode --seed-file":
        "fc43c08458688dbedaa7ab27094b1a41dcf99ffd9f31678994c2e4562d3b73f7",
    "resonances --h 0.1 --nutilde 0.5 --refine ode --seed-file "
    "--format json":
        "498d3bdd4762f65907cd012cb0b67e7dc4408b5703e703d0ad44f9f685138489",
}

# criterion 7: amplitude_recurrence along [0.2i, 0.9i] at nu = 0.05, N = 4,
# keyed by h; origin_series at E = 1, h = 0.1, nu_tilde = 1/2, N = 12,
# x = i nu tau / E, keyed by tau
AMPLITUDE_PINS = {
    0.2: "955c9e6ea8b73ef77886f4c73826237d19e03ae1d0a9ac680a4a9503c855c4c2",
    0.1: "3c5a459895875708f54914e070a3c2e7c980def0e894c51dadd9acd1cc2ee496",
    0.05: "4859b5265bc5449c4c88f1cd2784d399fa4f92a02c94e3ee866dde45aed435ef",
}
ORIGIN_PINS = {
    0.5: "070a7b0bfd103d81ccec5895df7d12f2581b8ac20d77dde4b16bd2ed247931cc",
    1.0: "e25e5ec4f5d0d460472ae188cff4de27a801eb9f209c821dfc1fcf5ce15336de",
    2.0: "f62c8d0dd0d25f09ab31230de034db96f71f3dc8246825c7a893bc810c923f38",
}


@pytest.mark.parametrize("command", CLI_PINS)
def test_cli_output_bytes(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(command.split()) == 0
    assert _digest(out.getvalue()) == CLI_PINS[command], out.getvalue()


@pytest.mark.parametrize("command", SEED_PINS)
def test_seed_file_output_bytes(command, tmp_path):
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps(SEEDS))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(command.split() + ["--seed-file", str(seeds)]) == 0
    assert _digest(out.getvalue()) == SEED_PINS[command], out.getvalue()


def _without_residual(text):
    """A CSV or JSON output without its ODE residual column."""
    if text.startswith("{"):
        return "".join(line for line in text.splitlines(keepends=True)
                       if not line.lstrip().startswith(
                           ('"residual":', '"residual_ode":')))
    rows = list(csv.reader(io.StringIO(text)))
    j = next(i for i, name in enumerate(rows[0])
             if name in ("residual", "residual_ode"))
    return "".join(",".join(row[:j] + row[j + 1:]) + "\n" for row in rows)


@pytest.mark.parametrize("command", LAMBDA_PINS)
def test_ode_output_bytes_without_residual(command, tmp_path):
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps(SEEDS))
    argv = command.replace("--seed-file", f"--seed-file {seeds}").split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    text = _without_residual(out.getvalue())
    assert _digest(text) == LAMBDA_PINS[command], text


def _is_ode(command):
    return command.startswith("verify-ode") or "--refine ode" in command


def _digests_at_one_blas_thread(argvs):
    """The digest of what each argv prints, run in one fresh interpreter
    at one BLAS thread."""
    code = ("import contextlib, hashlib, io, json, sys\n"
            "from conires.cli import main\n"
            "digests = {}\n"
            "for cmd, argv in json.loads(sys.argv[1]).items():\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        assert main(argv) == 0, cmd\n"
            "    digests[cmd] = hashlib.sha256("
            "out.getvalue().encode()).hexdigest()\n"
            "print(json.dumps(digests))")
    src = str(Path(conires.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                         env=env, capture_output=True, text=True,
                         check=True)
    return json.loads(out.stdout)


def test_ode_pins_at_one_blas_thread(tmp_path):
    # a certified ODE zero is the located eigenvalue bit for bit, and the
    # locator's band solve rounds the same at every BLAS thread count:
    # every ODE pin holds in a fresh interpreter at one thread
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps(SEEDS))
    argvs = {cmd: cmd.split() for cmd in CLI_PINS if _is_ode(cmd)}
    argvs.update({cmd: cmd.split() + ["--seed-file", str(seeds)]
                  for cmd in SEED_PINS if _is_ode(cmd)})
    pins = {**CLI_PINS, **SEED_PINS}
    assert len(argvs) == 6
    assert _digests_at_one_blas_thread(argvs) == {cmd: pins[cmd]
                                                  for cmd in argvs}


def test_pplus_pins_at_one_blas_thread():
    # the radial eigensolve's products are einsums, and its symmetric
    # eigensolves (at most 111 basis functions and 113 Gauss nodes at
    # these windows) round the same at every BLAS thread count
    argvs = {cmd: cmd.split() for cmd in CLI_PINS
             if cmd.startswith("pplus") and "--oracle" in cmd}
    assert len(argvs) == 3
    assert _digests_at_one_blas_thread(argvs) == {cmd: CLI_PINS[cmd]
                                                  for cmd in argvs}


@pytest.mark.parametrize("h", AMPLITUDE_PINS)
def test_amplitude_terms_bits(h):
    terms = repr(amplitude_recurrence([0.2j, 0.9j], (1.0, h, 0.05 / h), 4,
                                      sign=+1).terms)
    assert _digest(terms) == AMPLITUDE_PINS[h], terms


@pytest.mark.parametrize("tau", ORIGIN_PINS)
def test_origin_series_terms_bits(tau):
    x = 1j * 0.05 * tau / 1.0
    terms = repr(origin_series(ModelParams(1.0, 0.1, 0.5), x, 12).terms)
    assert _digest(terms) == ORIGIN_PINS[tau], terms


# repr of the cubic_roots(E, nu).roots at E = f E_c + i im for f in
# LABEL_RE and im in LABEL_IM, E_c = (27 nu^2 / 4)^{1/3} the real branch
# point, keyed by nu: both half-planes, both sides of E_c
LABEL_RE = (0.5, 0.98, 1.02, 2.0)
LABEL_IM = (-0.4, -0.02, 0.02, 0.4)
LABEL_PINS = {
    0.002: "dc1005d363cfa022f0b035bd8b2989b56eb23f73932f27204b7500b502a383fa",
    0.1: "859e6b7fd44e2f69f5d68d1393808a5ff9e4ad5d29f1255e625f2a0bde1516ab",
    1.0: "a13b96aaf32004ba0297f2d44a882ce4e7d36111d3a3297d748cffa5463d21a3",
}
# repr of the ActionValues at mu = |mu| e^{i a} for a in MU_ARGS, keyed
# by |mu|; their fields are Python complex and float, so no digest
# depends on numpy's scalar repr
MU_ARGS = (0.5, 2.0, 3.1)
ACTION_I_PINS = {
    0.05: "78744da53f92931600bb4e918e281d4fedab83bedf16e3a231b0a7d6942943a3",
    0.3: "b3c2e398cf1739d4a2648f06b72eba645edd36738d5011588745e5ca6d5d87c0",
    0.38: "949f332edbf1d8b07464ea1dd087fd9e855e103f4f05599b9010f59fc119253b",
}
TUNNEL_T_PINS = {
    0.05: "a7a8bdaa329fc6eab3cb96d0dc68f8a78e4afa8416e32cbb9cdc853002eef600",
    0.3: "d4fe594f57cea58a0694128d2398b52e98620f2361c02cd79abd3b8cb5389514",
    0.38: "a0694e639b374e23faeaac1bd55c0267b50a6694161bd8f505de7f8988a4202a",
}


@pytest.mark.parametrize("nu", LABEL_PINS)
def test_cubic_root_labels_bits(nu):
    e_c = (6.75 * nu * nu) ** (1.0 / 3.0)
    crs = [cubic_roots(complex(f * e_c, im), nu)
           for f in LABEL_RE for im in LABEL_IM]
    assert not any(cr.degenerate for cr in crs)
    text = repr(tuple(cr.roots for cr in crs))
    assert _digest(text) == LABEL_PINS[nu], text


@pytest.mark.parametrize("fn, pins", [(action_I, ACTION_I_PINS),
                                      (tunnel_T, TUNNEL_T_PINS)],
                         ids=["action_I", "tunnel_T"])
@pytest.mark.parametrize("mu_abs", ACTION_I_PINS)
def test_unit_actions_bits(fn, pins, mu_abs):
    text = repr(tuple(fn(mu_abs * cmath.exp(1j * a)) for a in MU_ARGS))
    assert _digest(text) == pins[mu_abs], text
