"""Byte pins of the program's outputs.

Each pin is the SHA-256 digest of what one CLI invocation prints, or of
the repr of the amplitude terms that acceptance criterion 7 computes.
They hold a refactoring to its promise of unchanged output bytes: a
change that only restructures code leaves every digest as it is.

Changing a pin is a spec revision, not a test fix.  It must be argued
in CHANGES.md: which outputs move, by how much, and why the new values
are the right ones.
"""

import contextlib
import hashlib
import io

import pytest

from conires.cli import main
from conires.model import ModelParams
from conires.wkb import amplitude_recurrence, origin_series


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


CLI_PINS = {
    "resonances --h 0.01 --band 1,2 --nutilde-max 1.5 --refine bs":
        "22a65ef8706627c8b95bf1abcd0a7df660f4253ec82be05661507b1804de9dd4",
    "verify-ode --h 0.2 --nutilde 0.5 --k 2":
        "a8edee283a435205cf74cf064f38bd8688b7f4febc7383f54205368a1a54fd87",
    "actions --E 1.3-0.1j --nu 0.2":
        "268840855924fec8885ce3faa894420594c084fb2b6692708e1feb0d3a92dff7",
    "pplus --h 0.01 --l 1 --oracle":
        "ed7dbfe04badbacb8cd3b5444d04bb854400accd5e397bce0e78182a0b3169b3",
    "turning-points --E 2 --nu 0.5":
        "66c8677bfb98d28b6da7b6539d7fd69671251124c23df9127aa2ab612991e2d7",
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
