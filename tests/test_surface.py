"""Ledger of the program's settable parameters.

Counts, with inspect.signature, every defaulted parameter and every
**kwargs of the functions and class methods defined in the computing
modules, the __init__ of their dataclasses and the _replace of their
named tuples included, and holds the total to a recorded number; and
counts the options of each CLI subcommand (-h aside), held to
CLI_OPTIONS.  An option that no caller sets is surface to maintain and
to test; the counts make each one visible in review.

Changing LEDGER or CLI_OPTIONS is argued in CHANGES.md, as a pin change
is: which options come or go, and why.
"""

import argparse
import importlib
import inspect

MODULES = ("model", "quadrature", "actions", "quantization", "ode_oracle",
           "spectral", "cli", "wkb")
LEDGER = 27
CLI_OPTIONS = {"turning-points": 4, "actions": 4, "resonances": 14,
               "verify-ode": 5, "pplus": 6}


def _settable(fn):
    params = inspect.signature(fn).parameters.values()
    return sum(1 for p in params
               if p.default is not p.empty or p.kind is p.VAR_KEYWORD)


def _callables(mod):
    """Functions and methods defined in mod, generated ones included."""
    for obj in vars(mod).values():
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            for member in vars(obj).values():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield member


def test_settable_parameter_count():
    counts = {}
    for name in MODULES:
        mod = importlib.import_module(f"conires.{name}")
        for fn in _callables(mod):
            n = _settable(fn)
            if n:
                counts[f"{name}.{fn.__qualname__}"] = n
    assert sum(counts.values()) == LEDGER, counts


def test_cli_option_count():
    from conires.cli import _build_parser

    sub, = [a for a in _build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    counts = {name: sum(1 for a in p._actions
                        if not isinstance(a, argparse._HelpAction))
              for name, p in sub.choices.items()}
    assert counts == CLI_OPTIONS
