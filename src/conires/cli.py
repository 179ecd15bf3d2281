"""Command-line surface for the resonance pipeline.

Five subcommands cover the pipeline stages: ``turning-points`` and
``actions`` expose the geometric layer, ``resonances`` runs lattice
sweeps with optional Bohr-Sommerfeld or ODE-oracle refinement,
``verify-ode`` puts the three routes for a single resonance side by
side, and ``pplus`` compares the radial closed form against the
symmetric Galerkin eigensolve of the scaled radial problem.

``main`` parses argv, makes the checks argparse cannot (the resonances
selector rules also build that command's ``params``), and hands the
parsed namespace to one ``cmd_*`` function, which returns the document,
the extra files to write and the exit code.

Output is a table in CSV (default) or JSON.  Complex values become two
CSV columns (``*_re``, ``*_im``) or a ``{"re", "im"}`` object in JSON.
JSON documents follow the schema shipped at
``conires/schemas/output.schema.json``.  Identical invocations produce
byte-identical files: no timestamps, floats rendered with shortest
round-trip repr, JSON keys sorted.

Exit codes: 0 success, 2 usage or parameter validation error, 3
numeric failure, 4 partial result (some requested quantities computed,
others failed; failed rows carry an ``error`` column).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

from .actions import action_S01, action_S2inf
from .errors import ConiresError, WindowEmpty
from .model import _check_h_nt, turning_points
from .ode_oracle import find_resonance_ode, pplus_eigen_oracle
from .quantization import (
    Band,
    SweepFailure,
    _band_sweep,
    _branch_coordinate,
    _families,
    _lambda_of_E,
    _sweep_job,
    lattice_point,
    pplus_levels,
    solve_resonance,
)


# ----------------------------------------------------------------- rendering

def _jsonify(value):
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(float(value))
    return str(value)


def render_document(doc, fmt):
    """Serialize a command document to text.

    The document is {"command", "params", "meta", "rows", "columns"}
    with rows as dicts of python values (complex kept as complex).
    The columns list fixes CSV header order; complex columns expand to
    *_re and *_im.
    """
    if fmt == "json":
        payload = {
            "command": doc["command"],
            "params": _jsonify(doc["params"]),
            "meta": _jsonify(doc.get("meta", {})),
            "rows": [_jsonify(row) for row in doc["rows"]],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    columns = doc["columns"]
    header = []
    for name, kind in columns:
        if kind is complex:
            header += [f"{name}_re", f"{name}_im"]
        else:
            header.append(name)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in doc["rows"]:
        cells = []
        for name, kind in columns:
            value = row.get(name)
            if kind is complex:
                if value is None:
                    cells += ["", ""]
                else:
                    value = complex(value)
                    cells += [repr(value.real), repr(value.imag)]
            else:
                cells.append(_csv_cell(value))
        writer.writerow(cells)
    return buf.getvalue()


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# ------------------------------------------------------------------ helpers

_RES_COLUMNS = [
    ("k", int), ("nu_tilde", float), ("h", float),
    ("lambda_lat", complex), ("lambda", complex), ("E", complex),
    ("method", str), ("residual", float), ("iterations", int),
    ("error", str),
]


def _row(result, h):
    """Table row of a ResonanceRecord or a SweepFailure at h."""
    if isinstance(result, SweepFailure):
        return {"k": result.k, "nu_tilde": result.nu_tilde, "h": h,
                "lambda_lat": None, "lambda": None, "E": None,
                "method": None, "residual": None, "iterations": None,
                "error": result.error}
    return {
        "k": result.k, "nu_tilde": result.nu_tilde, "h": h,
        "lambda_lat": result.lambda_lat, "lambda": result.lam,
        "E": result.E, "method": result.method,
        "residual": None if math.isnan(result.residual) else result.residual,
        "iterations": result.iterations, "error": None,
    }


# ----------------------------------------------------------------- commands

def cmd_turning_points(args):
    """Cubic roots, turning points, discriminant, and root residuals."""
    E, nu = args.E, args.nu
    tp = turning_points(E, nu)
    rows = []
    for j in range(3):
        x = complex(tp.x_roots[j])
        residual = abs(((x - 2.0 * E) * x + E * E) * x - nu * nu)
        rows.append({
            "root": j, "x": x, "r": complex(tp.r[j]), "residual": residual,
            "D3": complex(tp.D3), "degenerate": tp.degenerate,
        })
    doc = {
        "command": "turning-points",
        "params": {"E": E, "nu": nu},
        "meta": {"D3": complex(tp.D3), "degenerate": tp.degenerate},
        "rows": rows,
        "columns": [("root", int), ("x", complex), ("r", complex),
                    ("residual", float), ("D3", complex),
                    ("degenerate", bool)],
    }
    return doc, {}, 0


def cmd_actions(args):
    """S01 and S2inf, both closed form, with roundoff bounds."""
    E = args.E.real if args.E.imag == 0.0 else args.E
    nu = args.nu
    rows = []
    for name, val in (("S01", action_S01((E, nu))),
                      ("S2inf", action_S2inf((E, nu)))):
        rows.append({"quantity": name, "value": val.value,
                     "est_error": val.est_error, "n_evals": val.n_evals})
    doc = {
        "command": "actions",
        "params": {"E": E, "nu": nu},
        "meta": {},
        "rows": rows,
        "columns": [("quantity", str), ("value", complex),
                    ("est_error", float), ("n_evals", int)],
    }
    return doc, {}, 0


def _resonance_rows(args):
    """Rows of the points the resonances selector names, at each h: the
    lattice points in the band or of kmin..kmax in each family, or the
    nearest branch of each seed."""
    rows = []
    for h in args.params["h_values"]:
        if args.seeds is not None:
            nt = args.nutilde
            jobs = [(round(_branch_coordinate(_lambda_of_E(complex(E0)).real,
                                              nt, h)), nt, E0)
                    for E0 in args.seeds]
        else:
            families = _families(args.nutilde_max,
                                 args.params["nutilde_min"])
            if args.band is not None:
                recs, failures = _band_sweep(Band(*args.band, h=h),
                                             families, args.refine)
                rows += [_row(r, h) for r in recs + failures]
                continue
            jobs = []
            for nt in families:
                for k in range(args.kmin, args.kmax + 1):
                    try:
                        lat = lattice_point(k, nt, h)
                    except ValueError:
                        continue
                    # the ODE seed stays this power rather than the lattice
                    # record's E: the two differ in the last bit at some
                    # points, and the oracle's choice of zero can follow it
                    seed = (complex(lat) ** (2.0 / 3.0)
                            if args.refine == "ode" else None)
                    jobs.append((k, nt, seed))
        rows += [_row(_sweep_job(k, nt, h, seed, args.refine), h)
                 for k, nt, seed in jobs]
    return rows


_PLOT_SCRIPT = """\
# Companion plot script (gnuplot) for the resonance fan data file.
# Usage: gnuplot -e "DATA='{data}'" {script}  (or edit DATA below).
if (!exists("DATA")) DATA = '{data}'
set datafile separator ","
set xlabel "Re lambda"
set ylabel "Im lambda"
set key title "nu-tilde" outside
series = "{series}"
plot for [s in series] DATA every ::1 \\
    using ($1 == (s + 0) ? $4 : 1/0):5 with points pt 7 title s
"""


def cmd_resonances(args):
    """Lattice sweep with optional refinement; figure-data emission."""
    rows = _resonance_rows(args)
    rows.sort(key=lambda r: (r["nu_tilde"], r["h"], r["k"]))
    n_ok = sum(1 for r in rows if r["error"] is None)
    doc = {
        "command": "resonances",
        "params": args.params,
        "meta": {"n_success": n_ok, "n_failed": len(rows) - n_ok,
                 "refine": args.refine},
        "rows": rows,
        "columns": _RES_COLUMNS,
    }

    artifacts = {}
    fig_path = args.figure_data
    if fig_path:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["nu_tilde", "k", "h", "lambda_re", "lambda_im"])
        for r in rows:
            if r["error"] is None:
                lam = r["lambda"]
                writer.writerow([repr(r["nu_tilde"]), r["k"], repr(r["h"]),
                                 repr(lam.real), repr(lam.imag)])
        artifacts[fig_path] = buf.getvalue()
        if args.plot_script:
            series = sorted({r["nu_tilde"] for r in rows
                             if r["error"] is None})
            artifacts[args.plot_script] = _PLOT_SCRIPT.format(
                data=fig_path, script=args.plot_script,
                series=" ".join(repr(s) for s in series))

    if n_ok == 0:
        code = 3
    elif n_ok < len(rows):
        code = 4
    else:
        code = 0
    return doc, artifacts, code


def cmd_verify_ode(args):
    """One resonance by all three routes, with gaps between them."""
    k, nt, h = args.k, args.nutilde, args.h
    lat = lattice_point(k, nt, h)
    row = {"k": k, "nu_tilde": nt, "h": h, "lambda_lat": lat,
           "lambda_bs": None, "lambda_ode": None, "gap_bs_lat": None,
           "gap_ode_bs": None, "gap_ode_bs_over_h": None,
           "residual_bs": None, "residual_ode": None, "error": None}
    bs = solve_resonance(k, nt, h)
    row["lambda_bs"] = bs.lam
    row["gap_bs_lat"] = abs(bs.lam - lat)
    row["residual_bs"] = bs.residual
    code = 0
    try:
        ode = find_resonance_ode((bs.E, h, nt))
        row["lambda_ode"] = ode.lam
        row["gap_ode_bs"] = abs(ode.lam - bs.lam)
        row["gap_ode_bs_over_h"] = abs(ode.lam - bs.lam) / h
        row["residual_ode"] = ode.residual
    except (ConiresError, ValueError) as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
        code = 4
    doc = {
        "command": "verify-ode",
        "params": {"k": k, "nutilde": nt, "h": h},
        "meta": {},
        "rows": [row],
        "columns": [("k", int), ("nu_tilde", float), ("h", float),
                    ("lambda_lat", complex), ("lambda_bs", complex),
                    ("lambda_ode", complex), ("gap_bs_lat", float),
                    ("gap_ode_bs", float), ("gap_ode_bs_over_h", float),
                    ("residual_bs", float), ("residual_ode", float),
                    ("error", str)],
    }
    return doc, {}, code


def cmd_pplus(args):
    """Closed-form radial levels, optionally next to the oracle levels
    from one symmetric Galerkin eigensolve of the h-free scaled
    problem."""
    l, h, kmax = args.l, args.h, args.kmax
    preds = []
    for k in range(0, kmax + 1):
        level = pplus_levels(h, l, [k])
        if level:
            preds.append((k, level[0]))

    oracle_values = None
    oracle_error = None
    code = 0
    if args.oracle:
        lo = 0.5 * preds[0][1] if preds else 0.5 * h ** (2.0 / 3.0)
        hi = 1.3 * preds[-1][1] if preds else 8.0 * h ** (2.0 / 3.0)
        try:
            try:
                oracle_values = pplus_eigen_oracle(l, h, (lo, hi))
            except WindowEmpty:
                # every prediction can lie below the ground state (from
                # l = 4 at kmax = 3); e_0 lies 2-7% above its Langer form
                # ((3 pi/4)(l + 1) h)^{2/3} for l = 1 to 200
                top = 1.3 * (0.75 * math.pi * (l + 1) * h) ** (2.0 / 3.0)
                if top <= hi:
                    raise
                oracle_values = pplus_eigen_oracle(l, h, (lo, top))
        except (ConiresError, ValueError) as exc:
            oracle_error = f"{type(exc).__name__}: {exc}"
            code = 4

    rows = []
    for k, E_pred in preds:
        row = {"k": k, "E_pred": E_pred, "E_oracle": None, "delta": None}
        if oracle_values:
            nearest = min(oracle_values, key=lambda ev: abs(ev - E_pred))
            row["E_oracle"] = nearest
            row["delta"] = nearest - E_pred
        rows.append(row)
    meta = {"l": l, "h": h,
            "oracle_values": oracle_values,
            "oracle_error": oracle_error}
    doc = {
        "command": "pplus",
        "params": {"l": l, "h": h, "kmax": kmax, "oracle": args.oracle},
        "meta": meta,
        "rows": rows,
        "columns": [("k", int), ("E_pred", float), ("E_oracle", float),
                    ("delta", float)],
    }
    return doc, {}, code


_COMMANDS = {
    "turning-points": cmd_turning_points,
    "actions": cmd_actions,
    "resonances": cmd_resonances,
    "verify-ode": cmd_verify_ode,
    "pplus": cmd_pplus,
}


# ------------------------------------------------------------------ parsing

def _parse_pair(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected a,b, got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_triple(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected lo,hi,n, got {text!r}")
    return float(parts[0]), float(parts[1]), int(parts[2])


@functools.cache
def _build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, and a parser rebuilt on every call is a few hundred
    objects of reference cycles that only a full garbage collection
    frees."""
    parser = argparse.ArgumentParser(
        prog="conires",
        description="Semiclassical resonances of the two-level conical "
                    "intersection model: turning points, action integrals, "
                    "lattice and Bohr-Sommerfeld resonances, ODE cross-"
                    "checks, and the radial comparison operator.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv"), default="csv",
                       help="output format (default csv)")
        p.add_argument("--output", metavar="PATH",
                       help="write the table to PATH instead of stdout")

    p = sub.add_parser("turning-points",
                       help="cubic roots and turning points at (E, nu)")
    p.add_argument("--E", type=float, required=True)
    p.add_argument("--nu", type=float, required=True)
    common(p)

    p = sub.add_parser("actions",
                       help="action integrals S01 and S2inf at (E, nu)")
    p.add_argument("--E", type=complex, required=True,
                   help="energy, real or complex like 1.5-0.1j")
    p.add_argument("--nu", type=float, required=True)
    common(p)

    p = sub.add_parser("resonances",
                       help="lattice sweep with optional refinement")
    p.add_argument("--h", type=float, help="single semiclassical parameter")
    p.add_argument("--h-sweep", type=_parse_triple, metavar="LO,HI,N",
                   help="N log-spaced h values in [LO, HI]")
    p.add_argument("--band", type=_parse_pair, metavar="A,B",
                   help="window a < Re lambda < b")
    p.add_argument("--kmin", type=int, help="first branch index")
    p.add_argument("--kmax", type=int, help="last branch index")
    p.add_argument("--nutilde", type=float,
                   help="single nu-tilde family (seed mode)")
    p.add_argument("--nutilde-max", type=float,
                   help="largest half-integer family to sweep")
    p.add_argument("--nutilde-min", type=float,
                   help="smallest family to keep (default 0.5)")
    p.add_argument("--refine", choices=("lattice", "bs", "ode"),
                   default="lattice")
    p.add_argument("--seed-file", metavar="PATH",
                   help="JSON list of E seeds (numbers or {re, im})")
    p.add_argument("--figure-data", metavar="PATH",
                   help="write Re/Im lambda series data to PATH (CSV)")
    p.add_argument("--plot-script", metavar="PATH",
                   help="write a gnuplot companion script to PATH")
    common(p)

    p = sub.add_parser("verify-ode",
                       help="one resonance by lattice, BS, and ODE oracle")
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--nutilde", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    common(p)

    p = sub.add_parser("pplus",
                       help="radial comparison levels, closed form vs oracle")
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--oracle", action="store_true",
                   help="also run the eigensolve oracle and show deltas")
    common(p)

    return parser


def _check_nutilde(parser, h, nt, rule):
    """Usage error unless (h, nt) passes _check_h_nt under rule."""
    try:
        _check_h_nt(h, nt, rule)
    except ValueError as exc:
        parser.error(str(exc))


def _resonance_params(parser, args):
    """Check the resonances selector rules in turn, a usage error at the
    first one broken; return the document's params and the seeds (None
    unless --seed-file).  The band rule is Band's own, a ValueError;
    the options that select nothing in their mode come last."""
    if (args.h is None) == (args.h_sweep is None):
        parser.error("resonances needs exactly one of --h or --h-sweep")
    if args.h is not None:
        h_values = [args.h]
    else:
        lo, hi, n = args.h_sweep
        if not (0.0 < lo < hi and n >= 2):
            parser.error("--h-sweep needs 0 < lo < hi and n >= 2")
        ratio = (hi / lo) ** (1.0 / (n - 1))
        h_values = [lo * ratio ** i for i in range(n)]
    if not all(0.0 < h < math.inf for h in h_values):
        parser.error("h must be positive and finite")

    nt_min = 0.5 if args.nutilde_min is None else args.nutilde_min
    params = {"h_values": h_values, "nutilde_min": nt_min,
              "figure_data": args.figure_data,
              "plot_script": args.plot_script}
    if args.plot_script and not args.figure_data:
        parser.error("--plot-script requires --figure-data")

    if args.seed_file is not None:
        if args.band is not None or args.kmin is not None \
                or args.kmax is not None:
            parser.error("--seed-file excludes --band and --kmin/--kmax")
        if args.nutilde is None:
            parser.error("--seed-file requires --nutilde")
        if args.refine not in ("bs", "ode"):
            parser.error("--seed-file requires --refine bs or ode")
        if len(h_values) != 1:
            parser.error("--seed-file requires a single --h")
        # the ODE oracle's Frobenius start needs a half-integer
        _check_nutilde(parser, h_values[0], args.nutilde,
                       "half-integer" if args.refine == "ode" else "positive")
        try:
            with open(args.seed_file, encoding="utf-8") as fh:
                raw = json.load(fh)
            # numbers, booleans and null fail to iterate below
            if isinstance(raw, (str, dict)):
                raise TypeError("expected a JSON list of seeds")
            seeds = [complex(s["re"], s["im"]) if isinstance(s, dict)
                     else float(s) for s in raw]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            parser.error(f"cannot read seed file: {exc}")
        if not seeds:
            parser.error("seed file contains no seeds")
        if args.nutilde_max is not None or args.nutilde_min is not None:
            parser.error("--seed-file excludes --nutilde-max and "
                         "--nutilde-min")
        params["nutilde"] = args.nutilde
        return params, seeds

    if args.nutilde_max is None:
        parser.error("resonances needs --nutilde-max (or --seed-file)")
    if not args.nutilde_max >= 0.5:
        parser.error(f"--nutilde-max must be at least 1/2, got "
                     f"{args.nutilde_max}")
    if nt_min > args.nutilde_max:
        parser.error(f"--nutilde-min {nt_min} exceeds "
                     f"--nutilde-max {args.nutilde_max}")
    params["nutilde_max"] = args.nutilde_max

    if (args.band is None) == (args.kmin is None and args.kmax is None):
        parser.error("resonances needs exactly one of --band or "
                     "--kmin/--kmax")
    if args.band is None:
        if args.kmin is None or args.kmax is None or args.kmin > args.kmax:
            parser.error("--kmin and --kmax must both be given with "
                         "kmin <= kmax")
        params.update({"kmin": args.kmin, "kmax": args.kmax})
    else:
        Band(*args.band)  # its rule's ValueError comes before the next one
    if args.nutilde is not None:
        parser.error("--nutilde requires --seed-file; a sweep takes "
                     "--nutilde-max")
    return params, None


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "verify-ode":
            _check_nutilde(parser, args.h, args.nutilde, "half-integer")
        elif args.subcommand == "pplus" and args.kmax < 0:
            parser.error(f"--kmax must be at least 0, got {args.kmax}")
        elif args.subcommand == "resonances":
            args.params, args.seeds = _resonance_params(parser, args)
        doc, artifacts, code = _COMMANDS[args.subcommand](args)
    except ConiresError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = render_document(doc, args.format)
    if args.output:
        _write_text(args.output, text)
    else:
        sys.stdout.write(text)
    for path, content in artifacts.items():
        _write_text(path, content)
    return code


if __name__ == "__main__":
    sys.exit(main())
