"""
Emitting the resonance-fan data file
====================================

The headline picture of the resonance set is a fan in the lambda
plane: one ladder per nu-tilde family, widths |Im lambda| shrinking as
the family index grows.  The command-line layer emits that picture as
a plot-ready CSV plus an optional gnuplot companion script, with
byte-identical output for identical invocations.  This demo drives the
CLI in-process, writes fan.csv, fan.gp and table.csv into the working
directory, and then verifies the fan ordering directly from the
emitted file.
"""

import csv
from pathlib import Path

from conires.cli import main

fig = Path("fan.csv")
script = Path("fan.gp")

# k from 11 to 60, five families, h sweeping three decades: the same
# grid as the reference picture, in formula-only (lattice) mode.
code = main([
    "resonances",
    "--h-sweep", "0.001,1.0,13",
    "--kmin", "11", "--kmax", "60",
    "--nutilde-min", "1.5", "--nutilde-max", "5.5",
    "--refine", "lattice",
    "--figure-data", str(fig),
    "--plot-script", str(script),
    "--output", "table.csv",
])
print(f"CLI exit code: {code}")
print(f"figure data:   {fig}")
print(f"plot script:   {script}")

# --- check the fan ordering from the file ------------------------------
cells = {}
with open(fig, newline="") as fh:
    for row in csv.DictReader(fh):
        key = (int(row["k"]), float(row["h"]))
        cells.setdefault(key, []).append(
            (float(row["nu_tilde"]), abs(float(row["lambda_im"]))))
violations = 0
for pts in cells.values():
    pts.sort()
    ims = [im for _, im in pts]
    violations += sum(nxt >= prv for prv, nxt in zip(ims, ims[1:]))
print(f"\n{len(cells)} (k, h) cells; fan-ordering violations: {violations}")

# a sample column of the fan at fixed (k, h)
k0, h0 = 30, sorted({hh for _, hh in cells})[6]
print(f"\nsample at k = {k0}, h = {h0:.4f}:")
print("  nu_tilde   |Im lambda|")
for nt, im in sorted(cells[(k0, h0)]):
    print(f"  {nt:5.1f}      {im:.6f}")
print("\nrender with: gnuplot " + str(script))
