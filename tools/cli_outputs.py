"""Run a fixed set of command lines through `cli.main` in one process and
write what each prints: its stdout, its stderr and its exit code.

    PYTHONPATH=src python tools/cli_outputs.py OUT

Two checkouts whose commands print the same bytes write files that `cmp`
finds equal, so the file is the byte-identity check of a change that must
not alter the output. An exception that escapes `cli.main` is not caught:
the run ends with its traceback and a nonzero exit. The REPEATED command
lines close the set, each run twice in a row, the second time on the
model's cached tables; the run exits 1 when any two runs print different
bytes.
"""

from __future__ import annotations

import contextlib
import io
import shlex
import sys

from wtsemigroup import cli

# (spec, t): the built-ins, the expression symbols, and two non-dyadic
# steps, at which the model's lattice points k t/256 are not dyadic and a
# shift by the float n t can round off them
SYMBOLS = (
    ("const:1", "1"),
    ("affine", "1"),
    ("reciprocal", "2"),
    ("cap", "0.25"),
    ("exp:a=2", "0.5"),
    ("exp2x", "1"),
    ("expr:x+1", "1"),
    ("expr:x^2+1", "1"),
    ("affine", "0.1"),
    ("reciprocal", "0.3"),
)
COMMANDS = (
    ("verify",),
    ("classify", "--nmax", "16"),
    ("classify", "--nmax", "64"),
    ("spectrum",),
    ("kernel", "--z-grid", "unit:8", "--lambda=0.3,0.2", "--x", "0.05"),
)
# refused inputs: e^(2x) overflows before the tail bound holds, phi turns
# negative past x = 3, inf phi(x + t) / phi(x) is not above the left
# invertibility floor, and phi(x + k t) / phi(x) overflows into NaN rows;
# then symbols whose samples fall below the positivity floor, most of them
# and all of them, so the refinement of validate_positivity runs; then steps
# refused before any work: t/2 or t/256 underflows to 0, 8 t overflows, and
# the default window 64 t overflows for every command; then a subnormal step
# whose test data overflow inner, so verify's residuals read NaN; the mesh
# t/100 at t = 0.3, on which verify's S_t f sits an ulp off the lattice;
# eight z points that share one kernel column: their sums ask for 512
# rows and stop after 332, and the column stops before the rows past
# x = 355, where e^(2x) overflows; last, verify at verify.MAX_CELLS, whose
# model passes build the largest tables of any command line here, rows of
# 65,536 cells, of which a table stores the 2 that fit in 2 MiB; then the
# spectral fits: phi(x + n t)/phi(x) overflows from n = 36 on, so the norms
# leave the floats; phi = 0 at x = 70, past validate_positivity's window
# [0, 64], which a later grid row of the sampling refuses; and a constant
# phi, on which every sample of every row ties; last, the reproducing row
# on a non-dyadic lattice of 2^x, whose preimage series, summed whole, runs
# to 30 terms, past f's 8 blocks
EDGES = (
    ("kernel", "--phi", "exp2x", "--t", "1", "--z", "2.5552", "--lambda", "2.718281828"),
    ("spectrum", "--phi", "expr:3-x"),
    ("spectrum", "--phi", "expr:exp(0-16*x)", "--t", "1", "--xmax", "2"),
    ("classify", "--phi", "expr:exp(20*x-690)", "--t", "1", "--nmax", "64", "--xmax", "2"),
    ("classify", "--phi", "expr:exp(-x)"),
    ("classify", "--phi", "expr:1e-7+0*x"),
    ("verify", "--phi", "affine", "--t", "5e-324"),
    ("verify", "--phi", "exp:a=2", "--t", "5e-324", "--h", "1e300"),
    ("verify", "--phi", "affine", "--t", "1e-322"),
    ("verify", "--phi", "const:1", "--t", "1e308"),
    ("verify", "--phi", "const:1", "--t", "1e308", "--xmax", "1"),
    ("spectrum", "--phi", "const:1", "--t", "1e308"),
    ("spectrum", "--phi", "affine", "--t", "1e308"),
    ("classify", "--phi", "const:1", "--t", "1e308"),
    ("kernel", "--phi", "const:1", "--t", "1e308", "--z", "0.1", "--lambda", "0.1"),
    ("verify", "--phi", "affine", "--t", "1e-321"),
    ("verify", "--phi", "affine", "--t", "0.3", "--h", "0.003"),
    ("kernel", "--phi", "exp2x", "--t", "1", "--z-grid", "unit:8", "--lambda", "6.84", "--x", "0.1"),
    ("verify", "--phi", "affine", "--t", "1", "--h", "1.52587890625e-05"),
    ("spectrum", "--phi", "expr:exp(20*x-690)", "--t", "1", "--xmax", "2", "--nmax", "40"),
    ("spectrum", "--phi", "expr:70-x", "--t", "1"),
    ("spectrum", "--phi", "const:1", "--t", "1", "--nmax", "128"),
    ("verify", "--phi", "exp:a=2", "--t", "0.3"),
)
# each run twice in a row, the second run on the tables the first left
# cached: every weight table; the kernel column that stops before x = 355;
# and at verify.MAX_CELLS, tables that store only the rows the byte limit fits
REPEATED = (
    ("verify", "--phi", "reciprocal", "--t", "0.3"),
    ("kernel", "--phi", "exp2x", "--t", "1", "--z-grid", "unit:8", "--lambda", "6.84", "--x", "0.1"),
    ("verify", "--phi", "affine", "--t", "1", "--h", "1.52587890625e-05"),
)


def argvs() -> list[tuple[str, ...]]:
    runs = [(cmd[0], "--phi", spec, "--t", t, *cmd[1:]) for spec, t in SYMBOLS for cmd in COMMANDS]
    return runs + list(EDGES) + [argv for argv in REPEATED for _ in range(2)]


def run(argv: tuple[str, ...]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return f"$ wtsemigroup {shlex.join(argv)}\nexit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def main(args: list[str]) -> int:
    if len(args) != 1:
        print("usage: python tools/cli_outputs.py OUT", file=sys.stderr)
        return 2
    outputs = []
    with open(args[0], "w", encoding="utf-8", newline="\n") as fh:
        for argv in argvs():
            outputs.append(run(argv))
            fh.write(outputs[-1])
    code = 0
    pairs = outputs[-2 * len(REPEATED) :]
    for argv, first, second in zip(REPEATED, pairs[::2], pairs[1::2]):
        if first != second:
            print(f"a second run of {shlex.join(argv)} printed other bytes", file=sys.stderr)
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
