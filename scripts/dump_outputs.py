#!/usr/bin/env python3
"""Write the outputs of a fixed list of CLI commands to OUT as JSON, or
compare two such files.

Usage: python scripts/dump_outputs.py [--src DIR] OUT
       python scripts/dump_outputs.py --compare BASE HEAD

Each command runs in a fresh interpreter as `python -m pairons ...` on the
package source in DIR (default: the `src` of the checkout this script sits
in); OUT lists, per command, its argv, exit code, stdout and stderr.  Run
it once with --src pointing at each of two checkouts' `src` and compare
the files with `cmp` to check that a change leaves every output
byte-identical.  --compare pairs the records of two files by argv and
prints, as Markdown, the commands found in only one of them and the
commands whose records differ, each with its change of exit code, the
first line of stdout and of stderr that differs and, where both stdouts
are JSON with a "meta" object, the largest absolute difference of each
numeric meta field, and where both stdouts are tables with one header and
one row count (CSV, or JSON with "columns" and "rows"), the largest
absolute difference of each numeric column.

The list: `bcs pairons` for states 0..59 at gamma = +-0.5 (levels
0,0.5,1,1.5, N=20), `bcs spectrum` of the same models, `bcs ellipsoid`
at N=12 and at N=10 with --state 3 (both gammas); `bcs pairons` on three
levels at odd N=9 (both gammas), on five levels at N=8 and N=7, at N=20
on --slice 2, on the equal levels 0,0,1, which exits 3, at N=14 with
gamma = -0.1 and --state 675, a state whose pairons certify only on its
inverse-iteration vector, and at N=8 with gamma = 0, whose diagonal H
gives exact basis vectors; `lmg scan --j 10 --steps 200` and five more
scans: `--j 10 --line diagonal --from 4.5 --to 5 --steps 3 --state 4`,
which skips gx = 4.75 on a degenerate state, `--j 7 --steps 100 --state
3`, whose samples mix both seniorities, `--j 10 --line diagonal --from
-9.95 --to -0.05 --steps 50`, with Dicke states and structural zeros,
`--j 40 --steps 100 --format json`, whose u-polynomials keep exact zeros
at one end of many samples, and `--j 40 --steps 16 --state 40`, which
takes spin.parity_eigenstates' one-block solve on 16 points of 81 rows
and completes some of them on both blocks; `lmg collapse --j 10` and its
--line diagonal form, `lmg collapse --j 10 --line-sum 12`, `lmg collapse
--j 8`, `lmg collapse --j 6 --format json` and `lmg collapse --j 10
--steps 400`, whose roots come from the collapse detector's lockstep
regula falsi, `lmg collapse --j 4 --from 4 --to 6 --steps 5`, with a
sample where the anchor value is exactly zero beside the total collapse,
`lmg collapse --j 20`, which exits 3 on an unresolved anchor, `lmg
collapse --j 4 --eps -1`, a usage error, as the listed points are the
ground state's for eps > 0, `lmg collapse --j 7 --line-sum 12`, whose
odd total collapse closes its bracket on a point that falls on an end, `lmg
spectrum --j 40 --gx 2 --gy 8`, which covers spin.diagonalize; `lmg zeros` at `--j 10 --gx 2 --gy 8
--state 3`, at `--j 7 --gx 5 --gy 5 --state 4`, whose seniority zeros
join pairon poles, and at `--j 7 --gx 2 --gy 8 --state 3`, an odd state
with lone seniority poles; `lmg crossings --j 10`, read off the diagonal
H of lam = 0, `lmg pairons --j 40 --state 19`
at gx = 3.74102 and 6.164669 on gx + gy = 10, where an unscaled
companion solve misses the root residual check, and `lmg pairons --j 120
--gx 0.25 --gy 9.75 --state 60` and `lmg pairons --j 140 --gx 2 --gy 8
--state 100`, whose u-polynomials have roots so large that their powers
overflow, so the root residual check takes them on the reversed
polynomial, and `lmg pairons --j 330 --gx 2 --gy 8 --state 0`, a single
point of 661 rows, which reads ModelParams.parity_solutions, the record
of both of its parity blocks, as every single point does; and `lmg pairons --j 40 --format json` on
gx + gy = 10 at gx
= 0.5 state 0, gx = 3.5 state 40 and gx = 9.5 state 80, whose meta
carries the rebuilt state's fidelity and residual; and three commands
whose |H| overflows, which are refused: `lmg spectrum --j 2 --gx 1.6e308
--gy 1e307`, `lmg scan --j 2 --line-sum 1.7e308 --from 1e307 --to
1.6e308 --steps 3` and `bcs spectrum --levels 0,1 --gamma 1e308 --n 4`;
and two 200-step j = 10 scans, each one stack of
spin.parity_eigenstates' one-block solve: `--line diagonal --from -9.95
--to -0.05` (lam = 0), whose ground state is odd at 109 samples, and
`--state 5` on gx + gy = 10, where the predicted sectors are mixed and
70 samples fail their certificate and solve the other block too; and
six commands at the edges of the energy unit: `lmg pairons --j 10 --gx
2 --gy 8 --eps 1e200`, whose eigen-residual is taken at a power-of-two
scale of |H|, `bcs pairons --levels 0,5e99,1e100 --gamma 5e99 --n 6`,
the x1e100 copy of a model, whose inverse iteration rescales its vector
after each solve, `lmg spectrum --j 2 --gx=-1 --gy=-1 --eps=5e307`,
whose gaps between sectors overflow, `lmg crossings --j 3 --eps 0`,
a usage error, `bcs pairons --levels 0,5e-11,1e-10 --gamma 5e-11 --n 6
--format json`, the x1e-10 copy of a model, whose degeneracy rules take
their gaps relative to |H| and to the largest |level|, and `bcs spectrum
--levels 0,0,0 --gamma 0 --n 4`, whose H = 0 flags every state
degenerate.
"""
import argparse
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
LEVELS = ["--levels", "0,0.5,1,1.5"]
GAMMAS = ("0.5", "-0.5")

COMMANDS = (
    [["bcs", "pairons", *LEVELS, "--n", "20", "--gamma", g, "--state", str(s),
      "--format", "json"] for g in GAMMAS for s in range(60)]
    + [["bcs", "spectrum", *LEVELS, "--n", "20", "--gamma", g,
        "--format", "json"] for g in GAMMAS]
    + [["bcs", "ellipsoid", *LEVELS, *size, "--gamma", g, "--format", "json"]
       for size in (["--n", "12"], ["--n", "10", "--state", "3"])
       for g in GAMMAS]
    + [["bcs", "pairons", "--levels", levels, "--n", n, "--gamma", g,
        "--state", s, *extra, "--format", "json"]
       for levels, n, g, s, extra in (
           ("0,0.5,1", "9", "0.5", "2", []),
           ("0,0.5,1", "9", "-0.5", "0", []),
           ("0,0.3,0.7,1.2,2", "8", "-0.3", "1", []),
           ("0,0.3,0.7,1.2,2", "7", "0.4", "4", []),
           ("0,0.5,1,1.5", "20", "0.5", "5", ["--slice", "2"]),
           ("0,0,1", "6", "0.5", "0", []),
           ("0,0.5,1,1.5", "14", "-0.1", "675", []),
           ("0,0.5,1,1.5", "8", "0", "0", []))]
    + [["lmg", "scan", "--j", "10", "--from", "0.05", "--to", "9.95",
        "--steps", "200"],
       ["lmg", "scan", "--j", "10", "--line", "diagonal", "--from", "4.5",
        "--to", "5", "--steps", "3", "--state", "4"],
       ["lmg", "scan", "--j", "7", "--from", "0.05", "--to", "9.95",
        "--steps", "100", "--state", "3"],
       ["lmg", "scan", "--j", "10", "--line", "diagonal", "--from", "-9.95",
        "--to", "-0.05", "--steps", "50"],
       ["lmg", "scan", "--j", "40", "--from", "0.05", "--to", "9.95",
        "--steps", "100", "--format", "json"],
       ["lmg", "scan", "--j", "40", "--from", "0.05", "--to", "9.95",
        "--steps", "16", "--state", "40"],
       ["lmg", "collapse", "--j", "10"],
       ["lmg", "collapse", "--j", "10", "--line", "diagonal"],
       ["lmg", "collapse", "--j", "10", "--line-sum", "12"],
       ["lmg", "collapse", "--j", "8"],
       ["lmg", "collapse", "--j", "6", "--format", "json"],
       ["lmg", "collapse", "--j", "10", "--steps", "400"],
       ["lmg", "collapse", "--j", "4", "--from", "4", "--to", "6",
        "--steps", "5"],
       ["lmg", "collapse", "--j", "20"],
       ["lmg", "collapse", "--j", "4", "--eps", "-1"],
       ["lmg", "collapse", "--j", "7", "--line-sum", "12"],
       ["lmg", "spectrum", "--j", "40", "--gx", "2", "--gy", "8"],
       ["lmg", "zeros", "--j", "10", "--gx", "2", "--gy", "8", "--state", "3"],
       ["lmg", "zeros", "--j", "7", "--gx", "5", "--gy", "5", "--state", "4"],
       ["lmg", "zeros", "--j", "7", "--gx", "2", "--gy", "8", "--state", "3"],
       ["lmg", "crossings", "--j", "10"]]
    + [["lmg", "pairons", "--j", "40", "--gx", gx, "--gy", gy, "--state", "19"]
       for gx, gy in (("3.74102", "6.25898"), ("6.164669", "3.835331"))]
    + [["lmg", "pairons", "--j", j, "--gx", gx, "--gy", gy, "--state", s]
       for j, gx, gy, s in (("120", "0.25", "9.75", "60"),
                            ("140", "2", "8", "100"),
                            ("330", "2", "8", "0"))]
    + [["lmg", "pairons", "--j", "40", "--gx", gx, "--gy", gy, "--state", s,
        "--format", "json"]
       for gx, gy, s in (("0.5", "9.5", "0"), ("3.5", "6.5", "40"),
                         ("9.5", "0.5", "80"))]
    + [["lmg", "spectrum", "--j", "2", "--gx", "1.6e308", "--gy", "1e307"],
       ["lmg", "scan", "--j", "2", "--line-sum", "1.7e308", "--from", "1e307",
        "--to", "1.6e308", "--steps", "3"],
       ["bcs", "spectrum", "--levels", "0,1", "--gamma", "1e308", "--n", "4"]]
    + [["lmg", "scan", "--j", "10", "--line", "diagonal", "--from", "-9.95",
        "--to", "-0.05", "--steps", "200"],
       ["lmg", "scan", "--j", "10", "--from", "0.05", "--to", "9.95",
        "--steps", "200", "--state", "5"]]
    + [["lmg", "pairons", "--j", "10", "--gx", "2", "--gy", "8", "--eps",
        "1e200"],
       ["bcs", "pairons", "--levels", "0,5e99,1e100", "--gamma", "5e99",
        "--n", "6"],
       ["lmg", "spectrum", "--j", "2", "--gx=-1", "--gy=-1", "--eps=5e307"],
       ["lmg", "crossings", "--j", "3", "--eps", "0"],
       ["bcs", "pairons", "--levels", "0,5e-11,1e-10", "--gamma", "5e-11",
        "--n", "6", "--format", "json"],
       ["bcs", "spectrum", "--levels", "0,0,0", "--gamma", "0", "--n", "4"]])


def run(argv: list[str], src: Path = SRC) -> dict:
    """One command in a fresh interpreter on the package in src: argv, exit
    code, stdout, stderr."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "pairons", *argv], env=env,
                          capture_output=True, text=True, timeout=600)
    return {"argv": argv, "exit": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr}


END = "(end of output)"


def first_difference(base: str, head: str) -> tuple[int, int, str, str]:
    """Line number, column (both from 1) and the two lines where two texts
    first differ; a text that ends first reads END there."""
    a, b = base.split("\n"), head.split("\n")
    number = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y),
                  min(len(a), len(b)))
    x = a[number] if number < len(a) else END
    y = b[number] if number < len(b) else END
    column = next((k for k, (p, q) in enumerate(zip(x, y)) if p != q),
                  min(len(x), len(y)))
    return number + 1, column + 1, x, y


def excerpt(line: str, column: int) -> str:
    """Up to 120 characters of a line around a column."""
    start = max(0, column - 41)
    text = line[start:start + 120]
    return (("..." if start else "") + text
            + ("..." if start + 120 < len(line) else ""))


def _numbers(value) -> list | None:
    """A number, or a list of numbers, as a list; else None."""
    items = value if isinstance(value, list) else [value]
    if all(isinstance(x, (int, float)) and not isinstance(x, bool)
           for x in items):
        return items
    return None


def meta_differences(base: str, head: str) -> list[tuple[str, float]]:
    """Per numeric field of the "meta" objects of two JSON stdouts (a
    number, or a list of numbers of one length in both), the largest
    absolute difference; empty unless both stdouts have a meta."""
    try:
        a, b = (json.loads(text)["meta"] for text in (base, head))
    except (ValueError, KeyError, TypeError):
        return []
    out = []
    for key, value in a.items():
        x, y = _numbers(value), _numbers(b.get(key))
        if x is not None and y is not None and len(x) == len(y):
            out.append((key, max((abs(p - q) for p, q in zip(x, y)),
                                 default=0)))
    return out


def _table(text: str) -> tuple[list, list] | None:
    """The header and rows of a stdout that is a table: JSON with
    "columns" and "rows", or CSV whose rows are as wide as its header;
    else None."""
    try:
        data = json.loads(text)
    except ValueError:
        header, *rows = list(csv.reader(io.StringIO(text))) or [[]]
    else:
        if not isinstance(data, dict) or "columns" not in data:
            return None
        header, rows = data["columns"], data.get("rows", [])
    if not header or any(len(row) != len(header) for row in rows):
        return None
    return header, rows


def _column(rows: list, k: int) -> list[float] | None:
    """Column k of a table's rows as floats; None if a cell is no number."""
    try:
        return [float(row[k]) for row in rows]
    except (TypeError, ValueError):
        return None


def column_differences(base: str, head: str) -> list[tuple[str, float]]:
    """Per numeric column of two stdouts that are tables (_table) with one
    header and one row count, the largest absolute difference; empty
    unless both are such tables."""
    a, b = _table(base), _table(head)
    if a is None or b is None or a[0] != b[0] or len(a[1]) != len(b[1]):
        return []
    out = []
    for k, name in enumerate(a[0]):
        x, y = _column(a[1], k), _column(b[1], k)
        if x is not None and y is not None:
            out.append((name, max((0.0 if p == q else abs(p - q)
                                   for p, q in zip(x, y)), default=0)))
    return out


def compare(base: list[dict], head: list[dict]) -> str:
    """The Markdown report of the records that differ between two dumps.

    Records are paired by argv; the count in the header is of the
    commands in both dumps, and a command in only one of them is listed
    as base-only or head-only."""
    by_argv = {tuple(b["argv"]): b for b in base}
    paired = [(by_argv[tuple(h["argv"])], h) for h in head
              if tuple(h["argv"]) in by_argv]
    differ = [(b, h) for b, h in paired if b != h]
    in_head = {tuple(h["argv"]) for h in head}
    only = [("base", [b for b in base if tuple(b["argv"]) not in in_head]),
            ("head", [h for h in head if tuple(h["argv"]) not in by_argv])]
    lines = ["## Byte identity against the base commit", "",
             f"{len(differ)} of {len(paired)} commands differ.", ""]
    for b, h in differ:
        lines.append("- `" + " ".join(h["argv"]) + "`")
        if b["exit"] != h["exit"]:
            lines.append(f"  - exit code {b['exit']} -> {h['exit']}")
        for stream in ("stdout", "stderr"):
            if b[stream] != h[stream]:
                line, column, x, y = first_difference(b[stream], h[stream])
                lines += [f"  - {stream}, first difference at line {line}, "
                          f"column {column}:",
                          "    ```",
                          "    base: " + excerpt(x, column),
                          "    head: " + excerpt(y, column),
                          "    ```"]
        for part, fields in (
                ("meta", meta_differences(b["stdout"], h["stdout"])),
                ("columns", column_differences(b["stdout"], h["stdout"]))):
            if b["stdout"] != h["stdout"] and fields:
                lines.append(f"  - {part}, largest absolute difference: "
                             + ", ".join(f"{key} {delta:.3g}"
                                         for key, delta in fields))
    for side, records in only:
        if records:
            lines += ["", f"{len(records)} only in the {side}:", ""]
            lines += ["- `" + " ".join(r["argv"]) + "`" for r in records]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Write the outputs of a fixed list of CLI commands to "
                    "OUT as JSON, or compare two such files.")
    ap.add_argument("--src", type=Path, default=SRC,
                    help="package source directory (default: %(default)s)")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"),
                    help="print the commands whose outputs differ between "
                         "two files written by this script")
    ap.add_argument("out", metavar="OUT", nargs="?")
    args = ap.parse_args(argv)
    if args.compare:
        if args.out is not None:
            ap.error("--compare takes no OUT")
        base, head = (json.loads(Path(path).read_text())
                      for path in args.compare)
        sys.stdout.write(compare(base, head))
        return 0
    if args.out is None:
        ap.error("OUT is required")
    if not (args.src / "pairons" / "__init__.py").is_file():
        ap.error(f"no pairons package in {args.src}")
    records = [run(command, args.src.resolve()) for command in COMMANDS]
    with open(args.out, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    print(f"{len(records)} commands, "
          f"{sum(r['exit'] != 0 for r in records)} with a non-zero exit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
