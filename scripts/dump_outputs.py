#!/usr/bin/env python3
"""Write the outputs of a fixed list of CLI commands to OUT as JSON.

Usage: python scripts/dump_outputs.py [--src DIR] OUT

Each command runs in a fresh interpreter as `python -m pairons ...` on the
package source in DIR (default: the `src` of the checkout this script sits
in); OUT lists, per command, its argv, exit code, stdout and stderr.  Run
it once with --src pointing at each of two checkouts' `src` and compare
the files with `cmp` to check that a change leaves every output
byte-identical.

The list: `bcs pairons` for states 0..59 at gamma = +-0.5 (levels
0,0.5,1,1.5, N=20), `bcs spectrum` of the same models, `bcs ellipsoid`
at N=12 and at N=10 with --state 3 (both gammas); `lmg scan --j 10
--steps 200` and four more scans: `--j 10 --line diagonal --from 4.5
--to 5 --steps 3 --state 4`, which skips gx = 4.75 on a degenerate
state, `--j 7 --steps 100 --state 3`, whose samples mix both
seniorities, `--j 10 --line diagonal --from -9.95 --to -0.05 --steps
50`, with Dicke states and structural zeros, and `--j 40 --steps 100
--format json`, with stripped u-polynomials of many lengths; `lmg
collapse --j 10` and its --line diagonal form, `lmg collapse --j 10
--line-sum 12`, `lmg collapse --j 8`, `lmg collapse --j 6 --format
json` and `lmg collapse --j 10 --steps 400`, whose root refinements
cover the collapse detector's own Brent solver, `lmg collapse --j 4
--from 4 --to 6 --steps 5`, with a sample where the anchor value is
exactly zero beside the total collapse, `lmg collapse --j 20`, which
exits 3 on an unresolved anchor, `lmg spectrum --j 40 --gx 2 --gy 8`,
`lmg zeros --j 10 --gx 2 --gy 8 --state 3`, `lmg crossings --j 10`,
whose full diagonalizations cover spin.diagonalize, and `lmg pairons
--j 40 --state 19` at gx = 3.74102 and 6.164669 on gx + gy = 10, where
an unscaled companion solve misses the root residual check.
"""
import argparse
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
       ["lmg", "collapse", "--j", "10"],
       ["lmg", "collapse", "--j", "10", "--line", "diagonal"],
       ["lmg", "collapse", "--j", "10", "--line-sum", "12"],
       ["lmg", "collapse", "--j", "8"],
       ["lmg", "collapse", "--j", "6", "--format", "json"],
       ["lmg", "collapse", "--j", "10", "--steps", "400"],
       ["lmg", "collapse", "--j", "4", "--from", "4", "--to", "6",
        "--steps", "5"],
       ["lmg", "collapse", "--j", "20"],
       ["lmg", "spectrum", "--j", "40", "--gx", "2", "--gy", "8"],
       ["lmg", "zeros", "--j", "10", "--gx", "2", "--gy", "8", "--state", "3"],
       ["lmg", "crossings", "--j", "10"]]
    + [["lmg", "pairons", "--j", "40", "--gx", gx, "--gy", gy, "--state", "19"]
       for gx, gy in (("3.74102", "6.25898"), ("6.164669", "3.835331"))])


def run(argv: list[str], src: Path = SRC) -> dict:
    """One command in a fresh interpreter on the package in src: argv, exit
    code, stdout, stderr."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "pairons", *argv], env=env,
                          capture_output=True, text=True, timeout=600)
    return {"argv": argv, "exit": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Write the outputs of a fixed list of CLI commands to "
                    "OUT as JSON.")
    ap.add_argument("--src", type=Path, default=SRC,
                    help="package source directory (default: %(default)s)")
    ap.add_argument("out", metavar="OUT")
    args = ap.parse_args(argv)
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
