"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at its toy size (`--size tiny`), untraced and traced,
and asserts that the result line has the contract's shape and carries
every metric BENCHMARK.json declares, with its declared unit.  It checks
the benchmark, not the program: the toy sizes may well count failures.
Takes about a minute.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   workload, "--seed", "1", "--seconds", "1", "--trace",
                   str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=180)
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-500:]}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{tag}: result keys {sorted(res)}")
            if not (isinstance(res["attempted"], int) and res["attempted"] >= 1
                    and isinstance(res["failed"], int)
                    and 0 <= res["failed"] <= res["attempted"]):
                problems.append(f"{tag}: counts {res['attempted']}, "
                                f"{res['failed']}")
            for metric in spec[section]:
                got = res["metrics"].get(metric["name"])
                if got is None:
                    problems.append(f"{tag}: {metric['name']} missing")
                elif got.get("unit") != metric["unit"] or not (
                        isinstance(got.get("value"), (int, float))
                        and math.isfinite(got["value"])):
                    problems.append(f"{tag}: {metric['name']} = {got}")
            print(f"{tag}: {len(res['metrics'])} metrics, "
                  f"{res['failed']}/{res['attempted']} failed")
    for p in problems:
        print("FAIL", p)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
