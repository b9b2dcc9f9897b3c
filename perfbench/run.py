"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout.  For one workload it prints a detail line
(inputs, environment, failure reasons, tail percentile, trace table) and,
as the last line, the result object {correct, attempted, failed, metrics}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics.  `--workload all` runs every
workload untraced and ends with a table of the end-to-end metrics.

The package is used from the checkout's `src` directory.  Set-up time is
measured in fresh interpreters started here; the workload then runs in a
process of its own (perfbench/workload.py), so its peak memory is its
own.  Both run BLAS with one thread.  All end-to-end times are scaled to
the host's speed (see measure_setup and speed.py); the detail line has
them unscaled too.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scan_j10", "collapse_j10", "spectrum_j40", "bcs_n20")
SETUP_SPAWNS = 9
SETUP_CODE = "import sys, pairons, pairons.cli"
BARE_CODE = "import sys"
# a bare interpreter start on the machine named in speed.py, uncontended
BARE_START_S = 0.04
RUN_TIMEOUT_S = 175.0
READY = "ready"


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    # one BLAS thread: a second one busy-waits and slows every call many
    # times over as soon as anything else wants a core
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PAIRONS_THREADS", None)
    return env


def _ready_time(code: str, env: dict, deadline: float) -> float:
    """Seconds from starting a fresh interpreter that runs `code` until it
    reports ready."""
    code += f"; sys.stdout.write({READY!r} + '\\n'); sys.stdout.flush()"
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("set-up interpreter timed out") from None
    if line.strip() != READY or proc.returncode != 0:
        raise BenchError(f"set-up interpreter failed: {err.strip()[-500:]}")
    return elapsed


def measure_setup(env: dict, deadline: float
                  ) -> tuple[float, list[float], list[float]]:
    """Time for a fresh interpreter to import `pairons` and `pairons.cli`,
    until the first call could be made.

    Each of SETUP_SPAWNS starts follows a bare interpreter start, and the
    median ratio of the two times BARE_START_S is reported.  A slow phase
    of the host slows both alike: between groups of starts the raw time
    moved by up to 50% and the ratio by 7%.  One uncounted start first
    writes the byte-code caches.  Returns the scaled time and the raw
    times of both kinds of start."""
    _ready_time(SETUP_CODE, env, deadline)
    bare, full = [], []
    for _ in range(SETUP_SPAWNS):
        bare.append(_ready_time(BARE_CODE, env, deadline))
        full.append(_ready_time(SETUP_CODE, env, deadline))
    ratio = statistics.median(f / b for f, b in zip(full, bare))
    return ratio * BARE_START_S, full, bare


def run_workload(name: str, seed: int, seconds: int, trace: int,
                 size: str, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--size", size]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"workload {name} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"workload {name} exited {proc.returncode}: "
                         f"{err.strip()[-2000:]}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"workload {name} printed no result")
    return json.loads(lines[-1])


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def bench(name: str, seed: int, seconds: int, trace: int, size: str
          ) -> tuple[dict, dict]:
    """Run one workload; return (result, detail)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    env = _child_env()
    setup = None
    if not trace:
        setup, full, bare = measure_setup(env, deadline)
    res = run_workload(name, seed, seconds, trace, size, env, deadline)
    detail = res.pop("detail")
    if setup is not None:
        res["metrics"]["setup_s"] = {"value": setup, "unit": "s"}
        detail["setup_starts_s"] = {"pairons": full, "bare": bare}
    want = declared_metrics(trace)
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        raise BenchError(f"metrics {sorted(got.items())} do not match "
                         f"BENCHMARK.json {sorted(want.items())}")
    return res, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs every workload at a toy size (smoke test)")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "pairons" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'pairons'}",
              file=sys.stderr)
        return 1
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    rows = []
    try:
        for name in names:
            res, detail = bench(name, args.seed, args.seconds, args.trace,
                                args.size)
            print(json.dumps({"detail": detail}))
            print(json.dumps(res), flush=True)
            rows.append((name, res, detail))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print_table(rows)
    return 0


def print_table(rows) -> None:
    metric_names = sorted({k for _, res, _ in rows for k in res["metrics"]})
    print()
    print("workload".ljust(14) + "".join(m.rjust(16) for m in metric_names)
          + "  failed/attempted  failed_frac  correct")
    for name, res, detail in rows:
        cells = "".join(
            f"{res['metrics'][m]['value']:.4g} {res['metrics'][m]['unit']}"
            .rjust(16) for m in metric_names)
        print(name.ljust(14) + cells
              + f"  {res['failed']:>7}/{res['attempted']:<8}"
              + f"  {detail['failed_frac']:>11.4f}  {res['correct']}")


if __name__ == "__main__":
    sys.exit(main())
