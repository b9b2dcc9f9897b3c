"""One benchmark workload, run in a process of its own.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S
                                  --trace 0|1 [--size full|tiny]

Needs `pairons` importable (run.py puts the checkout's `src` on
PYTHONPATH).  Prints one JSON object as the last line of standard output:
correct, attempted, failed, the metrics of the run and a `detail` object.

A pass is one full run of the workload's commands.  Passes repeat for
`--seconds` (at least one).  Every pass must produce the same output; the
first pass's output is checked against the oracle and gives the attempted
and failed counts, so those are per pass.  Without `--trace` the times are
scaled to the host's speed (speed.py).  With `--trace 1` passes alternate
untraced and traced, and only per-layer metrics are reported, unscaled.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracle  # noqa: E402
import speed  # noqa: E402
from tracer import (FIDELITY_LOSS_BOUND, REFUSAL_TYPES,  # noqa: E402
                    RESIDUAL_BOUND, Tracer)

SUM_RULE_RTOL = 1e-8
# relative energy agreement with the oracle's eigenvalue of the same rank
ENERGY_RTOL = 1e-9
# a reported fidelity loss and the oracle's for the same pairons agree to
# rounding (about 1e-15); a wrong eigenvector or pairon set moves them apart
LOSS_AGREEMENT = 1e-9
# percentiles tried for the tail, highest first
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0)
MIN_BEYOND_TAIL = 10

LINE_SUM = 10.0


def _quiet(main, argv: list[str]) -> tuple[int, str, str]:
    """Run a CLI entry point in-process, capturing stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _chordal_e(a: complex, b: complex) -> float:
    """Chordal distance of two pairons on the compactified energy plane."""
    return 2.0 * abs(a - b) / math.sqrt((1.0 + abs(a) ** 2)
                                        * (1.0 + abs(b) ** 2))


def _sphere_vector(theta: float, phi: float) -> np.ndarray:
    return np.array([math.sin(theta) * math.cos(phi),
                     math.sin(theta) * math.sin(phi), math.cos(theta)])


def _key(wl, output):
    """The part of a pass's output that must repeat exactly."""
    return wl.fingerprint(output) if hasattr(wl, "fingerprint") else output


class Check:
    """Failure accounting for one pass: operations attempted and failed,
    failures by reason, and whether the output as a whole is sound."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}
        self.broken: list[str] = []

    def op(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.broken.append(what)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class ScanJ10:
    """`lmg scan --j 10 --from A --to B --steps 200` in-process to CSV.

    Seed 0 scans 0.05..9.95; other seeds move each endpoint inward by up
    to 0.045, so both ends stay outside the k = 0 collapses (gx = 0.101
    and 9.899), where all pairons are real and criterion 8 expects a real
    regime.  An operation is one sample.  A sample fails when it is
    skipped, when its pairons do not rebuild the oracle's eigenvector, or
    when criterion 8's branch-continuity or conjugate-pairing checks break
    at it.  An energy that is not the oracle's ground-state energy breaks
    the output as a whole.
    """

    items_per_pass = 1  # the whole command is one call

    def __init__(self, seed: int, tiny: bool):
        rng = np.random.default_rng(seed)
        self.j = 10
        self.steps = 20 if tiny else 200
        if seed == 0:
            self.start, self.stop = 0.05, 9.95
        else:
            self.start = float(_fmt(0.05 + 0.045 * rng.random()))
            self.stop = float(_fmt(9.95 - 0.045 * rng.random()))
        self.argv = ["scan", "--j", str(self.j), "--from", _fmt(self.start),
                     "--to", _fmt(self.stop), "--steps", str(self.steps),
                     "--threads", "1", "--format", "csv"]

    def inputs(self) -> dict:
        return {"command": "lmg " + " ".join(self.argv)}

    def warm_up(self, pairons) -> None:
        _quiet(pairons.cli.lmg_main, ["scan", "--j", "3", "--from", "1",
                                      "--to", "2", "--steps", "3"])

    def run_pass(self, pairons) -> tuple[list[tuple[float, float]], object,
                                         int]:
        t0 = time.perf_counter()
        rc, out, err = _quiet(pairons.cli.lmg_main, self.argv)
        return [(t0, time.perf_counter())], (rc, out, err), len(out)

    def check(self, output) -> Check:
        rc, out, err = output
        chk = Check()
        chk.require(rc == 0, f"exit code {rc}")
        rows = list(csv.reader(io.StringIO(out)))
        header = ["gx", "gy", "t", "state_index", "energy", "alpha", "re_e",
                  "im_e", "theta", "phi", "multiplicity", "branch_id",
                  "flags"]
        chk.require(bool(rows) and rows[0] == header, "CSV header")
        samples: dict[float, list[list[str]]] = {}
        for r in rows[1:]:
            samples.setdefault(float(r[0]), []).append(r)
        grid = np.linspace(self.start, self.stop, self.steps)
        chk.require(len(samples) + err.count("skipped gx=") == self.steps,
                    "samples emitted plus skipped != steps")

        bad = self._continuity_failures(samples, chk)
        for gx in grid.tolist():
            rs = samples.get(gx)  # %.17g round-trips the sample exactly
            if rs is None:
                chk.op("skipped")
                continue
            nu = int("seniority" in rs[0][12].split(";"))
            chk.require(len(rs) == self.j - nu, f"row count at gx={gx}")
            energies = [complex(float(r[6]), float(r[7])) for r in rs]
            t = float(rs[0][2])
            states = oracle.lmg_eigenstates(self.j, gx, float(rs[0][1]))
            vec = oracle.pairon_state(self.j, nu, energies, t)
            scale = max(abs(states[0][0]), abs(states[-1][0]), 1.0)
            energy = float(rs[0][4])
            chk.require(abs(states[0][0] - energy) <= ENERGY_RTOL * scale,
                        f"energy at gx={gx} is not the oracle's")
            if oracle.fidelity_loss(states[0][1], vec) > FIDELITY_LOSS_BOUND:
                chk.op("pairons do not rebuild the oracle state")
            else:
                chk.op(bad.get(gx))
        chk.require(sum(len(v) for v in samples.values()) == len(rows) - 1,
                    "rows")
        return chk

    def _continuity_failures(self, samples, chk: Check) -> dict[float, str]:
        """Criterion 8: per-sample continuity and conjugate pairing."""
        collapses = [gx for _, branch, gx in
                     oracle.collapse_targets(self.j, LINE_SUM)
                     if branch != "diagonal"]

        def near_collapse(gx: float) -> bool:
            return any(abs(gx - c) < 0.05 for c in collapses)

        bad: dict[float, str] = {}
        branches: dict[int, list] = {}
        regime = []
        for gx in sorted(samples):
            es = []
            for r in samples[gx]:
                e = complex(float(r[6]), float(r[7]))
                es.append(e)
                branches.setdefault(int(r[11]), []).append(
                    (gx, _sphere_vector(float(r[8]), float(r[9])), e))
            complex_ones = [e for e in es if abs(e.imag) > 1e-8]
            for e in complex_ones:
                if min(abs(e.conjugate() - f) for f in es) > \
                        1e-6 * max(1.0, abs(e)):
                    bad[gx] = "unpaired conjugate pairon"
            regime.append(bool(complex_ones))
        for trail in branches.values():
            trail.sort(key=lambda it: it[0])
            for (ga, pa, ea), (gb, pb, eb) in zip(trail, trail[1:]):
                if near_collapse(ga) or near_collapse(gb):
                    continue
                if _chordal_e(ea, eb) >= 0.1:
                    bad[gb] = "pairon jump"
                flipped = pb * np.array([-1.0, -1.0, 1.0])  # zeta -> -zeta
                d_site = min(np.linalg.norm(pa - pb),
                             np.linalg.norm(pa - flipped))
                if d_site >= 0.1:
                    ta = math.sqrt(ga / (LINE_SUM - ga))
                    tb = math.sqrt(gb / (LINE_SUM - gb))
                    if min(_chordal_e(ea, -ta), _chordal_e(eb, -tb)) > 0.3:
                        bad[gb] = "zero-site jump"
        switches = sum(1 for a, b in zip(regime, regime[1:]) if a != b)
        chk.require(any(regime) and not all(regime) and switches <= 24,
                    "real/complex regime structure of criterion 8")
        return bad


class SpectrumJ40:
    """All 81 eigenstates at j = 40 on six points of gx + gy = 10.

    One `extract_pairons` call per (point, state).  Seed 0 uses gx in
    {0.5, 2, 3.5, 6.5, 8, 9.5}; other seeds move each point by up to
    +-0.4.  A call fails when it is refused (raises) or returns
    unverified (fidelity loss or eigen-residual above 1e-8).  Every
    returned call, unverified or not, must report the oracle's eigenvalue
    of that rank and the fidelity loss that its pairons, rebuilt by the
    oracle, have against the oracle's eigenvector; otherwise the output as
    a whole is broken.
    """

    def __init__(self, seed: int, tiny: bool):
        rng = np.random.default_rng(seed)
        self.j = 8 if tiny else 40
        base = (2.0, 8.0) if tiny else (0.5, 2.0, 3.5, 6.5, 8.0, 9.5)
        if seed == 0:
            self.points = list(base)
        else:
            self.points = [float(_fmt(g + rng.uniform(-0.4, 0.4)))
                           for g in base]
        self.items_per_pass = len(self.points) * (2 * self.j + 1)

    def inputs(self) -> dict:
        return {"j": self.j, "gx": self.points, "line_sum": LINE_SUM}

    def warm_up(self, pairons) -> None:
        pairons.extract_pairons(pairons.ModelParams.from_gammas(3, 2.0, 8.0))

    def run_pass(self, pairons) -> tuple[list[tuple[float, float]], object,
                                         int]:
        spans, results = [], []
        clock = time.perf_counter
        for gx in self.points:
            params = pairons.ModelParams.from_gammas(self.j, gx,
                                                     LINE_SUM - gx)
            for s in range(2 * self.j + 1):
                t0 = clock()
                try:
                    res = pairons.extract_pairons(params, state_index=s)
                except (pairons.PaironsError, ValueError) as exc:
                    res = exc
                spans.append((t0, clock()))
                results.append(res)
        return spans, results, 0

    @staticmethod
    def fingerprint(results) -> list:
        """What must repeat between passes (a refusal is a fresh exception
        object each time, equal only by type and message)."""
        out = []
        for res in results:
            if isinstance(res, Exception):
                out.append(f"{type(res).__name__}: {res}")
            else:
                ps, diag = res
                out.append((ps.nu, ps.energies, diag.energy,
                            diag.reconstruction_fidelity,
                            diag.reconstruction_residual))
        return out

    def check(self, results) -> Check:
        chk = Check()
        it = iter(results)
        for gx in self.points:
            states = oracle.lmg_eigenstates(self.j, gx, LINE_SUM - gx)
            scale = max(abs(states[0][0]), abs(states[-1][0]), 1.0)
            for s in range(2 * self.j + 1):
                res = next(it)
                if isinstance(res, Exception):
                    chk.op(f"refused: {type(res).__name__}")
                    continue
                ps, diag = res
                chk.require(abs(states[s][0] - diag.energy)
                            <= ENERGY_RTOL * scale,
                            f"energy of state {s} at gx={gx} is not the "
                            "oracle's")
                vec = oracle.pairon_state(self.j, ps.nu, ps.energies, ps.t)
                loss = oracle.best_match_loss(states, diag.energy, vec,
                                              ENERGY_RTOL * scale)
                chk.require(abs(loss - (1.0 - diag.reconstruction_fidelity))
                            <= LOSS_AGREEMENT,
                            f"fidelity of state {s} at gx={gx} disagrees "
                            "with the oracle's")
                if (1.0 - diag.reconstruction_fidelity > FIDELITY_LOSS_BOUND
                        or diag.reconstruction_residual > RESIDUAL_BOUND):
                    chk.op("unverified")
                else:
                    chk.op(None)
        return chk


class BcsN20:
    """`bcs pairons --levels 0,0.5,1,1.5 --n 20 --state s`, 40 commands.

    Seed 0 runs states 0..19 at gamma = 0.5 and at gamma = -0.5; other
    seeds draw 20 distinct states from 0..59.  An operation is one
    command; it fails on a non-zero exit, a broken sum rule, imaginary
    parts that do not cancel, or a reconstruction fidelity below 1 - 1e-8.
    The fidelity is the oracle's: the pairons' product state built from
    the model against the oracle's eigenvector of that seniority and
    energy.  An energy that is not the oracle's eigenvalue of that rank,
    or a reported fidelity that disagrees with the oracle's, breaks the
    output as a whole.
    """

    LEVELS = (0.0, 0.5, 1.0, 1.5)
    GAMMAS = (0.5, -0.5)

    def __init__(self, seed: int, tiny: bool):
        rng = np.random.default_rng(seed)
        self.n = 6 if tiny else 20
        count = 4 if tiny else 20
        if seed == 0:
            self.states = list(range(count))
        else:
            self.states = sorted(int(s) for s in
                                 rng.choice(3 * count, count, replace=False))
        self.cases = [(g, s) for g in self.GAMMAS for s in self.states]
        self.items_per_pass = len(self.cases)
        levels = ",".join(f"{e:g}" for e in self.LEVELS)
        self.argvs = [["pairons", "--levels", levels, "--n", str(self.n),
                       "--gamma", f"{g:g}", "--state", str(s),
                       "--threads", "1", "--format", "json"]
                      for g, s in self.cases]

    def inputs(self) -> dict:
        return {"levels": self.LEVELS, "n": self.n, "gamma": self.GAMMAS,
                "states": self.states}

    def warm_up(self, pairons) -> None:
        _quiet(pairons.cli.bcs_main, ["pairons", "--levels", "0,0.5,1",
                                      "--gamma", "0.5", "--n", "4"])

    def run_pass(self, pairons) -> tuple[list[tuple[float, float]], object,
                                         int]:
        spans, outputs = [], []
        clock = time.perf_counter
        for argv in self.argvs:
            t0 = clock()
            res = _quiet(pairons.cli.bcs_main, argv)
            spans.append((t0, clock()))
            outputs.append(res)
        return spans, outputs, sum(len(out) for _, out, _ in outputs)

    def check(self, outputs) -> Check:
        chk = Check()
        spectra = {g: oracle.boson_eigenstates(self.LEVELS, g, self.n)
                   for g in self.GAMMAS}
        for (gamma, state), (rc, out, _) in zip(self.cases, outputs):
            if rc != 0:
                chk.op(f"exit code {rc}")
                continue
            doc = json.loads(out)
            meta, rows = doc["meta"], doc["rows"]
            energy = meta["energy"]
            seniority = tuple(meta["seniority"])
            tol = SUM_RULE_RTOL * max(1.0, abs(energy))
            chk.require(abs(spectra[gamma][state][0] - energy) <= tol,
                        f"energy of state {state} at gamma {gamma}")
            pairons = [complex(r[1], r[2]) for r in rows]
            vec = oracle.boson_pairon_state(self.LEVELS, self.n, seniority,
                                            pairons)
            sector = [(e, v) for e, nu, v in spectra[gamma]
                      if nu == seniority]
            loss = oracle.best_match_loss(sector, energy, vec, tol)
            reported = 1.0 - meta["reconstruction_fidelity"]
            chk.require(abs(loss - reported) <= LOSS_AGREEMENT,
                        f"fidelity of state {state} at gamma {gamma} "
                        "disagrees with the oracle's")
            base = sum(e * s for e, s in zip(self.LEVELS, seniority))
            total = base + sum(pairons)
            if abs(total.real - energy) > tol or \
                    abs(meta["energy_sum"] - energy) > tol:
                chk.op("sum rule")
            elif abs(total.imag) > SUM_RULE_RTOL:
                chk.op("imaginary parts do not cancel")
            elif max(loss, reported) > FIDELITY_LOSS_BOUND:
                chk.op("reconstruction fidelity")
            else:
                chk.op(None)
        return chk


class CollapseJ10:
    """`lmg collapse --j 10` with its default 1200-sample scan.

    Every row is matched to the nearest analytic collapse (16 hyperbola
    points plus the total collapse at gx = 5).  An operation is one
    analytic point, or an emitted row that matches none.  A point passes
    when its best row lies within criterion 3's delta bound (1e-3 for
    k <= 3, 5e-2 above) and shows the expected zero pattern.  The input
    has no free parameter, so the seed does not change it.
    """

    items_per_pass = 1

    def __init__(self, seed: int, tiny: bool):
        self.j = 3 if tiny else 10
        self.argv = ["collapse", "--j", str(self.j), "--threads", "1",
                     "--format", "csv"] + (["--steps", "60"] if tiny else [])
        self.matched = 0

    def inputs(self) -> dict:
        return {"command": "lmg " + " ".join(self.argv)}

    def warm_up(self, pairons) -> None:
        _quiet(pairons.cli.lmg_main, ["collapse", "--j", "2", "--steps",
                                      "50"])

    def run_pass(self, pairons) -> tuple[list[tuple[float, float]], object,
                                         int]:
        t0 = time.perf_counter()
        rc, out, err = _quiet(pairons.cli.lmg_main, self.argv)
        return [(t0, time.perf_counter())], (rc, out, err), len(out)

    def check(self, output) -> Check:
        rc, out, _ = output
        chk = Check()
        chk.require(rc == 0, f"exit code {rc}")
        rows = list(csv.reader(io.StringIO(out)))[1:]
        targets = oracle.collapse_targets(self.j, LINE_SUM)
        assigned: dict[int, list[tuple[float, str]]] = {}
        for r in rows:
            gx = float(r[3])
            nearest = min(range(len(targets)),
                          key=lambda i: abs(targets[i][2] - gx))
            assigned.setdefault(nearest, []).append(
                (abs(targets[nearest][2] - gx), r[6]))
        self.matched = 0
        for i, (k, branch, _) in enumerate(targets):
            got = sorted(assigned.get(i, []))
            if not got:
                chk.op("collapse not found")
                continue
            delta, pattern = got[0]
            if branch == "diagonal":
                expected = [2 * self.j]
            else:
                expected = [2 * (k + 1)] + [2] * (self.j - 1 - k)
            if delta > (1e-3 if k <= 3 else 5e-2):
                chk.op("delta above bound")
            elif pattern != "+".join(str(m) for m in expected):
                chk.op("wrong zero pattern")
            else:
                chk.op(None)
                self.matched += 1
            for _ in got[1:]:
                chk.op("row matches no collapse")
        return chk


WORKLOADS = {"scan_j10": ScanJ10, "collapse_j10": CollapseJ10,
             "spectrum_j40": SpectrumJ40, "bcs_n20": BcsN20}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def tail_percentile(samples_per_pass: int) -> float:
    """Highest percentile with at least ten samples of one pass beyond it,
    or the median when a pass has too few items for any."""
    for p in TAIL_PERCENTILES:
        if samples_per_pass * (1.0 - p / 100.0) >= MIN_BEYOND_TAIL:
            return p
    return 50.0


def _passes(wl, pairons, seconds: float, tracer: Tracer | None = None):
    """Run passes for `seconds`, starting another only if it should end in
    time.  With a tracer, passes alternate untraced and traced, so both
    kinds see the same host; there is at least one of each.  Return the
    (start, end, traced) of every pass, the (start, end) of every item,
    the first output and whether every output matched it."""
    passes, items, first, same, out_bytes = [], [], None, True, 0
    least = 1 if tracer is None else 2
    clock = time.perf_counter
    start = clock()
    while len(passes) < least or (clock() - start + passes[-1][1]
                                  - passes[-1][0] <= seconds):
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            t0 = clock()
            spans, output, out_bytes = wl.run_pass(pairons)
            passes.append((t0, clock(), traced))
        finally:
            if traced:
                tracer.uninstall()
        items.extend(spans)
        key = _key(wl, output)
        if first is None:
            first, first_key = output, key
        elif key != first_key:
            same = False
    return passes, items, first, same, out_bytes


def _timings(pass_s: list[float], item_s: list[float], items_per_pass: int
             ) -> dict[str, tuple[float, str]]:
    pct = tail_percentile(items_per_pass)
    return {"wall_s": (float(np.median(pass_s)), "s"),
            "item_ms_p50": (1e3 * float(np.percentile(item_s, 50)), "ms"),
            "item_ms_tail": (1e3 * float(np.percentile(item_s, pct)), "ms")}


def _environment(blas_threads: str | None) -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    import pairons
    import pairons.cli
    src = Path(pairons.__file__).resolve().parent.parent
    expected = Path(__file__).resolve().parent.parent / "src"
    if src != expected:
        print(f"pairons imported from {src}, not {expected}", file=sys.stderr)
        return 1

    wl = WORKLOADS[args.workload](args.seed, args.size == "tiny")
    wl.warm_up(pairons)
    detail = {"workload": args.workload, "seed": args.seed,
              "inputs": wl.inputs(),
              "environment": _environment(
                  os.environ.get("OPENBLAS_NUM_THREADS"))}

    tracer = Tracer() if args.trace else None
    sampler = None if args.trace else speed.Sampler()
    with sampler or contextlib.nullcontext():
        passes, items, output, same, out_bytes = _passes(
            wl, pairons, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    chk = wl.check(output)
    chk.require(same, "output differs between passes")
    detail.update({
        "passes": len(passes), "failed_frac": chk.failed / chk.attempted,
        "failures": chk.reasons, "broken": chk.broken,
    })
    if args.trace:
        plain = [b - a for a, b, on in passes if not on]
        traced = [b - a for a, b, on in passes if on]
        metrics = _layer_metrics(
            tracer, len(traced), wl, out_bytes,
            float(np.median(traced)) - float(np.median(plain)))
        detail["trace"] = {"passes": len(traced),
                           "functions": tracer.table()}
    else:
        metrics = _timings([sampler.scaled(a, b) for a, b, _ in passes],
                           [sampler.scaled(a, b) for a, b in items],
                           wl.items_per_pass)
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        raw = _timings([b - a for a, b, _ in passes],
                       [b - a for a, b in items], wl.items_per_pass)
        detail["unscaled"] = {k: v for k, (v, _) in raw.items()}
        detail["host_speed"] = {"mean": sampler.mean_speed(),
                                "samples": len(sampler.durations)}
        detail["item_ms_tail"] = {
            "percentile": tail_percentile(wl.items_per_pass),
            "samples": len(items), "items_per_pass": wl.items_per_pass}
    result = {"correct": not chk.broken, "attempted": chk.attempted,
              "failed": chk.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()},
              "detail": detail}
    print(json.dumps(result))
    return 0


def _layer_metrics(tr: Tracer, passes: int, wl, out_bytes: int,
                   overhead: float) -> dict:
    """Per-layer metrics of one traced pass (totals divided by passes)."""
    m: dict[str, tuple[float, str]] = {}

    def calls(name):
        m[name + ".calls"] = (tr.calls(name) / passes, "count")

    def self_s(name):
        m[name + ".self_s"] = (tr.self_s(name) / passes, "s")

    for name in ("spin.diagonalize", "phasespace.poly_roots",
                 "paironmap.extract_pairons", "collapse.scan_trajectory",
                 "collapse.detect_collapses", "collapse.refine_collapse",
                 "collapse.collapse_zero_pattern",
                 "bosonbcs.diagonalize_boson"):
        calls(name)
        self_s(name)
    for name in ("spin.build_hamiltonian", "phasespace.cluster_zeros",
                 "paironmap.zeros_to_pairons", "paironmap.reconstruct_state",
                 "bosonbcs.build_bcs_hamiltonian",
                 "bosonbcs.extract_boson_pairons",
                 "bosonbcs.reconstruct_boson_state"):
        self_s(name)
    calls("sphere.chordal_distance")
    m["phasespace.companion_fallback"] = (
        tr.calls("phasespace.companion_fallback") / passes, "count")
    for layer in ("spin", "phasespace", "paironmap", "collapse", "bosonbcs",
                  "cli"):
        m[layer + ".self_s"] = (tr.layer_self_s(layer) / passes, "s")
    m["cli.bytes_out"] = (float(out_bytes), "bytes")
    m["paironmap.unverified"] = (tr.unverified / passes, "count")
    for name in REFUSAL_TYPES + ("other",):
        m["paironmap.refused." + name] = (tr.refused[name] / passes, "count")
    m["paironmap.fidelity_loss_max"] = (tr.fidelity_loss_max, "1")
    m["paironmap.residual_max"] = (tr.residual_max, "1")
    extractions = tr.calls("paironmap.extract_pairons") / passes
    matched = getattr(wl, "matched", 0)
    m["collapse.extractions_per_point"] = (
        extractions / matched if matched else 0.0, "ratio")
    m["trace.overhead_s"] = (overhead, "s")
    return m


if __name__ == "__main__":
    sys.exit(main())
