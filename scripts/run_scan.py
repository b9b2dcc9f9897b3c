#!/usr/bin/env python3
"""Ground-state pairon scan along gx + gy = const, with collapse report.

Sweeps the coupling line, tracks the ten pairon branches of the j = 10
ground state, locates the zero-collapse points where the amplitude at the
-eps anchor changes sign, and checks them against the closed-form
hyperbola intersections (including the merged-zero multiplicity pattern
at each point).  Exits 3 if the anchor amplitude is below its noise bound
anywhere on the line.
"""
import argparse
import csv
import sys
import time

from pairons import (ModelParams, TrajectorySpec, UnresolvedAnchorError,
                     anchor_profile, collapse_points, collapse_zero_pattern,
                     find_collapses, scan_trajectory)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--j", type=int, default=10)
    ap.add_argument("--line-sum", type=float, default=10.0)
    ap.add_argument("--steps", type=int, default=1200)
    ap.add_argument("--state", type=int, default=0)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--out", help="write the anchor-value profile as CSV")
    args = ap.parse_args(argv)

    spec = TrajectorySpec(j=args.j, start=0.05 * args.line_sum / 10.0,
                          stop=args.line_sum - 0.05 * args.line_sum / 10.0,
                          steps=args.steps, line="sum",
                          line_sum=args.line_sum, state_index=args.state)
    t0 = time.perf_counter()
    table = scan_trajectory(spec, threads=args.threads)
    dt = time.perf_counter() - t0
    print(f"scan: j={args.j} line gx+gy={args.line_sum} "
          f"({args.steps} samples, state {args.state}) in {dt:.2f}s")
    if table.failures:
        print(f"  {len(table.failures)} samples failed:")
        for gx, msg in table.failures[:5]:
            print(f"    gx={gx:.4f}: {msg}")

    # regime structure: where do the pairons leave the real axis?
    real = [all(abs(r.energy.imag) <= 1e-8 for r in s.records)
            for s in table.samples]
    edges = [i for i in range(1, len(real)) if real[i] != real[i - 1]]
    labels = []
    start = 0
    for i in edges + [len(real)]:
        kind = "real" if real[start] else "complex-paired"
        labels.append(f"[{table.samples[start].gamma_x:.3f}, "
                      f"{table.samples[i - 1].gamma_x:.3f}] {kind}")
        start = i
    print("pairon regimes: " + "; ".join(labels))

    profile = anchor_profile(spec)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["gx", "gy", "anchor_value", "noise"])
            for gx, f, noise in zip(spec.samples(), profile.value,
                                    profile.noise):
                w.writerow([f"{gx:.17g}", f"{spec.gamma_y(gx):.17g}",
                            f"{f:.17g}", f"{noise:.17g}"])
        print(f"anchor-value profile -> {args.out}")

    try:
        found = find_collapses(profile)
    except UnresolvedAnchorError as exc:
        print(f"no collapse report: {exc}")
        return 3
    analytic = collapse_points(args.j, args.line_sum)
    print(f"\ncollapse points: {len(analytic)} analytic, {len(found)} "
          "detected (sign changes plus the total collapse)")
    print(f"{'k':>2} {'branch':>8} {'gx analytic':>12} {'gx detected':>12} "
          f"{'|delta|':>9}  zero pattern")
    targets = [(cp.k, cp.branch, cp.gamma_x) for cp in analytic]
    for cand in found:
        if cand.total:
            k, branch, gx_a = args.j - 1, "diagonal", cand.gamma_x
            expect = [2 * args.j]
        else:
            k, branch, gx_a = min(
                targets, key=lambda tg: abs(tg[2] - cand.gamma_x))
            expect = sorted([2 * (k + 1)] + [2] * (args.j - k - 1),
                            reverse=True)
        params = ModelParams.from_gammas(args.j, cand.gamma_x,
                                         spec.gamma_y(cand.gamma_x))
        pattern = sorted(collapse_zero_pattern(params, k,
                                               state_index=args.state),
                         reverse=True)
        mark = "" if pattern == expect else "  << unexpected"
        print(f"{k:>2} {branch:>8} {gx_a:12.6f} {cand.gamma_x:12.6f} "
              f"{abs(cand.gamma_x - gx_a):9.2e}  "
              f"{'+'.join(map(str, pattern))}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
