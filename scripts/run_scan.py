#!/usr/bin/env python3
"""Ground-state pairon scan along gx + gy = const, with collapse report.

Sweeps the coupling line, tracks the ten pairon branches of the j = 10
ground state, locates the zero-collapse points where the amplitude at the
-eps anchor changes sign, and checks them against the closed-form
hyperbola intersections (including the merged-zero multiplicity pattern
at each point).  Exits 3 if the anchor amplitude is below its noise bound
anywhere on the line, or if the detected collapses do not match the
analytic points one to one (the grid is too coarse).
"""
import argparse
import csv
import sys
import time

import numpy as np

from pairons import (TrajectorySpec, UnresolvedAnchorError, anchor_profile,
                     collapse_points, collapse_rows, find_collapses,
                     scan_trajectory)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--j", type=int, default=10)
    ap.add_argument("--line-sum", type=float, default=10.0)
    ap.add_argument("--steps", type=int, default=1200)
    ap.add_argument("--state", type=int, default=0)
    ap.add_argument("--out", help="write the anchor-value profile as CSV")
    args = ap.parse_args(argv)
    if args.state != 0:
        ap.error("--state must be 0: the collapse points and zero patterns "
                 "are the ground state's")

    spec = TrajectorySpec(j=args.j, start=0.05 * args.line_sum / 10.0,
                          stop=args.line_sum - 0.05 * args.line_sum / 10.0,
                          steps=args.steps, line="sum",
                          line_sum=args.line_sum, state_index=args.state)
    t0 = time.perf_counter()
    table = scan_trajectory(spec)
    dt = time.perf_counter() - t0
    print(f"scan: j={args.j} line gx+gy={args.line_sum} "
          f"({args.steps} samples, state {args.state}) in {dt:.2f}s")
    if table.failures:
        print(f"  {len(table.failures)} samples failed:")
        for gx, msg in table.failures[:5]:
            print(f"    gx={gx:.4f}: {msg}")

    # regime structure: where do the pairons leave the real axis?
    real = ((np.abs(table.pairons.imag) <= 1e-8) | ~table.live).all(
        axis=1).tolist()
    edges = [i for i in range(1, len(real)) if real[i] != real[i - 1]]
    labels = []
    start = 0
    for i in edges + [len(real)]:
        kind = "real" if real[start] else "complex-paired"
        labels.append(f"[{table.gamma_x[start]:.3f}, "
                      f"{table.gamma_x[i - 1]:.3f}] {kind}")
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
        rows = collapse_rows(spec, found)
    except UnresolvedAnchorError as exc:
        print(f"no collapse report: {exc}")
        return 3
    analytic = collapse_points(args.j, args.line_sum)
    print(f"\ncollapse points: {len(analytic)} analytic, {len(found)} "
          "detected (sign changes plus the total collapse)")
    print(f"{'k':>2} {'branch':>8} {'gx analytic':>12} {'gx detected':>12} "
          f"{'|delta|':>9}  zero pattern")
    for row in rows:
        gx_a, gx_d = row.point.gamma_x, row.candidate.gamma_x
        mark = "" if row.pattern_ok else "  << unexpected"
        print(f"{row.point.k:>2} {row.point.branch:>8} {gx_a:12.6f} "
              f"{gx_d:12.6f} {abs(gx_d - gx_a):9.2e}  "
              f"{'+'.join(map(str, row.pattern))}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
