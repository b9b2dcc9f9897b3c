#!/usr/bin/env python3
"""Pairon content of a bosonic pairing model (three levels by default),
state by state.

Solves the uniform-coupling model state by state, slices every
eigenstate into its certified pairon energies, and reports each
decomposition three ways: the energy sum rule defect and the
reconstruction fidelity of the pair-product state (both from the
certified set), and agreement between the slices along the first and
the last axis; a two-level model has one axis, and that column reads -.
A state whose pairons are refused (a degenerate state, or a set that
fails the sum rule or the fidelity gate) is printed with the reason.
For the ground state the full quadric (generalized ellipsoid) of each
pairon is sampled and the amplitude cancellation on it is reported.
"""
import argparse
import sys

import numpy as np

from pairons import (BosonModel, PaironsError, boson_eigenstate,
                     boson_eigenstates, ellipsoid_axes, extract_boson_pairons,
                     verify_ellipsoid)


def fmt_pairon(e):
    if abs(e.imag) <= 1e-9:
        return f"{e.real:.6f}"
    return f"{e.real:.6f}{e.imag:+.6f}i"


def fmt_axis(xi):
    # a negative xi^2 is a perfectly good quadric; its section along the
    # real slice is empty, and the semi-axis comes out imaginary (the
    # sign of the root is immaterial, so print the positive one)
    if abs(xi.imag) <= 1e-9 * abs(xi.real):
        return f"{abs(xi.real):.4f}"
    if abs(xi.real) <= 1e-9 * abs(xi.imag):
        return f"{abs(xi.imag):.4f}i"
    return f"{xi:.4f}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=float, nargs="+", default=[0.0, 0.5, 1.0])
    ap.add_argument("--gamma", type=float, default=0.5)
    ap.add_argument("--n", type=int, default=6)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    model = BosonModel(levels=tuple(args.levels), gamma=args.gamma,
                       n_bosons=args.n)
    print(f"levels {args.levels}, gamma={args.gamma}, N={args.n}: "
          f"{model.dim} eigenstates")
    print(f"{'#':>3} {'energy':>12} {'seniority':>9} {'sum defect':>10} "
          f"{'1-fidelity':>10} {'axis mismatch':>13}  pairons")
    last = len(model.levels) - 1
    for idx, st in enumerate(boson_eigenstates(model)):
        label = (f"{idx:>3} {st.energy:12.6f} "
                 f"{''.join(map(str, st.seniority)):>9}")
        try:
            ps = extract_boson_pairons(st)
            # the slice along any axis must see the same pairons
            alt = extract_boson_pairons(st, axis=last) if last > 1 else None
        except PaironsError as exc:
            print(f"{label} refused: {exc}")
            continue
        mismatch = "-"
        if alt is not None:
            a = sorted(ps.energies, key=lambda z: (z.real, z.imag))
            b = sorted(alt.energies, key=lambda z: (z.real, z.imag))
            gap = max((abs(x - y) for x, y in zip(a, b)), default=0.0)
            mismatch = f"{gap:.2e}"
        shown = ", ".join(fmt_pairon(e) for e in ps.energies)
        print(f"{label} {abs(ps.energy_sum - st.energy):10.2e} "
              f"{1.0 - ps.reconstruction_fidelity:10.2e} {mismatch:>13}  "
              f"{shown}")

    ground = boson_eigenstate(model, 0)
    try:
        ps = extract_boson_pairons(ground)
    except PaironsError as exc:
        print(f"\nground state refused: {exc}")
        return 0
    print("\nground-state pairon quadrics (semi-axes xi_l, amplitude "
          "cancellation on 100 sampled points):")
    for e in ps.energies:
        xi = np.sqrt(ellipsoid_axes(model, e).astype(complex))
        resid = verify_ellipsoid(ground, e, n_points=100, seed=args.seed)
        axes = ", ".join(fmt_axis(x) for x in xi)
        print(f"  e = {fmt_pairon(e):>10}: xi = ({axes}), "
              f"max residual {resid:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
