import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from numpy.testing import assert_allclose

from pairons import (ConvergenceError, MajoranaPoly, ModelParams,
                     SpherePoint, StateVector, build_hamiltonian,
                     chordal_distance, coherent_overlap, diagonalize,
                     eigenpair, husimi, husimi_quadrature, majorana_poly,
                     parity_slice, poly_roots, root_residual)
from pairons import phasespace
from pairons.phasespace import strip_and_solve
from conftest import random_state


def test_majorana_coefficients_frozen():
    # d_k = conj(c_m) * sqrt(C(2j, j+m))
    s = StateVector(j=1, coeffs=np.array([0.6, 0.8j, 0.0]))
    p = majorana_poly(s)
    assert_allclose(p.coeffs, [0.6, -0.8j * math.sqrt(2), 0.0], atol=1e-15)


def test_monomial_state_zeros():
    for j, m in [(2, -2), (2, 0), (3, 1), (1, 1)]:
        zs = poly_roots(majorana_poly(StateVector.dicke(j, m)))
        assert zs.multiplicity_at_origin() == j + m
        assert zs.multiplicity_at_infinity() == j - m
        assert zs.total_multiplicity == 2 * j


def test_roots_against_companion_matrix(rng):
    for j in (2, 4, 6, 8):
        s = random_state(j, rng)
        poly = majorana_poly(s)
        zs = poly_roots(poly)
        mine = sorted((complex(pt.zeta) for pt, _ in zs.zeros
                       if not pt.is_infinity), key=lambda z: (z.real, z.imag))
        ref = sorted(np.roots(poly.coeffs[::-1]),
                     key=lambda z: (z.real, z.imag))
        assert len(mine) == len(ref)
        for a, b in zip(mine, ref):
            assert chordal_distance(a, complex(b)) < 1e-8
        assert root_residual(poly, zs) < 1e-9


def test_parity_states_have_bitwise_negation_pairs(rng):
    for parity in ("even", "odd"):
        s = random_state(6, rng, parity=parity)
        zs = poly_roots(majorana_poly(s))
        finite = [complex(pt.zeta) for pt, m in zs.zeros
                  for _ in range(m) if not pt.is_infinity]
        for z in finite:
            assert any(w == -z for w in finite)  # exact, not approximate


@pytest.mark.parametrize("cluster, single", [
    (-2.0, 0.06), (-0.7, -0.3), (1.5, 0.06), (3.0, -0.3), (3.0, 0.5)])
def test_fourfold_u_root_keeps_coefficients(cluster, single):
    # (u - cluster)^4 (u - single) in u = zeta^2, as at a k=3 collapse where
    # four pairons sit at e = -eps; (u+2)^4 (u-0.06) has the shape of the
    # j=5, gx=1, gy=9, state 2 polynomial.  Each member of the rounded
    # cluster can look converged while the set as a whole misses the
    # coefficients (the other four cases did so with a defect near 1e-6),
    # so the check is on the whole set.
    u_coeffs = np.polynomial.polynomial.polyfromroots([cluster] * 4 + [single])
    d = np.zeros(11)
    d[0::2] = u_coeffs
    zs = poly_roots(MajoranaPoly(j=5, coeffs=d))
    roots = np.array([pt.zeta for pt in zs.expand()], dtype=complex)
    rebuilt = np.poly(roots)[::-1] * d[-1]
    assert np.max(np.abs(rebuilt - d)) <= 1e-12 * np.max(np.abs(d))


def test_husimi_vanishes_at_zeros(rng):
    p = ModelParams.from_gammas(6, 2.0, 8.0)
    s = diagonalize(build_hamiltonian(p))[0].state
    zs = poly_roots(majorana_poly(s))
    for pt, _ in zs.zeros:
        if not pt.is_infinity:
            assert husimi(s, pt) < 1e-18
            assert abs(coherent_overlap(s, pt)) < 1e-9


def test_husimi_quadrature_normalized(rng):
    for j in (1, 3, 7, 10):
        s = random_state(j, rng)
        assert abs(husimi_quadrature(s) - 1.0) < 1e-6


def test_quadrature_of_coherent_like_peak():
    # worst case for the grid: sharply peaked monomial state
    s = StateVector.dicke(10, -10)
    assert abs(husimi_quadrature(s) - 1.0) < 1e-6


def test_chordal_metric():
    inf = SpherePoint(zeta=None)
    assert chordal_distance(0j, inf) == 2.0
    assert chordal_distance(1 + 0j, -1 + 0j) == 2.0  # antipodes
    assert chordal_distance(0.3 + 0.1j, 0.3 + 0.1j) == 0.0
    a, b = 0.2 + 1j, -3.0 + 0.4j
    assert chordal_distance(a, b) == chordal_distance(b, a)
    assert chordal_distance(inf, inf) == 0.0


def test_sphere_point_angles_roundtrip():
    for zeta in (0.5 + 0.2j, -1.3 + 2j, 0j):
        pt = SpherePoint(zeta=zeta)
        back = SpherePoint.from_angles(pt.theta(), pt.phi())
        assert chordal_distance(pt, back) < 1e-12
    assert SpherePoint(zeta=None).theta() == pytest.approx(math.pi)


@given(st.integers(1, 5), st.integers(0, 1000))
@settings(max_examples=30)
def test_poly_state_roundtrip(j, seed):
    rng = np.random.default_rng(seed)
    s = random_state(j, rng)
    back = majorana_poly(s).to_state()
    overlap = abs(np.vdot(back.coeffs, s.coeffs))
    assert overlap > 1.0 - 1e-12


def test_total_multiplicity_always_2j(rng):
    # degree deficiency counts as zeros at infinity
    for _ in range(10):
        j = int(rng.integers(1, 9))
        s = random_state(j, rng)
        assert poly_roots(majorana_poly(s)).total_multiplicity == 2 * j


def test_refuses_a_root_set_that_misses_the_residual(monkeypatch):
    # the companion eigenvalues of the one stacked core, 1% off
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda a: np.array([[1.0, 2.0, 3.0]]) * 1.01)
    with pytest.raises(ConvergenceError) as got:
        strip_and_solve(np.polynomial.polynomial.polyfromroots([1, 2, 3]))
    assert got.value.partial.shape == (3,)


def test_refuses_a_root_set_that_misses_the_coefficients(monkeypatch):
    # each root is exact, so the residual check passes, but 2 is lost
    # and 1 doubled: the factor defect is O(1)
    c = np.polynomial.polynomial.polyfromroots([1.0, 2.0, 3.0])
    s = (abs(c[0]) / abs(c[-1])) ** (1.0 / 3)
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda a: np.array([[1.0, 1.0, 3.0]]) / s)
    with pytest.raises(ConvergenceError):
        strip_and_solve(c)


def _np_roots_reference(c):
    """_solve_core's roots through np.roots, one polynomial at a time."""
    c = c.real if not np.any(c.imag) else c
    deg = len(c) - 1
    s = (abs(c[0]) / abs(c[-1])) ** (1.0 / deg)
    return s * np.roots((c * s ** np.arange(deg + 1))[::-1]).astype(complex)


def _convolve_defect_reference(c, roots):
    """The factor defect with the product built by np.convolve."""
    prod = np.array([1.0 + 0.0j])
    for r in roots:
        prod = np.convolve(prod, np.array([-r, 1.0]))
        prod = prod / np.max(np.abs(prod))
    ref = c / np.max(np.abs(c))
    k = int(np.argmax(np.abs(prod)))
    return float(np.max(np.abs(prod * (ref[k] / prod[k]) - ref)))


@pytest.mark.parametrize("length", [2, 5, 11, 21, 41])
def test_batched_companion_roots_are_np_roots_bitwise(rng, length):
    # real and complex cores of one length, solved in one stack, get the
    # bits np.roots gives each alone; the factor defect of the roots, and
    # of the roots with one lost, agrees with the convolution product
    cores = (rng.normal(size=(30, length))
             * 10.0 ** rng.uniform(-3, 3, (30, length))).astype(complex)
    cores[20:] += 1j * rng.normal(size=(10, length))
    solved = phasespace._solve_cores(cores)
    for c, roots in zip(cores, solved):
        if isinstance(roots, ConvergenceError):
            roots = roots.partial
        ref = _np_roots_reference(c)
        assert roots.tobytes() == ref.tobytes()
        # a rounding-level quantity; only its gate decides anything
        lost = roots.copy()
        lost[0] = lost[-1]
        for r in (roots, lost):
            defect = phasespace._factor_defects(c[None], r[None])[0]
            ref = _convolve_defect_reference(c, r)
            assert (defect <= phasespace.ACCEPT_DEFECT) == (
                ref <= phasespace.ACCEPT_DEFECT)
            assert abs(defect - ref) <= 0.1 * phasespace.ACCEPT_DEFECT
