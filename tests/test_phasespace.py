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
from pairons.phasespace import (ACCEPT_DEFECT, SWITCH_DEFECT, _aberth,
                                _factor_defect, _horner, _live_range)
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


def test_horner_sweep_is_polyval_bitwise():
    # complex coefficients, real ones carried as +0j, and real ones with
    # the -0j imaginary parts that majorana_poly's conj leaves behind
    rng = np.random.default_rng(11)
    polyval = np.polynomial.polynomial.polyval
    for deg in range(3, 61):
        for kind in ("complex", "real", "conj"):
            re = rng.standard_normal(deg + 1)
            if kind == "complex":
                c = re + 1j * rng.standard_normal(deg + 1)
            else:
                c = re.astype(complex)
                if kind == "conj":
                    c = np.conj(c)
            dc = c[1:] * np.arange(1, deg + 1)
            table = np.stack([c, np.append(dc, 0), np.abs(c)], axis=1)
            n = (1, 2, int(rng.integers(3, 45)))[deg % 3]
            z = (10.0 ** rng.uniform(-3, 3, n)
                 * np.exp(2j * math.pi * rng.random(n)))
            p, dp, noise = _horner(table, np.array([z, z, np.abs(z)]))
            assert p.tobytes() == polyval(z, c).tobytes()
            assert dp.tobytes() == polyval(z, dc).tobytes()
            assert noise.real.tobytes() == \
                polyval(np.abs(z), np.abs(c)).tobytes()
            assert not noise.imag.any()
            # one column, as poly_residual sweeps it
            assert _horner(c[:, None], z[None])[0].tobytes() == \
                polyval(z, c).tobytes()


def _stripped_slice(j, gx, state):
    h = build_hamiltonian(ModelParams.from_gammas(j, gx, 10.0 - gx))
    d = parity_slice(eigenpair(h, state).state)[1]
    lo, hi = _live_range(d)
    return d[lo:hi + 1]


def test_aberth_calls_polyval_zero_times(monkeypatch):
    # one Horner sweep per iteration, no polyval call at all
    calls = []
    polyval = np.polynomial.polynomial.polyval

    def counting(*args, **kwargs):
        calls.append(1)
        return polyval(*args, **kwargs)

    d = _stripped_slice(40, 2.0, 21)
    assert len(d) == 38
    monkeypatch.setattr(np.polynomial.polynomial, "polyval", counting)
    assert _aberth(d).shape == (37,)
    assert calls == []


def _aberth_reference(coeffs, tol=1e-14, max_iter=200):
    """The all-roots iteration with three polyval calls per step, as
    _aberth ran before the stacked sweep; also names the path taken."""
    c = np.asarray(coeffs, dtype=complex)
    c = c / np.max(np.abs(c))
    deg = len(c) - 1
    assert deg >= 3
    dc = c[1:] * np.arange(1, deg + 1)

    radius = (np.max(np.abs(c)) / abs(c[-1])) ** (1.0 / deg)
    k = np.arange(deg)
    angles = 2.0 * math.pi * (k + 0.35) / deg + 0.4 * np.sin(k + 1.0) / deg
    z = radius * np.exp(1j * angles)

    coeff_mags = np.abs(c)
    eps = np.finfo(float).eps
    converged = np.zeros(deg, dtype=bool)
    for _ in range(max_iter):
        p = np.polynomial.polynomial.polyval(z, c)
        noise = np.polynomial.polynomial.polyval(np.abs(z), coeff_mags)
        converged |= np.abs(p) <= 4.0 * eps * noise
        if converged.all():
            break
        dp = np.polynomial.polynomial.polyval(z, dc)
        newton = np.where(dp != 0, p / np.where(dp == 0, 1, dp), 0.1)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        repulsion = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - newton * repulsion
        step = np.where(np.abs(denom) > 1e-300, newton / denom, newton)
        step = np.where(converged, 0.0, step)
        z = z - step
        if np.all(np.abs(step) <= tol * (1.0 + np.abs(z))):
            break

    def polish(zz):
        for _ in range(2):
            p = np.polynomial.polynomial.polyval(zz, c)
            dp = np.polynomial.polynomial.polyval(zz, dc)
            ok = dp != 0
            z_new = np.where(ok, zz - np.where(ok, p, 0) / np.where(ok, dp, 1),
                             zz)
            p_new = np.polynomial.polynomial.polyval(z_new, c)
            zz = np.where(np.abs(p_new) < np.abs(p), z_new, zz)
        return zz

    def defect(zz):
        p = np.polynomial.polynomial.polyval(zz, c)
        noise = np.polynomial.polynomial.polyval(np.abs(zz), coeff_mags)
        if not np.all(np.abs(p) <= 1e6 * eps * np.maximum(noise, 1e-300)):
            return math.inf
        return _factor_defect(c, zz)

    z = polish(z)
    z_defect = defect(z)
    if z_defect <= SWITCH_DEFECT:
        return z, "aberth"
    comp = np.roots(c[::-1])
    comp_defect = defect(comp)
    path = "aberth after companion"
    if comp_defect < z_defect:
        z, z_defect, path = comp, comp_defect, "companion"
    if not z_defect <= ACCEPT_DEFECT:
        raise ConvergenceError(
            f"root finding failed for degree {deg}", partial=comp)
    return z, path


def _wide_range(deg, span, seed):
    # coefficient magnitudes spread over 10^(+-span): the evaluation
    # overflows at some iterates
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(deg + 1)
            * 10.0 ** rng.uniform(-span, span, deg + 1))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_aberth_is_polyval_reference_bitwise():
    # the active set and the stacked sweep change no bit of the result:
    # compared on this machine, not against frozen bytes, because LAPACK
    # (the companion path) differs between machines
    cases = [_stripped_slice(10, gx, s) for gx in (3.0, 4.975)
             for s in range(21)]
    cases += [_stripped_slice(40, 2.0, s) for s in range(0, 81, 10)]
    cases.append(np.polynomial.polynomial.polyfromroots([-2.0] * 4 + [0.06]))
    # the noise floor overflows here (nan in complex, inf in real)
    cases.append(_wide_range(50, 10, 12))
    # both sets fail: the roots overflow the evaluation
    cases.append(_wide_range(25, 15, 23))
    paths = []
    for coeffs in cases:
        try:
            roots, path = _aberth_reference(coeffs)
        except ConvergenceError as exc:
            with pytest.raises(ConvergenceError) as got:
                _aberth(coeffs)
            assert got.value.partial.tobytes() == exc.partial.tobytes()
            paths.append("refused")
            continue
        mine = _aberth(coeffs)
        assert mine.dtype == roots.dtype
        assert mine.tobytes() == roots.tobytes()
        paths.append(path)
    assert {"aberth", "companion", "refused"} <= set(paths)
