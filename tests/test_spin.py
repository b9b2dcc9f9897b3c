import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from numpy.testing import assert_allclose

from pairons import (ModelParams, SingularParameterError, StateVector,
                     build_hamiltonian, diagonalize, eigen_residual,
                     eigenpair, expectation, split_parity)
from pairons import spin
from conftest import schwinger_hamiltonian


def test_j1_matrix_frozen():
    # eps Jz + (lam/2)(J+^2 + J-^2) at j=1: couples m=-1 and m=+1 with lam
    p = ModelParams(j=1, eps=1.0, lam=1.0, gam=0.0)
    h = build_hamiltonian(p)
    assert_allclose(h.matrix, [[-1, 0, 1], [0, 0, 0], [1, 0, 1]], atol=0)


def test_matches_schwinger_realization(rng):
    for j in (1, 2, 3, 5):
        lam, gam, eps = rng.uniform(-2, 2, 3)
        p = ModelParams(j=j, eps=eps, lam=lam, gam=gam)
        assert_allclose(build_hamiltonian(p).matrix,
                        schwinger_hamiltonian(p), atol=1e-12)


def test_eigenvalues_match_dense_solver(rng):
    p = ModelParams(j=7, eps=1.0, lam=0.37, gam=-0.81)
    h = build_hamiltonian(p)
    eigs = diagonalize(h)
    assert_allclose([e.energy for e in eigs],
                    np.linalg.eigvalsh(h.matrix), atol=1e-10)


def test_split_parity_blocks():
    p = ModelParams(j=3, eps=1.0, lam=0.5, gam=0.2)
    h = build_hamiltonian(p)
    even, odd, (ie, io) = split_parity(h)
    assert_allclose(h.matrix[np.ix_(ie, ie)], even)
    assert_allclose(h.matrix[np.ix_(io, io)], odd)
    # sectors never mix
    assert_allclose(h.matrix[np.ix_(ie, io)], 0.0, atol=0)


def test_diagonalize_basics():
    p = ModelParams(j=4, eps=1.0, lam=0.3, gam=0.1)
    h = build_hamiltonian(p)
    eigs = diagonalize(h)
    assert len(eigs) == 9
    energies = [e.energy for e in eigs]
    assert energies == sorted(energies)
    for e in eigs:
        assert e.state.parity in ("even", "odd")
        assert eigen_residual(h, e.state) < 1e-13
        assert abs(expectation(h, e.state) - e.energy) < 1e-10
        assert not e.degenerate


def test_degenerate_flag_within_sector():
    # lam=0, gam=-1/2, j=2: even-sector levels m=-2 and m=0 both sit at -3
    p = ModelParams(j=2, eps=1.0, lam=0.0, gam=-0.5)
    eigs = diagonalize(build_hamiltonian(p))
    flagged = [e for e in eigs if e.degenerate]
    assert len(flagged) == 2
    assert_allclose([e.energy for e in flagged], [-3.0, -3.0], atol=1e-12)
    assert all(e.state.parity == "even" for e in flagged)


def _same_pair(a, b):
    return (a.energy == b.energy and a.index == b.index
            and a.degenerate == b.degenerate
            and a.state.parity == b.state.parity
            and a.state.coeffs.tobytes() == b.state.coeffs.tobytes())


@pytest.mark.parametrize("j", range(1, 13))
def test_eigenpair_is_diagonalize_entry(j):
    # gx = gy = -(2j-1)/2 is lam = 0, gam = -1/2: levels m = 0 and m = -2
    # of one sector coincide, so degenerate flags are set there (j >= 2)
    diagonal = -(2 * j - 1) / 2.0
    for gx, gy in [(2.0, 8.0), (8.0, 2.0), (-3.0, 1.5), (5.0, 5.0),
                   (diagonal, diagonal)]:
        h = build_hamiltonian(ModelParams.from_gammas(j, gx, gy))
        pairs = diagonalize(h)
        assert all(_same_pair(eigenpair(h, i), pairs[i])
                   for i in range(2 * j + 1))
        if gx == diagonal and j >= 2:
            assert any(p.degenerate for p in pairs)
    for bad in (-1, 2 * j + 1):
        with pytest.raises(ValueError, match="out of range"):
            eigenpair(h, bad)


def _rank_reference(values, gap_tol):
    """(sector, column, flag) per rank: Python's stable sort of the
    (sector, column) keys by value, with each sector's own flags."""
    keys = sorted(((s, c) for s, w in enumerate(values)
                   for c in range(len(w))),
                  key=lambda key: values[key[0]][key[1]])
    flags = [spin.degenerate_flags(np.array(w), gap_tol).tolist()
             for w in values]
    return [(s, c, flags[s][c]) for s, c in keys]


@pytest.mark.parametrize("seed", range(20))
def test_rank_states_is_pythons_stable_sort(seed):
    # ties inside and across sectors, and -0.0 beside 0.0, one row alone
    # and a stack of rows with a gap per row
    rng = np.random.default_rng(seed)
    pool = np.array([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0])
    sizes = rng.integers(1, 6, size=rng.integers(1, 5))
    stack = [np.sort(rng.choice(pool, size=(7, n)), axis=1) for n in sizes]
    gap = rng.uniform(0.1, 1.0, size=(7, 1))
    ranked = spin.rank_states(stack, gap)
    assert all(r.shape == (7, sum(sizes)) for r in ranked)
    for row in range(7):
        values = [w[row].tolist() for w in stack]
        expect = _rank_reference(values, gap[row, 0])
        assert list(zip(*(r[row].tolist() for r in ranked))) == expect
        alone = spin.rank_states([w[row] for w in stack], gap[row, 0])
        assert list(zip(*(r.tolist() for r in alone))) == expect


def test_cross_sector_degeneracy_not_flagged():
    # even-odd crossings are fine: parity pins the basis
    from pairons import crossing_points
    cp = crossing_points(2)[0]
    p = ModelParams.from_gammas(2, cp.gamma_x, cp.gamma_x)
    eigs = diagonalize(build_hamiltonian(p))
    assert not any(e.degenerate for e in eigs)


def test_from_gammas_roundtrip():
    p = ModelParams.from_gammas(10, 3.0, 7.0, eps=2.0)
    assert_allclose(p.gamma_x, 3.0)
    assert_allclose(p.gamma_y, 7.0)
    assert_allclose(p.t, np.sqrt(3.0 / 7.0))


def test_ground_energy_on_diagonal_frozen():
    # gx = gy means lam = 0, all Dicke states are eigenstates
    p = ModelParams.from_gammas(10, 5.0, 5.0)
    eigs = diagonalize(build_hamiltonian(p))
    assert_allclose(eigs[0].energy, -10.0 + 50.0 / 19.0, rtol=1e-15)
    assert_allclose(abs(eigs[0].state.coefficient(-10)), 1.0, atol=1e-12)


def test_singular_parameters_rejected():
    # gamma_y = 0 (t undefined) and gamma_x = 0 (t = 0) still give valid
    # Hamiltonians; only the pairon map refuses them
    from pairons import extract_pairons
    for gx, gy in [(1.0, 0.0), (0.0, 1.0)]:
        params = ModelParams.from_gammas(3, gx, gy)
        with pytest.raises(SingularParameterError):
            extract_pairons(params, state_index=0)
    with pytest.raises(ValueError):
        ModelParams(j=0, eps=1.0)


def test_eigen_residual_detects_non_eigenvector(rng):
    p = ModelParams(j=5, eps=1.0, lam=0.4, gam=0.0)
    h = build_hamiltonian(p)
    c = rng.standard_normal(11)
    v = StateVector(j=5, coeffs=c / np.linalg.norm(c))
    assert eigen_residual(h, v) > 1e-3


def _state_reference(j, coeffs):
    """(coefficients, parity) of StateVector(j, coeffs) by its definition:
    np.linalg.norm of the vector, one division by it when it is off 1 by
    more than 1e-12, parity from the max scans of the two sublattices."""
    arr = np.asarray(coeffs, dtype=complex)
    norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) > 1e-12:
        arr = arr / norm
    scale = float(np.max(np.abs(arr)))
    even = float(np.max(np.abs(arr[0::2])))
    odd = float(np.max(np.abs(arr[1::2]), initial=0.0))
    if odd <= 1e-12 * scale:
        return arr, "even"
    if even <= 1e-12 * scale:
        return arr, "odd"
    return arr, "mixed"


@pytest.mark.parametrize("j", [1, 7, 10, 40])
def test_stacked_state_vectors_are_each_alone(rng, j):
    # unit, unnormalized, real, complex, even, odd and mixed rows, a
    # sublattice 1e-13 below the other and a -0.0 entry
    dim = 2 * j + 1
    rows = rng.normal(size=(12, dim)) + 1j * rng.normal(size=(12, dim))
    rows[0::3, 1::2] = 0.0
    rows[1::3, 0::2] = 0.0
    rows[3, 0::2] *= 1e-13
    rows[4] = rows[4].real
    rows[5] /= np.linalg.norm(rows[5])
    rows[5, 2] = complex(-0.0, abs(rows[5, 2]))  # stays unit: not divided
    rows[6, 0] = -0.0
    rows[7] = np.abs(rows[7]) ** 0.5 * 1e-3
    # normalized in one _normalized_rows pass, as extract_stack takes its
    # eigenvectors and rebuilt states, each row gets the bits and parity
    # a StateVector gets alone
    unit, parities = spin._normalized_rows(rows)
    assert unit.shape == rows.shape
    assert set(parities) == {"even", "odd", "mixed"}
    for row, stacked, stacked_parity in zip(rows, unit, parities):
        alone = StateVector(j=j, coeffs=row)
        ref, parity = _state_reference(j, row)
        assert (alone.coeffs.tobytes() == stacked.tobytes()
                == ref.tobytes())
        assert stacked_parity == alone.parity == parity


def test_stacked_state_vectors_refuse_a_zero_row():
    rows = np.eye(3, 5, dtype=complex)
    rows[1] = 0.0
    with pytest.raises(ValueError, match="^zero vector is not a state$"):
        spin._normalized_rows(rows)
    with pytest.raises(ValueError, match="^zero vector is not a state$"):
        StateVector(j=2, coeffs=rows[1])


@pytest.mark.parametrize("j", [1, 7, 10, 40])
def test_stacked_eigen_residuals_are_each_alone(rng, j):
    params = [ModelParams(j=j, eps=1.0, lam=lam, gam=gam)
              for lam, gam in rng.uniform(-2, 2, (6, 2))]
    matrices = [build_hamiltonian(p) for p in params]
    states = [diagonalize(h)[k % (2 * j + 1)].state
              for k, h in enumerate(matrices)]
    states[1] = StateVector(j=j, coeffs=rng.normal(size=2 * j + 1)
                            + 1j * rng.normal(size=2 * j + 1))
    stacked = spin.eigen_residuals(np.stack([h.matrix for h in matrices]),
                                   np.stack([s.coeffs for s in states]))
    for h, state, r in zip(matrices, states, stacked.tolist()):
        hv = h.matrix @ state.coeffs
        ev = np.real(np.conj(state.coeffs) @ hv)
        ref = float(np.linalg.norm(hv - ev * state.coeffs) / h.norm)
        assert eigen_residual(h, state) == r == ref
    assert stacked[1] > 1e-3


@given(j=st.integers(1, 6), lam=st.floats(-3, 3), gam=st.floats(-3, 3))
@settings(max_examples=40)
def test_spectrum_invariant_under_lam_sign(j, lam, gam):
    a = ModelParams(j=j, eps=1.0, lam=lam, gam=gam)
    b = ModelParams(j=j, eps=1.0, lam=-lam, gam=gam)
    ea = np.linalg.eigvalsh(build_hamiltonian(a).matrix)
    eb = np.linalg.eigvalsh(build_hamiltonian(b).matrix)
    assert_allclose(ea, eb, atol=1e-10 * max(1.0, np.abs(ea).max()))


def test_dicke_state():
    s = StateVector.dicke(3, -2)
    assert s.parity == "odd"
    assert s.coefficient(-2) == 1.0
    assert s.coefficient(0) == 0.0
