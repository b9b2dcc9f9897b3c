import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from numpy.testing import assert_allclose

from pairons import (ModelParams, SingularParameterError, StateVector,
                     build_hamiltonian, diagonalize, eigen_residual,
                     eigenpair, expectation, split_parity)
from pairons import spin
from conftest import RESIDUAL_BOUND, dense_residual, schwinger_hamiltonian


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
    (sector, column) keys by value, flagged where a gap to a neighbour in
    the state's own sector is below gap_tol."""
    keys = sorted(((s, c) for s, w in enumerate(values)
                   for c in range(len(w))),
                  key=lambda key: values[key[0]][key[1]])
    flags = [[any(0 <= k < len(w) - 1 and w[k + 1] - w[k] < gap_tol
                  for k in (c - 1, c)) for c in range(len(w))]
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


@pytest.mark.parametrize("sizes", [(1, 3, 6, 10, 15, 21, 28, 36),
                                   (0, 36, 1, 28, 0, 15, 21, 0)])
def test_rank_states_of_eight_sectors_is_pythons_stable_sort(rng, sizes):
    # eight sectors of unequal sizes, as bcs ranks its seniority sectors
    # in one call, and eight with empty ones first, among them and last;
    # values on a grid, so they tie within and across sectors
    values = [np.sort(np.round(rng.normal(size=n), 1)) for n in sizes]
    ranked = spin.rank_states(values, 0.05)
    assert [r.dtype.kind for r in ranked] == ["i", "i", "b"]
    assert list(zip(*(r.tolist() for r in ranked))) == _rank_reference(
        [w.tolist() for w in values], 0.05)


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


def test_overflowing_hamiltonian_is_refused():
    # at j = 100 the couplings are finite but the diagonal entries
    # gam*(j(j+1) - m^2) overflow: the full and the one-state solve and
    # the extraction refuse with one message, before any solve and with
    # no RuntimeWarning (an error here)
    from pairons import extract_pairons
    params = ModelParams.from_gammas(100, 5e306, 5e306)
    h = build_hamiltonian(params)
    assert np.isinf(h.matrix).any()
    for refused in (lambda: diagonalize(h), lambda: eigenpair(h, 0),
                    lambda: extract_pairons(params)):
        with pytest.raises(ValueError) as exc:
            refused()
        assert str(exc.value) == "H overflows at (gx=5e+306, gy=5e+306)"


def test_t_refuses_the_singular_lines():
    # ModelParams.t raises the extraction's refusal, in its words, where
    # the extraction refuses the point
    from pairons import extract_pairons
    assert ModelParams.from_gammas(3, 2.0, 8.0).t == pytest.approx(0.5)
    for gx, gy in [(1.0, 0.0), (0.0, 1.0), (0.0, 0.0)]:
        params = ModelParams.from_gammas(3, gx, gy)
        with pytest.raises(SingularParameterError) as t_error:
            params.t
        with pytest.raises(SingularParameterError) as extraction_error:
            extract_pairons(params, state_index=0)
        assert str(t_error.value) == str(extraction_error.value)


def test_eigen_residual_detects_non_eigenvector(rng):
    p = ModelParams(j=5, eps=1.0, lam=0.4, gam=0.0)
    h = build_hamiltonian(p)
    c = rng.standard_normal(11)
    v = StateVector(j=5, coeffs=c / np.linalg.norm(c))
    assert eigen_residual(h, v) > 1e-3


def test_eigen_residual_is_scale_free_at_any_finite_norm():
    # H times 2^600 (about 4e180) is exact; unscaled, the residual's
    # squares would overflow
    state = eigenpair(build_hamiltonian(ModelParams.from_gammas(10, 2, 8)),
                      0).state
    residuals = [eigen_residual(build_hamiltonian(
        ModelParams.from_gammas(10, 2, 8, eps=eps)), state)
        for eps in (1.0, 2.0 ** 600, 2.0 ** -600)]
    assert 0 < residuals[0] < 1e-14
    assert residuals == [residuals[0]] * 3


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
    stacked = spin.eigen_residuals(np.stack([h.diag for h in matrices]),
                                   np.stack([h.off for h in matrices]),
                                   np.stack([s.coeffs for s in states]))
    for h, state, r in zip(matrices, states, stacked.tolist()):
        assert eigen_residual(h, state) == r
        assert abs(r - dense_residual(h, state)) <= RESIDUAL_BOUND
    assert stacked[1] > 1e-3


def test_bands_are_the_matrix_entries(rng):
    # each point's diagonal and m+-2 band, stacked, are the scalar formula
    # and the entries of its build_hamiltonian matrix, bit for bit, and
    # that matrix has no other nonzeros
    for j in (1, 2, 7, 40):
        eps, lam, gam = rng.uniform(-3, 3, (3, 5))
        diag, off = spin.hamiltonian_bands(j, eps, lam, gam)
        for i in range(5):
            p = ModelParams(j=j, eps=eps[i], lam=lam[i], gam=gam[i])
            H = build_hamiltonian(p).matrix
            m = list(range(-j, j + 1))
            formula = [p.eps * x + p.gam * (j * (j + 1) - x * x) for x in m]
            band = [0.5 * p.lam * math.sqrt(float(
                (j - x) * (j + x + 1) * (j - x - 1) * (j + x + 2)))
                for x in m[:-2]]
            assert diag[i].tolist() == np.diagonal(H).tolist() == formula
            assert (off[i].tolist() == np.diagonal(H, 2).tolist()
                    == np.diagonal(H, -2).tolist() == band)
            rest = H.copy()
            for d in (0, 2, -2):
                rest -= np.diag(np.diagonal(H, d), d)
            assert not rest.any()


@given(j=st.integers(1, 40),
       couplings=st.tuples(*[st.floats(-1e300, 1e300)] * 3).filter(
           lambda c: c[0] != 0))
@settings(max_examples=200)
def test_band_max_row_sum_is_the_dense_row_sum(j, couplings):
    # the band sum (|H_kk| + |H_k,k-2|) + |H_k,k+2| against numpy's
    # pairwise sum of the dense rows: two roundings of non-negative terms
    # each, so within two ulps wherever both are finite
    eps, lam, gam = couplings
    h = build_hamiltonian(ModelParams(j=j, eps=eps, lam=lam, gam=gam))
    with np.errstate(over="ignore", invalid="ignore"):
        diag, off = spin.hamiltonian_bands(j, eps, lam, gam)
        band = float(spin.max_row_sum(diag, off)[0])
        dense = float(np.abs(h.matrix).sum(-1).max(-1))
    if math.isfinite(band) and math.isfinite(dense):
        assert abs(band - dense) <= 2 * np.spacing(max(band, dense))


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


def _two_block_reference(h, norm, index):
    """The flag of the state of rank index of each H of a stack, both
    parity blocks solved by np.linalg.eigh and ranked by rank_states, and
    per sector (offset, rows, columns, energies): the rows whose state
    lies in it, with their vectors and energies."""
    solved = [np.linalg.eigh(h[:, offset::2, offset::2]) for offset in (0, 1)]
    sector, col, flag = (r[:, index] for r in spin.rank_states(
        [w for w, _ in solved], spin.DEGENERACY_RTOL * norm[:, None]))
    parts = []
    for offset, (w, v) in enumerate(solved):
        rows = [i for i in range(len(h)) if sector[i] == offset]
        parts.append((offset, np.array(rows, dtype=int),
                      np.array([v[i, :, col[i]] for i in rows]).reshape(
                          len(rows), w.shape[1]),
                      np.array([w[i, col[i]] for i in rows])))
    return flag, parts


def _points(flag, parts):
    """The flag array of a parity_eigenstates result, and per point the
    sector it lies in and the vector and energy bytes, read off the parts
    (the vector and energy name the column)."""
    found = {}
    for offset, rows, columns, energies in parts:
        assert len(columns) == len(energies) == len(rows)
        for i, column, energy in zip(rows.tolist(), columns, energies):
            assert i not in found
            found[i] = (offset, column.dtype, column.tobytes(), energy.dtype,
                        energy.tobytes())
    assert sorted(found) == list(range(len(flag)))
    return (flag.dtype, flag.tobytes()), found


# gx ranges of the lines: gx + gy = 10, the diagonal gx = gy (lam = 0),
# and its stretch gx = gy < 0, where even and odd levels cross
_LINES = {"c10": (0.05, 9.95), "diagonal": (-9.95, 9.95),
          "crossings": (-9.95, -0.05)}


@given(j=st.sampled_from(list(range(1, 13)) + [20, 40]),
       rank=st.sampled_from(["0", "1", "j", "2j"]),
       line=st.sampled_from(sorted(_LINES)),
       ends=st.tuples(st.floats(0, 1), st.floats(0, 1)),
       extra=st.integers(0, 64), scale=st.sampled_from([1.0, 1e300]))
@settings(max_examples=60, deadline=None)
def test_one_block_solve_is_the_two_block_solve(j, rank, line, ends, extra,
                                                scale):
    # every point of a stack of at least ONE_BLOCK_MIN_ROWS rows (points
    # times 2j+1) gets the sector, column, flag and the energy and vector
    # bits of the two-block solve, whether its one block is certified or not
    index = {"0": 0, "1": 1, "j": j, "2j": 2 * j}[rank]
    lo, hi = _LINES[line]
    points = -(-spin.ONE_BLOCK_MIN_ROWS // (2 * j + 1)) + extra
    gx = lo + (hi - lo) * np.linspace(*ends, points)
    gy = 10.0 - gx if line == "c10" else gx
    lam, gam = spin.couplings(j, gx * scale, gy * scale)
    diag, off = spin.hamiltonian_bands(j, 1.0, lam, gam)
    norm = spin.max_row_sum(diag, off)
    dense = np.stack([build_hamiltonian(ModelParams(j=j, lam=a, gam=b)).matrix
                      for a, b in zip(lam.tolist(), gam.tolist())])
    assert _points(*spin.parity_eigenstates(diag, off, norm, index)) == (
        _points(*_two_block_reference(dense, norm, index)))


# points of 300 on each line that take the two-block completion, per j,
# for states 0, 1, 5, j and 2j: the counts of a search of every candidate
# column, so the one predicted column certifies every point it did
_COMPLETED = {
    "c10": {4: [0, 0, 22, 32, 26], 10: [0, 0, 104, 84, 132],
            20: [0, 0, 0, 86, 250], 40: [0, 0, 0, 148, 288]},
    "diagonal": dict.fromkeys((4, 10, 20, 40), [0] * 5),
    "crossings": dict.fromkeys((4, 10, 20, 40), [0] * 5),
}


@pytest.mark.parametrize("line", sorted(_LINES))
@pytest.mark.parametrize("j", [4, 10, 20, 40])
def test_one_block_solve_completes_as_many_points(monkeypatch, line, j):
    completed = []

    def counted(diag, *args):
        completed.append(len(diag))
        return two_block(diag, *args)

    two_block = spin.solve_blocks
    monkeypatch.setattr(spin, "solve_blocks", counted)
    gx = np.linspace(*_LINES[line], 300)
    lam, gam = spin.couplings(j, gx, 10.0 - gx if line == "c10" else gx)
    diag, off = spin.hamiltonian_bands(j, 1.0, lam, gam)
    counts = []
    for index in (0, 1, 5, j, 2 * j):
        completed.clear()
        spin.parity_eigenstates(diag, off, spin.max_row_sum(diag, off), index)
        counts.append(sum(completed))
    assert counts == _COMPLETED[line][j]


def test_sturm_counts_are_eigenvalue_counts():
    # random tridiagonals at three scales, some with zero off-diagonals;
    # wherever x is clear of the eigenvalues by parity_eigenstates' window
    # 4*delta, delta = EIGENVALUE_ERROR_C * n * eps * |T|, the count is
    # the number of eigvalsh values below it
    rng = np.random.default_rng(5)
    checked = 0
    for scale in (1e-300, 1.0, 1e300):
        for n in (1, 2, 5, 11):
            diag = scale * rng.standard_normal((40, n))
            off = scale * rng.standard_normal((40, n - 1))
            off[::3] = 0.0
            off[1::3, ::2] = 0.0
            x = scale * 3.0 * rng.standard_normal((40, 7))
            full = (np.apply_along_axis(np.diag, 1, diag)
                    + np.apply_along_axis(np.diag, 1, off, 1)
                    + np.apply_along_axis(np.diag, 1, off, -1))
            values = np.linalg.eigvalsh(full)
            size = np.abs(full).sum(axis=2).max(axis=1)
            delta = spin.EIGENVALUE_ERROR_C * n * np.finfo(float).eps * size
            clear = (np.abs(x[:, :, None] - values[:, None, :]).min(axis=2)
                     > 4.0 * delta[:, None])
            counts = spin._sturm_counts(diag, off, x)
            below = (values[:, None, :] < x[:, :, None]).sum(axis=2)
            assert (counts[clear] == below[clear]).all()
            checked += clear.sum()
    assert checked > 3000


def test_sturm_counts_take_zero_pivots_without_warnings():
    import warnings
    # d_2 = 1 - 1/1 is exactly zero at x = 0, and T has one eigenvalue
    # below 0 (det T = -1, trace 5); diag(0, 1) with a zero off-diagonal
    # has a zero pivot beside a zero numerator (x = 0 is an eigenvalue,
    # so only the absence of warnings is checked); and a row of zeros
    diag = np.array([[1.0, 1.0, 3.0], [0.0, 1.0, 5.0], [0.0, 0.0, 0.0]])
    off = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = spin._sturm_counts(diag, off, np.zeros((3, 1)))
        spin._sturm_counts(diag, off, np.full((3, 1), np.nan))
    assert counts[0, 0] == 1
    assert (np.linalg.eigvalsh(np.diag(diag[0]) + np.diag(off[0], 1)
                               + np.diag(off[0], -1)) < 0).sum() == 1
