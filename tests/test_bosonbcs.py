import math
import warnings
from collections import Counter
from itertools import combinations_with_replacement

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pairons import (BosonModel, BosonState, DegenerateStateError,
                     InconsistentPaironsError, boson_eigenstate,
                     boson_eigenstates, boson_husimi_amplitude,
                     build_bcs_hamiltonian, ellipsoid_axes,
                     extract_boson_pairons, fidelity, fock_basis,
                     reconstruct_boson_state, verify_ellipsoid)
from pairons.bosonbcs import (_ranked_spectrum, _ranked_state, _richardson,
                              _sectors, axis_slice_coefficients)
from pairons.spin import DEGENERACY_RTOL, EIGENVALUE_ERROR_C
from conftest import pair_hamiltonian

# small models for the bit-identity checks: both signs of gamma, an odd
# boson number, equal levels
SMALL_MODELS = [((0.0, 0.5, 1.0), 0.5, 6), ((0.0, 0.5, 1.0), -0.5, 6),
                ((0.0, 0.5, 1.0, 1.5), 0.5, 7), ((0.0, 0.7), -0.4, 5),
                ((0.0, 0.0, 1.0), 0.3, 5), ((0.25, 0.25, 0.25), -0.5, 4)]
# ... plus a larger model and a single boson
SECTOR_MODELS = SMALL_MODELS + [((0.0, 0.5, 1.0, 1.5), -0.5, 12),
                                ((-1.3, 0.2, 0.9), 0.8, 1)]


def _states(model):
    """Every state of model in rank order, from one ranking."""
    return list(boson_eigenstates(model))


def test_fock_basis_counts():
    assert len(fock_basis(2, 2)) == 3
    assert len(fock_basis(3, 6)) == 28  # C(8,2)
    assert len(fock_basis(4, 5)) == 56
    # deterministic ordering, no duplicates
    b = fock_basis(3, 4)
    assert b == sorted(b)
    assert all(sum(occ) == 4 for occ in b)


def _reference_fock_basis(n_levels, n_bosons):
    """Occupation tuples of the multisets of n_bosons levels, sorted."""
    return sorted(tuple(combo.count(l) for l in range(n_levels))
                  for combo in combinations_with_replacement(range(n_levels),
                                                             n_bosons))


@pytest.mark.parametrize("n_bosons", [1, 5, 12])
@pytest.mark.parametrize("n_levels", [2, 3, 4, 6])
def test_fock_basis_matches_itertools(n_levels, n_bosons):
    ref = _reference_fock_basis(n_levels, n_bosons)
    assert fock_basis(n_levels, n_bosons) == ref
    model = BosonModel(levels=tuple(0.5 * l for l in range(n_levels)),
                       gamma=0.3, n_bosons=n_bosons)
    assert model.occupations.tolist() == [list(occ) for occ in ref]
    assert not model.occupations.flags.writeable
    assert model.basis == tuple(ref)
    assert len(model.basis) == model.dim == math.comb(
        n_bosons + n_levels - 1, n_levels - 1)


def test_one_state_path_leaves_the_basis_unbuilt():
    # the tuple basis is built on first use only; the command path of
    # `bcs pairons` reads none of it
    model = BosonModel(levels=(0.0, 0.5, 1.0, 1.5), gamma=0.5, n_bosons=10)
    state = boson_eigenstate(model, 3)
    ps = extract_boson_pairons(state)
    rec = reconstruct_boson_state(model, ps.seniority, ps.energies)
    assert fidelity(state, rec) > 1.0 - 1e-8
    assert "basis" not in vars(model)
    assert state.basis is model.basis and rec.basis is model.basis


def test_two_level_matrix_frozen():
    gamma = 0.8
    model = BosonModel(levels=(0.0, 1.0), gamma=gamma, n_bosons=2)
    h, basis = build_bcs_hamiltonian(model)
    assert basis == [(0, 2), (1, 1), (2, 0)]
    # seniority-zero block {(2,0),(0,2)} plus the isolated (1,1)
    expect = np.array([
        [2.0 + gamma / 2, 0.0, gamma / 2],
        [0.0, 1.0, 0.0],
        [gamma / 2, 0.0, gamma / 2],
    ])
    assert_allclose(h, expect, atol=1e-15)


def test_matches_operator_oracle():
    for levels, gamma, n in [((0.0, 0.7), -0.4, 4), ((0.0, 0.5, 1.0), 0.6, 5),
                             ((0.1, 0.4, 0.9, 1.3), 0.25, 4)]:
        model = BosonModel(levels=levels, gamma=gamma, n_bosons=n)
        h, basis = build_bcs_hamiltonian(model)
        assert_allclose(h, pair_hamiltonian(levels, gamma, basis), atol=1e-12)


def _reference_hamiltonian(model):
    """H element by element from the model's definition.

    The diagonal is sum_l eps_l n_l, then + (g4 n_l)(n_l - 1) for each
    level in turn; a pair hop l -> k from occ is
    (g4 sqrt(n_l (n_l - 1))) sqrt((n_k + 1)(n_k + 2)), g4 = gamma/4.
    """
    basis = fock_basis(model.n_levels, model.n_bosons)
    index = {occ: i for i, occ in enumerate(basis)}
    g4 = model.gamma / 4.0
    h = np.zeros((len(basis), len(basis)))
    for i, occ in enumerate(basis):
        diag = 0.0
        for e, n in zip(model.levels, occ):
            diag += e * n
        for n in occ:
            if n >= 2:
                diag += g4 * n * (n - 1)
        h[i, i] = diag
        for l, n_l in enumerate(occ):
            if n_l < 2:
                continue
            for k, n_k in enumerate(occ):
                if k == l:
                    continue
                target = list(occ)
                target[l] -= 2
                target[k] += 2
                h[index[tuple(target)], i] = (
                    g4 * math.sqrt(n_l * (n_l - 1))
                    * math.sqrt((n_k + 1) * (n_k + 2)))
    return h


@pytest.mark.parametrize("levels, gamma, n", SECTOR_MODELS)
def test_sector_blocks_bitwise(levels, gamma, n):
    model = BosonModel(levels=levels, gamma=gamma, n_bosons=n)
    ref = _reference_hamiltonian(model)
    blocks = _sectors(model)[0]
    seniorities = [nu for nu, _, _ in blocks]
    assert seniorities == sorted(set(seniorities))
    rows = np.concatenate([idx for _, idx, _ in blocks])
    assert sorted(rows) == list(range(len(ref)))
    for nu, idx, block in blocks:
        assert list(idx) == sorted(idx)
        assert all(tuple(o % 2 for o in model.basis[i]) == nu for i in idx)
        assert block.tobytes() == ref[np.ix_(idx, idx)].tobytes()
    h, basis = build_bcs_hamiltonian(model)
    assert basis == fock_basis(model.n_levels, model.n_bosons)
    assert h.tobytes() == ref.tobytes()


def test_sectors_of_many_levels():
    # 64 levels: a seniority no longer fits the bits of one int64
    model = BosonModel(levels=tuple(0.1 * l for l in range(64)), gamma=0.3,
                       n_bosons=2)
    blocks = _sectors(model)[0]
    seniorities = [nu for nu, _, _ in blocks]
    assert seniorities == sorted(set(seniorities))
    assert len(blocks) == 1 + math.comb(64, 2)
    rows = np.concatenate([idx for _, idx, _ in blocks])
    assert sorted(rows) == list(range(model.dim))
    for nu, idx, _ in blocks:
        assert all(tuple(n % 2 for n in model.basis[i]) == nu for i in idx)


@pytest.mark.parametrize("levels, gamma, n", SECTOR_MODELS)
def test_sector_norm_is_max_row_sum(levels, gamma, n):
    # the max row sum of |H| that scales the eigenvalue error bound, as
    # it is computed block by block
    model = BosonModel(levels=levels, gamma=gamma, n_bosons=n)
    blocks, norm = _sectors(model)
    assert norm == max(float(np.max(np.sum(np.abs(block), axis=1)))
                       for _, _, block in blocks)


def _reference_weight(n_bosons, occ):
    """sqrt(N! / prod n_l!) as the per-row loops computed it."""
    n_fact = math.lgamma(n_bosons + 1)
    return math.exp(0.5 * (n_fact - sum(math.lgamma(n + 1) for n in occ)))


def _reference_axis_slice(state, axis):
    """axis_slice_coefficients as a loop over the basis rows."""
    model = state.model
    nu = state.seniority
    g = np.zeros(state.n_pairs + 1, dtype=complex)
    for c, occ in zip(state.coeffs, state.basis):
        if any(occ[l] != nu[l] for l in range(model.n_levels)
               if l not in (0, axis)):
            continue
        if occ[axis] < nu[axis] or (occ[axis] - nu[axis]) % 2:
            continue
        if occ[0] < nu[0] or (occ[0] - nu[0]) % 2:
            continue
        q = (occ[axis] - nu[axis]) // 2
        g[q] = np.conj(c) * _reference_weight(model.n_bosons, occ)
    return g


@pytest.mark.parametrize("levels, gamma, n", SECTOR_MODELS)
def test_weights_and_axis_slice_bitwise(levels, gamma, n):
    model = BosonModel(levels=levels, gamma=gamma, n_bosons=n)
    ref = np.array([_reference_weight(n, occ) for occ in model.basis])
    assert model.weights.tobytes() == ref.tobytes()
    for state in _states(model):
        for axis in range(1, model.n_levels):
            assert (axis_slice_coefficients(state, axis).tobytes()
                    == _reference_axis_slice(state, axis).tobytes())


def _reference_amplitude_terms(state, z):
    """Terms of the unnormalized coherent amplitude, one basis row at a
    time."""
    return np.array([
        np.conj(c) * _reference_weight(state.model.n_bosons, occ)
        * np.prod(z ** np.array(occ[1:]))
        for c, occ in zip(state.coeffs, state.basis)])


def test_husimi_amplitude_vanishes_on_quadrics():
    model = BosonModel(levels=(0.0, 0.5, 1.0), gamma=0.5, n_bosons=6)
    ground = boson_eigenstate(model, 0)
    rng = np.random.default_rng(5)
    pairons = extract_boson_pairons(ground).energies
    assert len(pairons) == 3
    for e in pairons:
        xi = np.sqrt(ellipsoid_axes(model, e).astype(complex))
        for _ in range(20):
            g = rng.normal(size=2) + 1j * rng.normal(size=2)
            z = xi * g / np.sqrt(np.sum(g * g))
            scale = np.sum(np.abs(_reference_amplitude_terms(ground, z)))
            norm = (1.0 + np.sum(np.abs(z) ** 2)) ** 3
            assert abs(boson_husimi_amplitude(ground, z)) * norm < 1e-9 * scale


def test_husimi_amplitude_matches_row_loop():
    model = BosonModel(levels=(0.0, 0.5, 1.0), gamma=0.5, n_bosons=6)
    ground = boson_eigenstate(model, 0)
    rng = np.random.default_rng(6)
    for _ in range(50):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        expect = (np.sum(_reference_amplitude_terms(ground, z))
                  / (1.0 + np.sum(np.abs(z) ** 2)) ** 3)
        got = boson_husimi_amplitude(ground, z)
        assert abs(got - expect) <= 1e-14 * abs(expect)
    with pytest.raises(ValueError, match="coordinates"):
        boson_husimi_amplitude(ground, np.zeros(3))


def _same_state(a, b):
    return (a.model == b.model and a.energy == b.energy
            and a.seniority == b.seniority and a.degenerate == b.degenerate
            and a.basis == b.basis
            and a.coeffs.tobytes() == b.coeffs.tobytes())


# ties between sectors: without coupling the energies are level sums
# shared by many sectors, exactly; a coupling of 1e-13 splits them by far
# less than boson_eigenstate's eigenvalue window
TIE_MODELS = [((0.0, 0.5, 1.0, 1.5), 0.0, 8), ((0.25, 0.25, 0.25), 0.0, 6),
              ((0.0, 0.5, 1.0, 1.5), 1e-13, 8)]


def _sector_eigh(model):
    """np.linalg.eigh of each seniority sector of the element-by-element
    H: {seniority: (rows, values, vectors)}, and the max row sum of |H|."""
    h = _reference_hamiltonian(model)
    rows = {}
    for i, occ in enumerate(model.basis):
        rows.setdefault(tuple(n % 2 for n in occ), []).append(i)
    return ({nu: (idx, *np.linalg.eigh(h[np.ix_(idx, idx)]))
             for nu, idx in rows.items()},
            float(np.max(np.sum(np.abs(h), axis=1))))


@pytest.mark.parametrize("levels, gamma, n", SMALL_MODELS + TIE_MODELS)
def test_boson_eigenstate_is_diagonalize_entry(levels, gamma, n):
    # every state against the eigh diagonalization of its sector: its
    # energy within the certified window c * m * eps * max(|H|, 1) of an
    # eigh value, the degenerate flag of that value's gaps, and its
    # vector, zero outside the sector, inside the eigh eigenspace of the
    # values in the window (|<x|v>| = 1 for a lone value)
    model = BosonModel(levels=levels, gamma=gamma, n_bosons=n)
    ref, norm = _sector_eigh(model)
    scale, eps = max(norm, 1.0), np.finfo(float).eps
    states = [boson_eigenstate(model, i) for i in range(model.dim)]
    assert all(_same_state(a, b) for a, b in zip(states, _states(model)))
    assert all(s.basis is model.basis for s in states)
    energies = [s.energy for s in states]
    assert energies == sorted(energies)
    assert Counter(s.seniority for s in states) == {
        nu: len(idx) for nu, (idx, _, _) in ref.items()}
    for st in states:
        idx, w, v = ref[st.seniority]
        near = np.abs(w - st.energy) <= (EIGENVALUE_ERROR_C * len(idx) * eps
                                         * scale)
        assert near.any()
        col = int(np.argmin(np.abs(w - st.energy)))
        gaps = np.diff(np.concatenate(([-math.inf], w, [math.inf])))
        assert st.degenerate == bool(
            min(gaps[col], gaps[col + 1]) < DEGENERACY_RTOL * scale)
        outside = np.ones(model.dim, dtype=bool)
        outside[idx] = False
        assert not np.any(st.coeffs[outside])
        overlap = np.linalg.norm(v[:, near].T @ st.coeffs[idx])
        assert overlap == pytest.approx(1.0, abs=1e-8)
    for bad in (-1, model.dim):
        with pytest.raises(ValueError, match="out of range"):
            boson_eigenstate(model, bad)


@pytest.mark.parametrize("gamma", [0.5, -0.5])
def test_boson_eigenstate_solves_few_sectors(monkeypatch, gamma):
    # N=20 on four levels: 1771 states in 8 sectors of up to 286 rows;
    # one eigvalsh per sector ranks them, and no sector gets eigh vectors
    model = BosonModel(levels=(0.0, 0.5, 1.0, 1.5), gamma=gamma, n_bosons=20)
    spectrum = _ranked_spectrum(model)
    states = [_ranked_state(model, spectrum, s) for s in range(20)]
    sizes = [len(idx) for _, idx, _ in spectrum[0]]
    calls = {"eigh": [], "eigvalsh": []}

    def counted(name):
        solver = getattr(np.linalg, name)

        def call(a, *args, **kwargs):
            calls[name].append(len(a))
            return solver(a, *args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    for s in range(20):
        for made in calls.values():
            made.clear()
        assert _same_state(boson_eigenstate(model, s), states[s])
        assert calls == {"eigh": [], "eigvalsh": sizes}


def test_boson_eigenstates_rank_once(monkeypatch):
    # a walk over any ranks runs one eigvalsh per sector, and builds each
    # state as boson_eigenstate builds it; a bad rank raises before any
    # solve
    model = BosonModel(levels=(0.0, 0.5, 1.0, 1.5), gamma=-0.5, n_bosons=8)
    ranks = [7, 0, 7, model.dim - 1]
    reference = [boson_eigenstate(model, s) for s in ranks]
    sizes = [len(idx) for _, idx, _ in _sectors(model)[0]]
    calls = []
    solver = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(len(a))
        return solver(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    states = list(boson_eigenstates(model, ranks))
    assert calls == sizes
    assert all(_same_state(a, b) for a, b in zip(states, reference))
    calls.clear()
    assert len(list(boson_eigenstates(model))) == model.dim
    assert calls == sizes
    calls.clear()
    with pytest.raises(ValueError, match="out of range"):
        next(boson_eigenstates(model, [0, model.dim]))
    assert calls == []


def test_zero_coupling_vectors_are_exact_basis_states():
    # at gamma = 0 H is diagonal: every eigenvector is one Fock state,
    # with the exact zeros that the slice and reconstruction rely on
    model = BosonModel(levels=(0.0, 0.5, 1.0, 1.5), gamma=0.0, n_bosons=8)
    states = _states(model)
    assert len(states) == model.dim == 165
    for st in states:
        (row,) = np.flatnonzero(st.coeffs)
        assert st.coeffs[row] == 1.0
        assert st.energy == sum(e * n for e, n in
                                zip(model.levels, model.basis[row]))


@pytest.mark.parametrize("gamma", [-0.1, 0.5, -0.5])
def test_eigenvector_residual_bound(gamma):
    # every state at N = 14: |H x - E x| within the certificate's bound
    # c * m * eps * max(|H|, 1), m the rows of the state's sector
    model = BosonModel(levels=(0.0, 0.5, 1.0, 1.5), gamma=gamma, n_bosons=14)
    h, _ = build_bcs_hamiltonian(model)
    blocks, norm = _sectors(model)
    size = {nu: len(idx) for nu, idx, _ in blocks}
    eps = np.finfo(float).eps
    for st in _states(model):
        assert np.linalg.norm(st.coeffs) == pytest.approx(1.0, abs=1e-15)
        residual = np.linalg.norm(h @ st.coeffs - st.energy * st.coeffs)
        assert residual <= (EIGENVALUE_ERROR_C * size[st.seniority] * eps
                            * max(norm, 1.0))


def test_spectrum_two_levels_frozen():
    model = BosonModel(levels=(0.0, 1.0), gamma=1.0, n_bosons=2)
    states = _states(model)
    assert_allclose([s.energy for s in states],
                    [(3 - math.sqrt(5)) / 2, 1.0, (3 + math.sqrt(5)) / 2],
                    rtol=1e-14)
    assert states[1].seniority == (1, 1)


def test_seniority_is_per_level_parity():
    model = BosonModel(levels=(0.0, 0.5, 1.0), gamma=0.3, n_bosons=5)
    for s in _states(model):
        live = [occ for c, occ in zip(s.coeffs, s.basis) if abs(c) > 1e-12]
        for occ in live:
            assert all((n - v) % 2 == 0 for n, v in zip(occ, s.seniority))
        assert sum(s.seniority) % 2 == s.model.n_bosons % 2


def test_sum_rule_random_models():
    for levels, gamma, n in [((0.0, 1.0), 0.9, 6), ((0.0, 0.3, 1.1), -0.7, 5),
                             ((0.2, 0.6, 1.0), 0.45, 6)]:
        model = BosonModel(levels=levels, gamma=gamma, n_bosons=n)
        for s in _states(model):
            if s.degenerate:
                continue
            ps = extract_boson_pairons(s)
            total = (sum(e * v for e, v in zip(levels, s.seniority))
                     + sum(ps.energies))
            assert ps.energy_sum == total.real
            assert abs(ps.energy_sum - s.energy) < 1e-8


def _reference_reconstruct(model, seniority, pairons):
    """reconstruct_boson_state's coefficients as a product over a dict of
    pair-count keys, one key and one level at a time."""
    levels = model.levels
    amp = {(0,) * model.n_levels: 1.0}
    for e in pairons:
        weights = []
        for l in range(model.n_levels):
            w = 1.0 + 0.0j
            for k in range(model.n_levels):
                if k != l:
                    w *= (2.0 * levels[k] - e)
            weights.append(w)
        new = {}
        for occ, val in amp.items():
            for l in range(model.n_levels):
                if weights[l] == 0:
                    continue
                key = list(occ)
                key[l] += 1
                key = tuple(key)
                new[key] = new.get(key, 0.0) + val * weights[l]
        scale = max(abs(v) for v in new.values())
        if scale == 0.0:
            raise ValueError("pairon product vanished; invalid pairon set")
        amp = {k: v / scale for k, v in new.items()}
    index = {occ: i for i, occ in enumerate(model.basis)}
    coeffs = np.zeros(len(model.basis), dtype=complex)
    for pair_counts, val in amp.items():
        occ = tuple(2 * p + s for p, s in zip(pair_counts, seniority))
        coeffs[index[occ]] += val * math.exp(
            0.5 * sum(math.lgamma(n + 1) for n in occ))
    coeffs /= np.linalg.norm(coeffs)
    return coeffs


DISTINCT_MODELS = [m for m in SECTOR_MODELS if len(set(m[0])) == len(m[0])]


@pytest.mark.parametrize("levels, gamma, n", DISTINCT_MODELS)
def test_reconstruction_is_reference_bitwise(levels, gamma, n):
    # the pairons of every state whose extraction succeeds
    model = BosonModel(levels=levels, gamma=gamma, n_bosons=n)
    exercised = 0
    for state in _states(model):
        try:
            ps = extract_boson_pairons(state)
        except (DegenerateStateError, ValueError):
            continue
        rec = reconstruct_boson_state(model, ps.seniority, ps.energies)
        ref = _reference_reconstruct(model, ps.seniority, ps.energies)
        assert rec.coeffs.tobytes() == ref.tobytes()
        exercised += 1
    assert exercised >= len(model.basis) // 2


@pytest.mark.parametrize("levels, n, seniority, pairons", [
    # two complex conjugate pairs and a real pairon
    ((0.0, 0.5, 1.0, 1.5), 11, (0, 1, 0, 0),
     (0.3 + 0.2j, 0.3 - 0.2j, 2.4, 1.7 + 0.05j, 1.7 - 0.05j)),
    # a pairon exactly at 2 eps_1: every weight but w_1 vanishes
    ((0.0, 0.5, 1.0), 6, (0, 0, 0), (1.0, 0.2 + 0.7j, 0.2 - 0.7j)),
    ((-0.5, 0.25, 1.0, 2.0, 3.5), 9, (1, 0, 0, 0, 0), (2.0, 0.5, 2.0, -1.0)),
])
def test_reconstruction_of_given_pairons_is_reference_bitwise(
        levels, n, seniority, pairons):
    model = BosonModel(levels=levels, gamma=0.5, n_bosons=n)
    rec = reconstruct_boson_state(model, seniority, pairons)
    ref = _reference_reconstruct(model, seniority, pairons)
    assert rec.coeffs.tobytes() == ref.tobytes()


def test_vanishing_pairon_product_is_refused():
    # levels 1 and 2 coincide and the pairon sits on their double: every
    # weight prod_{k != l} (2 eps_k - e) vanishes
    model = BosonModel(levels=(0.0, 0.5, 0.5), gamma=0.5, n_bosons=4)
    with pytest.raises(ValueError, match="pairon product vanished"):
        reconstruct_boson_state(model, (0, 0, 0), (0.3, 1.0))
    with pytest.raises(ValueError):
        _reference_reconstruct(model, (0, 0, 0), (0.3, 1.0))


@pytest.mark.parametrize("pairons", [
    (1e200, 0.3, 0.7), (math.nan, 0.3, 0.7), (5.6e102, 5.6e102, 0.7)])
def test_non_finite_pairon_product_is_refused(pairons):
    # a weight prod_{k != l} (2 eps_k - e) that overflows or is NaN, and
    # finite weights whose sums overflow, raise ValueError, without the
    # RuntimeWarnings of an all-NaN state (pytest makes them errors)
    model = BosonModel(levels=(0.0, 0.5, 1.0, 1.5), gamma=0.5, n_bosons=6)
    with pytest.raises(ValueError, match="pairon product is not finite"):
        reconstruct_boson_state(model, (0, 0, 0, 0), pairons)


def test_single_pair_reconstruction_weights():
    # M = 1: amplitude on (2,0) vs (0,2) goes like 1/(2 eps_l - e)
    model = BosonModel(levels=(0.0, 1.0), gamma=1.0, n_bosons=2)
    ground = boson_eigenstate(model, 0)
    e = extract_boson_pairons(ground).energies[0]
    rec = reconstruct_boson_state(model, (0, 0), (e,))
    amp = {occ: c for c, occ in zip(rec.coeffs, rec.basis)}
    ratio = amp[(2, 0)] / amp[(0, 2)]
    expect = (2 * model.levels[1] - e) / (2 * model.levels[0] - e)
    assert_allclose(ratio, expect, rtol=1e-10)
    assert fidelity(ground, rec) > 1.0 - 1e-12


def test_weak_coupling_pairons_near_level_doubles():
    model = BosonModel(levels=(0.0, 0.5, 1.0), gamma=1e-8, n_bosons=4)
    ground = boson_eigenstate(model, 0)
    ps = extract_boson_pairons(ground)
    assert_allclose(sorted(e.real for e in ps.energies), [0.0, 0.0],
                    atol=1e-6)
    assert max(abs(e.imag) for e in ps.energies) < 1e-6


def test_slice_axes_agree():
    model = BosonModel(levels=(0.0, 0.5, 1.0), gamma=-0.5, n_bosons=6)
    for s in _states(model):
        if s.degenerate:
            continue
        p1 = sorted(extract_boson_pairons(s, axis=1).energies,
                    key=lambda z: (z.real, z.imag))
        p2 = sorted(extract_boson_pairons(s, axis=2).energies,
                    key=lambda z: (z.real, z.imag))
        assert_allclose(p1, p2, atol=1e-8)


def test_seniority_states_sum_rule():
    # states with unpaired bosons on slice-relevant levels were once the
    # blind spot of the axis filter; pin them explicitly
    model = BosonModel(levels=(0.0, 0.5, 1.0), gamma=-0.5, n_bosons=6)
    states = _states(model)
    exercised = 0
    for s in states:
        if s.degenerate or sum(s.seniority) == 0:
            continue
        ps = extract_boson_pairons(s, axis=1)
        assert abs(ps.energy_sum - s.energy) < 1e-8
        rec = reconstruct_boson_state(model, ps.seniority, ps.energies)
        assert fidelity(s, rec) > 1.0 - 1e-8
        exercised += 1
    assert exercised >= 10


def test_ellipsoid_axes_formula():
    model = BosonModel(levels=(0.0, 0.5, 1.0), gamma=0.5, n_bosons=4)
    e = 0.3 + 0.2j
    xi2 = ellipsoid_axes(model, e)
    ec = np.conj(e)
    assert_allclose(xi2, [(1.0 - ec) / ec, (2.0 - ec) / ec], rtol=1e-14)


def test_ellipsoid_quadric_vanishes():
    model = BosonModel(levels=(0.0, 0.5, 1.0), gamma=0.5, n_bosons=6)
    ground = boson_eigenstate(model, 0)
    for e in extract_boson_pairons(ground).energies:
        assert verify_ellipsoid(ground, e, n_points=100, seed=3) < 1e-9


def test_wrong_pairon_fails_quadric():
    model = BosonModel(levels=(0.0, 0.5, 1.0), gamma=0.5, n_bosons=6)
    ground = boson_eigenstate(model, 0)
    assert verify_ellipsoid(ground, 0.123 + 0.456j, n_points=50) > 1e-3


def test_degenerate_levels_refused_for_extraction():
    model = BosonModel(levels=(0.5, 0.5), gamma=0.3, n_bosons=2)
    assert model.has_degenerate_levels
    ground = boson_eigenstate(model, 0)  # diagonalization itself is fine
    with pytest.raises(DegenerateStateError):
        extract_boson_pairons(ground)


def _pair_state(levels, coeffs, energy):
    """A hand-built seniority-zero state of two bosons at gamma = 0, where
    the slice pairons skip Newton: coeffs over fock_basis, normalized."""
    model = BosonModel(levels=levels, gamma=0.0, n_bosons=2)
    coeffs = np.asarray(coeffs, dtype=complex)
    return BosonState(model=model, energy=energy,
                      coeffs=coeffs / np.linalg.norm(coeffs),
                      seniority=(0,) * len(levels), degenerate=False)


# basis (0,2), (1,1), (2,0) on two levels; (0,0,2), (0,1,1), (0,2,0),
# (1,0,1), (1,1,0), (2,0,0) on three.  The slice of axis 1 reads
# g = (c_(2,0..), c_(0,2..)), whose root is w = -g_0/g_1
@pytest.mark.parametrize("levels, coeffs, energy, message", [
    # w = -1: the pairon is at infinity of the axis map
    ((0.0, 1.0), (1, 0, 1), 0.0, r"1 pairon\(s\) at infinity"),
    # w = -i: one pairon e = 1 - i, whose imaginary part nothing cancels
    ((0.0, 1.0), (1j, 0, 1), 0.0,
     r"imaginary parts of the pairon sum fail to cancel \(-1\.000e\+00\)"),
    # w = 1: e = 1, the pairon of this state, which claims E = 2
    ((0.0, 1.0), (1, 0, -1), 2.0,
     "pairon sum 1.0 disagrees with eigenvalue 2.0"),
    # w = 1: e = 0.5 sums to the claimed E, but its pair state puts
    # weight on (0,0,2), which the slice cannot see
    ((0.0, 0.5, 1.0), (0, 0, 1, 0, 0, -1), 0.5,
     "pairons unverified, fidelity loss 0.0267 "),
], ids=["pole", "residue", "sum", "fidelity"])
def test_extract_boson_pairons_refuses(levels, coeffs, energy, message):
    with pytest.raises(InconsistentPaironsError, match=message):
        extract_boson_pairons(_pair_state(levels, coeffs, energy))


def test_extract_boson_pairons_certifies_its_set():
    # the state of the "sum" refusal above, at its own energy
    ps = extract_boson_pairons(_pair_state((0.0, 1.0), (1, 0, -1), 1.0))
    assert ps.energies == (1.0,)
    assert ps.energy_sum == 1.0
    assert ps.reconstruction_fidelity == pytest.approx(1.0, abs=1e-15)


def test_n20_state_981_is_refused():
    # its slice roots start Newton too far from Richardson's solution: the
    # set summed to 315.247 against the eigenvalue 34.809 at one BLAS
    # thread, and its imaginary parts failed to cancel at two
    model = BosonModel(levels=(0.0, 0.5, 1.0, 1.5), gamma=0.5, n_bosons=20)
    with pytest.raises(InconsistentPaironsError):
        extract_boson_pairons(boson_eigenstate(model, 981))


def test_spin_state_pairons_via_two_level_slice():
    # the two-boson realization of a spin state (occupations (j-m, j+m))
    # with level energies (-t/2, +t/2) has the same pair content: slicing
    # it as a two-level boson state recovers exactly the spin pairons,
    # with no rescaling
    from pairons import ModelParams, build_hamiltonian, diagonalize, extract_pairons
    j = 3
    params = ModelParams.from_gammas(j, 2.0, 8.0)
    t = params.t
    ground = diagonalize(build_hamiltonian(params))[0]
    spin_ps, _ = extract_pairons(params, state_index=0)
    nu = 0 if ground.state.parity == "even" else 1
    model = BosonModel(levels=(-t / 2.0, t / 2.0), gamma=0.0, n_bosons=2 * j)
    # the energy the sum rule gives the spin pairons
    energy = (sum(e * nu for e in model.levels)
              + sum(spin_ps.energies).real)
    twin = BosonState(model=model, energy=energy,
                      coeffs=np.asarray(ground.state.coeffs)[::-1].copy(),
                      seniority=(nu, nu), degenerate=False)
    assert twin.basis == tuple(fock_basis(2, 2 * j))
    boson_ps = extract_boson_pairons(twin)
    a = sorted(spin_ps.energies, key=lambda z: (z.real, z.imag))
    b = sorted(boson_ps.energies, key=lambda z: (z.real, z.imag))
    assert_allclose(a, b, atol=1e-8)


# pairons of state 0 (seniority 0000) at levels 0,0.5,1,1.5, N=20,
# gamma=-0.5: mpmath findroot on Richardson's equations at 50 digits,
# max|F| = 2e-50; they sum to the eigenvalue within 4e-14
N20_GROUND_PAIRONS = [
    -15.44371621025612545404304, -11.39575142969017543049618,
    -8.460756654332292089096351, -6.170898846970240940534364,
    -4.344683907984169144600814, -2.88937292824935362744993,
    -1.752143646472304215765851, -0.9032393845672032279007587,
    -0.3302780628904074083987219, -0.03719579878776330200804094]


def test_n20_attractive_ground_state_pairons_frozen():
    model = BosonModel(levels=(0.0, 0.5, 1.0, 1.5), gamma=-0.5, n_bosons=20)
    ps = extract_boson_pairons(boson_eigenstate(model, 0))
    assert_allclose(ps.energies, N20_GROUND_PAIRONS, rtol=0, atol=1e-10)


def _richardson_residual(ps):
    """max_a |F_a| of Richardson's equations at the pairons of ps."""
    F, _ = _richardson(ps.model, ps.seniority, np.array(ps.energies))
    return float(np.max(np.abs(F)))


@pytest.mark.parametrize("gamma", [0.5, -0.5])
def test_richardson_equations_hold(gamma):
    # the states of acceptance criterion 7
    model = BosonModel(levels=(0.0, 0.5, 1.0), gamma=gamma, n_bosons=6)
    checked = 0
    for st in _states(model):
        if st.degenerate:
            continue
        assert _richardson_residual(extract_boson_pairons(st)) <= 1e-12
        checked += 1
    assert checked >= 20


def test_richardson_newton_fixes_the_attractive_sum_rule():
    # the slice roots alone miss the sum rule by 1e-7 or more (relative)
    # on these states
    model = BosonModel(levels=(0.0, 0.5, 1.0, 1.5), gamma=-0.5, n_bosons=20)
    for index in (0, 2, 8, 12):
        st = boson_eigenstate(model, index)
        ps = extract_boson_pairons(st)
        assert abs(ps.energy_sum - st.energy) <= 1e-12 * abs(st.energy)
        assert _richardson_residual(ps) <= 1e-10


def test_richardson_skipped_at_zero_coupling():
    # pairons sit on the level doubles: no Newton, no RuntimeWarning
    model = BosonModel(levels=(0.0, 0.5, 1.0), gamma=0.0, n_bosons=4)
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for st in _states(model):
            if not st.degenerate and np.any(axis_slice_coefficients(st, 1)):
                ps = extract_boson_pairons(st)
                assert ps.energy_sum == pytest.approx(st.energy, abs=1e-12)
                checked += 1
    assert checked >= 5
