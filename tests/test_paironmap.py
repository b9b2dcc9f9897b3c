import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import linear_sum_assignment

from pairons import (DegenerateStateError, ModelParams, PaironSet,
                     PaironsError, StateVector, UnpairedZeroError,
                     build_hamiltonian, chordal_distance, diagonalize,
                     eigen_residual, extract_pairons, fidelity,
                     majorana_poly, pairon_from_u, pairons_from_state,
                     pairons_to_zeros, poly_roots, reconstruct_state,
                     u_from_pairon)
from pairons import phasespace
from pairons.paironmap import _reconstruct_stack, extract_stack


def test_extraction_builds_two_state_vectors(monkeypatch):
    # the requested eigenvector and the reconstruction, not all 2j+1
    made = []
    post_init = StateVector.__post_init__

    def counting(self):
        made.append(self.j)
        post_init(self)

    monkeypatch.setattr(StateVector, "__post_init__", counting)
    extract_pairons(ModelParams.from_gammas(10, 2.0, 8.0), state_index=4)
    assert made == [10, 10]


def test_map_fixed_points():
    # zeta = infinity <-> e = -t, zeta = 0 <-> e = +t
    t = 0.7
    assert u_from_pairon(-t, t) is None
    assert u_from_pairon(t, t) == 0.0
    assert pairon_from_u(0.0, t) == t


@given(st.complex_numbers(max_magnitude=50, allow_nan=False,
                          allow_infinity=False),
       st.floats(0.05, 20.0))
@settings(max_examples=200)
def test_map_is_involutive(u, t):
    e = pairon_from_u(u, t)
    if e is None or abs(1.0 + u) < 1e-9:
        return
    back = u_from_pairon(e, t)
    assert back is not None
    assert abs(back - u) < 1e-6 * max(1.0, abs(u) ** 2)


def test_all_infinity_zeros_give_minus_t():
    # |2,-2>: all four zeros at the pole (u = infinity twice), both at -t
    ps, residual = pairons_from_state(StateVector.dicke(2, -2), 0.7)
    assert ps.nu == 0
    assert ps.energies == (-0.7, -0.7)
    assert residual == 0.0


def test_all_origin_zeros_give_plus_t():
    # |2,2>: all four zeros at the origin (u = 0 twice), both at +t
    ps, _ = pairons_from_state(StateVector.dicke(2, 2), 0.7)
    assert ps.nu == 0
    assert ps.energies == (0.7, 0.7)


def test_seniority_from_odd_pole_multiplicities():
    # odd parity: one zero at the origin and one at infinity are the
    # unpaired particle, and |1,0> has nothing else
    ps, _ = pairons_from_state(StateVector.dicke(1, 0), 1.3)
    assert ps.nu == 1
    assert ps.energies == ()


def test_unpaired_zero_rejected():
    # mixed parity: the zeros do not close under zeta -> -zeta
    mixed = StateVector(j=1, coeffs=np.array([0.6, 0.8, 0.0]))
    with pytest.raises(UnpairedZeroError):
        pairons_from_state(mixed, 1.0)


def test_j1_ground_pairon_frozen():
    # j=1, gx=1, gy=-1: even block [[-1,1],[1,1]], ground energy -sqrt(2)
    params = ModelParams.from_gammas(1, 1.0, -1.0)
    ps, diag = extract_pairons(params, state_index=0)
    assert len(ps.energies) == 1
    assert_allclose(ps.energies[0], 1.0 - math.sqrt(2.0), atol=1e-12)
    assert diag.reconstruction_fidelity > 1.0 - 1e-12


def test_extract_reconstruct_fidelity(rng):
    cases = [(4, 2.0, 8.0, 0), (6, 3.5, 6.5, 0), (5, 1.0, 9.0, 2),
             (7, 4.0, 6.0, 1), (10, 2.0, 8.0, 4)]
    for j, gx, gy, idx in cases:
        params = ModelParams.from_gammas(j, gx, gy)
        h = build_hamiltonian(params)
        ps, diag = extract_pairons(params, state_index=idx)
        rec = reconstruct_state(ps)
        assert diag.reconstruction_fidelity > 1.0 - 1e-10
        assert eigen_residual(h, rec) < 1e-8
        assert fidelity(rec, diagonalize(h)[idx].state) > 1.0 - 1e-10


def test_pairons_to_zeros_roundtrip():
    params = ModelParams.from_gammas(5, 3.0, 7.0)
    ps, _ = extract_pairons(params, state_index=0)
    zs = pairons_to_zeros(ps)
    assert zs.total_multiplicity == 10
    back, _ = pairons_from_state(reconstruct_state(ps), ps.t)
    # matched by nearest neighbour: a (real, imag) sort mis-pairs a
    # conjugate pair whose real parts are exact on one side only
    a = np.array(ps.energies)
    b = np.array(back.energies)
    rows, cols = linear_sum_assignment(np.abs(a[:, None] - b[None, :]))
    assert_allclose(a[rows], b[cols], atol=1e-9)


@pytest.mark.parametrize("gx", [3.74102, 6.164669])
def test_j40_state_19_verifies(gx):
    # without the variable scaling the companion roots come within reach
    # of the 1e6 eps residual bound or miss it: 1.2e6 and 1.5e6 eps in
    # complex arithmetic, 2.3e5 and 1.4e6 eps in real; scaled, below 30
    params = ModelParams.from_gammas(40, gx, 10.0 - gx)
    ps, diag = extract_pairons(params, state_index=19)
    assert diag.max_root_residual <= 1e-13
    assert diag.reconstruction_fidelity >= 1.0 - 1e-8
    assert diag.reconstruction_residual <= 1e-8


def test_pairons_of_an_eigenstate_come_in_exact_conjugate_pairs():
    params = ModelParams.from_gammas(10, 3.0, 7.0)
    ps, _ = extract_pairons(params, state_index=0)
    energies = list(ps.energies)
    assert any(e.imag != 0 for e in energies)
    assert sorted(energies, key=lambda e: (e.real, e.imag)) == sorted(
        (e.conjugate() for e in energies), key=lambda e: (e.real, e.imag))
    assert ps.conjugation_defect() == 0.0


@given(st.integers(1, 12), st.floats(0.05, 9.95), st.data())
@settings(max_examples=60)
def test_pairon_zeros_match_poly_roots(j, gx, data):
    # the pairon path and the public zero finder see the same zeros
    params = ModelParams.from_gammas(j, gx, 10.0 - gx)
    idx = data.draw(st.integers(0, 2 * j))
    state = diagonalize(build_hamiltonian(params))[idx].state
    ps, _ = pairons_from_state(state, params.t)
    mine = pairons_to_zeros(ps).expand()
    ref = poly_roots(majorana_poly(state)).expand()
    assert len(mine) == len(ref) == 2 * j
    cost = np.array([[chordal_distance(a, b) for b in ref] for a in mine])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= 1e-8


def test_reconstruct_near_minus_t_concentrates_on_lowest_dicke():
    # every pairon at -t + delta: the (a+ a+)^j term dominates, so the
    # state approaches |j,-j> as delta -> 0
    t, j = 0.8, 2
    for delta in (1e-6, 1e-9):
        ps = PaironSet(j=j, nu=0, energies=(-t + delta, -t + delta), t=t,
                       flags=())
        rec = reconstruct_state(ps)
        assert abs(rec.coefficient(-j)) > 1.0 - 10.0 * delta


def test_degenerate_state_refused():
    params = ModelParams(j=2, eps=1.0, lam=0.0, gam=-0.5)
    with pytest.raises(DegenerateStateError):
        extract_pairons(params, state_index=1)
    ps, _ = extract_pairons(params, state_index=1, allow_degenerate=True)
    assert len(ps.energies) + ps.nu <= 2


def test_conjugation_structure_in_spherical_phase():
    # weak coupling: pairons form complex-conjugate pairs
    params = ModelParams.from_gammas(6, 0.3, 0.5)
    ps, _ = extract_pairons(params, state_index=0)
    assert ps.conjugation_defect() < 1e-8


def test_real_state_pairons_conjugation_closed():
    # a real ground state forces the pairon multiset to be closed under
    # conjugation; at (3, 7) it splits into 4 conjugate pairs + 2 reals
    params = ModelParams.from_gammas(10, 3.0, 7.0)
    ps, _ = extract_pairons(params, state_index=0)
    worst = max(min(abs(e.conjugate() - f) for f in ps.energies)
                for e in ps.energies)
    assert worst < 1e-9
    assert sum(1 for e in ps.energies if abs(e.imag) > 1e-3) == 8
    assert sum(1 for e in ps.energies if abs(e.imag) <= 1e-9) == 2


def test_diagnostics_fields():
    params = ModelParams.from_gammas(4, 2.0, 8.0)
    ps, diag = extract_pairons(params, state_index=0)
    assert diag.t == pytest.approx(params.t)
    assert diag.state_index == 0
    assert diag.max_root_residual < 1e-9
    assert diag.max_pairing_defect < 1e-9
    assert diag.reconstruction_residual < 1e-10


def test_explicit_t_overrides():
    params = ModelParams.from_gammas(3, 2.0, 8.0)
    ps, _ = extract_pairons(params)
    with pytest.raises(ValueError):
        reconstruct_state(ps, t=-1.0)
    zs = pairons_to_zeros(ps, t=ps.t)
    assert zs.total_multiplicity == 6


def test_large_j_log_path():
    # binomial weights overflow double precision well before j = 80;
    # reconstruction must survive through log-magnitude bookkeeping
    params = ModelParams.from_gammas(80, 3.0, 7.0)
    ps, diag = extract_pairons(params, state_index=0)
    assert diag.reconstruction_fidelity > 1.0 - 1e-8


def _bits(value):
    """An exact fingerprint: floats by their hex form, so -0.0 != 0.0,
    exceptions by type and message, dataclasses field by field."""
    if isinstance(value, Exception):
        return type(value).__name__, str(value)
    if isinstance(value, float):
        return "float", value.hex()
    if isinstance(value, complex):
        return "complex", value.real.hex(), value.imag.hex()
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(
            (f.name, _bits(getattr(value, f.name)))
            for f in dataclasses.fields(value))
    return type(value).__name__, value


def _alone(params, state_index):
    try:
        return extract_pairons(params, state_index)
    except (PaironsError, ValueError) as exc:
        return exc


@pytest.mark.parametrize("j, state_index, gx, line", [
    (10, 0, np.linspace(0.05, 9.95, 200), "sum"),
    (7, 3, np.linspace(0.05, 9.95, 100), "sum"),
    (10, 0, np.linspace(-9.95, -0.05, 50), "diagonal"),
    (40, 0, np.linspace(0.05, 9.95, 40), "sum"),
], ids=["c10-j10", "both-seniorities-j7", "dicke-diagonal-j10",
        "core-lengths-j40"])
def test_stacked_extraction_is_extract_pairons_bitwise(monkeypatch, j,
                                                       state_index, gx,
                                                       line):
    gy = 10.0 - gx if line == "sum" else gx
    params = [ModelParams.from_gammas(j, a, b)
              for a, b in zip(gx.tolist(), gy.tolist())]
    solve, cores = phasespace._solve_cores, []

    def spy(c):
        cores.append(c.shape)
        return solve(c)

    monkeypatch.setattr(phasespace, "_solve_cores", spy)
    stacked = extract_stack(j, 1.0, [p.lam for p in params],
                            [p.gam for p in params], state_index)
    stacked_cores = cores[:]
    assert len(stacked) == len(params)
    for p, result in zip(params, stacked):
        assert _bits(result) == _bits(_alone(p, state_index))
    sets = [r[0] for r in stacked]
    if j == 7:
        assert {ps.nu for ps in sets} == {0, 1}
    if line == "diagonal":  # structural cuts: every pairon at +-t
        assert all(abs(e) == ps.t for ps in sets for e in ps.energies)
    if j == 40:
        assert len({length for _, length in stacked_cores}) > 3


def test_stacked_extraction_refuses_as_alone():
    # singular loci, a state degenerate within its sector (j = 3,
    # lam = 0, gx = 1.25) and regular points, in one stack
    j, state_index = 3, 4
    params = ([ModelParams(j=j, eps=1.0, lam=0.1, gam=-0.1),  # gx = 0
               ModelParams(j=j, eps=1.0, lam=0.1, gam=0.1)]  # gy = 0
              + [ModelParams.from_gammas(j, g, g) for g in (1.0, 1.25)]
              + [ModelParams.from_gammas(j, g, 10.0 - g) for g in (2.0, 7.0)])
    stacked = extract_stack(j, 1.0, [p.lam for p in params],
                            [p.gam for p in params], state_index)
    assert [type(r).__name__ for r in stacked[:4]] == [
        "SingularParameterError", "SingularParameterError", "tuple",
        "DegenerateStateError"]
    for p, result in zip(params, stacked):
        assert _bits(result) == _bits(_alone(p, state_index))
    with pytest.raises(ValueError, match="out of range"):
        extract_pairons(params[2], state_index=7)
    assert all(isinstance(r, ValueError) for r in extract_stack(
        j, 1.0, [p.lam for p in params[2:]], [p.gam for p in params[2:]], 7))


def _reconstruct_reference(pairons):
    """reconstruct_state as a loop over one pairon set, in scalar steps."""
    t, m_pairs, nu, j = pairons.t, pairons.m_pairs, pairons.nu, pairons.j
    sigma = np.zeros(m_pairs + 1, dtype=complex)
    sigma[0] = 1.0
    for top, e in enumerate(pairons.energies):
        new = np.zeros_like(sigma)
        new[:top + 1] += (e - t) * sigma[:top + 1]
        new[1:top + 2] += (e + t) * sigma[:top + 1]
        sigma = new / np.max(np.abs(new[:top + 2]))
    logs = np.full(m_pairs + 1, -np.inf)
    for s, x in enumerate(sigma):
        if x != 0:
            logs[s] = math.log(abs(x)) + 0.5 * (
                math.lgamma(2 * (m_pairs - s) + nu + 1)
                + math.lgamma(2 * s + nu + 1))
    coeffs = np.zeros(2 * j + 1, dtype=complex)
    for s, x in enumerate(sigma):
        if x != 0:
            coeffs[2 * s + nu] = (x / abs(x)) * math.exp(logs[s] - max(logs))
    return StateVector(j=j, coeffs=coeffs)


@pytest.mark.parametrize("j, gx", [
    (8, np.linspace(0.3, 9.7, 30)), (7, np.linspace(0.3, 9.7, 30)),
    (40, np.array([0.5, 2.0, 6.5]))], ids=["j8", "j7", "j40"])
def test_stacked_reconstruction_is_the_loop_bitwise(j, gx):
    params = [ModelParams.from_gammas(j, g, 10.0 - g) for g in gx.tolist()]
    sets = [r[0] for r in extract_stack(j, 1.0, [p.lam for p in params],
                                        [p.gam for p in params], 1)]
    by_nu = {}
    for ps in sets:
        by_nu.setdefault(ps.nu, []).append(ps)
    for nu, group in by_nu.items():
        energies = np.array([ps.energies for ps in group], dtype=complex)
        stacked = _reconstruct_stack(j, nu, energies,
                                     np.array([ps.t for ps in group]))
        for ps, state in zip(group, stacked):
            ref = _reconstruct_reference(ps).coeffs.tobytes()
            assert state.coeffs.tobytes() == ref
            assert reconstruct_state(ps).coeffs.tobytes() == ref


def test_reconstruction_of_arbitrary_pairons_is_the_loop_bitwise(rng):
    # complex energies off any conjugation symmetry make every sigma_s
    # complex, where numpy's abs, log and exp differ from hypot and
    # math's in the last bit on some inputs
    for nu in (0, 1):
        energies = (rng.normal(size=(200, 12 - nu))
                    + 1j * rng.normal(size=(200, 12 - nu)))
        t = rng.uniform(0.2, 5.0, 200)
        stacked = _reconstruct_stack(12, nu, energies, t)
        for e, ti, state in zip(energies, t.tolist(), stacked):
            ps = PaironSet(j=12, nu=nu, energies=tuple(e.tolist()), t=ti)
            ref = _reconstruct_reference(ps).coeffs.tobytes()
            assert state.coeffs.tobytes() == ref
