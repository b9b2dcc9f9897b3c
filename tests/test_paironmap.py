import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import linear_sum_assignment

from pairons import (ConvergenceError, DegenerateStateError,
                     InconsistentPaironsError, ModelParams, PaironSet,
                     PaironsError, StateVector,
                     UnpairedZeroError, build_hamiltonian, chordal_distance,
                     diagonalize, eigen_residual, eigenpair, extract_pairons,
                     fidelity, majorana_poly, pairon_from_u,
                     pairons_from_state, pairons_to_zeros, poly_roots,
                     reconstruct_state, u_from_pairon)
from pairons import paironmap, phasespace, spin
from pairons.paironmap import _reconstruct_stack, extract_stack
from pairons.sphere import INFINITY
from conftest import RESIDUAL_BOUND, dense_residual, shift_one_pairon


def _conjugation_closed(energies):
    """Whether the sorted energies equal their sorted conjugates exactly."""
    def key(e):
        return e.real, e.imag
    return sorted(energies, key=key) == sorted(
        (e.conjugate() for e in energies), key=key)


def test_extraction_builds_two_state_vectors(monkeypatch):
    # the requested eigenvector and the reconstruction, not all 2j+1: every
    # StateVector and every row extract_stack normalizes goes through
    # _unit_rows
    made = []
    normalized = spin._unit_rows

    def counting(coeffs):
        made.append(coeffs.shape)
        return normalized(coeffs)

    monkeypatch.setattr(spin, "_unit_rows", counting)
    monkeypatch.setattr(paironmap, "_unit_rows", counting)
    extract_pairons(ModelParams.from_gammas(10, 2.0, 8.0), state_index=4)
    assert made == [(1, 21), (1, 21)]


def test_map_fixed_points():
    # zeta = infinity <-> e = -t, zeta = 0 <-> e = +t
    t = 0.7
    assert u_from_pairon(-t, t) == INFINITY
    assert pairon_from_u(u_from_pairon(-t, t), t) == -t
    assert u_from_pairon(t, t) == 0.0
    assert pairon_from_u(0.0, t) == t


@given(st.complex_numbers(max_magnitude=50, allow_nan=False,
                          allow_infinity=False),
       st.floats(0.05, 20.0))
@settings(max_examples=200)
@example(u=-1 + 0j, t=1.0)
def test_map_is_involutive(u, t):
    e = pairon_from_u(u, t)
    if u == -1:
        # the second pole: the pairon at infinity, and back
        assert e == INFINITY
        assert u_from_pairon(INFINITY, t) == -1
        return
    if abs(1.0 + u) < 1e-9:
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


# Ground-state pairons at j = 10 on gx + gy = 10: the exact H of the
# same float couplings diagonalized by mpmath.eigsy at 80 digits, its
# parity slice solved by mpmath.polyroots, rounded to 20 digits
J10_REFERENCES = {
    3.0: [
        complex(-1.1260716589729040927, -0.046847938543076244209),
        complex(-1.1260716589729040927, 0.046847938543076244209),
        complex(-1.066130502866686589, -0.11836471981213147593),
        complex(-1.066130502866686589, 0.11836471981213147593),
        complex(-0.97432103613420385854, -0.13796559871268354016),
        complex(-0.97432103613420385854, 0.13796559871268354016),
        complex(-0.88003169640734742836, -0.099334772161793723263),
        complex(-0.88003169640734742836, 0.099334772161793723263),
        complex(-0.74435573093776297092, 0.0),
        complex(-0.66406073407944998441, 0.0),
    ],
    4.2786: [
        complex(-1.0461022795711116736, -0.016195189043297593569),
        complex(-1.0461022795711116736, 0.016195189043297593569),
        complex(-1.0264518684346876555, -0.042400379905126539792),
        complex(-1.0264518684346876555, 0.042400379905126539792),
        complex(-0.99373980851318609306, -0.052447495527491635567),
        complex(-0.99373980851318609306, 0.052447495527491635567),
        complex(-0.95685462864327591561, -0.041009909671026505347),
        complex(-0.95685462864327591561, 0.041009909671026505347),
        complex(-0.90760227443992511141, 0.0),
        complex(-0.86927563024472385225, 0.0),
    ],
    4.975: [
        complex(-1.0015734620109986473, -0.00053849114341481086202),
        complex(-1.0015734620109986473, 0.00053849114341481086202),
        complex(-1.0009393060799732415, -0.0014357514013613398636),
        complex(-1.0009393060799732415, 0.0014357514013613398636),
        complex(-0.9998328645909504338, -0.0018323949428428153679),
        complex(-0.9998328645909504338, 0.0018323949428428153679),
        complex(-0.99850842881261166429, -0.0014882328410937017393),
        complex(-0.99850842881261166429, 0.0014882328410937017393),
        complex(-0.99669248569362929448, 0.0),
        complex(-0.99519198727751015314, 0.0),
    ],
    5.0249: [
        complex(-1.0048118696714125537, 0.0),
        complex(-1.0033051939409699033, 0.0),
        complex(-1.0014856081769379622, -0.0014866995587301463431),
        complex(-1.0014856081769379622, 0.0014866995587301463431),
        complex(-1.0001631553891492933, -0.0018256682961847040526),
        complex(-1.0001631553891492933, 0.0018256682961847040526),
        complex(-0.99906328401083727304, -0.0014273282098364730597),
        complex(-0.99906328401083727304, 0.0014273282098364730597),
        complex(-0.99843500198785208214, -0.00053465655993661702589),
        complex(-0.99843500198785208214, 0.00053465655993661702589),
    ],
}


@pytest.mark.parametrize("gx", sorted(J10_REFERENCES))
def test_j10_pairons_match_frozen_references(gx):
    ps, _ = extract_pairons(ModelParams.from_gammas(10, gx, 10.0 - gx))
    ref = np.array(J10_REFERENCES[gx])
    cost = np.abs(ref[:, None] - np.array(ps.energies)[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= 1e-8


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
    # without the variable scaling the degree-39 companion roots miss the
    # 1e6 eps residual bound: 9.3e6 and 1.8e8 eps in complex arithmetic,
    # 1.1e7 and 9.2e7 eps in real; scaled, below 20
    params = ModelParams.from_gammas(40, gx, 10.0 - gx)
    ps, diag = extract_pairons(params, state_index=19)
    assert diag.max_root_residual <= 1e-13
    assert diag.reconstruction_fidelity >= 1.0 - 1e-8
    assert diag.reconstruction_residual <= 1e-8


def test_unverified_extraction_is_refused(monkeypatch):
    # a pairon set whose rebuilt state misses the eigenstate is refused,
    # alone and in a stack
    params = ModelParams.from_gammas(10, 3.0, 7.0)
    shift_one_pairon(monkeypatch)
    with pytest.raises(InconsistentPaironsError, match="unverified"):
        extract_pairons(params, state_index=2)
    (refused,) = extract_stack(10, 1.0, [params.lam], [params.gam], 2)
    assert isinstance(refused, InconsistentPaironsError)


@pytest.mark.parametrize("state_index", [14, 10])
def test_j40_states_at_small_gx_certify(state_index):
    # at gx = 0.5 the u-polynomials have end coefficients far below their
    # largest; solved whole, their roots rebuild the eigenstate
    params = ModelParams.from_gammas(40, 0.5, 9.5)
    _, diag = extract_pairons(params, state_index=state_index)
    assert 1.0 - diag.reconstruction_fidelity <= 1e-8
    assert diag.reconstruction_residual <= 1e-8


def test_pairons_of_an_eigenstate_come_in_exact_conjugate_pairs():
    params = ModelParams.from_gammas(10, 3.0, 7.0)
    ps, _ = extract_pairons(params, state_index=0)
    assert any(e.imag != 0 for e in ps.energies)
    assert _conjugation_closed(ps.energies)


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


def test_conjugation_structure_in_spherical_phase():
    # weak coupling: pairons form complex-conjugate pairs
    params = ModelParams.from_gammas(6, 0.3, 0.5)
    ps, _ = extract_pairons(params, state_index=0)
    assert _conjugation_closed(ps.energies)


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
    assert _conjugation_closed(ps.energies)
    assert diag.reconstruction_residual < 1e-10


def test_explicit_t_overrides():
    params = ModelParams.from_gammas(3, 2.0, 8.0)
    ps, _ = extract_pairons(params)
    with pytest.raises(ValueError):
        reconstruct_state(dataclasses.replace(ps, t=-1.0))
    zs = pairons_to_zeros(ps)
    assert zs.total_multiplicity == 6


def test_j140_extraction_certifies_or_refuses_as_inconsistent():
    # roots far outside the unit disk are checked on the reversed
    # polynomial, so no root residual check overflows into a
    # ConvergenceError; the fidelity gate refuses what it must
    gx = [0.25, 2.0, 5.0, 8.0]
    params = [ModelParams.from_gammas(140, g, 10.0 - g) for g in gx]
    for state_index in range(0, 281, 10):
        for result in extract_stack(140, 1.0, [p.lam for p in params],
                                    [p.gam for p in params], state_index):
            if isinstance(result, Exception):
                assert isinstance(result, InconsistentPaironsError)
            else:
                assert 1.0 - result[1].reconstruction_fidelity <= 1e-8


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


_SUM10, _SUM7 = np.linspace(0.05, 9.95, 200), np.linspace(0.05, 9.95, 100)
_DICKE10 = np.linspace(-9.95, -0.05, 50)
# j = 40 mixes core lengths: the sum line, where eigh leaves 21 exact
# zeros at one end of 18 of the 40 ground-state slices, the Dicke states
# of the diagonal (lam = 0), whose slices have one nonzero coefficient,
# and odd ground states at gx gy < 0
_SUM40, _DIAG40 = np.linspace(0.05, 9.95, 40), np.linspace(-9.95, 9.95, 8)
_ODD40 = np.linspace(2.5, 5.0, 4)


@pytest.mark.parametrize("j, state_index, gx, gy", [
    (10, 0, _SUM10, 10.0 - _SUM10),
    (7, 3, _SUM7, 10.0 - _SUM7),
    (10, 0, _DICKE10, _DICKE10),
    (40, 0, np.r_[_SUM40, _DIAG40, _ODD40],
     np.r_[10.0 - _SUM40, _DIAG40, -1.3 * _ODD40]),
], ids=["c10-j10", "both-seniorities-j7", "dicke-diagonal-j10",
        "core-lengths-j40"])
def test_stacked_extraction_is_extract_pairons_bitwise(monkeypatch, j,
                                                       state_index, gx, gy):
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
        # the one-state path, from the eigenpair's StateVector through
        # parity_slice, reads the same pairons and root residual
        state = eigenpair(build_hamiltonian(p), state_index).state
        alone, residual = pairons_from_state(state, p.t)
        pairons, diag = result
        assert _bits(alone) == _bits(dataclasses.replace(pairons, flags=()))
        assert _bits(residual) == _bits(diag.max_root_residual)
    sets = [r[0] for r in stacked]
    if j == 7:
        assert {ps.nu for ps in sets} == {0, 1}
    for ps, a, b in zip(sets, gx.tolist(), gy.tolist()):
        if a == b:  # a Dicke state: every pairon at +-t
            assert all(abs(e) == ps.t for e in ps.energies)
    if j == 40:
        assert len({length for _, length in stacked_cores}) > 3


@pytest.mark.parametrize("j, state_index, gx", [
    (10, 0, np.linspace(0.05, 9.95, 200)),
    (7, 3, np.linspace(0.05, 9.95, 100)),
    (40, 0, np.linspace(0.05, 9.95, 12)),
    (40, 19, np.array([3.74102, 6.164669])),
    (40, 20, np.linspace(0.05, 9.95, 100)[42:43]),
], ids=["c10-j10", "both-seniorities-j7", "ground-j40", "state19-j40",
        "half-at-t-j40"])
def test_stacked_diagnostics_are_each_alone(j, state_index, gx):
    # the stacked fidelity and eigen-residual of each sample equal
    # fidelity and eigen_residual of its own eigenstate and rebuilt state;
    # the fidelity equals |vdot|, and the eigen-residual the residual
    # formula on the dense H within RESIDUAL_BOUND; the
    # root residual is poly_residual of the stripped core of the state's
    # u-polynomial over its roots (at half-at-t-j40, 20 of the 40 pairons
    # sit at +t, structural roots at u = 0)
    params = [ModelParams.from_gammas(j, g, 10.0 - g) for g in gx.tolist()]
    stacked = extract_stack(j, 1.0, [p.lam for p in params],
                            [p.gam for p in params], state_index)
    nus = set()
    for p, (pairons, diag) in zip(params, stacked):
        h = build_hamiltonian(p)
        state = eigenpair(h, state_index).state
        recon = reconstruct_state(pairons)
        assert diag.reconstruction_fidelity == fidelity(recon, state)
        assert diag.reconstruction_fidelity == abs(np.vdot(recon.coeffs,
                                                           state.coeffs))
        assert diag.reconstruction_residual == eigen_residual(h, recon)
        assert abs(diag.reconstruction_residual
                   - dense_residual(h, recon)) <= RESIDUAL_BOUND
        _, d = phasespace.parity_slice(state)
        n0, n_inf, roots = phasespace.strip_and_solve(d)
        core = d[n0:len(d) - n_inf]
        assert _bits(diag.max_root_residual) == _bits(
            phasespace.poly_residual(core, roots))
        nus.add(pairons.nu)
    if j == 7:
        assert nus == {0, 1}


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
    """reconstruct_state as a loop over one pairon set, in scalar steps:
    each factor (e - t, e + t) divided by the larger of its magnitudes,
    then one multiply and one shifted multiply-add."""
    t, m_pairs, nu, j = pairons.t, pairons.m_pairs, pairons.nu, pairons.j
    sigma = np.zeros(m_pairs + 1, dtype=complex)
    sigma[0] = 1.0
    for e in pairons.energies:
        a, b = e - t, e + t
        m = max(abs(a), abs(b))
        a, b = complex(a.real / m, a.imag / m), complex(b.real / m, b.imag / m)
        new = sigma * a
        new[1:] += sigma[:-1] * b
        sigma = new
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
        rows, vanished = _reconstruct_stack(j, nu, energies,
                                            np.array([ps.t for ps in group]))
        assert not vanished.any()
        for ps, row in zip(group, rows):
            ref = _reconstruct_reference(ps).coeffs.tobytes()
            assert StateVector(j=j, coeffs=row).coeffs.tobytes() == ref
            assert reconstruct_state(ps).coeffs.tobytes() == ref


def test_reconstruction_of_arbitrary_pairons_is_the_loop_bitwise(rng):
    # complex energies off any conjugation symmetry make every sigma_s
    # complex, where numpy's abs, log and exp differ from hypot and
    # math's in the last bit on some inputs
    for nu in (0, 1):
        energies = (rng.normal(size=(200, 12 - nu))
                    + 1j * rng.normal(size=(200, 12 - nu)))
        t = rng.uniform(0.2, 5.0, 200)
        rows, vanished = _reconstruct_stack(12, nu, energies, t)
        assert not vanished.any()
        for e, ti, row in zip(energies, t.tolist(), rows):
            ps = PaironSet(j=12, nu=nu, energies=tuple(e.tolist()), t=ti)
            ref = _reconstruct_reference(ps).coeffs.tobytes()
            assert StateVector(j=12, coeffs=row).coeffs.tobytes() == ref


def test_reconstruction_refuses_non_finite_pairons(rng):
    # a pairon at infinity or a NaN one gives a zero row in a stack, with
    # its neighbours' rows their bits alone, and a ValueError alone
    energies = rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6))
    energies[1, 2] = INFINITY
    energies[2, 4] = complex(math.nan, 0.0)
    t = np.array([0.5, 1.0, 2.0])
    rows, vanished = _reconstruct_stack(6, 0, energies, t)
    assert vanished.tolist() == [False, True, True]
    assert not rows[1:].any()
    alone, _ = _reconstruct_stack(6, 0, energies[:1], t[:1])
    assert alone.tobytes() == rows[:1].tobytes()
    for e, ti in zip(energies[1:], t[1:].tolist()):
        with pytest.raises(ValueError, match="pairon product vanished"):
            reconstruct_state(PaironSet(j=6, nu=0, energies=tuple(e.tolist()),
                                        t=ti))


def _reconstruct_mp(mp, pairons):
    """The rebuilt state of a pairon set on its parity sublattice, in
    mpmath arithmetic: the product of the factors (e - t) + (e + t) z
    times sqrt(n_a! n_b!), normalized."""
    t, m_pairs, nu = mp.mpf(pairons.t), pairons.m_pairs, pairons.nu
    sigma = [mp.mpc(1)] + [mp.mpc(0)] * m_pairs
    for e in map(mp.mpc, pairons.energies):
        sigma = [(e - t) * sigma[0]] + [
            (e - t) * sigma[k] + (e + t) * sigma[k - 1]
            for k in range(1, m_pairs + 1)]
    coeffs = [x * mp.sqrt(mp.factorial(2 * (m_pairs - k) + nu)
                          * mp.factorial(2 * k + nu))
              for k, x in enumerate(sigma)]
    norm = mp.sqrt(mp.fsum(abs(x) ** 2 for x in coeffs))
    return [x / norm for x in coeffs]


def test_reconstruction_matches_a_50_digit_product():
    # pairon sets of five states at each gx of the j = 40 spectrum
    # benchmark: the rebuilt state loses at most 1e-14 of fidelity against
    # the same pairons rebuilt at 50 digits, and lies within 1e-12 of it
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        for gx in (0.5, 2.0, 3.5, 6.5, 8.0, 9.5):
            params = ModelParams.from_gammas(40, gx, 10.0 - gx)
            for state in (0, 20, 40, 60, 80):
                ps, _ = extract_pairons(params, state)
                got = [mp.mpc(x) for x in
                       reconstruct_state(ps).coeffs[ps.nu::2].tolist()]
                ref = _reconstruct_mp(mp, ps)
                overlap = abs(mp.fsum(mp.conj(x) * y
                                      for x, y in zip(got, ref)))
                norm = mp.sqrt(mp.fsum(abs(x) ** 2 for x in got))
                assert 1 - overlap / norm <= 1e-14
                assert mp.sqrt(mp.fsum(abs(x / norm - y) ** 2
                                       for x, y in zip(got, ref))) <= 1e-12


# points of each kind the shared parity solve must serve: j = 1 and 2,
# the diagonal gx = gy with states degenerate within their sector (2 and
# 3 at j = 2, gx = 1.5; a pair at j = 10, gx = 9.5), the j = 40 benchmark
# line and an overflowing H
SHARED_SOLVE_POINTS = [(1, 1.0, -1.0), (2, 2.0, 8.0), (2, 1.5, 1.5),
                       (10, 2.0, 8.0), (10, 9.5, 9.5), (40, 3.5, 6.5),
                       (2, 1.6e308, 1e307)]


def _outcome(call):
    """repr of what a call returns, every float to its last bit, or the
    type and message of what it raises."""
    try:
        return repr(call())
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _eigenpair_bits(pair):
    return (pair.energy, pair.index, pair.degenerate,
            pair.state.coeffs.tobytes())


@pytest.mark.parametrize("j, gx, gy", SHARED_SOLVE_POINTS)
def test_states_of_one_params_are_those_of_fresh_params(j, gx, gy):
    # every state, and both out-of-range indices before and after the
    # first read of the record, taken from one ModelParams gives what a
    # fresh ModelParams per call gives
    indices = [-1, 2 * j + 1, *range(2 * j + 1), -1, 2 * j + 1]
    shared = ModelParams.from_gammas(j, gx, gy)
    got = [_outcome(lambda: extract_pairons(shared, s)) for s in indices]
    fresh = [_outcome(lambda: extract_pairons(
        ModelParams.from_gammas(j, gx, gy), s)) for s in indices]
    assert got == fresh
    assert got[:2] == got[-2:]
    refused = {s: outcome for s, outcome in zip(indices, got)
               if isinstance(outcome, tuple)}
    assert refused[-1][0] == refused[2 * j + 1][0] == "ValueError"
    if (j, gx) == (2, 1.5):
        assert [s for s, (kind, _) in refused.items()
                if kind == "DegenerateStateError"] == [2, 3]
    if gx == 1.6e308:
        assert set(refused.values()) == {
            ("ValueError", "H overflows at (gx=1.6e+308, gy=1e+307)")}
        return
    h = build_hamiltonian(shared)
    pairs = [_eigenpair_bits(p) for p in diagonalize(h)]
    assert pairs == [_eigenpair_bits(p) for p in diagonalize(
        build_hamiltonian(ModelParams.from_gammas(j, gx, gy)))]
    assert [_eigenpair_bits(eigenpair(h, s)) for s in range(2 * j + 1)] \
        == pairs


@pytest.mark.parametrize("j, gx, gy", SHARED_SOLVE_POINTS[:-1])
def test_one_params_solves_its_parity_blocks_once(monkeypatch, j, gx, gy):
    # every state of a point, its full diagonalization and an
    # out-of-range index make one parity_eigh call per block
    calls = []
    solve = spin.parity_eigh

    def counted(blocks, name):
        calls.append(name)
        return solve(blocks, name)

    monkeypatch.setattr(spin, "parity_eigh", counted)
    params = ModelParams.from_gammas(j, gx, gy)
    for s in range(-1, 2 * j + 2):
        try:
            extract_pairons(params, s)
        except (PaironsError, ValueError):
            pass
    h = build_hamiltonian(params)
    diagonalize(h)
    for s in range(2 * j + 1):
        eigenpair(h, s)
    assert calls == ["even", "odd"]


def test_one_params_builds_and_ranks_once(monkeypatch):
    # the 81 states at j = 40 from one ModelParams build its bands once,
    # solve each parity block once and rank its states once
    calls = []

    def counted(name, function):
        def call(*args):
            calls.append(name)
            return function(*args)
        return call

    for module, name in ((spin, "hamiltonian_bands"),
                         (paironmap, "hamiltonian_bands"),
                         (spin, "rank_states"), (spin, "parity_eigh")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    params = ModelParams.from_gammas(40, 3.5, 6.5)
    for s in range(81):
        try:
            extract_pairons(params, s)
        except PaironsError:
            pass
    assert sorted(calls) == ["hamiltonian_bands", "parity_eigh",
                             "parity_eigh", "rank_states"]


def test_parity_solutions_are_read_only_and_not_compared():
    params = ModelParams.from_gammas(10, 2.0, 8.0)
    twin = ModelParams.from_gammas(10, 2.0, 8.0)
    before = hash(params)
    assert "parity_solutions" not in vars(params)
    solved = params.parity_solutions
    assert params.parity_solutions is solved
    assert [(w.shape, v.shape) for w, v in solved.solutions] == [
        ((1, 11), (1, 11, 11)), ((1, 10), (1, 10, 10))]
    assert [r.shape for r in (solved.diag, solved.off, solved.norm,
                              *solved.ranks)] == [(1, 21), (1, 19), (1,)] \
        + [(1, 21)] * 3
    sector, column, flag = solved.ranks
    assert sorted(zip(sector[0].tolist(), column[0].tolist())) == [
        (s, c) for s, n in ((0, 11), (1, 10)) for c in range(n)]
    assert flag.dtype == bool and not flag.any()
    for array in (solved.diag, solved.off, solved.norm, *solved.ranks,
                  *(a for pair in solved.solutions for a in pair)):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 0
    assert hash(params) == before == hash(twin)
    assert params == twin and {twin: 1}[params] == 1
    assert "parity_solutions" not in vars(twin)
    assert repr(params) == repr(twin)


@pytest.mark.parametrize("j, gx, gy", [
    (1, 0.5, 2.0), (10, 2.0, 8.0), (40, 3.5, 6.5), (7, 1e300, -3e299)])
def test_parity_solutions_read_build_hamiltonian(j, gx, gy):
    # the record's bands and norm are the bits of build_hamiltonian and
    # HamiltonianMatrix.norm, and those of hamiltonian_bands and
    # max_row_sum of the point
    params = ModelParams.from_gammas(j, gx, gy)
    h = build_hamiltonian(params)
    solved = params.parity_solutions
    diag, off = spin.hamiltonian_bands(j, params.eps, params.lam, params.gam)
    for band, ours, alone in ((solved.diag, h.diag, diag),
                              (solved.off, h.off, off)):
        assert band.shape == alone.shape
        assert band.tobytes() == ours.tobytes() == alone.tobytes()
    assert solved.norm.tolist() == [h.norm] == spin.max_row_sum(
        diag, off).tolist()


def test_overflowing_params_keep_no_parity_solutions():
    # the point is refused before its record is read, and the record
    # itself refuses the H in the same words
    params = ModelParams.from_gammas(2, 1.6e308, 1e307)
    with pytest.raises(ValueError, match=r"^H overflows at \(gx=1\.6e\+308, "
                       r"gy=1e\+307\)$"):
        extract_pairons(params, 0)
    assert "parity_solutions" not in vars(params)
    with pytest.raises(ValueError) as norm:
        build_hamiltonian(params).norm
    with pytest.raises(ValueError) as record:
        params.parity_solutions
    assert str(record.value) == str(norm.value) == (
        "H overflows at (gx=1.6e+308, gy=1e+307)")
    assert "parity_solutions" not in vars(params)


def test_lapack_failure_is_refused_on_every_read(monkeypatch):
    # a point whose record cannot be solved keeps none, and each state,
    # eigenpair and diagonalize refuses it with the solve's own error
    def failing(blocks):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    params = ModelParams.from_gammas(10, 2.0, 8.0)
    h = build_hamiltonian(params)
    for call in (lambda: extract_pairons(params, 3), lambda: eigenpair(h, 3),
                 lambda: diagonalize(h), lambda: extract_pairons(params, 3)):
        with pytest.raises(ConvergenceError, match=(
                r"^eigensolve failed in the even sector: Eigenvalues did "
                r"not converge$")):
            call()
        assert "parity_solutions" not in vars(params)


def test_one_point_record_is_the_one_block_solve():
    # a single point of 661 rows (j = 330) reads its record, and each
    # state is what the one-block solve of the same point gives it
    params = ModelParams.from_gammas(330, 2.0, 8.0)
    h = build_hamiltonian(params)
    diag, off = spin.hamiltonian_bands(330, 1.0, [params.lam], [params.gam])
    norm = spin.max_row_sum(diag, off)
    for s in (0, 330, 660):
        assert _outcome(lambda: extract_pairons(params, s)) == _outcome(
            lambda: paironmap._raised(paironmap.extract_stack(
                330, 1.0, [params.lam], [params.gam], s)[0]))
        (flag,), [(offset, _, (column,), (energy,))] = \
            spin.parity_eigenstates(diag, off, norm, s)
        assert _eigenpair_bits(eigenpair(h, s)) == _eigenpair_bits(
            spin._eigenpair(h, slice(offset, None, 2), column, energy, s,
                            flag))
    assert "parity_solutions" in vars(params)
