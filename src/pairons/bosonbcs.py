"""Uniform-coupling pairing model for N bosons on L+1 levels.

    H = sum_l eps_l n_l + (gamma/4) sum_{k,l} bk+ bk+ bl bl

(both sums unrestricted, including k = l).  Per-level occupation parities
are conserved, so each seniority vector nu = (nu_0..nu_L) in {0,1}^(L+1)
labels a sector.  Eigenstates with M = (N - |nu|)/2 pairs are

    prod_a [ sum_l bl+ bl+ / (2 eps_l - e_a) ] |nu>,

the e_a being the pairons; they satisfy E = sum_l eps_l nu_l + sum_a e_a.
The SU(L+1) coherent amplitude of such a state vanishes on the quadrics
sum_l zeta_l^2 / xi_{l,a}^2 = 1 with

    xi_{l,a}^2 = (2 eps_l - conj(e_a)) / (conj(e_a) - 2 eps_0),

one ellipsoid-like surface per pairon.  Restricting to a coordinate axis
l* gives a polynomial of degree M in zeta_{l*}^2 whose roots w_a return
the pairons through e_a = 2 (eps_l* + eps_0 conj(w_a)) / (1 + conj(w_a)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement

import numpy as np

from .errors import DegenerateStateError, InconsistentPaironsError
from .phasespace import strip_and_solve
from .spin import DEGENERACY_RTOL, _sector_eigensystem

AXIS_POLE_FLAG = "axis-pole"  # root at w = -1: pairon at infinity of the map

LEVEL_DEGENERACY_TOL = 1e-9

# c of the eigenvalue error bound c*n*eps*|H| (boson_eigenstate)
EIGENVALUE_ERROR_C = 1e3


@dataclass(frozen=True)
class BosonModel:
    """Level energies and the uniform pair coupling.

    Equal level energies are fine for building and diagonalizing the
    Hamiltonian; only the pairon inversion needs them pairwise distinct
    (see has_degenerate_levels).
    """

    levels: tuple[float, ...]
    gamma: float
    n_bosons: int

    def __post_init__(self):
        if len(self.levels) < 2:
            raise ValueError("need at least two levels")
        if not all(math.isfinite(e) for e in self.levels):
            raise ValueError(f"levels must be finite, got {self.levels!r}")
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma!r}")
        if list(self.levels) != sorted(self.levels):
            raise ValueError("level energies must be non-decreasing")
        if self.n_bosons < 1:
            raise ValueError("need at least one boson")

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def has_degenerate_levels(self) -> bool:
        """True when some pair of levels is closer than the inversion can
        separate (the quadric axes coincide and the axis map loses rank)."""
        return any(self.levels[i + 1] - self.levels[i] <= LEVEL_DEGENERACY_TOL
                   for i in range(len(self.levels) - 1))

    @cached_property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        """fock_basis of the model, built once per model object and shared
        by every state built from it."""
        return tuple(fock_basis(self.n_levels, self.n_bosons))

    @cached_property
    def occupations(self) -> np.ndarray:
        """basis as a read-only (dim, L+1) integer array."""
        occ = np.array(self.basis)
        occ.setflags(write=False)
        return occ

    @cached_property
    def weights(self) -> np.ndarray:
        """Coherent-state weight sqrt(N! / prod_l n_l!) of each basis row:
        math.exp(0.5 * (lgamma(N+1) - sum_l lgamma(n_l+1))), the sum taken
        level by level (np.exp would round differently)."""
        log_fact = np.array([math.lgamma(n + 1)
                             for n in range(self.n_bosons + 1)])
        log_prod = np.zeros(len(self.basis))
        for column in log_fact[self.occupations.T]:
            log_prod = log_prod + column
        return np.array([math.exp(x) for x in
                         (0.5 * (log_fact[-1] - log_prod)).tolist()])


def fock_basis(n_levels: int, n_bosons: int) -> list[tuple[int, ...]]:
    """All occupation tuples with sum = n_bosons, lexicographically sorted."""
    states = []
    for combo in combinations_with_replacement(range(n_levels), n_bosons):
        occ = [0] * n_levels
        for lvl in combo:
            occ[lvl] += 1
        states.append(tuple(occ))
    states.sort()
    return states


def _basis_rank(occ: np.ndarray, n_bosons: int) -> np.ndarray:
    """Position in fock_basis order of each occupation row of occ.

    fock_basis lists the compositions of N into L parts lexicographically.
    The rows before occ are, level by level, those that agree with it on
    levels 0..p-1 and put fewer bosons on level p.  With R_p bosons left
    for levels p..L-1 they number S(R_p, L-p) - S(R_p - n_p, L-p), where
    S(r, m) = C(r+m-1, m-1) counts the compositions of r into m parts (and
    those of at most r into m-1 parts).
    """
    n_rows, n_levels = occ.shape
    count = np.array([[math.comb(r + n_levels - p - 1, n_levels - p - 1)
                       for r in range(n_bosons + 1)]
                      for p in range(n_levels - 1)])
    after = n_bosons - np.cumsum(occ[:, :-1], axis=1)  # R_{p+1}, p < L-1
    left = np.concatenate([np.full((n_rows, 1), n_bosons), after[:, :-1]],
                          axis=1)  # R_p, p < L-1
    level = np.arange(n_levels - 1)
    return (count[level, left] - count[level, after]).sum(axis=1)


def _sector_blocks(model: BosonModel
                   ) -> list[tuple[tuple[int, ...], np.ndarray, np.ndarray]]:
    """H on each seniority sector, as (seniority, idx, block).

    Sectors come in sorted seniority order; idx lists a sector's rows of
    model.basis in basis order, and block is H[ix_(idx, idx)].  Every
    entry is computed in the operation order of the definition, so each
    block equals the one cut from an element-by-element build, bit for bit:

        diagonal   sum_l eps_l n_l, then + (g4 n_l)(n_l - 1) level by level
        pair hop   (g4 sqrt(n_l (n_l - 1))) sqrt((n_k + 1)(n_k + 2)),
                   from occ to occ - 2 e_l + 2 e_k

    with g4 = gamma / 4.
    """
    occ = model.occupations
    g4 = model.gamma / 4.0
    diag = np.zeros(len(occ))
    for l, e in enumerate(model.levels):
        diag = diag + e * occ[:, l]
    for n_l in occ.T:
        # n_l < 2 adds a signed zero, which leaves every sum unchanged
        diag = diag + (g4 * n_l) * (n_l - 1)

    hops, cols, vals = [], [], []
    for l in range(model.n_levels):
        src = np.nonzero(occ[:, l] >= 2)[0]
        n_l = occ[src, l]
        down = g4 * np.sqrt(n_l * (n_l - 1))
        for k in range(model.n_levels):
            if k == l:
                continue
            hop = occ[src]
            hop[:, l] -= 2
            hop[:, k] += 2
            n_k = occ[src, k]
            hops.append(hop)
            cols.append(src)
            vals.append(down * np.sqrt((n_k + 1) * (n_k + 2)))
    rows = _basis_rank(np.concatenate(hops), model.n_bosons)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)

    parity = occ % 2
    # sorted seniority, basis order inside each sector
    members = np.lexsort(parity.T[::-1])
    ordered = parity[members]
    first = np.concatenate(
        ([True], np.any(ordered[1:] != ordered[:-1], axis=1)))
    row0 = np.nonzero(first)[0]
    size = np.diff(np.append(row0, len(occ)))
    sector = np.empty(len(occ), dtype=np.intp)
    sector[members] = np.cumsum(first) - 1
    local = np.empty(len(occ), dtype=np.intp)
    local[members] = np.arange(len(occ)) - row0[sector[members]]
    # all blocks row-major in one buffer; a hop keeps every parity, so it
    # lands in its column's block
    start = np.concatenate(([0], np.cumsum(size * size)))
    flat = np.zeros(start[-1])
    flat[start[sector] + local * (size[sector] + 1)] = diag
    hop_sector = sector[cols]
    flat[start[hop_sector] + local[rows] * size[hop_sector]
         + local[cols]] = vals
    return [(tuple(int(p) for p in ordered[r0]), members[r0:r0 + m],
             flat[start[i]:start[i + 1]].reshape(m, m))
            for i, (r0, m) in enumerate(zip(row0, size))]


def build_bcs_hamiltonian(model: BosonModel
                          ) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Dense H over fock_basis, and the basis; zero between sectors."""
    dim = len(model.basis)
    H = np.zeros((dim, dim))
    for _, idx, block in _sector_blocks(model):
        H[np.ix_(idx, idx)] = block
    return H, list(model.basis)


@dataclass(frozen=True)
class BosonState:
    """Eigenstate data: energy, coefficients over the Fock basis, seniority."""

    model: BosonModel
    energy: float
    coeffs: np.ndarray
    basis: tuple[tuple[int, ...], ...]
    seniority: tuple[int, ...]
    degenerate: bool

    @property
    def n_pairs(self) -> int:
        return (self.model.n_bosons - sum(self.seniority)) // 2


def _block_norm(blocks) -> float:
    """Max row sum of H; every row of H lies inside one sector block."""
    return max(float(np.max(np.sum(np.abs(block), axis=1)))
               for _, _, block in blocks)


def _sorted_eigensystem(model: BosonModel) -> list[tuple]:
    """_sector_eigensystem of every seniority sector, in sorted seniority
    order; the rows of a sector are its idx in model.basis."""
    blocks = _sector_blocks(model)
    return _sector_eigensystem(
        ((nu, idx, *np.linalg.eigh(block)) for nu, idx, block in blocks),
        DEGENERACY_RTOL * max(_block_norm(blocks), 1.0))


def _boson_state(model: BosonModel, entry) -> BosonState:
    energy, parity, idx, v, col, flag = entry
    coeffs = np.zeros(len(model.basis))
    coeffs[idx] = v[:, col]
    return BosonState(model=model, energy=energy, coeffs=coeffs,
                      basis=model.basis, seniority=parity, degenerate=flag)


def diagonalize_boson(model: BosonModel) -> list[BosonState]:
    """All eigenstates sorted by energy, labeled by per-level parity.

    Each seniority sector (per-level occupation parities) is solved
    separately; it is exactly conserved, and the split keeps the labels
    sharp even when different sectors are accidentally degenerate.  The
    `degenerate` flag marks near-coincidence *within* a sector - the case
    where the eigenvector itself is ill-defined; cross-sector
    coincidences leave every eigenvector (and its pairons) intact.
    """
    return [_boson_state(model, entry)
            for entry in _sorted_eigensystem(model)]


def boson_eigenstate(model: BosonModel, index: int) -> BosonState:
    """diagonalize_boson(model)[index], building only that one state.

    Every sector is ranked by its eigvalsh values, and v is the value at
    rank `index`.  eigh, which also gives the vectors, runs only on the
    sectors with an eigenvalue within 4*delta of v.  The state is the entry
    at rank `index` of one stable sort, in diagonalize_boson's sector and
    column order, over the eigh values of the solved sectors and the
    eigvalsh values of the others.  An index outside 0..dim-1 raises
    ValueError.

    Both solvers are backward stable: each computed eigenvalue lies within
    delta = c*n*eps*|H| of the exact one (the LAPACK bound p(n)*eps*|H|_2,
    p(n) a modest function of n; Golub & Van Loan, Matrix Computations,
    sec. 8.3), with n = dim, |H|_2 bounded by the max row sum, and
    c = EIGENVALUE_ERROR_C = 1e3.  So the eigh and eigvalsh values of one
    (sector, column) differ by at most 2*delta, and so do the values at
    rank `index` of the two sorted lists: the state t that
    diagonalize_boson picks has an eigh value within 2*delta of v.  An
    unsolved sector has every eigvalsh value more than 4*delta from v;
    its eigh values lie within 2*delta of those, so the eigh and eigvalsh
    value of each of its entries sit on the same side of t's, strictly.
    Solved sectors carry the same eigh values in both sorts.  Every entry
    thus compares with t the same way in both, so t has rank `index` here
    too: the same (sector, column), eigh vector bits and energy, and the
    same degenerate flag from _sector_eigensystem over that sector.
    """
    if not 0 <= index < len(model.basis):
        raise ValueError(f"state index {index} out of range")
    blocks = _sector_blocks(model)
    scale = max(_block_norm(blocks), 1.0)
    values = [np.linalg.eigvalsh(block) for _, _, block in blocks]
    target = np.sort(np.concatenate(values))[index]
    delta = EIGENVALUE_ERROR_C * len(model.basis) * np.finfo(float).eps * scale
    solved = {}
    for i, (_, _, block) in enumerate(blocks):
        if np.any(np.abs(values[i] - target) <= 4.0 * delta):
            solved[i] = np.linalg.eigh(block)
            values[i] = solved[i][0]
    pick = int(np.argsort(np.concatenate(values), kind="stable")[index])
    ends = np.cumsum([len(w) for w in values])
    sector = int(np.searchsorted(ends, pick, side="right"))
    nu, idx, _ = blocks[sector]
    # eigh returns ascending values, so the stable sort keeps column order
    entry = _sector_eigensystem(
        [(nu, idx, *solved[sector])],
        DEGENERACY_RTOL * scale)[pick - ends[sector] + len(idx)]
    return _boson_state(model, entry)


def _amplitude_terms(state: BosonState, z: np.ndarray) -> np.ndarray:
    """conj(c_n) sqrt(N!/prod n_l!) prod_{l>=1} zeta_l^n_l for every basis
    row n: the terms of the unnormalized coherent amplitude."""
    monos = np.prod(z[None, :] ** state.model.occupations[:, 1:], axis=1)
    return np.conj(state.coeffs) * state.model.weights * monos


def boson_husimi_amplitude(state: BosonState, zetas: np.ndarray) -> complex:
    """<psi|zeta> for the SU(L+1) coherent state labeled by (zeta_1..zeta_L).

    <psi|zeta> = (1 + sum|zeta_l|^2)^(-N/2)
                 * sum_n conj(c_n) sqrt(N!/prod n_l!) prod zeta_l^n_l.
    """
    z = np.asarray(zetas, dtype=complex)
    model = state.model
    if z.shape != (model.n_levels - 1,):
        raise ValueError(f"need {model.n_levels - 1} coordinates")
    total = np.sum(_amplitude_terms(state, z))
    norm = (1.0 + float(np.sum(np.abs(z) ** 2))) ** (model.n_bosons / 2.0)
    return complex(total / norm)


def axis_slice_coefficients(state: BosonState, axis: int) -> np.ndarray:
    """Coefficients g_q of the degree-M polynomial in y = zeta_axis^2.

    Restricting the amplitude to the axis keeps only basis states with
    n_l = nu_l off the axis (the seniority factor is divided out); the
    surviving amplitudes, ordered by the pair count q on the axis, are
    the slice polynomial.
    """
    model = state.model
    if not 1 <= axis <= model.n_levels - 1:
        raise ValueError(f"axis must be 1..{model.n_levels - 1}")
    excess = model.occupations - np.array(state.seniority)
    off = [l for l in range(model.n_levels) if l not in (0, axis)]
    # the basis spans all seniority sectors; occupations whose axis parity
    # disagrees with nu carry zero weight in this state but would alias
    # onto wrong (even negative) q slots.  Level 0's excess is then 2M
    # minus the axis excess: even, so non-negative as well.
    live = (excess[:, off] == 0).all(axis=1) & (excess[:, axis] % 2 == 0)
    g = np.zeros(state.n_pairs + 1, dtype=complex)
    g[excess[live, axis] // 2] = (np.conj(state.coeffs[live])
                                   * model.weights[live])
    return g


@dataclass(frozen=True)
class BosonPaironSet:
    model: BosonModel
    seniority: tuple[int, ...]
    energies: tuple[complex, ...]
    n_at_infinity: int  # slice roots at w = -1 (pairons off the map)
    flags: tuple[str, ...] = ()

    def energy_sum(self) -> complex:
        base = sum(e * n for e, n in zip(self.model.levels, self.seniority))
        return base + sum(self.energies)


def _richardson(model: BosonModel, seniority: tuple[int, ...],
                e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Richardson's equations for bosons at the pairons e, and their
    Jacobian dF_a/de_b:

        F_a = sum_l (nu_l + 1/2) / (2 eps_l - e_a)
              - 2 sum_{b != a} 1 / (e_a - e_b) + 1/gamma
    """
    inv_level = 1.0 / (2.0 * np.array(model.levels)[None, :] - e[:, None])
    weight = np.array(seniority) + 0.5
    diff = e[:, None] - e[None, :]
    np.fill_diagonal(diff, np.inf)
    inv_pair = 1.0 / diff
    F = inv_level @ weight - 2.0 * inv_pair.sum(axis=1) + 1.0 / model.gamma
    J = -2.0 * inv_pair ** 2
    np.fill_diagonal(J, inv_level ** 2 @ weight
                     + 2.0 * (inv_pair ** 2).sum(axis=1))
    return F, J


def _richardson_newton(model: BosonModel, seniority: tuple[int, ...],
                       e: np.ndarray) -> np.ndarray:
    """Newton's method on Richardson's equations, starting from e.

    A step is kept only while max|F| strictly decreases, so the loop ends
    (the kept values form a strictly decreasing sequence of floats) and
    never returns a worse set than it was given.  A step that lands on a
    pole of F, or a singular Jacobian, ends it the same way.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        F, J = _richardson(model, seniority, e)
        best = np.max(np.abs(F))
        while True:
            try:
                trial = e - np.linalg.solve(J, F)
            except np.linalg.LinAlgError:
                break
            F, J = _richardson(model, seniority, trial)
            size = np.max(np.abs(F))
            if not size < best:
                break
            e, best = trial, size
    return e


def extract_boson_pairons(state: BosonState, axis: int = 1) -> BosonPaironSet:
    """Pairons from the roots of the axis-slice polynomial, finished on
    Richardson's equations.

    e_a = 2 (eps_axis + eps_0 conj(w_a)) / (1 + conj(w_a)); roots with
    |1 + w| <= 1e-9 are pairons pushed to infinity of the axis map and
    are counted separately with a flag.  The slice pairons start Newton's
    method on Richardson's equations (_richardson_newton), which fixes the
    digits the slice coefficients cannot.  Newton is skipped at
    gamma = 0, where the equations do not exist, and when a root sits at
    y = 0, y = infinity or on the axis pole: such a pairon is on a pole
    of the equations or off the map.
    """
    if state.degenerate:
        raise DegenerateStateError(
            f"state at E={state.energy:.6g} is degenerate within its sector")
    model = state.model
    if model.has_degenerate_levels:
        raise DegenerateStateError(
            "level energies are not pairwise distinct; the axis map "
            "cannot be inverted")
    g = axis_slice_coefficients(state, axis)
    if not np.any(g):
        raise ValueError("slice polynomial vanished; axis cannot see this state")
    n_zero, n_inf, roots = strip_and_solve(g)
    eps0 = model.levels[0]
    eps_ax = model.levels[axis]
    wc = np.conj(roots)
    pole = np.abs(1.0 + wc) <= 1e-9
    wc = wc[~pole]
    finite = 2.0 * (eps_ax + eps0 * wc) / (1.0 + wc)
    n_pole = int(pole.sum())
    if model.gamma != 0.0 and finite.size and not (n_zero or n_inf or n_pole):
        finite = _richardson_newton(model, state.seniority, finite)
    # roots at y = 0 <-> pairons at 2 eps_axis;
    # roots at y = inf <-> pairons at 2 eps_0
    energies = ([complex(2.0 * eps_ax)] * n_zero
                + [complex(2.0 * eps0)] * n_inf
                + [complex(e) for e in finite])
    energies.sort(key=lambda e: (e.real, e.imag))
    return BosonPaironSet(model=model, seniority=state.seniority,
                          energies=tuple(energies), n_at_infinity=n_pole,
                          flags=(AXIS_POLE_FLAG,) if n_pole else ())


def reconstruct_boson_state(model: BosonModel, seniority: tuple[int, ...],
                            pairons: tuple[complex, ...]) -> BosonState:
    """Build prod_a [sum_l w_l(a) bl+ bl+] |nu> on the Fock basis.

    Uses the pole-free homogeneous weights w_l(a) = prod_{k != l}
    (2 eps_k - e_a), proportional to 1/(2 eps_l - e_a) whenever no pairon
    sits exactly on a pair level.
    """
    levels = model.levels
    L1 = model.n_levels
    if len(seniority) != L1 or any(s not in (0, 1) for s in seniority):
        raise ValueError("seniority must be a 0/1 tuple, one per level")
    n_rest = model.n_bosons - sum(seniority)
    if n_rest < 0 or n_rest % 2:
        raise ValueError("seniority incompatible with boson number")
    if len(pairons) != n_rest // 2:
        raise ValueError(f"need {n_rest // 2} pairons, got {len(pairons)}")

    amp: dict[tuple[int, ...], complex] = {tuple([0] * L1): 1.0}
    for e in pairons:
        weights = []
        for l in range(L1):
            w = 1.0 + 0.0j
            for k in range(L1):
                if k != l:
                    w *= (2.0 * levels[k] - e)
            weights.append(w)
        new: dict[tuple[int, ...], complex] = {}
        for occ, val in amp.items():
            for l in range(L1):
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

    occs = [tuple(2 * p + s for p, s in zip(pair_counts, seniority))
            for pair_counts in amp]
    coeffs = np.zeros(len(model.basis), dtype=complex)
    # sqrt(prod n_l!) alone: dividing by model.weights instead would
    # round differently
    coeffs[_basis_rank(np.array(occs), model.n_bosons)] += [
        val * math.exp(0.5 * sum(math.lgamma(n + 1) for n in occ))
        for occ, val in zip(occs, amp.values())]
    nrm = np.linalg.norm(coeffs)
    if nrm == 0:
        raise ValueError("reconstructed state vanished")
    coeffs /= nrm

    energy = sum(e * s for e, s in zip(levels, seniority)) + sum(
        np.real(e) for e in pairons)
    return BosonState(model=model, energy=float(energy), coeffs=coeffs,
                      basis=model.basis, seniority=tuple(seniority),
                      degenerate=False)


def boson_energy(pairons: BosonPaironSet) -> float:
    """Total energy from the sum rule, as a real number.

    Complex pairons must come in conjugate pairs, so the imaginary parts
    have to cancel; a residue above 1e-8 means the extraction that
    produced the set was inconsistent, and the sum cannot be trusted.
    """
    if pairons.n_at_infinity:
        raise InconsistentPaironsError(
            f"{pairons.n_at_infinity} pairon(s) at infinity; the energy "
            "sum is not defined")
    total = pairons.energy_sum()
    if abs(total.imag) > 1e-8:
        raise InconsistentPaironsError(
            f"imaginary parts of the pairon sum fail to cancel "
            f"({total.imag:.3e}); extraction is inconsistent")
    return float(total.real)


def ellipsoid_axes(model: BosonModel, pairon: complex) -> np.ndarray:
    """xi_l^2 for l = 1..L: the squared semi-axes of the pairon's quadric."""
    eps0 = model.levels[0]
    ec = np.conj(pairon)
    if abs(ec - 2.0 * eps0) == 0:
        raise ZeroDivisionError("pairon sits at 2 eps_0; quadric is at infinity")
    return np.array([(2.0 * e - ec) / (ec - 2.0 * eps0)
                     for e in model.levels[1:]])


def verify_ellipsoid(state: BosonState, pairon: complex, n_points: int = 100,
                     seed: int = 0) -> float:
    """Max relative amplitude over random points of the pairon's quadric.

    Points are drawn as zeta_l = xi_l u_l with sum u_l^2 = 1 (complex
    normalization of the bilinear sum).  The return value measures the
    cancellation |sum terms| / sum |terms| of the amplitude, so an exact
    zero of the polynomial gives ~1e-16 regardless of overall scale.
    """
    model = state.model
    xi2 = ellipsoid_axes(model, pairon)
    xi = np.sqrt(xi2.astype(complex))
    rng = np.random.default_rng(seed)
    L = model.n_levels - 1
    worst = 0.0
    for _ in range(n_points):
        g = rng.normal(size=L) + 1j * rng.normal(size=L)
        s = np.sum(g * g)
        while abs(s) < 1e-12:
            g = rng.normal(size=L) + 1j * rng.normal(size=L)
            s = np.sum(g * g)
        u = g / np.sqrt(s)
        terms = _amplitude_terms(state, xi * u)
        total = abs(np.sum(terms))
        scale = float(np.sum(np.abs(terms)))
        if scale > 0:
            worst = max(worst, total / scale)
    return worst
