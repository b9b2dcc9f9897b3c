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
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations

import numpy as np

from .errors import (ConvergenceError, DegenerateStateError,
                     InconsistentPaironsError)
from .paironmap import VERIFY_TOL, fidelity
from .phasespace import _exp, _log_factorials, strip_and_solve
from .spin import DEGENERACY_RTOL, EIGENVALUE_ERROR_C, rank_states

LEVEL_DEGENERACY_TOL = 1e-9


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

    @property
    def dim(self) -> int:
        """Number of Fock states, C(N+L, L) for N bosons on L+1 levels."""
        return math.comb(self.n_bosons + self.n_levels - 1, self.n_levels - 1)

    @cached_property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        """fock_basis of the model, built on first use and shared by every
        state built from it."""
        return tuple(map(tuple, self.occupations.tolist()))

    @cached_property
    def occupations(self) -> np.ndarray:
        """basis as a read-only (dim, L+1) integer array."""
        occ = _compositions(self.n_levels, self.n_bosons)
        occ.setflags(write=False)
        return occ

    @cached_property
    def weights(self) -> np.ndarray:
        """Coherent-state weight of each basis row (_coherent_weights)."""
        return _coherent_weights(self.occupations, self.n_bosons)


def _coherent_weights(occ: np.ndarray, n_bosons: int) -> np.ndarray:
    """sqrt(N! / prod_l n_l!) for each occupation row of occ:
    math.exp(0.5 * (lgamma(N+1) - _log_factorials(occ)))."""
    return _exp(0.5 * (math.lgamma(n_bosons + 1)
                       - _log_factorials(occ, n_bosons)))


def fock_basis(n_levels: int, n_bosons: int) -> list[tuple[int, ...]]:
    """All occupation tuples with sum = n_bosons, lexicographically sorted."""
    return list(map(tuple, _compositions(n_levels, n_bosons).tolist()))


def _compositions(n_parts: int, total: int) -> np.ndarray:
    """The compositions of total into n_parts parts, lexicographically
    sorted, as an integer array (C(total+n_parts-1, n_parts-1), n_parts).

    Stars and bars: a composition puts n_parts-1 bars among
    total+n_parts-1 slots, and its parts are the runs of slots between
    them.  combinations lists the bar positions in lex order, which is
    lex order of the parts.
    """
    slots = total + n_parts - 1
    dim = math.comb(slots, n_parts - 1)
    bars = np.fromiter(
        chain.from_iterable(combinations(range(slots), n_parts - 1)),
        dtype=np.intp, count=dim * (n_parts - 1)).reshape(dim, n_parts - 1)
    edges = np.concatenate([np.full((dim, 1), -1), bars,
                            np.full((dim, 1), slots)], axis=1)
    return np.diff(edges, axis=1) - 1


def _basis_rank(occ: np.ndarray, total) -> np.ndarray:
    """Lex position of each row of occ among the compositions of its
    total into as many parts; with total = N, its position in fock_basis
    order.  total is one count for every row or one count per row.

    The rows before occ are, level by level, those that agree with it on
    levels 0..p-1 and put fewer bosons on level p.  With R_p bosons left
    for levels p..L-1 they number S(R_p, L-p) - S(R_p - n_p, L-p), where
    S(r, m) = C(r+m-1, m-1) counts the compositions of r into m parts (and
    those of at most r into m-1 parts).
    """
    n_levels = occ.shape[1]
    top = int(np.max(total, initial=0))
    rank, left = np.zeros(len(occ), dtype=np.intp), total
    for p in range(n_levels - 1):
        count = np.array([math.comb(r + n_levels - p - 1, n_levels - p - 1)
                          for r in range(top + 1)])
        after = left - occ[:, p]  # R_{p+1}
        rank = rank + (count[left] - count[after])
        left = after
    return rank


@np.errstate(over="ignore", invalid="ignore")
def _sectors(model: BosonModel) -> tuple[list, float]:
    """H on each seniority sector, as (seniority, idx, block), and the
    max row sum of |H| (every row of H lies inside one sector block).  An
    H whose max row sum is not finite raises ValueError.

    Sectors come in sorted seniority order; idx lists a sector's rows of
    model.basis in basis order, and block is H[ix_(idx, idx)].  Every
    entry is computed in the operation order of the definition, so each
    block equals the one cut from an element-by-element build, bit for bit:

        diagonal   sum_l eps_l n_l, then + (g4 n_l)(n_l - 1) level by level
        pair hop   (g4 sqrt(n_l (n_l - 1))) sqrt((n_k + 1)(n_k + 2)),
                   from occ to occ - 2 e_l + 2 e_k

    with g4 = gamma / 4.

    A sector nu holds the rows n = 2 p + nu, p running over the
    compositions of its pair number M = (N - |nu|)/2 into L+1 parts, and
    lex order in p is lex order in n.  So the sectors of one M share the
    positions of their hops p -> p - e_l + e_k (wherever p_l >= 1, i.e.
    n_l >= 2): they are built as one stack (S, m, m), and the hops are
    ranked once per M.
    """
    occ = model.occupations
    n_levels = model.n_levels
    g4 = model.gamma / 4.0
    diag = np.zeros(len(occ))
    for l, e in enumerate(model.levels):
        diag = diag + e * occ[:, l]
    for n_l in occ.T:
        # n_l < 2 adds a signed zero, which leaves every sum unchanged
        diag = diag + (g4 * n_l) * (n_l - 1)

    # sorted seniority, basis order inside each sector (lexsort is stable)
    parity = occ % 2
    rows = np.lexsort(parity.T[::-1])
    ordered = parity[rows]
    first = np.flatnonzero(np.concatenate(
        ([True], np.any(ordered[1:] != ordered[:-1], axis=1))))
    seniorities, size = ordered[first], np.diff(first, append=len(occ))
    ls, ks = np.nonzero(~np.eye(n_levels, dtype=bool))  # every hop l -> k
    unit = np.eye(n_levels, dtype=np.intp)
    move = (unit[ks] - unit[ls])[:, None]
    # one buffer holds every block, a stack (S, m, m) per pair number:
    # an allocation per stack, with the |H| temporaries, was handed back
    # to the system and faulted in again on every call
    flat = np.zeros(int(size @ size))
    start = 0
    blocks, norm = [None] * len(first), 0.0
    for m in sorted(set(size.tolist())):
        sel = np.flatnonzero(size == m)
        idx = rows[first[sel, None] + np.arange(m)]  # (S, m)
        n = occ[idx].transpose(0, 2, 1)  # (S, L+1, m)
        pairs = n[0].T // 2
        live = pairs.T[ls] >= 1  # (hop, m)
        n_l, n_k = n[:, ls], n[:, ks]
        vals = (g4 * np.sqrt(n_l * (n_l - 1))) * np.sqrt((n_k + 1)
                                                         * (n_k + 2))
        stack = flat[start:start + len(sel) * m * m].reshape(-1, m, m)
        start += stack.size
        diagonal = (slice(None), np.arange(m), np.arange(m))
        hops = (slice(None),
                _basis_rank((pairs + move)[live], int(pairs[0].sum())),
                np.nonzero(live)[1])
        # |H| first, for its row sums without a temporary, then H
        stack[diagonal] = np.abs(diag[idx])
        stack[hops] = np.abs(vals[:, live])
        # np.maximum, as a NaN row sum must not be dropped
        norm = float(np.maximum(norm, np.max(np.sum(stack, axis=2))))
        stack[diagonal] = diag[idx]
        stack[hops] = vals[:, live]
        for i, sector, block in zip(sel.tolist(), idx, stack):
            blocks[i] = (tuple(seniorities[i].tolist()), sector, block)
    if not norm < math.inf:
        raise ValueError(f"H overflows at (gamma={model.gamma:.6g})")
    return blocks, norm


def build_bcs_hamiltonian(model: BosonModel
                          ) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Dense H over fock_basis, and the basis; zero between sectors."""
    H = np.zeros((model.dim, model.dim))
    for _, idx, block in _sectors(model)[0]:
        H[np.ix_(idx, idx)] = block
    return H, list(model.basis)


@dataclass(frozen=True)
class BosonState:
    """Eigenstate data: energy, coefficients over the Fock basis, seniority."""

    model: BosonModel
    energy: float
    coeffs: np.ndarray
    seniority: tuple[int, ...]
    degenerate: bool

    @property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        """model.basis, the Fock states coeffs runs over."""
        return self.model.basis

    @property
    def n_pairs(self) -> int:
        return (self.model.n_bosons - sum(self.seniority)) // 2


def _ranked_spectrum(model: BosonModel) -> tuple:
    """Every state of every seniority sector, ranked, with no vector
    solved: (blocks, norm, values, ranks), blocks and norm those of
    _sectors, values each sector's ascending eigvalsh values and ranks
    rank_states over them (per rank its sector, column and degenerate
    flag).  The one source of energies, seniorities and flags for
    boson_eigenstate and `bcs spectrum`."""
    blocks, norm = _sectors(model)
    values = [np.linalg.eigvalsh(block) for _, _, block in blocks]
    return blocks, norm, values, rank_states(
        values, DEGENERACY_RTOL * max(norm, 1.0))


def _ranked_state(model: BosonModel, spectrum, index: int) -> BosonState:
    """The state at rank `index` of model's _ranked_spectrum: its eigvalsh
    value, and the vector of column col of its sector block.

    At gamma = 0 the block is diagonal, and the vector is the unit vector
    of the row at position col of a stable argsort of its diagonal, with
    exact zeros.  Otherwise it comes from inverse iteration: two solves of
    (block - s) x = b from the fixed start b_k = cos(k), with the shift s
    four ulps of max(|H|, 1) below the value (a shift by the value itself
    made the LU exactly singular), then scaled to norm 1 with its largest
    entry positive.  Every vector is certified: a LAPACK failure, or a
    residual |block x - value x| above EIGENVALUE_ERROR_C * m * eps *
    max(|H|, 1) for a block of m rows, raises ConvergenceError naming the
    sector.
    """
    blocks, norm, values, ranks = spectrum
    sector, col, flag = (int(r[index]) for r in ranks)
    nu, idx, block = blocks[sector]
    energy, scale, m = values[sector][col], max(norm, 1.0), len(idx)
    if model.gamma == 0.0:
        x = np.zeros(m)
        x[np.argsort(np.diagonal(block), kind="stable")[col]] = 1.0
    else:
        shifted = block - (energy - 4.0 * np.spacing(scale)) * np.eye(m)
        # not the vector of ones: a symmetry of equal levels makes that
        # orthogonal to some eigenvectors
        x = np.cos(np.arange(m))
        try:
            x = np.linalg.solve(shifted, np.linalg.solve(shifted, x))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"LAPACK failed in sector {nu}: {exc}") from exc
        x *= np.sign(x[np.argmax(np.abs(x))]) / np.linalg.norm(x)
    residual = np.linalg.norm(block @ x - energy * x)
    if not residual <= EIGENVALUE_ERROR_C * m * np.finfo(float).eps * scale:
        raise ConvergenceError(f"sector {nu}: residual {residual:.2g} too big")
    coeffs = np.zeros(model.dim)
    coeffs[idx] = x
    return BosonState(model=model, energy=float(energy), coeffs=coeffs,
                      seniority=nu, degenerate=bool(flag))


def boson_eigenstates(model: BosonModel,
                      indices: Iterable[int] | None = None
                      ) -> Iterator[BosonState]:
    """The eigenstates at ranks `indices` in ascending energy (default:
    every rank, in order), each labeled by its seniority (per-level
    occupation parities), solving only their vectors: one eigvalsh per
    sector ranks every state once (_ranked_spectrum), and _ranked_state
    builds each state asked for.  Each sector is exactly conserved and
    solved on its own, which keeps the labels sharp when different
    sectors are accidentally degenerate; the `degenerate` flag marks
    near-coincidence within the state's sector, where the eigenvector
    itself is ill-defined.  An index outside 0..dim-1 raises ValueError
    before any state is built."""
    indices = range(model.dim) if indices is None else list(indices)
    for index in indices:
        if not 0 <= index < model.dim:
            raise ValueError(f"state index {index} out of range")
    spectrum = _ranked_spectrum(model)
    for index in indices:
        yield _ranked_state(model, spectrum, index)


def boson_eigenstate(model: BosonModel, index: int) -> BosonState:
    """The eigenstate at rank `index`: the one-index case of
    boson_eigenstates."""
    return next(boson_eigenstates(model, [index]))


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
    # n = nu + 2q e_axis + 2(M - q) e_0 for q = 0..M
    q = np.arange(state.n_pairs + 1)
    occ = np.tile(state.seniority, (len(q), 1))
    occ[:, axis] += 2 * q
    occ[:, 0] += 2 * (state.n_pairs - q)
    return (np.conj(state.coeffs[_basis_rank(occ, model.n_bosons)])
            * _coherent_weights(occ, model.n_bosons)).astype(complex)


@dataclass(frozen=True)
class BosonPaironSet:
    """The certified pairons of one eigenstate (extract_boson_pairons):
    their real sum rule total sum_l eps_l nu_l + sum_a e_a, and the
    fidelity of the pair-product state they rebuild."""

    model: BosonModel
    seniority: tuple[int, ...]
    energies: tuple[complex, ...]
    energy_sum: float
    reconstruction_fidelity: float


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
    Richardson's equations, and certified.

    e_a = 2 (eps_axis + eps_0 conj(w_a)) / (1 + conj(w_a)).  The slice
    pairons start Newton's method on Richardson's equations
    (_richardson_newton), which fixes the digits the slice coefficients
    cannot.  Newton is skipped at gamma = 0, where the equations do not
    exist, and when a root sits at y = 0 or y = infinity: such a pairon
    is on a pole of the equations.

    The set is refused with InconsistentPaironsError, in this order, when
    a root has |1 + w| <= 1e-9 (a pairon at infinity of the axis map),
    when the imaginary parts of the sum rule total fail to cancel (above
    1e-8), when the real total misses the eigenvalue by more than 1e-8
    (relative, at least absolute), and when the state the pairons rebuild
    (reconstruct_boson_state) loses more than VERIFY_TOL of its fidelity
    (or the loss is NaN).
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
    n_pole = int(np.sum(np.abs(1.0 + wc) <= 1e-9))
    if n_pole:
        raise InconsistentPaironsError(
            f"{n_pole} pairon(s) at infinity; the energy sum is not defined")
    finite = 2.0 * (eps_ax + eps0 * wc) / (1.0 + wc)
    if model.gamma != 0.0 and finite.size and not (n_zero or n_inf):
        finite = _richardson_newton(model, state.seniority, finite)
    # roots at y = 0 <-> pairons at 2 eps_axis;
    # roots at y = inf <-> pairons at 2 eps_0
    energies = ([complex(2.0 * eps_ax)] * n_zero
                + [complex(2.0 * eps0)] * n_inf
                + [complex(e) for e in finite])
    energies.sort(key=lambda e: (e.real, e.imag))
    energies = tuple(energies)

    total = (sum(e * n for e, n in zip(model.levels, state.seniority))
             + sum(energies))
    if abs(total.imag) > 1e-8:
        raise InconsistentPaironsError(
            f"imaginary parts of the pairon sum fail to cancel "
            f"({total.imag:.3e}); extraction is inconsistent")
    total = float(total.real)
    if abs(total - state.energy) > 1e-8 * max(1.0, abs(state.energy)):
        raise InconsistentPaironsError(
            f"pairon sum {total} disagrees with eigenvalue {state.energy}")
    fid = fidelity(reconstruct_boson_state(model, state.seniority, energies),
                   state)
    if not 1.0 - fid <= VERIFY_TOL:
        raise InconsistentPaironsError(
            f"pairons unverified, fidelity loss {1.0 - fid:.3g} "
            f"(bound {VERIFY_TOL:g})")
    return BosonPaironSet(model=model, seniority=state.seniority,
                          energies=energies, energy_sum=total,
                          reconstruction_fidelity=fid)


def reconstruct_boson_state(model: BosonModel, seniority: tuple[int, ...],
                            pairons: tuple[complex, ...]) -> BosonState:
    """Build prod_a [sum_l w_l(a) bl+ bl+] |nu> on the Fock basis.

    Uses the pole-free homogeneous weights w_l(a) = prod_{k != l}
    (2 eps_k - e_a), proportional to 1/(2 eps_l - e_a) whenever no pairon
    sits exactly on a pair level.  The product is taken one pairon at a
    time, as amplitudes over the pair counts placed so far, rescaled to a
    largest modulus of 1 after each pairon.  A product that vanishes, or
    that is not finite (a NaN pairon, or weights or sums that overflow),
    raises ValueError.
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

    # the keys: every composition of t <= M pairs into L+1 parts, grouped
    # by t, lex order inside a group.  They number C(M+L+1, L+1), fewer
    # than the entries of the sector's block.
    table = _compositions(L1 + 1, n_rest // 2)
    count = n_rest // 2 - table[:, -1]
    table = table[:, :-1]
    order = np.argsort(count, kind="stable")
    table, count = table[order], count[order]
    group = np.searchsorted(count, np.arange(n_rest // 2 + 2))
    # the source key - e_l of each key and level, by its rank in the group
    # before; -1 where key_l = 0
    has = table.T >= 1
    src = np.full(has.shape, -1)
    src[has] = _basis_rank((table[None] - np.eye(L1, dtype=np.intp)[:, None])
                           [has], np.broadcast_to(count - 1, has.shape)[has])

    # amp[0] and amp[1]: real and imaginary parts over the keys of t pairs,
    # then a zero, the value read for a missing source.  Each step forms
    # the complex sums and products of the product taken key by key, bit
    # for bit: a key adds its terms in the order l = L..0 (the descending
    # lex order of their sources), starting from +0.0.  So no part is ever
    # -0.0, a zero term from a missing source changes nothing, and
    # complex / float and complex * float act on each part alone.
    amp = np.array([[1.0, 0.0], [0.0, 0.0]])
    for t, e in enumerate(pairons, start=1):
        weights = []
        for l in range(L1):
            w = 1.0 + 0.0j
            for k in range(L1):
                if k != l:
                    w *= (2.0 * levels[k] - e)
            weights.append(w)
        wr, wi = np.array([(w.real, w.imag) for w in weights]).T[:, :, None]
        a, b = amp[:, src[:, group[t]:group[t + 1]]]  # (L+1, m) each
        # every weight meets the largest amplitude in some key, so a weight
        # or a sum that is not finite leaves a scale that is not finite
        with np.errstate(over="ignore", invalid="ignore"):
            terms = np.array([a * wr - b * wi, a * wi + b * wr])
            amp = np.zeros((2, a.shape[1] + 1))
            for l in reversed(range(L1)):
                if weights[l] != 0:
                    amp[:, :-1] += terms[:, l]
            scale = float(np.max(np.hypot(amp[0], amp[1])))
        if not math.isfinite(scale):
            raise ValueError(
                "pairon product is not finite; invalid pairon set")
        if scale == 0.0:
            raise ValueError("pairon product vanished; invalid pairon set")
        amp /= scale

    occ = 2 * table[group[-2]:] + np.array(seniority)
    # sqrt(prod n_l!) alone: dividing by model.weights would round
    # differently
    factor = _exp(0.5 * _log_factorials(occ, model.n_bosons))
    coeffs = np.zeros(model.dim, dtype=complex)
    rows = _basis_rank(occ, model.n_bosons)
    coeffs.real[rows] = amp[0, :-1] * factor
    coeffs.imag[rows] = amp[1, :-1] * factor
    nrm = np.linalg.norm(coeffs)
    if nrm == 0:
        raise ValueError("reconstructed state vanished")
    coeffs /= nrm

    energy = sum(e * s for e, s in zip(levels, seniority)) + sum(
        np.real(e) for e in pairons)
    return BosonState(model=model, energy=float(energy), coeffs=coeffs,
                      seniority=tuple(seniority), degenerate=False)


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
