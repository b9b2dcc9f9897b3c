"""The exact map between Husimi zeros and pairing energies.

For the quasispin model on the trajectory parameter t = sqrt|gx/gy|, the
squared zeros of the coherent amplitude and the pairing energies (pairons)
of the state determine each other:

    zeta_a^2 = (t - conj(e_a)) / (conj(e_a) + t)
    e_a      = t (1 - conj(zeta_a^2)) / (1 + conj(zeta_a^2))

A zero pair at infinity (sphere.INFINITY) maps to e = -t, a pair at the
origin to e = +t.  Seniority nu = 1 shows up as one leftover zero at the
origin plus one at infinity.  The state is rebuilt from its pairons as

    prod_a [ (e_a - t) a+a+ + (e_a + t) b+b+ ] |nu, nu>

written here in homogeneous form so e_a = +-t needs no special casing.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, DegenerateStateError,
                     InconsistentPaironsError)
from .phasespace import (ZeroSet, _exp, _linear_product, _log_factorials,
                         _raised, parity_slice, sector_slices,
                         strip_and_solve_stack)
from .sphere import INFINITY, SpherePoint
from .spin import (ModelParams, StateVector, _unit_rows, eigen_residuals,
                   gammas, hamiltonian_bands, max_row_sum, overflow_refusal,
                   parity_eigenstates, singular_refusal, states_at)

FLAG_SIGN_UNVERIFIED = "sign-unverified"

# Largest fidelity loss 1 - |<rebuilt|state>| and eigen-residual of the
# rebuilt state with which extract_stack returns a pairon set.
VERIFY_TOL = 1e-8

# Entries of H one stacked solve holds at most (stack_slices).
STACK_ENTRIES = 1 << 18

_VANISHED = "pairon product vanished; invalid pairon set"
_BAD_T = "t must be positive and finite, got {}"


@dataclass(frozen=True)
class PaironSet:
    """Pairing energies of one state: M = j - nu values, possibly complex."""

    j: int
    nu: int
    energies: tuple[complex, ...]
    t: float
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.nu not in (0, 1):
            raise ValueError(f"seniority must be 0 or 1, got {self.nu}")
        if len(self.energies) != self.j - self.nu:
            raise ValueError(
                f"expected {self.j - self.nu} pairons, got {len(self.energies)}")

    @property
    def m_pairs(self) -> int:
        return self.j - self.nu


def pairon_from_u(u, t):
    """e = t (1 - conj(u)) / (1 + conj(u)) with u = zeta^2; u = inf -> -t,
    and INFINITY where e is infinite (u = -1, the pairon at infinity).

    Elementwise over an array u, with t broadcasting against it; a scalar
    u gives a complex.
    """
    uc = np.conj(np.asarray(u))
    pole = np.isinf(np.hypot(uc.real, uc.imag))
    if pole.any():
        uc = np.where(pole, 0.0, uc)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        e = np.where(pole, -t, t * (1.0 - uc) / (1.0 + uc))
    far = np.isinf(np.hypot(e.real, e.imag))
    if far.any():
        e = np.where(far, INFINITY, e)
    return complex(e) if e.ndim == 0 else e


def u_from_pairon(e, t):
    """zeta^2 = (t - conj(e)) / (conj(e) + t); INFINITY at e = -t, and -1
    at an infinite e.

    Elementwise over an array e, with t broadcasting against it; a scalar
    e gives a complex.
    """
    ec = np.conj(np.asarray(e))
    far = np.isinf(np.hypot(ec.real, ec.imag))
    if far.any():
        ec = np.where(far, 0.0, ec)
    den = ec + t
    pole = den == 0
    u = np.where(pole, INFINITY, (t - ec) / np.where(pole, 1.0, den))
    u = np.where(far, -1.0, u)
    return u if u.ndim else complex(u)


def pairon_sites(energies, t) -> np.ndarray:
    """The canonical zero site of each pairon of an array (or sequence) at
    t, which broadcasts against it: the member zeta of its +- zero pair
    with phi in [0, pi), that is Im(zeta) <= 0 and Re(zeta) > 0 on a tie;
    0 for a pairon at +t and INFINITY for one at -t.
    """
    u = u_from_pairon(energies, t)
    root = np.sqrt(u)
    flip = (root.imag > 0) | ((root.imag == 0) & (root.real < 0))
    root = np.where(flip, -root, root)
    return np.where(np.isinf(np.hypot(root.real, root.imag)), INFINITY,
                    np.where(u == 0, 0.0, root))


def zero_sites(pairons: PaironSet) -> list[tuple[SpherePoint, int, int,
                                                  set[str]]]:
    """The zeros of a pairon set, grouped by exact coordinate: per site its
    point, its smallest pairon index alpha, its multiplicity and its flags.

    A pairon puts its +- zero pair on its pairon_sites member and the
    negation of it, or both zeros on it when it is a pole ("pole": 0 or
    infinity); both zeros take the pairon's alpha.  Seniority nu = 1 adds
    one zero at 0 and one at infinity, with alpha = -1 and the flags
    "seniority" and "pole", which join a pairon pole at the same site.
    The sites come in order of first appearance.
    """
    z = pairon_sites(pairons.energies, _checked_t(pairons.t)).tolist()
    zeros = []
    for alpha, w in enumerate(z):
        if w == 0 or cmath.isinf(w):
            zeros.append((w, alpha, 2, {"pole"}))
        else:
            zeros += [(w, alpha, 1, set()), (-w, alpha, 1, set())]
    zeros += [(w, -1, 1, {"seniority", "pole"})
              for w in (0j, INFINITY)] * pairons.nu
    sites: dict[complex, list] = {}
    for w, alpha, mult, flags in zeros:
        # the zeros come in order of alpha, so a site keeps its first one
        site = sites.setdefault(w, [alpha, 0, set()])
        site[1] += mult
        site[2] |= flags
    return [(SpherePoint(None if cmath.isinf(w) else w), *site)
            for w, site in sites.items()]


def _checked_t(t: float) -> float:
    if t <= 0 or not math.isfinite(t):
        raise ValueError(_BAD_T.format(t))
    return t


def pairons_from_state(state: StateVector, t: float
                       ) -> tuple[PaironSet, float]:
    """Pairons of a parity eigenstate at t, read off its u-polynomial
    (parity_slice), and the root residual: the one-state case of
    _slice_pairons.  A mixed-parity state raises UnpairedZeroError.
    """
    t = _checked_t(t)
    nu, d = parity_slice(state)
    pairons, residual, (refusal,) = _slice_pairons(d[None], np.array([t]))
    _raised(refusal)
    return (PaironSet(j=state.j, nu=nu, energies=tuple(pairons[0].tolist()),
                      t=t), float(residual[0]))


def _slice_pairons(d: np.ndarray, t: np.ndarray) -> tuple:
    """The M pairons of each u-polynomial of a stack d (R, M + 1) at its
    t: the pairons (R, M), each row sorted by (real, imag), the root residual
    of each row (R,), and per row None or the exception it raises alone.
    A refused row holds placeholder pairons, all +t.

    Each root u of a slice is one pairon, pairon_from_u(u, t); a
    structural root at u = 0 is a pairon at +t and one at u = infinity a
    pairon at -t.  The residual is poly_residual of the slice's stripped
    core over its u-roots, as the root solve takes it.  The slices are
    root-solved together (strip_and_solve_stack), and their u-roots,
    right-aligned in one array, are mapped together.
    """
    solved = strip_and_solve_stack(d)
    m = d.shape[1] - 1
    u = np.zeros((len(d), m), dtype=complex)
    # per row n0 and n0 + n_inf: pairons at +t fill the columns before
    # the first, pairons at -t those before the second
    cut = np.zeros((len(d), 2), dtype=int)
    residual = np.zeros(len(d))
    refusals = []
    for i, result in enumerate(solved):
        refusals.append(result if isinstance(result, Exception) else None)
        if refusals[-1] is None:
            n0, n_inf, roots, residual[i] = result
            cut[i] = n0, n0 + n_inf
            u[i, m - len(roots):] = roots
    col, ts = np.arange(m), t[:, None]
    pairons = np.where(col < cut[:, :1], ts.astype(complex), np.where(
        col < cut[:, 1:], (-ts).astype(complex), pairon_from_u(u, ts)))
    order = np.lexsort((pairons.imag, pairons.real))
    return np.take_along_axis(pairons, order, axis=1), residual, refusals


def pairons_to_zeros(pairons: PaironSet) -> ZeroSet:
    """The zero multiset of a pairon set: its zero_sites."""
    return ZeroSet(j=pairons.j, zeros=tuple(
        (point, mult) for point, _, mult, _ in zero_sites(pairons)))


def reconstruct_state(pairons: PaironSet) -> StateVector:
    """State with the given pairons, in the Dicke basis.

    Expands prod_a [A_a x + B_a y] with A_a = e_a - t (pair in the lower
    mode a), B_a = e_a + t (upper mode b); the coefficient sigma_s of
    x^(M-s) y^s then feeds

        c(m) = sigma_s * sqrt(n_a! * n_b!),
        n_a = 2(M-s) + nu,  n_b = 2s + nu,  m = (n_b - n_a)/2.

    Factorials are handled through log-magnitudes so large j cannot
    overflow; the result is normalized at the end.  The one-set case of
    _reconstruct_stack.
    """
    t = _checked_t(pairons.t)
    energies = np.array(pairons.energies, dtype=complex).reshape(1, -1)
    coeffs, (vanished,) = _reconstruct_stack(pairons.j, pairons.nu, energies,
                                             np.array([t]))
    if vanished:
        raise ValueError(_VANISHED)
    return StateVector(j=pairons.j, coeffs=coeffs[0])


@functools.cache
def _log_weights(m_pairs: int, nu: int) -> np.ndarray:
    """log sqrt(n_a! n_b!) per s = 0..M (reconstruct_state), by
    _log_factorials; computed once per (M, nu) and returned read-only."""
    n_b = 2 * np.arange(m_pairs + 1) + nu
    out = 0.5 * _log_factorials(np.stack([n_b[::-1], n_b], 1), n_b[-1])
    out.setflags(write=False)
    return out


def _reconstruct_stack(j: int, nu: int, energies: np.ndarray,
                       t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """reconstruct_state for each row of energies (R, j - nu) at its t,
    before the normalization: the rebuilt coefficients (R, 2j+1), the
    largest of each row 1 in magnitude, and the mask of the zero rows: those
    with a zero or non-finite factor, which reconstruct_state refuses.
    sigma is the _linear_product of the factors (A_a, B_a); each magnitude
    is hypot(re, im), as abs takes it of a complex scalar, and each log and
    exp is math's, so every row gets the bits it gets alone."""
    sigma = _linear_product(energies - t[:, None], energies + t[:, None])
    vanished = ~np.isfinite(sigma).all(axis=1)
    sigma[vanished] = 0.0
    weight = _log_weights(energies.shape[1], nu)
    live = sigma != 0
    rows, cols = np.nonzero(live)
    magnitude = np.hypot(sigma.real, sigma.imag)[live]
    logs = np.full(sigma.shape, -np.inf)
    logs[live] = [math.log(x) for x in magnitude.tolist()] + weight[cols]
    shifted = logs[live] - logs.max(axis=1)[rows]
    coeffs = np.zeros((len(sigma), 2 * j + 1), dtype=complex)
    # c(m) sits at Dicke index j + m = n_b = 2s + nu
    coeffs[rows, 2 * cols + nu] = (sigma[live] / magnitude) * _exp(shifted)
    return coeffs, vanished


def fidelity(a, b) -> float:
    """|<a|b>| of two states on one basis (StateVector or BosonState):
    the one-pair case of fidelities."""
    return float(fidelities(a.coeffs, b.coeffs))


def fidelities(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|<a|b>| of each pair of rows of two coefficient stacks (..., dim)."""
    return np.abs(np.vecdot(a, b))


@dataclass(frozen=True)
class ExtractionDiagnostics:
    t: float
    energy: float
    state_index: int
    max_root_residual: float
    reconstruction_fidelity: float
    reconstruction_residual: float
    flags: tuple[str, ...]


def extract_pairons(params: ModelParams, state_index: int = 0
                    ) -> tuple[PaironSet, ExtractionDiagnostics]:
    """Full pipeline: diagonalize -> u-roots -> pairons -> verify.

    Refuses eigenstates that are degenerate within their parity sector
    (zeros of an arbitrary basis choice inside the degenerate subspace
    carry no invariant meaning), the singular parameter loci
    gamma_x = 0 / gamma_y = 0, and pairon sets whose rebuilt state fails
    its fidelity or eigen-residual check (InconsistentPaironsError).  The
    one-point case of extract_stack.  The point's parity blocks are
    solved once per ModelParams (ModelParams.parity_solutions), and its
    states ranked once, so the states of one params share one solve: at
    j = 40 the 81 states of a point make 2 parity_eigh calls, not 162,
    and one rank_states call, not 81.
    """
    return _raised(extract_stack(params.j, params.eps, [params.lam],
                                 [params.gam], state_index, point=params)[0])


def stack_slices(j: int, count: int) -> list[slice]:
    """count points in the fewest stacks of at most STACK_ENTRIES //
    (2j+1)^2 points (at least one), so a stack's matrices hold at most
    STACK_ENTRIES floats whatever j and the number of points.  Their sizes
    differ by one at most, so no stack is a short tail: the 1200 points of
    a j = 10 profile take three stacks of 400, each of at least
    ONE_BLOCK_MIN_ROWS rows."""
    chunk = max(1, STACK_ENTRIES // (2 * j + 1) ** 2)
    parts = -(-count // chunk)
    ends = [count * k // max(parts, 1) for k in range(parts + 1)]
    return [slice(lo, hi) for lo, hi in zip(ends, ends[1:])]


def names_of(names, part) -> tuple | None:
    """The callers' (gamma_x, gamma_y) arrays that name points in refusal
    messages, taken at the index or slice part; None where they are."""
    return None if names is None else (names[0][part], names[1][part])


def solve_states(j: int, eps: float, lam, gam, state_index: int,
                 names=None, point: ModelParams | None = None) -> tuple:
    """The state of energy rank state_index at each point of the coupling
    arrays lam and gam, and the refusal of each point where it, or its
    pairon map, is undefined: the one place where an lmg point is refused.

    Returns (out, bands, gamma, t, sectors): per point None, or the
    exception that refuses it; the bands (diag, off) of the points' H
    (hamiltonian_bands) and their max row sums of |H| norm, as (diag,
    off, norm), (gamma_x, gamma_y) and t = sqrt|gx/gy|; and the
    parts of parity_eigenstates that hold a live point, each (nu, rows,
    columns, energies) of parity sector nu (0 even, 1 odd): the indices
    of its live points, their eigenvectors in the sector's basis
    (len(rows), j + 1 - nu) and their energies.  The bands are built, and
    their max row sums taken, once; no dense H is built.  A point whose
    row sum is not finite keeps zero bands as a placeholder.  The
    points are solved and ranked together by parity_eigenstates, so each
    point gets the bits it gets alone; if that raises ConvergenceError,
    each point is solved alone, and each live point gets an entry of its
    own.  A point is refused with the first of: overflow_refusal where
    its row sum is not finite (a coupling that is not finite, in
    ModelParams' words, or H overflows), what its solve raises
    (ConvergenceError, or ValueError for a state_index outside 0..2j),
    SingularParameterError at gamma_y = 0 or gamma_x = 0,
    DegenerateStateError for a state degenerate within its parity
    sector, and ValueError for a t that is not finite and positive.  The
    refusals are vectorized masks; an exception is built only for a
    point that is refused.  A message names a point by names, the
    callers' (gamma_x, gamma_y) arrays where they have them, else by its
    gamma; gamma, t and every other number are taken from the couplings.
    point is the ModelParams of a one-point call, or None.  Where given,
    its parity_solutions are read, and the bands, norm, solve and ranking
    are the record's, the same bits; nothing is built, solved or ranked
    here.  A record that refuses its point (its H overflows, or LAPACK
    fails) gives the point that refusal, and no bands.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    gam = np.atleast_1d(np.asarray(gam, dtype=float))
    # an entry or row sum that overflows is refused below; gamma_y = 0
    # gives an infinite or NaN t
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gamma_x, gamma_y = gammas(j, eps, lam, gam)
        t = np.sqrt(np.abs(gamma_x / gamma_y))
        if point is None:
            diag, off = hamiltonian_bands(j, eps, lam, gam)
            norm = max_row_sum(diag, off)
    if point is not None:
        try:
            record = point.parity_solutions
        except (ValueError, ConvergenceError) as exc:
            return [exc], None, (gamma_x, gamma_y), t, []
        diag, off, norm = record.diag, record.off, record.norm
    bands = diag, off, norm
    named_x, named_y = (gamma_x, gamma_y) if names is None else names
    overflow = ~(norm < math.inf)
    out = [None] * len(diag)
    for i in np.flatnonzero(overflow).tolist():
        diag[i], off[i] = 0.0, 0.0
        out[i] = overflow_refusal(j, float(eps), float(lam[i]), float(gam[i]),
                                  (float(named_x[i]), float(named_y[i])))
    try:
        degenerate, parts = (
            parity_eigenstates(diag, off, norm, state_index)
            if point is None else states_at(record, state_index))
    except ValueError as exc:
        return [r or exc for r in out], bands, (gamma_x, gamma_y), t, []
    except ConvergenceError as exc:
        if len(diag) == 1:
            return [exc], bands, (gamma_x, gamma_y), t, []
        out, sectors = [], []
        for i in range(len(diag)):
            (alone,), *_, found = solve_states(
                j, eps, lam[i:i + 1], gam[i:i + 1], state_index,
                names_of(names, slice(i, i + 1)))
            out.append(alone)
            sectors += [(nu, rows + i, *rest) for nu, rows, *rest in found]
        return out, bands, (gamma_x, gamma_y), t, sectors
    # gamma_x = 0 gives t = 0 and gamma_y = 0 an infinite or NaN t
    live = ~overflow & ~degenerate & (0.0 < t) & (t < math.inf)
    for i in np.flatnonzero(~live).tolist():
        x, y = float(named_x[i]), float(named_y[i])
        out[i] = out[i] or singular_refusal(
            float(gamma_x[i]), float(gamma_y[i])) or (
            DegenerateStateError(
                f"state {state_index} at (gx={x:.6g}, gy={y:.6g}) is "
                "degenerate within its parity sector")
            if degenerate[i] else ValueError(_BAD_T.format(float(t[i]))))
    sectors = []
    for nu, rows, columns, energies in parts:
        keep = live[rows]
        if keep.any():
            sectors.append((nu, rows[keep], columns[keep], energies[keep]))
    return out, bands, (gamma_x, gamma_y), t, sectors


def extract_stack(j: int, eps: float, lam, gam, state_index: int = 0,
                  names=None, point: ModelParams | None = None) -> list:
    """extract_pairons at each point of the coupling arrays lam and gam:
    per point its (PaironSet, ExtractionDiagnostics), or the exception
    extract_pairons raises there.  Refusal messages name the points by
    names, the callers' (gamma_x, gamma_y) arrays, where given
    (solve_states).  point is the ModelParams of a one-point call, whose
    record solve_states reads.

    The points are taken in the stacks of stack_slices, one call each,
    so the memory a call holds is bounded however many points it is
    given.  A stack's states are solved, and its points refused, by
    solve_states.  Then each of its parts, of parity sector nu (0 even, 1
    odd), takes its live points in one pass: their eigenvectors'
    u-polynomials are solved together (_slice_pairons), their pairons
    rebuilt together (_reconstruct_stack), and the fidelities and
    eigen-residuals taken together (fidelities, eigen_residuals).  Each
    layer gives every point the bits it gets alone.  A point then gets
    the first of: the refusal of its root solve, ValueError for a
    vanished pairon product, and InconsistentPaironsError for a rebuilt
    state whose fidelity loss or eigen-residual is above VERIFY_TOL (or
    NaN); otherwise its pairon set.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    gam = np.atleast_1d(np.asarray(gam, dtype=float))
    parts = stack_slices(j, len(lam))
    if len(parts) != 1:
        return [result for part in parts for result in extract_stack(
            j, eps, lam[part], gam[part], state_index,
            names_of(names, part))]
    out, bands, (gamma_x, gamma_y), t, sectors = solve_states(
        j, eps, lam, gam, state_index, names, point)
    named_x, named_y = (gamma_x, gamma_y) if names is None else names
    for nu, rows, columns, energy in sectors:
        full = np.zeros((len(rows), 2 * j + 1), dtype=complex)
        full[:, nu::2] = columns
        unit = _unit_rows(full)
        ts = t[rows]
        pairons, root_residual, refusals = _slice_pairons(
            sector_slices(unit[:, nu::2], nu, 2 * j), ts)
        coeffs, vanished = _reconstruct_stack(j, nu, pairons, ts)
        coeffs[vanished, nu] = 1.0  # a placeholder; the row is refused
        recon = _unit_rows(coeffs)
        fid = fidelities(recon, unit).tolist()
        diag, off, norm = (b[rows] for b in bands)
        res = eigen_residuals(diag, off, recon, norm).tolist()
        for k, (i, f, r) in enumerate(zip(rows.tolist(), fid, res)):
            x, y = float(gamma_x[i]), float(gamma_y[i])
            if refusals[k] is not None:
                out[i] = refusals[k]
            elif vanished[k]:
                out[i] = ValueError(_VANISHED)
            elif not (1.0 - f <= VERIFY_TOL and r <= VERIFY_TOL):
                out[i] = InconsistentPaironsError(
                    f"state {state_index} at (gx={float(named_x[i]):.6g}, "
                    f"gy={float(named_y[i]):.6g}): pairons unverified, "
                    f"fidelity loss {1.0 - f:.3g} and eigen-residual "
                    f"{r:.3g} (bound {VERIFY_TOL:g})")
            else:
                flags = (FLAG_SIGN_UNVERIFIED,) if x * y < 0 else ()
                found = PaironSet(j=j, nu=nu,
                                  energies=tuple(pairons[k].tolist()),
                                  t=float(ts[k]), flags=flags)
                out[i] = found, ExtractionDiagnostics(
                    t=found.t, energy=float(energy[k]),
                    state_index=state_index,
                    max_root_residual=float(root_residual[k]),
                    reconstruction_fidelity=f, reconstruction_residual=r,
                    flags=flags)
    return out
