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
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, DegenerateStateError,
                     InconsistentPaironsError, SingularParameterError)
from .phasespace import (ZeroSet, _binomial_sqrt, _raised, parity_slice,
                         poly_residuals, strip_and_solve_stack)
from .sphere import INFINITY, SpherePoint, sphere_points
from .spin import (ModelParams, StateVector, _normalized_rows,
                   eigen_residuals, gammas, hamiltonian_stack,
                   parity_eigenstates)

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
    return [(point, *site)
            for point, site in zip(sphere_points(list(sites)), sites.values())]


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
    return _raised(_slice_pairons(state.j, nu, d[None], np.array([t]),
                                  [()])[0])


def _slice_pairons(j: int, nu: int, d: np.ndarray, t: np.ndarray,
                   flags: list[tuple[str, ...]]) -> list:
    """The pairons of each u-polynomial of a stack d (R, j - nu + 1) of
    seniority nu at its t, with its flags: per row the (PaironSet,
    residual), or the exception it raises alone.

    Each root u of a slice is one pairon, pairon_from_u(u, t); a
    structural root at u = 0 is a pairon at +t and one at u = infinity a
    pairon at -t.  The residual is poly_residual of the slice over its
    finite u-roots.  The slices are root-solved together
    (strip_and_solve_stack); the u-roots of the slices with equal root
    counts are mapped and checked together.
    """
    solved = strip_and_solve_stack(d)
    out: list = list(solved)
    by_count: dict[int, list] = {}
    for i, result in enumerate(solved):
        if not isinstance(result, Exception):
            by_count.setdefault(len(result[2]), []).append(i)
    for count, rows in by_count.items():
        ts = t[rows]
        if count:
            roots = np.stack([solved[i][2] for i in rows])
            finite = pairon_from_u(roots, ts[:, None]).tolist()
            deg = [d.shape[1] - 1 - solved[i][1] for i in rows]
            residual = poly_residuals(d[rows], roots, np.array(deg)).tolist()
        else:
            finite, residual = [[]] * len(rows), [0.0] * len(rows)
        for i, ti, row, res in zip(rows, ts.tolist(), finite, residual):
            n0, n_inf, _ = solved[i]
            energies = [complex(ti)] * n0 + [complex(-ti)] * n_inf + row
            energies.sort(key=lambda e: (e.real, e.imag))
            out[i] = (PaironSet(j=j, nu=nu, energies=tuple(energies), t=ti,
                                flags=flags[i]), res)
    return out


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


def _reconstruct_stack(j: int, nu: int, energies: np.ndarray,
                       t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """reconstruct_state for each row of energies (R, j - nu) at its t,
    before the normalization: the rebuilt coefficients (R, 2j+1), the
    largest of each row about 1 in magnitude, and the mask of the rows
    whose product vanished (zero rows, which reconstruct_state refuses).

    The recurrence for sigma runs over all rows at once.  Each magnitude
    is hypot(re, im), as abs takes it of a complex scalar, and each log
    and exp is math's, so every row gets the bits it gets alone.
    """
    count, m_pairs = energies.shape
    lower = energies - t[:, None]  # A_a
    upper = energies + t[:, None]  # B_a
    sigma = np.zeros((count, m_pairs + 1), dtype=complex)
    sigma[:, 0] = 1.0
    vanished = np.zeros(count, dtype=bool)
    for top in range(m_pairs):
        new = np.zeros(sigma.shape, dtype=complex)
        new[:, :top + 1] += lower[:, top:top + 1] * sigma[:, :top + 1]
        new[:, 1:top + 2] += upper[:, top:top + 1] * sigma[:, :top + 1]
        scale = np.maximum.reduce(np.abs(new[:, :top + 2]), axis=1)
        if not np.minimum.reduce(scale) > 0.0:
            vanished |= scale == 0.0
            scale[vanished] = 1.0
        sigma = new / scale[:, None]

    s = np.arange(m_pairs + 1)
    weight = [0.5 * (math.lgamma(2 * (m_pairs - k) + nu + 1)
                     + math.lgamma(2 * k + nu + 1)) for k in s.tolist()]
    live = sigma != 0
    rows, cols = np.nonzero(live)
    magnitude = np.hypot(sigma.real, sigma.imag)[live]
    logs = np.full(sigma.shape, -np.inf)
    logs[live] = [math.log(x) + weight[k]
                  for x, k in zip(magnitude.tolist(), cols.tolist())]
    shifted = logs[live] - logs.max(axis=1)[rows]
    coeffs = np.zeros((count, 2 * j + 1), dtype=complex)
    # c(m) sits at Dicke index j + m = n_b = 2s + nu
    coeffs[rows, 2 * cols + nu] = (sigma[live] / magnitude) * np.array(
        [math.exp(x) for x in shifted.tolist()])
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
    one-point case of extract_stack.
    """
    return _raised(extract_stack(params.j, params.eps, [params.lam],
                                 [params.gam], state_index)[0])


def stack_slices(j: int, count: int) -> list[slice]:
    """count points in stacks of STACK_ENTRIES // (2j+1)^2 points (at
    least one), so a stack's matrices hold at most STACK_ENTRIES floats
    whatever j and the number of points."""
    chunk = max(1, STACK_ENTRIES // (2 * j + 1) ** 2)
    return [slice(lo, lo + chunk) for lo in range(0, count, chunk)]


def solve_states(j: int, eps: float, lam, gam, state_index: int) -> tuple:
    """The state of energy rank state_index at each point of the coupling
    arrays lam and gam, and the refusal of each point where it, or its
    pairon map, is undefined.

    Returns (out, h, t, sectors): per point None, or the exception that
    refuses it; the points' H (hamiltonian_stack); their t = sqrt|gx/gy|;
    and per parity sector nu (0 even, 1 odd) that holds a live point,
    (nu, rows, columns, energies): the indices of its live points, their
    eigenvectors in the sector's basis (len(rows), j + 1 - nu) and their
    energies.  The H are solved and ranked together by
    parity_eigenstates, so each point gets the bits it gets alone; if
    that raises ConvergenceError, each point is solved alone, and each
    live point gets an entry of its own.  A point is refused with the
    first of: what its solve raises (ConvergenceError, or ValueError for
    a state_index outside 0..2j), SingularParameterError at gamma_y = 0
    or gamma_x = 0, DegenerateStateError for a state degenerate within
    its parity sector, and ValueError for a t that is not finite and
    positive.  The refusals are vectorized masks; an exception is built
    only for a point that is refused.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    gam = np.atleast_1d(np.asarray(gam, dtype=float))
    h = hamiltonian_stack(j, eps, lam, gam)
    gamma_x, gamma_y = gammas(j, eps, lam, gam)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = np.sqrt(np.abs(gamma_x / gamma_y))
    try:
        solved, sector, col, degenerate = parity_eigenstates(h, state_index)
    except ValueError as exc:
        return [exc] * len(h), h, t, []
    except ConvergenceError as exc:
        if len(h) == 1:
            return [exc], h, t, []
        out, sectors = [], []
        for i in range(len(h)):
            (alone,), _, _, found = solve_states(j, eps, lam[i:i + 1],
                                                 gam[i:i + 1], state_index)
            out.append(alone)
            sectors += [(nu, rows + i, *rest) for nu, rows, *rest in found]
        return out, h, t, sectors
    # gamma_x = 0 gives t = 0 and gamma_y = 0 an infinite or NaN t
    live = ~degenerate & (0.0 < t) & (t < math.inf)
    out = [None] * len(h)
    for i in np.flatnonzero(~live).tolist():
        x, y = float(gamma_x[i]), float(gamma_y[i])
        if y == 0.0:
            out[i] = SingularParameterError("gamma_y = 0: t is undefined")
        elif x == 0.0:
            out[i] = SingularParameterError(
                "gamma_x = 0: t = 0 degenerates the map")
        elif degenerate[i]:
            out[i] = DegenerateStateError(
                f"state {state_index} at (gx={x:.6g}, gy={y:.6g}) is "
                "degenerate within its parity sector")
        else:
            out[i] = ValueError(_BAD_T.format(float(t[i])))
    sectors = []
    for nu, (w, v) in enumerate(solved):
        rows = np.flatnonzero((sector == nu) & live)
        if rows.size:
            sectors.append((nu, rows, v[rows, :, col[rows]],
                            w[rows, col[rows]]))
    return out, h, t, sectors


def extract_stack(j: int, eps: float, lam, gam, state_index: int = 0) -> list:
    """extract_pairons at each point of the coupling arrays lam and gam:
    per point its (PaironSet, ExtractionDiagnostics), or the exception
    extract_pairons raises there.

    The points are taken in the stacks of stack_slices, one call each,
    so the memory a call holds is bounded however many points it is
    given.  A stack's states are solved, and its points refused, by
    solve_states.
    Then each parity sector nu (0 even, 1 odd) takes its live points in
    one pass: their eigenvectors' u-polynomials are solved together
    (_slice_pairons), the pairon sets rebuilt together
    (_reconstruct_stack), and the fidelities and eigen-residuals taken
    together (fidelities, eigen_residuals).  Each layer gives every point
    the bits it gets alone.  A point whose rebuilt state has a fidelity
    loss or an eigen-residual above VERIFY_TOL (or NaN) gets an
    InconsistentPaironsError.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    gam = np.atleast_1d(np.asarray(gam, dtype=float))
    parts = stack_slices(j, len(lam))
    if len(parts) != 1:
        return [result for part in parts for result in extract_stack(
            j, eps, lam[part], gam[part], state_index)]
    out, h, t, sectors = solve_states(j, eps, lam, gam, state_index)
    gamma_x, gamma_y = gammas(j, eps, lam, gam)
    binom = _binomial_sqrt(2 * j)
    for nu, rows, columns, energy in sectors:
        mine = rows.tolist()
        gamma = list(zip(gamma_x[rows].tolist(), gamma_y[rows].tolist()))
        full = np.zeros((len(rows), 2 * j + 1), dtype=complex)
        full[:, nu::2] = columns
        unit, _ = _normalized_rows(full)
        flags = [(FLAG_SIGN_UNVERIFIED,) if x * y < 0 else ()
                 for x, y in gamma]
        sets = _slice_pairons(j, nu, np.conj(unit[:, nu::2]) * binom[nu::2],
                              t[rows], flags)
        kept = []
        for k, result in enumerate(sets):
            if isinstance(result, Exception):
                out[mine[k]] = result
            else:
                kept.append(k)
        if not kept:
            continue
        energies = np.array([sets[k][0].energies for k in kept],
                            dtype=complex).reshape(len(kept), j - nu)
        coeffs, vanished = _reconstruct_stack(j, nu, energies, t[rows][kept])
        rebuilt = []
        for k, gone in zip(kept, vanished.tolist()):
            if gone:
                out[mine[k]] = ValueError(_VANISHED)
            else:
                rebuilt.append(k)
        if not rebuilt:
            continue
        recon, _ = _normalized_rows(coeffs[~vanished])
        fid = fidelities(recon, unit[rebuilt]).tolist()
        res = eigen_residuals(h[rows[rebuilt]], recon).tolist()
        for k, f, r, e in zip(rebuilt, fid, res, energy[rebuilt].tolist()):
            pairons, residual = sets[k]
            if not (1.0 - f <= VERIFY_TOL and r <= VERIFY_TOL):
                x, y = gamma[k]
                out[mine[k]] = InconsistentPaironsError(
                    f"state {state_index} at (gx={x:.6g}, gy={y:.6g}): "
                    f"pairons unverified, fidelity loss {1.0 - f:.3g} and "
                    f"eigen-residual {r:.3g} (bound {VERIFY_TOL:g})")
                continue
            out[mine[k]] = pairons, ExtractionDiagnostics(
                t=pairons.t,
                energy=e,
                state_index=state_index,
                max_root_residual=residual,
                reconstruction_fidelity=f,
                reconstruction_residual=r,
                flags=pairons.flags,
            )
    return out
