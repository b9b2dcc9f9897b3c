"""The exact map between Husimi zeros and pairing energies.

For the quasispin model on the trajectory parameter t = sqrt|gx/gy|, the
squared zeros of the coherent amplitude and the pairing energies (pairons)
of the state determine each other:

    zeta_a^2 = (t - conj(e_a)) / (conj(e_a) + t)
    e_a      = t (1 - conj(zeta_a^2)) / (1 + conj(zeta_a^2))

A zero pair at infinity maps to e = -t, a pair at the origin to e = +t.
Seniority nu = 1 shows up as one leftover zero at the origin plus one at
infinity.  The state is rebuilt from its pairons as

    prod_a [ (e_a - t) a+a+ + (e_a + t) b+b+ ] |nu, nu>

written here in homogeneous form so e_a = +-t needs no special casing.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, DegenerateStateError,
                     SingularParameterError, UnpairedZeroError)
from .phasespace import (ZeroSet, _raised, parity_slice, poly_residuals,
                         strip_and_solve_stack)
from .sphere import INFINITY, SpherePoint
from .spin import (HamiltonianMatrix, ModelParams, StateVector,
                   eigen_residual, gammas, hamiltonian_stack,
                   parity_eigenstates)

FLAG_SIGN_UNVERIFIED = "sign-unverified"


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

    def conjugation_defect(self) -> float:
        """How far the multiset is from closure under complex conjugation."""
        pool = list(self.energies)
        worst = 0.0
        while pool:
            e = pool.pop()
            target = e.conjugate()
            best = min(range(len(pool) + 1),
                       key=lambda i: abs((pool[i] if i < len(pool) else e) - target))
            if best == len(pool):
                worst = max(worst, abs(e - target))
            else:
                worst = max(worst, abs(pool.pop(best) - target))
        return worst


def pairon_from_u(u, t):
    """e = t (1 - conj(u)) / (1 + conj(u)) with u = zeta^2; u = inf -> -t.

    Elementwise over an array u, with t broadcasting against it; a scalar
    u gives a complex.
    """
    uc = np.conj(np.asarray(u))
    pole = np.isinf(np.hypot(uc.real, uc.imag))
    if pole.any():
        uc = np.where(pole, 0.0, uc)
    e = np.where(pole, -t, t * (1.0 - uc) / (1.0 + uc))
    return complex(e) if e.ndim == 0 else e


def u_from_pairon(e, t):
    """zeta^2 = (t - conj(e)) / (conj(e) + t); None encodes infinity (e = -t).

    Elementwise over an array e, with t broadcasting against it; there
    infinity is sphere.INFINITY.
    """
    ec = np.conj(np.asarray(e))
    den = ec + t
    pole = den == 0
    u = np.where(pole, INFINITY, (t - ec) / np.where(pole, 1.0, den))
    if u.ndim:
        return u
    return None if pole else complex(u)


def _checked_t(t: float) -> float:
    if t <= 0 or not math.isfinite(t):
        raise ValueError(f"t must be positive and finite, got {t}")
    return t


def pairons_from_state(state: StateVector, t: float,
                       flags: tuple[str, ...] = ()
                       ) -> tuple[PaironSet, float]:
    """Pairons of a parity eigenstate, read off its u-polynomial.

    Each root u of the parity slice (parity_slice) is one pairon,
    pairon_from_u(u, t); a structural root at u = 0 is a pairon at +t and
    one at u = infinity a pairon at -t.  Also returns poly_residual of the
    slice over its finite u-roots.  A mixed-parity state raises
    UnpairedZeroError.  The one-state case of _pairon_sets.
    """
    return _raised(_pairon_sets([state], [t], [flags])[0])


def _pairon_sets(states: list[StateVector], ts: list[float],
                 flags: list[tuple[str, ...]]) -> list:
    """pairons_from_state for each state at its t, with its flags: the
    (PaironSet, residual), or the exception it raises alone.

    The slices of each seniority are root-solved together
    (strip_and_solve_stack); the u-roots of the slices with equal root
    counts are mapped and checked together.
    """
    out: list = [None] * len(states)
    by_nu: dict[int, list] = {}
    for i, (state, t) in enumerate(zip(states, ts)):
        try:
            _checked_t(t)
            nu, d = parity_slice(state)
        except (ValueError, UnpairedZeroError) as exc:
            out[i] = exc
            continue
        by_nu.setdefault(nu, []).append((i, d))
    for nu, items in by_nu.items():
        d = np.stack([row for _, row in items])
        by_count: dict[int, list] = {}
        for r, ((i, _), solved) in enumerate(zip(items,
                                                 strip_and_solve_stack(d))):
            if isinstance(solved, Exception):
                out[i] = solved
            else:
                by_count.setdefault(len(solved[2]), []).append((r, i, solved))
        for count, group in by_count.items():
            t = [ts[i] for _, i, _ in group]
            if count:
                roots = np.stack([solved[2] for _, _, solved in group])
                finite = pairon_from_u(roots, np.array(t)[:, None]).tolist()
                residual = poly_residuals(
                    d[[r for r, _, _ in group]], roots,
                    np.array([d.shape[1] - 1 - solved[1]
                              for _, _, solved in group])).tolist()
            else:
                finite, residual = [[]] * len(group), [0.0] * len(group)
            for (_, i, (n0, n_inf, _)), ti, row, res in zip(
                    group, t, finite, residual):
                energies = [complex(ti)] * n0 + [complex(-ti)] * n_inf + row
                energies.sort(key=lambda e: (e.real, e.imag))
                out[i] = (PaironSet(j=states[i].j, nu=nu,
                                    energies=tuple(energies), t=ti,
                                    flags=flags[i]), res)
    return out


def pairons_to_zeros(pairons: PaironSet, t: float | None = None) -> ZeroSet:
    """Rebuild the zero multiset, aggregating the poles.

    `t` overrides the trajectory parameter stored on the set, letting the
    same energies be examined at another point of the (state, t) surface.
    """
    t = _checked_t(pairons.t if t is None else t)
    n0 = pairons.nu
    n_inf = pairons.nu
    finite: list[tuple[SpherePoint, int]] = []
    for e in pairons.energies:
        u = u_from_pairon(e, t)
        if u is None:
            n_inf += 2
        elif u == 0:
            n0 += 2
        else:
            root = cmath.sqrt(u)
            finite.append((SpherePoint.from_zeta(root), 1))
            finite.append((SpherePoint.from_zeta(-root), 1))
    out: list[tuple[SpherePoint, int]] = []
    if n0:
        out.append((SpherePoint.from_zeta(0.0), n0))
    if n_inf:
        out.append((SpherePoint.infinity(), n_inf))
    out.extend(finite)
    return ZeroSet(j=pairons.j, zeros=tuple(out))


def reconstruct_state(pairons: PaironSet, t: float | None = None) -> StateVector:
    """State with the given pairons, in the Dicke basis.

    Expands prod_a [A_a x + B_a y] with A_a = e_a - t (pair in the lower
    mode a), B_a = e_a + t (upper mode b); the coefficient sigma_s of
    x^(M-s) y^s then feeds

        c(m) = sigma_s * sqrt(n_a! * n_b!),
        n_a = 2(M-s) + nu,  n_b = 2s + nu,  m = (n_b - n_a)/2.

    Factorials are handled through log-magnitudes so large j cannot
    overflow; the result is normalized at the end.  `t` overrides the
    stored trajectory parameter (same energies, another slice of the
    (state, t) surface).  The one-set case of _reconstruct_stack.
    """
    t = _checked_t(pairons.t if t is None else t)
    energies = np.array(pairons.energies, dtype=complex).reshape(1, -1)
    return _raised(_reconstruct_stack(pairons.j, pairons.nu, energies,
                                      np.array([t]))[0])


def _reconstruct_stack(j: int, nu: int, energies: np.ndarray,
                       t: np.ndarray) -> list:
    """reconstruct_state for each row of energies (R, j - nu) at its t:
    the StateVector, or the ValueError it raises alone.

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
    return [ValueError("pairon product vanished; invalid pairon set")
            if vanished[r] else StateVector(j=j, coeffs=coeffs[r])
            for r in range(count)]


def fidelity(a, b) -> float:
    """|<a|b>| of two states on one basis (StateVector or BosonState)."""
    return float(abs(np.vdot(a.coeffs, b.coeffs)))


@dataclass(frozen=True)
class ExtractionDiagnostics:
    t: float
    energy: float
    state_index: int
    max_root_residual: float
    max_pairing_defect: float
    reconstruction_fidelity: float
    reconstruction_residual: float
    flags: tuple[str, ...]


def extract_pairons(params: ModelParams, state_index: int = 0,
                    allow_degenerate: bool = False,
                    ) -> tuple[PaironSet, ExtractionDiagnostics]:
    """Full pipeline: diagonalize -> u-roots -> pairons -> verify.

    Refuses eigenstates that are degenerate within their parity sector
    (zeros of an arbitrary basis choice inside the degenerate subspace
    carry no invariant meaning) and the singular parameter loci
    gamma_x = 0 / gamma_y = 0.  The one-point case of extract_stack.
    """
    return _raised(extract_stack(params.j, params.eps, [params.lam],
                                 [params.gam], state_index,
                                 allow_degenerate)[0])


def extract_stack(j: int, eps: float, lam, gam, state_index: int = 0,
                  allow_degenerate: bool = False) -> list:
    """extract_pairons at each point of the coupling arrays lam and gam:
    per point its (PaironSet, ExtractionDiagnostics), or the exception
    extract_pairons raises there.

    The points' H are built by hamiltonian_stack and solved and ranked
    together by parity_eigenstates; the states' slices are root-solved
    together (_pairon_sets) and the pairon sets of each seniority rebuilt
    together (_reconstruct_stack).  Fidelity and eigen-residual are taken
    point by point.  Each layer gives every point the bits it gets alone.
    If the stacked eigensolve raises, each point is solved alone.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    gam = np.atleast_1d(np.asarray(gam, dtype=float))
    gamma = list(zip(*(g.tolist() for g in gammas(j, eps, lam, gam))))
    out: list = [None] * len(lam)
    for i, (gx, gy) in enumerate(gamma):
        if gy == 0.0:
            out[i] = SingularParameterError("gamma_y = 0: t is undefined")
        elif gx == 0.0:
            out[i] = SingularParameterError(
                "gamma_x = 0: t = 0 degenerates the map")
    points = [i for i, result in enumerate(out) if result is None]
    if not points:
        return out
    h = hamiltonian_stack(j, eps, lam[points], gam[points])
    try:
        solved, sector, col, degenerate = parity_eigenstates(h, state_index)
    except ConvergenceError as exc:
        for i in points:
            out[i] = exc if len(points) == 1 else extract_stack(
                j, eps, lam[i:i + 1], gam[i:i + 1], state_index,
                allow_degenerate)[0]
        return out
    except ValueError as exc:
        for i in points:
            out[i] = exc
        return out

    kept, states, ts, flags = [], [], [], []
    for row, i in enumerate(points):
        offset, c = int(sector[row]), int(col[row])
        w, v = solved[offset]
        full = np.zeros(2 * j + 1)
        full[offset::2] = v[row, :, c]
        state = StateVector(j=j, coeffs=full)
        gx, gy = gamma[i]
        if degenerate[row] and not allow_degenerate:
            out[i] = DegenerateStateError(
                f"state {state_index} at (gx={gx:.6g}, gy={gy:.6g}) is "
                "degenerate within its parity sector")
            continue
        kept.append((row, i, float(w[row, c])))
        states.append(state)
        ts.append(math.sqrt(abs(gx / gy)))
        flags.append((FLAG_SIGN_UNVERIFIED,) if gx * gy < 0 else ())

    sets = _pairon_sets(states, ts, flags)
    by_nu: dict[int, list] = {}
    for k, result in enumerate(sets):
        if isinstance(result, Exception):
            out[kept[k][1]] = result
        else:
            by_nu.setdefault(result[0].nu, []).append(k)
    for nu, group in by_nu.items():
        energies = np.array([sets[k][0].energies for k in group],
                            dtype=complex).reshape(len(group), j - nu)
        recons = _reconstruct_stack(j, nu, energies,
                                    np.array([ts[k] for k in group]))
        for k, recon in zip(group, recons):
            row, i, energy = kept[k]
            if isinstance(recon, Exception):
                out[i] = recon
                continue
            pairons, residual = sets[k]
            matrix = HamiltonianMatrix(
                ModelParams(j=j, eps=eps, lam=float(lam[i]),
                            gam=float(gam[i])), h[row])
            out[i] = pairons, ExtractionDiagnostics(
                t=ts[k],
                energy=energy,
                state_index=state_index,
                max_root_residual=residual,
                max_pairing_defect=pairons.conjugation_defect(),
                reconstruction_fidelity=fidelity(recon, states[k]),
                reconstruction_residual=eigen_residual(matrix, recon),
                flags=flags[k],
            )
    return out
