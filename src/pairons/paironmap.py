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

from .errors import DegenerateStateError, SingularParameterError
from .phasespace import (ZeroSet, parity_slice, poly_residual,
                         strip_and_solve)
from .sphere import SpherePoint
from .spin import (ModelParams, StateVector, build_hamiltonian, eigen_residual,
                   eigenpair)

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


def pairon_from_u(u: complex, t: float) -> complex:
    """e = t (1 - conj(u)) / (1 + conj(u)) with u = zeta^2; u = inf -> -t."""
    uc = np.conj(u)
    if np.isinf(abs(uc)):
        return complex(-t)
    return complex(t * (1.0 - uc) / (1.0 + uc))


def u_from_pairon(e: complex, t: float) -> complex | None:
    """zeta^2 = (t - conj(e)) / (conj(e) + t); None encodes infinity (e = -t)."""
    ec = np.conj(e)
    den = ec + t
    if den == 0:
        return None
    return complex((t - ec) / den)


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
    UnpairedZeroError.
    """
    _checked_t(t)
    nu, d = parity_slice(state)
    n0, n_inf, roots = strip_and_solve(d)
    energies = ([complex(t)] * n0 + [complex(-t)] * n_inf
                + [pairon_from_u(u, t) for u in roots])
    energies.sort(key=lambda e: (e.real, e.imag))
    pairons = PaironSet(j=state.j, nu=nu, energies=tuple(energies), t=t,
                        flags=flags)
    return pairons, poly_residual(d, roots)


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
    (state, t) surface).
    """
    t = _checked_t(pairons.t if t is None else t)
    M = pairons.m_pairs
    nu = pairons.nu
    j = pairons.j

    sigma = np.zeros(M + 1, dtype=complex)
    sigma[0] = 1.0
    top = 0
    for e in pairons.energies:
        a = e - t
        b = e + t
        new = np.zeros_like(sigma)
        new[:top + 1] += a * sigma[:top + 1]
        new[1:top + 2] += b * sigma[:top + 1]
        top += 1
        scale = np.max(np.abs(new[:top + 1]))
        if scale == 0.0:
            raise ValueError("pairon product vanished; invalid pairon set")
        sigma = new / scale

    coeffs = np.zeros(2 * j + 1, dtype=complex)
    logs = np.full(M + 1, -np.inf)
    phases = np.zeros(M + 1, dtype=complex)
    for s in range(M + 1):
        if sigma[s] == 0:
            continue
        n_a = 2 * (M - s) + nu
        n_b = 2 * s + nu
        logs[s] = (math.log(abs(sigma[s]))
                   + 0.5 * (math.lgamma(n_a + 1) + math.lgamma(n_b + 1)))
        phases[s] = sigma[s] / abs(sigma[s])
    peak = float(np.max(logs))
    for s in range(M + 1):
        if logs[s] == -np.inf:
            continue
        n_b = 2 * s + nu
        m = n_b - j  # (n_b - n_a)/2 with n_a + n_b = 2j
        coeffs[j + m] = phases[s] * math.exp(logs[s] - peak)
    return StateVector(j=j, coeffs=coeffs)


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
    gamma_x = 0 / gamma_y = 0.
    """
    gx, gy = params.gamma_x, params.gamma_y
    if gy == 0.0:
        raise SingularParameterError("gamma_y = 0: t is undefined")
    if gx == 0.0:
        raise SingularParameterError("gamma_x = 0: t = 0 degenerates the map")
    flags: tuple[str, ...] = ()
    if gx * gy < 0:
        flags = (FLAG_SIGN_UNVERIFIED,)

    h = build_hamiltonian(params)
    pair = eigenpair(h, state_index)
    if pair.degenerate and not allow_degenerate:
        raise DegenerateStateError(
            f"state {state_index} at (gx={gx:.6g}, gy={gy:.6g}) is degenerate "
            "within its parity sector")

    t = params.t
    pairons, residual = pairons_from_state(pair.state, t, flags=flags)
    recon = reconstruct_state(pairons)
    diag = ExtractionDiagnostics(
        t=t,
        energy=pair.energy,
        state_index=state_index,
        max_root_residual=residual,
        max_pairing_defect=pairons.conjugation_defect(),
        reconstruction_fidelity=fidelity(recon, pair.state),
        reconstruction_residual=eigen_residual(h, recon),
        flags=flags,
    )
    return pairons, diag
