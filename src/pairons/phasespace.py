"""Phase-space representation: coherent amplitudes, Husimi function, zeros.

A state sum_m c_m |j,m> has coherent amplitude

    <psi|zeta> = P(zeta) / (1+|zeta|^2)^j,
    P(zeta)    = sum_k conj(c_{k-j}) * sqrt(C(2j,k)) * zeta^k,

so the Husimi function Q = |<psi|zeta>|^2 is fixed, up to the positive
prefactor, by the 2j roots of P on the sphere (roots at infinity make up
any degree deficiency).  Everything downstream runs on those roots.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, UnpairedZeroError
from .sphere import SpherePoint
from .spin import PARITY_MIXED, PARITY_ODD, StateVector

# Coefficients below DEGREE_RTOL * max|d| at either end of the coefficient
# vector are treated as structural zeros (roots at the origin / infinity).
DEGREE_RTOL = 1e-13

# A root set that misses the coefficients it came from by a factor defect
# above ACCEPT_DEFECT is refused (_solve_core).
ACCEPT_DEFECT = 1e-6


@functools.cache
def _binomial_sqrt(two_j: int) -> np.ndarray:
    """sqrt(C(2j, k)) for k = 0..2j, one rounding each from the exact
    integer; computed once per 2j and returned read-only."""
    out = np.array([math.sqrt(math.comb(two_j, k))
                    for k in range(two_j + 1)])
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class MajoranaPoly:
    """The amplitude numerator P as a coefficient vector, lowest power first."""

    j: int
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.shape != (2 * self.j + 1,):
            raise ValueError(
                f"need {2*self.j+1} coefficients for j={self.j}, got shape {arr.shape}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def to_state(self) -> StateVector:
        c = np.conj(self.coeffs) / _binomial_sqrt(2 * self.j)
        return StateVector(j=self.j, coeffs=c)


def majorana_poly(state: StateVector) -> MajoranaPoly:
    d = np.conj(state.coeffs) * _binomial_sqrt(2 * state.j)
    return MajoranaPoly(j=state.j, coeffs=d)


def parity_slice(state: StateVector) -> tuple[int, np.ndarray]:
    """Seniority nu and the u-polynomial of a parity eigenstate.

    A state of definite parity has P(zeta) = zeta^nu * sum_i d_i u^i with
    u = zeta^2 and d = majorana_poly(state).coeffs[nu::2] (nu = 1 for odd
    parity), so its zeros come in exact +- pairs, one pair per root u.
    A mixed-parity state has no such structure: UnpairedZeroError.
    """
    if state.parity == PARITY_MIXED:
        raise UnpairedZeroError(
            "state has mixed parity; its zeros do not close under "
            "zeta -> -zeta")
    nu = 1 if state.parity == PARITY_ODD else 0
    return nu, majorana_poly(state).coeffs[nu::2]


def coherent_overlap(state: StateVector, point: SpherePoint | complex) -> complex:
    """<psi|zeta> evaluated stably on either chart.

    For |zeta| > 1 the reversed polynomial in w = 1/zeta is used; at the
    south pole itself the returned value is conj(c_j), the amplitude in
    the w chart (the phase there is chart convention).
    """
    d = majorana_poly(state).coeffs
    two_j = 2 * state.j
    zeta = point.zeta if isinstance(point, SpherePoint) else complex(point)
    if zeta is None:
        return complex(d[two_j])
    if abs(zeta) <= 1.0:
        num = complex(np.polynomial.polynomial.polyval(zeta, d))
        return num / (1.0 + abs(zeta) ** 2) ** state.j
    w = 1.0 / zeta
    rev = d[::-1]
    num = complex(np.polynomial.polynomial.polyval(w, rev))
    phase = cmath.exp(-2j * state.j * cmath.phase(w))
    return phase * num / (1.0 + abs(w) ** 2) ** state.j


def husimi(state: StateVector, point: SpherePoint | complex) -> float:
    amp = coherent_overlap(state, point)
    return float(abs(amp) ** 2)


def husimi_quadrature(state: StateVector) -> float:
    """Integral of Q over the sphere with measure (2j+1)/(4 pi) sin(theta).

    Gauss-Legendre in cos(theta) crossed with a uniform azimuthal grid,
    128 nodes each; both are spectrally exact once 128 exceeds the
    bandwidth 2j, so for 2j < 128 the result is 1.0 to roundoff for any
    normalized state.
    """
    n_theta = n_phi = 128
    j = state.j
    d = majorana_poly(state).coeffs
    x, wx = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(x)
    tan_half = np.tan(theta / 2.0)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi

    zeta = tan_half[:, None] * np.exp(-1j * phi[None, :])
    # evaluate on the safe chart row by row: rows with tan(theta/2) > 1 flip
    q = np.empty((n_theta, n_phi))
    rev = d[::-1]
    big = tan_half > 1.0
    if np.any(~big):
        z = zeta[~big]
        num = np.polynomial.polynomial.polyval(z, d)
        q[~big] = np.abs(num) ** 2 / (1.0 + np.abs(z) ** 2) ** (2 * j)
    if np.any(big):
        w = 1.0 / zeta[big]
        num = np.polynomial.polynomial.polyval(w, rev)
        q[big] = np.abs(num) ** 2 / (1.0 + np.abs(w) ** 2) ** (2 * j)

    weights = wx[:, None] * (2.0 * math.pi / n_phi)
    return float((2 * j + 1) / (4.0 * math.pi) * np.sum(q * weights))


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------

def _factor_defects(c: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Shape distance between each row of c and lead * prod (z - r_i)
    over its row of roots, for stacks c (R, n+1) and roots (R, n).

    Both coefficient vectors are compared at unit max magnitude, so the
    measure is scale-free and safe against overflow for long products.
    A wrong or lost root shows up as an O(1) defect; a correct root set,
    clustered or not, reconstructs the shape to rounding.  A product that
    vanishes or overflows turns its row to nan, which reads as an
    infinite defect.
    """
    count, n = roots.shape
    prod = np.zeros((count, n + 1), dtype=complex)
    prod[:, 0] = 1.0
    with np.errstate(all="ignore"):
        for i in range(n):
            new = prod * -roots[:, i:i + 1]  # times (z - r_i)
            new[:, 1:] += prod[:, :-1]
            prod = new / np.abs(new).max(axis=1)[:, None]
        rows = np.arange(count)
        ref = c / np.abs(c).max(axis=1)[:, None]
        k = np.argmax(np.abs(prod), axis=1)
        ref_k = ref[rows, k]
        defect = np.abs(prod * (ref_k / prod[rows, k])[:, None]
                        - ref).max(axis=1)
    return np.where(np.isfinite(defect) & (ref_k != 0), defect, math.inf)


def _solve_cores(cores: np.ndarray) -> list:
    """_solve_core for each row of a stack (R, n+1) of cores of one
    length: its roots, or the exception it raises alone.

    Real and complex rows are solved apart.  The scale s of each row is
    the scalar expression of _solve_core, and the scaled companion
    matrices of all rows go to one batched np.linalg.eigvals, which runs
    the LAPACK routine of np.roots on each matrix.  The ends of each
    scaled polynomial are nonzero (|c_n| s^n = |c_0| up to rounding), so
    np.roots would strip nothing.  If the batched call raises, each row
    is solved alone.
    """
    c = np.asarray(cores)
    real = ~np.any(c.imag, axis=1)
    if real.any() and not real.all():
        out: list = [None] * len(c)
        for part in (real, ~real):
            rows = np.flatnonzero(part)
            for i, result in zip(rows, _solve_cores(c[rows])):
                out[i] = result
        return out
    if real.all():
        c = c.real
    deg = c.shape[1] - 1
    if deg == 0:
        return [np.zeros(0, dtype=complex) for _ in c]
    s = np.array([(abs(row[0]) / abs(row[-1])) ** (1.0 / deg) for row in c])
    p = (c * s[:, None] ** np.arange(deg + 1))[:, ::-1]
    companion = np.zeros((len(c), deg, deg), dtype=p.dtype)
    companion[:, np.arange(1, deg), np.arange(deg - 1)] = 1
    companion[:, 0, :] = -p[:, 1:] / p[:, :1]
    try:
        eig = np.linalg.eigvals(companion).astype(complex)
    except np.linalg.LinAlgError as exc:
        if len(c) == 1:
            return [exc]
        return [result for i in range(len(c))
                for result in _solve_cores(c[i:i + 1])]
    roots = s[:, None] * eig
    polyval = np.polynomial.polynomial.polyval
    terms = c.T[:, :, None]  # polyval evaluates row r of c at row r of x
    noise = polyval(np.abs(roots), np.abs(terms), tensor=False)
    eps = np.finfo(float).eps
    ok = np.all(np.abs(polyval(roots, terms, tensor=False))
                <= 1e6 * eps * np.maximum(noise, 1e-300), axis=1)
    ok[ok] = _factor_defects(c[ok], roots[ok]) <= ACCEPT_DEFECT
    return [roots[i] if ok[i] else ConvergenceError(
                f"root finding failed for degree {deg}", partial=roots[i])
            for i in range(len(c))]


def _solve_core(coeffs: np.ndarray) -> np.ndarray:
    """All roots of sum_k coeffs[k] z^k, as companion-matrix eigenvalues:
    the one-row case of _solve_cores.

    Requires coeffs[0] != 0 and coeffs[-1] != 0 (strip_and_solve strips
    structural zeros first).  The variable is scaled, z = s y with
    s = |coeffs[0] / coeffs[-1]|^(1/n), so the polynomial in y has end
    coefficients of equal magnitude; the roots are the eigenvalues of its
    companion matrix, as np.roots takes them, which LAPACK balances.
    Those eigenvalues are backward stable as a set (Edelman & Murakami,
    Math. Comp. 64, 1995), so a cluster of roots keeps its symmetric
    functions.  Real coefficients give a real companion matrix, whose
    complex eigenvalues come in exact conjugate pairs.

    The set must pass a residual check, |P(z)| <= 1e6 eps sum_k |c_k||z|^k
    at every root, and reproduce the coefficients within ACCEPT_DEFECT
    (_factor_defects); otherwise ConvergenceError, with the roots in
    `partial`.
    """
    return _raised(_solve_cores(np.asarray(coeffs)[None])[0])


def _raised(result):
    """result, or raise it if it is an exception."""
    if isinstance(result, Exception):
        raise result
    return result


@dataclass(frozen=True)
class ZeroSet:
    """Zeros of a Majorana polynomial with multiplicities summing to 2j."""

    j: int
    zeros: tuple[tuple[SpherePoint, int], ...]

    def __post_init__(self):
        total = sum(mult for _, mult in self.zeros)
        if total != 2 * self.j:
            raise ValueError(
                f"multiplicities sum to {total}, expected {2*self.j}")

    @property
    def total_multiplicity(self) -> int:
        return sum(mult for _, mult in self.zeros)

    def multiplicity_at_infinity(self) -> int:
        return sum(mult for pt, mult in self.zeros if pt.is_infinity)

    def multiplicity_at_origin(self) -> int:
        return sum(mult for pt, mult in self.zeros
                   if not pt.is_infinity and pt.zeta == 0)

    def expand(self) -> list[SpherePoint]:
        """Each zero repeated by its multiplicity."""
        out: list[SpherePoint] = []
        for pt, mult in self.zeros:
            out.extend([pt] * mult)
        return out


def _live_ranges(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of a coefficient above DEGREE_RTOL * max, for
    each row of a stack (R, n); a row with none gets (n, -1)."""
    mags = np.abs(coeffs)
    live = mags > DEGREE_RTOL * mags.max(axis=1)[:, None]
    n = coeffs.shape[1]
    lo, hi = live.argmax(axis=1), n - 1 - live[:, ::-1].argmax(axis=1)
    found = live.any(axis=1)
    if found.all():
        return lo, hi
    return np.where(found, lo, n), np.where(found, hi, -1)


def _live_range(coeffs: np.ndarray) -> tuple[int, int]:
    """First and last index of a coefficient above DEGREE_RTOL * max: the
    one-row case of _live_ranges."""
    (lo,), (hi,) = _live_ranges(np.asarray(coeffs)[None])
    if hi < 0:
        raise ValueError("polynomial is identically zero")
    return int(lo), int(hi)


def strip_and_solve_stack(coeffs: np.ndarray) -> list:
    """strip_and_solve for each row of a stack (R, n+1): its (count at 0,
    count at infinity, rest), or the exception it raises alone.  The
    stripped cores of equal length are solved together (_solve_cores).
    """
    lo, hi = _live_ranges(coeffs)
    n = coeffs.shape[1]
    out: list = [ValueError("polynomial is identically zero") if h < 0
                 else None for h in hi.tolist()]
    size = hi - lo + 1
    for length in sorted(set(size[hi >= 0].tolist())):
        rows = np.flatnonzero((size == length) & (hi >= 0))
        cores = coeffs[rows[:, None], lo[rows, None] + np.arange(length)]
        for i, roots in zip(rows.tolist(), _solve_cores(cores)):
            out[i] = (roots if isinstance(roots, Exception)
                      else (int(lo[i]), n - 1 - int(hi[i]), roots))
    return out


def strip_and_solve(coeffs: np.ndarray) -> tuple[int, int, np.ndarray]:
    """Roots of sum_k coeffs[k] z^k as (count at 0, count at infinity, rest).

    Coefficients below DEGREE_RTOL * max|coeffs| at either end of the
    vector are structural zeros: each one at the low end is a root at
    z = 0, each one at the high end a root at infinity.  The stripped
    core is solved by _solve_core.  The one-row case of
    strip_and_solve_stack.
    """
    return _raised(strip_and_solve_stack(np.asarray(coeffs)[None])[0])


def poly_residuals(coeffs: np.ndarray, roots: np.ndarray,
                   deg: np.ndarray) -> np.ndarray:
    """poly_residual of each row of a stack of coefficients (R, n+1) over
    its row of roots (R, k), k >= 1, given each row's deg (the last index
    of _live_ranges).  Rows of one deg share the power deg, a Python int,
    as poly_residual raises to it."""
    polyval = np.polynomial.polynomial.polyval
    vals = np.abs(polyval(roots, coeffs.T[:, :, None], tensor=False))
    scale = np.max(np.abs(coeffs), axis=1)[:, None]
    out = np.empty(len(coeffs))
    for d in sorted(set(deg.tolist())):
        rows = deg == d
        weight = np.maximum(1.0, np.abs(roots[rows])) ** d
        out[rows] = np.max(vals[rows] / (scale[rows] * weight), axis=1)
    return out


def poly_residual(coeffs: np.ndarray, roots) -> float:
    """max over roots r of |P(r)| / (max|coeffs| * max(1,|r|)^deg).

    deg is the largest power whose coefficient is not structurally zero.
    The one-row case of poly_residuals.
    """
    r = np.asarray(roots, dtype=complex)
    if r.size == 0:
        return 0.0
    deg = _live_range(coeffs)[1]
    return float(poly_residuals(np.asarray(coeffs)[None], r[None],
                                np.array([deg]))[0])


def poly_roots(poly: MajoranaPoly) -> ZeroSet:
    """Zeros of P on the sphere, exploiting parity structure when present.

    Structural zeros at the ends of the coefficient vector are the zeros
    at the origin and at infinity (strip_and_solve).  When every
    coefficient of one parity is structurally zero, P is zeta^nu times a
    polynomial in u = zeta^2, which is solved in u so the +- zeta pairs
    come out exact.
    """
    d = poly.coeffs
    mags = np.abs(d)
    cut = DEGREE_RTOL * float(mags.max())
    nu = next((nu for nu in (0, 1) if not np.any(mags[1 - nu::2] > cut)),
              None)
    finite: list[tuple[SpherePoint, int]] = []
    if nu is None:
        n0, n_inf, roots = strip_and_solve(d)
        finite = [(SpherePoint.from_zeta(r), 1) for r in roots]
    else:
        n0, n_inf, u_roots = strip_and_solve(d[nu::2])
        n0, n_inf = 2 * n0 + nu, 2 * n_inf + nu
        for u in u_roots:
            root = cmath.sqrt(u)
            finite.append((SpherePoint.from_zeta(root), 1))
            finite.append((SpherePoint.from_zeta(-root), 1))

    zeros: list[tuple[SpherePoint, int]] = []
    if n0 > 0:
        zeros.append((SpherePoint.from_zeta(0.0), n0))
    if n_inf > 0:
        zeros.append((SpherePoint.infinity(), n_inf))
    return ZeroSet(j=poly.j, zeros=tuple(zeros + finite))


def root_residual(poly: MajoranaPoly, zeros: ZeroSet) -> float:
    """poly_residual of P over the finite zeros."""
    return poly_residual(poly.coeffs, [pt.zeta for pt, _ in zeros.zeros
                                       if not pt.is_infinity])
