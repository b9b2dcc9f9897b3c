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
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, UnpairedZeroError
from .sphere import SpherePoint
from .spin import PARITY_MIXED, PARITY_ODD, StateVector

# Coefficients below DEGREE_RTOL * max|d| at either end of the coefficient
# vector are treated as structural zeros (roots at the origin / infinity).
DEGREE_RTOL = 1e-13

# Root sets from _aberth: one that reproduces the coefficients to within
# SWITCH_DEFECT is taken as is; above it the companion set is computed
# too and the better one kept; above ACCEPT_DEFECT a set is refused.
SWITCH_DEFECT = 1e-10
ACCEPT_DEFECT = 1e-6


def _binomial_sqrt(two_j: int) -> np.ndarray:
    out = np.empty(two_j + 1)
    for k in range(two_j + 1):
        out[k] = math.sqrt(math.comb(two_j, k))
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

def _factor_defect(c: np.ndarray, roots: np.ndarray) -> float:
    """Shape distance between c and lead * prod (z - r_i).

    Both coefficient vectors are compared at unit max magnitude, so the
    measure is scale-free and safe against overflow for long products.
    A wrong or lost root shows up as an O(1) defect; a correct root set,
    clustered or not, reconstructs the shape to rounding.
    """
    prod = np.array([1.0 + 0.0j])
    for r in roots:
        prod = np.convolve(prod, np.array([-r, 1.0]))
        peak = np.max(np.abs(prod))
        if peak == 0 or not np.isfinite(peak):
            return math.inf
        prod = prod / peak
    ref = c / np.max(np.abs(c))
    k = int(np.argmax(np.abs(prod)))
    if prod[k] == 0 or ref[k] == 0:
        return math.inf
    aligned = prod * (ref[k] / prod[k])
    return float(np.max(np.abs(aligned - ref)))


def _horner(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Several polynomials, each at its own points, in one Horner sweep.

    table has shape (deg+1, m): table[k, i] is the z^k coefficient of
    polynomial i.  x has shape (m, n); row i of the result is polynomial i
    at the points x[i].  The operations are those of
    np.polynomial.polynomial.polyval, in its order, so each row has
    polyval's bits; a shorter column padded with zeros at the top and a
    real column carried in complex keep them too.  The rows are swept as
    one flat array, each coefficient repeated once per point, which costs
    two ufunc calls per power for all m polynomials together.  The
    products stay out of place, as in polyval: numpy's in-place complex
    multiply of a single element can round differently from its other
    loops (no fused multiply-add).
    """
    m, n = x.shape
    cols = np.repeat(table, n, axis=1)
    x = x.ravel()
    acc = cols[-1] + x * 0
    for coeff in cols[-2::-1]:
        acc = coeff + acc * x
    return acc.reshape(m, n)


def _aberth(coeffs: np.ndarray) -> np.ndarray:
    """All roots of sum_k coeffs[k] z^k by simultaneous Aberth iteration.

    Requires coeffs[0] != 0 and coeffs[-1] != 0 (callers strip structural
    zeros first).  Iterates at most 200 times, stopping once every step
    is within 1e-14 (1 + |z|).  Finishes each root with a guarded Newton
    polish, then cross-checks the factorization against the input
    coefficients.  Near multiple roots the iteration can stall a member
    inside the cluster while losing an isolated root, or stop with every
    member of a cluster "converged" on its own (|P| at the noise floor)
    while the set as a whole is off by far more than rounding; residuals
    alone see neither.
    Companion-matrix eigenvalues keep the symmetric functions of a
    cluster, so whenever the Aberth set misses the coefficients by more
    than SWITCH_DEFECT the companion set is computed too and whichever
    reproduces the coefficients better is returned.  Either set must pass
    the residual check and a factor defect of at most ACCEPT_DEFECT;
    ConvergenceError is raised only when neither does.

    Each iteration makes one _horner sweep over the columns c, c' (padded
    with a zero at the top) and |c| at the rows z, z and |z|; P, P' and
    the noise floor of |P| come out with the bits of three polyval calls.
    A root whose |P| is below its noise floor is converged and frozen:
    later iterations neither evaluate nor move it.  That changes no value,
    because an iteration over all roots gives a converged root a zero
    step and keeps it converged.  The roots still active take the Aberth
    step, with the repulsion summed over the full row of all roots in
    index order (inf on the root's own entry), so np.sum adds the same
    terms in the same order and the termination test sees the same
    steps: the returned set is bit for bit the all-roots iteration's.
    """
    c = np.asarray(coeffs, dtype=complex)
    c = c / np.max(np.abs(c))
    deg = len(c) - 1
    if deg == 0:
        return np.zeros(0, dtype=complex)
    if deg == 1:
        return np.array([-c[0] / c[1]])
    if deg == 2:
        a, b, cc = c[2], c[1], c[0]
        disc = cmath.sqrt(b * b - 4 * a * cc)
        # pick the sign that avoids cancellation in the large root
        if (b.conjugate() * disc).real < 0:
            disc = -disc
        q = -0.5 * (b + disc)
        r1 = q / a
        r2 = cc / q if q != 0 else -b / a - r1
        return np.array([r1, r2])

    dc = np.append(c[1:] * np.arange(1, deg + 1), 0)
    table = np.stack([c, dc, np.abs(c)], axis=1)
    eps = np.finfo(float).eps

    def sweep(zz: np.ndarray):
        """P, P' and the noise floor of |P| at zz."""
        p, dp, noise = _horner(table, np.array([zz, zz, np.abs(zz)]))
        # a floor that overflows reads inf in real arithmetic but nan in
        # complex (inf * 0j); map it back so comparisons see polyval's value
        noise = noise.real
        return p, dp, np.where(np.isnan(noise), np.inf, noise)

    radius = (np.max(np.abs(c)) / abs(c[-1])) ** (1.0 / deg)
    k = np.arange(deg)
    angles = 2.0 * math.pi * (k + 0.35) / deg + 0.4 * np.sin(k + 1.0) / deg
    z = radius * np.exp(1j * angles)

    active = np.arange(deg)
    for _ in range(200):
        za = z[active]
        p, dp, noise = sweep(za)
        # unimprovable when |P(z)| is below the evaluation noise floor
        moving = ~(np.abs(p) <= 4.0 * eps * noise)
        if not moving.any():
            break
        active, za, p, dp = active[moving], za[moving], p[moving], dp[moving]
        newton = np.where(dp != 0, p / np.where(dp == 0, 1, dp), 0.1)
        diff = za[:, None] - z[None, :]
        diff[np.arange(active.size), active] = np.inf
        repulsion = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - newton * repulsion
        step = np.where(np.abs(denom) > 1e-300, newton / denom, newton)
        za = za - step
        z[active] = za
        if np.all(np.abs(step) <= 1e-14 * (1.0 + np.abs(za))):
            break

    def polish(zz: np.ndarray) -> np.ndarray:
        # Newton steps, accepted only when the residual improves
        for _ in range(2):
            p, dp, _ = sweep(zz)
            ok = dp != 0
            z_new = np.where(ok, zz - np.where(ok, p, 0) / np.where(ok, dp, 1),
                             zz)
            p_new = sweep(z_new)[0]
            zz = np.where(np.abs(p_new) < np.abs(p), z_new, zz)
        return zz

    def defect(zz: np.ndarray) -> float:
        """Factor defect, or inf when a root fails the residual check."""
        p, _, noise = sweep(zz)
        if not np.all(np.abs(p) <= 1e6 * eps * np.maximum(noise, 1e-300)):
            return math.inf
        return _factor_defect(c, zz)

    z = polish(z)
    z_defect = defect(z)
    if z_defect <= SWITCH_DEFECT:
        return z
    # companion eigenvalues are backward stable as a set; polishing
    # would sharpen members of a root cluster individually while
    # corrupting their symmetric functions, so take them as-is
    comp = np.roots(c[::-1])
    comp_defect = defect(comp)
    if comp_defect < z_defect:
        z, z_defect = comp, comp_defect
    if not z_defect <= ACCEPT_DEFECT:
        raise ConvergenceError(
            f"root finding failed for degree {deg}", partial=comp)
    return z


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


def _live_range(coeffs: np.ndarray) -> tuple[int, int]:
    """First and last index of a coefficient above DEGREE_RTOL * max."""
    mags = np.abs(coeffs)
    live = np.nonzero(mags > DEGREE_RTOL * float(mags.max()))[0]
    if live.size == 0:
        raise ValueError("polynomial is identically zero")
    return int(live[0]), int(live[-1])


def strip_and_solve(coeffs: np.ndarray) -> tuple[int, int, np.ndarray]:
    """Roots of sum_k coeffs[k] z^k as (count at 0, count at infinity, rest).

    Coefficients below DEGREE_RTOL * max|coeffs| at either end of the
    vector are structural zeros: each one at the low end is a root at
    z = 0, each one at the high end a root at infinity.  The stripped
    core is solved by _aberth.
    """
    lo, hi = _live_range(coeffs)
    return lo, len(coeffs) - 1 - hi, _aberth(coeffs[lo:hi + 1])


def poly_residual(coeffs: np.ndarray, roots) -> float:
    """max over roots r of |P(r)| / (max|coeffs| * max(1,|r|)^deg).

    deg is the largest power whose coefficient is not structurally zero.
    """
    r = np.asarray(roots, dtype=complex)
    if r.size == 0:
        return 0.0
    deg = _live_range(coeffs)[1]
    vals = np.abs(_horner(np.asarray(coeffs)[:, None], r[None])[0])
    scale = float(np.max(np.abs(coeffs)))
    return float(np.max(vals / (scale * np.maximum(1.0, np.abs(r)) ** deg)))


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
