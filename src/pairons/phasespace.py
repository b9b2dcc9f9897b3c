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
from .sphere import SpherePoint, coordinates
from .spin import PARITY_MIXED, PARITY_ODD, StateVector

# A root set that misses the coefficients it came from by a factor defect
# above ACCEPT_DEFECT is refused (_solve_cores).
ACCEPT_DEFECT = 1e-6


@functools.cache
def _binomial_sqrt(two_j: int) -> np.ndarray:
    """sqrt(C(2j, k)) for k = 0..2j, one rounding each from the exact
    integer; computed once per 2j and returned read-only."""
    out = np.array([math.sqrt(math.comb(two_j, k))
                    for k in range(two_j + 1)])
    out.setflags(write=False)
    return out


def _log_factorials(occ: np.ndarray, n_bosons: int) -> np.ndarray:
    """sum_l lgamma(n_l + 1) for each row of occupations occ, none above
    n_bosons, summed level by level."""
    log_fact = np.array([math.lgamma(n + 1) for n in range(n_bosons + 1)])
    log_prod = np.zeros(len(occ))
    for column in log_fact[occ.T]:
        log_prod = log_prod + column
    return log_prod


def _exp(x: np.ndarray) -> np.ndarray:
    """math.exp of each entry (np.exp would round differently)."""
    return np.array([math.exp(v) for v in x.tolist()])


def _polyval(x, c):
    """np.polynomial.polynomial.polyval(x, c, tensor=False): the
    polynomial of coefficients c, lowest power first along the first
    axis, at x, by Horner's rule.  The same operations as polyval's, so
    the same bits, without the import of numpy.polynomial.  c is cast
    once to the dtype of the result, as each of polyval's additions
    casts it (real coefficients at complex roots)."""
    c0 = c[-1] + x * 0
    c = np.asarray(c, dtype=c0.dtype)
    for i in range(2, len(c) + 1):
        c0 = c[-i] + c0 * x
    return c0


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
    d is the one-vector case of sector_slices.  A mixed-parity state has
    no such structure: UnpairedZeroError.
    """
    if state.parity == PARITY_MIXED:
        raise UnpairedZeroError(
            "state has mixed parity; its zeros do not close under "
            "zeta -> -zeta")
    nu = 1 if state.parity == PARITY_ODD else 0
    return nu, sector_slices(state.coeffs[nu::2], nu, 2 * state.j)


def sector_slices(columns: np.ndarray, nu: int, two_j: int) -> np.ndarray:
    """The u-polynomials (..., n) of a stack of vectors columns (..., n)
    of parity sector nu (0 even, 1 odd) in the sector's basis: conj(c_k)
    sqrt(C(2j, k)) at the sector's Dicke indices k = nu, nu + 2, ..., the
    entries of majorana_poly's coefficients there, bit for bit."""
    return np.conj(columns) * _binomial_sqrt(two_j)[nu::2]


def _overlaps(state: StateVector, z: np.ndarray) -> np.ndarray:
    """<psi|zeta> at an array of coordinates z (sphere.INFINITY for the
    south pole), each on its safe chart (_root_charts): where |zeta| > 1,
    the reversed polynomial at w = 1/zeta times the chart phase
    exp(-2ij arg w), so no power above 1 is formed.  At the pole w = 0
    and the value is conj(c_j), the amplitude in the w chart (the phase
    there is chart convention)."""
    x, terms = _root_charts(majorana_poly(state).coeffs[None], z[None])
    x = x[0]
    phase = np.where(np.abs(z) > 1.0, np.exp(-2j * state.j * np.angle(x)), 1)
    return phase * _polyval(x, terms)[0] / (1.0 + np.abs(x) ** 2) ** state.j


def coherent_overlap(state: StateVector, point: SpherePoint | complex) -> complex:
    """<psi|zeta> evaluated stably on either chart: the one-point case of
    _overlaps."""
    return complex(_overlaps(state, coordinates([point]))[0])


def husimi(state: StateVector, point: SpherePoint | complex) -> float:
    amp = coherent_overlap(state, point)
    return float(abs(amp) ** 2)


def husimi_quadrature(state: StateVector) -> float:
    """Integral of Q over the sphere with measure (2j+1)/(4 pi) sin(theta).

    Gauss-Legendre in cos(theta) crossed with a uniform azimuthal grid,
    128 nodes each; both are spectrally exact once 128 exceeds the
    bandwidth 2j, so for 2j < 128 the result is 1.0 to roundoff for any
    normalized state.  Q is |_overlaps|^2, one theta row at a time.
    """
    n_theta = n_phi = 128
    x, wx = np.polynomial.legendre.leggauss(n_theta)
    tan_half = np.tan(np.arccos(x) / 2.0)
    ring = np.exp(-1j * (2.0 * math.pi * np.arange(n_phi) / n_phi))
    q = np.array([np.abs(_overlaps(state, r * ring)) ** 2 for r in tan_half])
    weights = wx[:, None] * (2.0 * math.pi / n_phi)
    return float((2 * state.j + 1) / (4.0 * math.pi) * np.sum(q * weights))


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------

def _linear_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients (R, n+1), lowest power first, of prod_i (a_i + b_i z)
    for each row of stacks a, b (R, n), each factor divided first by
    max(|a_i|, |b_i|) (hypot, as abs of a complex scalar).  Such factors
    have Mahler measure 1, so the largest coefficient stays in [1/sqrt(n+1),
    2^n]; a power of two rescales it every 1000 factors.  A zero or
    non-finite factor gives a nan row; each row gets the bits it gets alone."""
    with np.errstate(all="ignore"):
        scale = np.maximum(np.hypot(a.real, a.imag), np.hypot(b.real, b.imag))
        a, b = ((x.real / scale + 1j * (x.imag / scale)).T for x in (a, b))
        n, count = a.shape
        prod = np.zeros((count, n + 1), dtype=complex)
        prod[:, 0] = 1.0
        low, high = prod[:, :-1], prod[:, 1:]
        shifted = np.empty_like(low)
        # factors as full rows multiply faster than broadcast columns
        for lo in range(0, n, 1000):
            if lo:
                size = np.abs(prod).max(axis=1)
                prod *= np.ldexp(1.0, -np.frexp(size)[1])[:, None]
            for ai, bi in zip(np.repeat(a[lo:lo + 1000, :, None], n + 1, 2),
                              np.repeat(b[lo:lo + 1000, :, None], n, 2)):
                np.multiply(low, bi, out=shifted)
                prod *= ai
                high += shifted
    return prod


def _factor_defects(c: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Shape distance between each row of c and lead * prod (z - r_i)
    over its row of roots, for stacks c (R, n+1) and roots (R, n): both
    at unit max magnitude, the product _linear_product's.  A wrong or
    lost root shows up as an O(1) defect; a correct root set, clustered
    or not, reconstructs the shape to rounding.  A non-finite root reads
    as an infinite defect."""
    prod = _linear_product(-roots, np.ones_like(roots))
    with np.errstate(all="ignore"):
        rows = np.arange(len(c))
        ref = c / np.abs(c).max(axis=1)[:, None]
        k = np.argmax(np.abs(prod), axis=1)
        ref_k = ref[rows, k]
        defect = np.abs(prod * (ref_k / prod[rows, k])[:, None]
                        - ref).max(axis=1)
    return np.where(np.isfinite(defect) & (ref_k != 0), defect, math.inf)


def _solve_cores(cores: np.ndarray) -> list:
    """All roots of each row of a stack (R, n+1) of cores of one length,
    sum_k c[k] z^k, as companion-matrix eigenvalues: its (roots, residual),
    or the ConvergenceError it raises alone.  The residual is the largest
    |P(z)| / max|c| of the sweep that checks the roots below, the
    poly_residual of the core.

    Each row needs c[0] != 0 and c[-1] != 0 (strip_and_solve_stack strips
    structural zeros first).  The variable is scaled, z = s y with
    s = |c[0] / c[-1]|^(1/n), so the polynomial in y has end coefficients
    of equal magnitude, and np.roots would strip nothing from it; the
    roots are the eigenvalues of its companion matrix, as np.roots takes
    them, which LAPACK balances.  Those eigenvalues are backward stable as
    a set (Edelman & Murakami, Math. Comp. 64, 1995), so a cluster of
    roots keeps its symmetric functions.  Real coefficients give a real
    companion matrix, whose complex eigenvalues come in exact conjugate
    pairs.

    The set must pass a residual check, |P(z)| <= 1e6 eps sum_k |c_k||z|^k
    with both sides finite at every root, taken for |z| > 1 on the
    reversed polynomial at 1/z (_root_charts) so that no power of z
    overflows, and reproduce the coefficients within ACCEPT_DEFECT
    (_factor_defects); otherwise ConvergenceError, with the roots in
    `partial`.

    A stack with any complex coefficient is solved in complex, a real one
    in real, and the scaled companion matrices of all rows go to one
    batched np.linalg.eigvals, which runs the LAPACK routine of np.roots
    on each matrix.  If the batched call raises, each row is solved
    alone; a row whose eigensolve still fails, as when its scaled
    coefficients overflow, gets a ConvergenceError.
    """
    c = np.asarray(cores)
    if not np.any(c.imag):
        c = c.real
    deg = c.shape[1] - 1
    if deg == 0:
        return [(np.zeros(0, dtype=complex), 0.0) for _ in c]
    s = np.array([(abs(row[0]) / abs(row[-1])) ** (1.0 / deg) for row in c])
    # an overflow fails the eigensolve or the residual check below
    with np.errstate(all="ignore"):
        p = (c * s[:, None] ** np.arange(deg + 1))[:, ::-1]
        companion = np.zeros((len(c), deg, deg), dtype=p.dtype)
        companion[:, np.arange(1, deg), np.arange(deg - 1)] = 1
        companion[:, 0, :] = -p[:, 1:] / p[:, :1]
        try:
            eig = np.linalg.eigvals(companion).astype(complex)
        except np.linalg.LinAlgError as exc:
            if len(c) == 1:
                return [ConvergenceError(
                    f"root finding failed for degree {deg}: {exc}")]
            return [result for i in range(len(c))
                    for result in _solve_cores(c[i:i + 1])]
        roots = s[:, None] * eig
        x, terms = _root_charts(c, roots)
        value, bound = np.abs(_polyval(
            np.stack([x, np.abs(x)]), np.stack([terms, np.abs(terms)], 1)))
        bound = 1e6 * np.finfo(float).eps * np.maximum(bound, 1e-300)
        residual = (value.max(axis=1) / np.abs(c).max(axis=1)).tolist()
    ok = np.all((value <= bound) & np.isfinite(bound), axis=1)
    ok[ok] = _factor_defects(c[ok], roots[ok]) <= ACCEPT_DEFECT
    return [(roots[i], residual[i]) if ok[i] else ConvergenceError(
                f"root finding failed for degree {deg}", partial=roots[i])
            for i in range(len(c))]


def _root_charts(coeffs: np.ndarray, roots: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Where to evaluate each row of a stack of coefficients (R, n+1) at
    each of its roots (R, k) without forming a power above 1: the points
    x (R, k) and per-root coefficient rows (n+1, R, k), for
    _polyval(x, terms) (_solve_cores, poly_residual).  A root r with
    |r| <= 1 keeps the coefficients; one with |r| > 1 is taken as w = 1/r
    on the reversed ones, Q(w) = w^n P(1/w) = P(r) / r^n."""
    x = roots.copy()
    big = np.abs(x) > 1.0
    x[big] = 1.0 / x[big]
    terms = coeffs.T[:, :, None]
    return x, np.where(big, terms[::-1], terms)


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
    """First and last index of a nonzero coefficient, for each row of a
    stack (R, n); a row with none gets (n, -1)."""
    live = coeffs != 0
    n = coeffs.shape[1]
    lo, hi = live.argmax(axis=1), n - 1 - live[:, ::-1].argmax(axis=1)
    found = live.any(axis=1)
    if found.all():
        return lo, hi
    return np.where(found, lo, n), np.where(found, hi, -1)


def strip_and_solve_stack(coeffs: np.ndarray) -> list:
    """strip_and_solve for each row of a stack (R, n+1): its (count at 0,
    count at infinity, rest, residual), or the exception it raises alone.
    The stripped cores of equal length are solved together (_solve_cores),
    and the residual is the poly_residual of the row's core over its rest.
    """
    lo, hi = _live_ranges(coeffs)
    n = coeffs.shape[1]
    out: list = [ValueError("polynomial is identically zero") if h < 0
                 else None for h in hi.tolist()]
    size = hi - lo + 1
    for length in sorted(set(size[hi >= 0].tolist())):
        rows = np.flatnonzero((size == length) & (hi >= 0))
        cores = coeffs[rows[:, None], lo[rows, None] + np.arange(length)]
        for i, solved in zip(rows.tolist(), _solve_cores(cores)):
            out[i] = (solved if isinstance(solved, Exception)
                      else (int(lo[i]), n - 1 - int(hi[i]), *solved))
    return out


def strip_and_solve(coeffs: np.ndarray) -> tuple[int, int, np.ndarray]:
    """Roots of sum_k coeffs[k] z^k as (count at 0, count at infinity, rest).

    Exact zeros at either end of the vector are structural: each one at
    the low end is a root at z = 0, each one at the high end a root at
    infinity.  The stripped core is solved by _solve_cores.  The one-row
    case of strip_and_solve_stack.
    """
    return _raised(strip_and_solve_stack(np.asarray(coeffs)[None])[0])[:3]


def poly_residual(coeffs: np.ndarray, roots) -> float:
    """max over roots r of |P(r)| / (max|coeffs| * max(1,|r|)^deg).

    deg is the largest power whose coefficient is nonzero.  For |r| > 1
    the ratio is taken as |Q(1/r)|, Q(w) = w^deg P(1/w) the reversed
    polynomial (_root_charts), so no power of r is formed that could
    overflow.
    """
    r = np.asarray(roots, dtype=complex)
    if r.size == 0:
        return 0.0
    live = np.flatnonzero(coeffs)
    if not live.size:
        raise ValueError("polynomial is identically zero")
    c = np.asarray(coeffs)[None, :live[-1] + 1]
    value = np.abs(_polyval(*_root_charts(c, r[None])))
    return float(value.max() / np.abs(c).max())


def poly_roots(poly: MajoranaPoly) -> ZeroSet:
    """Zeros of P on the sphere, exploiting parity structure when present.

    Exact zeros at the ends of the coefficient vector are the zeros at
    the origin and at infinity (strip_and_solve).  When every coefficient
    of one parity is zero, P is zeta^nu times a polynomial in u = zeta^2,
    which is solved in u so the +- zeta pairs come out exact.
    """
    d = poly.coeffs
    nu = next((nu for nu in (0, 1) if not np.any(d[1 - nu::2])), None)
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
