"""Quasispin Hamiltonian of the two-level pairing model.

H = eps*Jz + (lam/2)*(J+^2 + J-^2) + (gam/2)*(J+J- + J-J+)

acting on a single spin-j multiplet in the Dicke basis |j, m>, m = -j..j.
The interaction only connects m with m+-2, so the matrix is banded and the
even/odd sublattices (j+m even / odd) never mix.

Control parameters:
    gamma_x = (2j-1)(gam + lam)/eps,   gamma_y = (2j-1)(gam - lam)/eps.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, SingularParameterError

PARITY_EVEN = "even"
PARITY_ODD = "odd"
PARITY_MIXED = "mixed"

_PARITY_TOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Couplings of the quasispin Hamiltonian for one multiplet.

    j is a positive integer (number of particles N = 2j).  eps is the level
    splitting, lam the pair-exchange coupling, gam the scattering coupling.

    parity_solutions, the point solved (SolvedPoint: its bands, their
    max row sum, both parity blocks solved and every state ranked), is
    derived from the couplings on first read and kept with the object, so
    the states taken from one ModelParams (extract_pairons, eigenpair,
    diagonalize) share one solve and one ranking.  It is not a field: two
    equal ModelParams compare and hash the same whether or not either
    holds it.
    """

    j: int
    eps: float = 1.0
    lam: float = 0.0
    gam: float = 0.0

    def __post_init__(self):
        check_j(self.j)
        if not all(map(math.isfinite, (self.eps, self.lam, self.gam))):
            raise overflow_refusal(self.j, self.eps, self.lam, self.gam)
        if self.eps == 0:
            raise ValueError("eps must be nonzero")

    @classmethod
    def from_gammas(cls, j: int, gamma_x: float, gamma_y: float,
                    eps: float = 1.0) -> "ModelParams":
        lam, gam = couplings(j, gamma_x, gamma_y, eps)
        return cls(j=int(j), eps=eps, lam=lam, gam=gam)

    @property
    def gamma_x(self) -> float:
        return gammas(self.j, self.eps, self.lam, self.gam)[0]

    @property
    def gamma_y(self) -> float:
        return gammas(self.j, self.eps, self.lam, self.gam)[1]

    @property
    def t(self) -> float:
        """Trajectory parameter sqrt|gamma_x / gamma_y|.  The pairon map
        is undefined at gamma_y = 0 and degenerate at gamma_x = 0, and t
        is refused there with the extraction's SingularParameterError."""
        gx, gy = gammas(self.j, self.eps, self.lam, self.gam)
        refusal = singular_refusal(gx, gy)
        if refusal is not None:
            raise refusal
        return math.sqrt(abs(gx / gy))

    @functools.cached_property
    def parity_solutions(self) -> SolvedPoint:
        """The point's SolvedPoint, read-only: solve_blocks of the bands
        of build_hamiltonian and their HamiltonianMatrix.norm, a one-point
        stack.  An H whose max row sum is not finite raises
        overflow_refusal, and a LAPACK failure ConvergenceError, on every
        read; neither is kept."""
        h = build_hamiltonian(self)
        norm = np.array([h.norm])
        record = solve_blocks(h.diag[None], h.off[None], norm)
        for array in (norm, *record.ranks,
                      *(a for pair in record.solutions for a in pair)):
            array.setflags(write=False)
        return record


@dataclass(frozen=True, eq=False)
class SolvedPoint:
    """A stack of points with both parity blocks solved and every state
    ranked (solve_blocks): the bands diag (S, dim) and off (S, dim - 2) of
    each H (hamiltonian_bands) and their max row sums norm (S,); per
    parity sector offset (0 even, 1 odd) the (values, vectors) of its
    blocks, (S, n) and (S, n, n); and ranks, the (sector, column,
    degenerate) arrays (S, dim) of rank_states over both blocks' values."""

    diag: np.ndarray
    off: np.ndarray
    norm: np.ndarray
    solutions: tuple
    ranks: tuple


def singular_refusal(gamma_x: float, gamma_y: float
                     ) -> SingularParameterError | None:
    """The refusal of a point on a singular line of the pairon map, or
    None: t is undefined at gamma_y = 0 and 0 at gamma_x = 0."""
    if gamma_y == 0.0:
        return SingularParameterError("gamma_y = 0: t is undefined")
    if gamma_x == 0.0:
        return SingularParameterError(
            "gamma_x = 0: t = 0 degenerates the map")
    return None


def overflow_refusal(j: int, eps: float, lam: float, gam: float,
                     names: tuple[float, float] | None = None) -> ValueError:
    """The refusal of a point whose max row sum of |H| is not finite: the
    ValueError that names its first coupling that is not finite (which
    ModelParams raises), or else its (gamma_x, gamma_y): names, the
    caller's own, or those of the couplings, taken in Python's float
    arithmetic, which cancel where |gamma_y| is huge."""
    for name, value in (("eps", eps), ("lam", lam), ("gam", gam)):
        if not math.isfinite(value):
            return ValueError(f"{name} must be finite, got {value!r}")
    gx, gy = gammas(j, eps, lam, gam) if names is None else names
    return ValueError(f"H overflows at (gx={gx:.6g}, gy={gy:.6g})")


def check_j(j: int) -> None:
    """Raise ValueError unless j is a positive integer."""
    if not isinstance(j, (int, np.integer)) or j < 1:
        raise ValueError(f"j must be a positive integer, got {j!r}")


def couplings(j: int, gamma_x, gamma_y, eps=1.0):
    """(lam, gam) at the control parameters, elementwise over arrays."""
    check_j(j)
    scale = eps / (2.0 * (2 * j - 1))
    return scale * (gamma_x - gamma_y), scale * (gamma_x + gamma_y)


def gammas(j: int, eps, lam, gam):
    """(gamma_x, gamma_y) of the couplings, elementwise over arrays."""
    return ((2 * j - 1) * (gam + lam) / eps, (2 * j - 1) * (gam - lam) / eps)


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a complex stack (..., n).

    Each is sqrt(x.x) of the real then the imaginary parts, taken on the
    strided views as np.linalg.norm takes it of one complex vector, so a
    row of a stack gets the bits that vector gets alone.
    """
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


def _unit_rows(coeffs: np.ndarray) -> np.ndarray:
    """The rows of a complex stack (R, dim) at unit norm: a row whose
    norm is off 1 by more than 1e-12 is divided by it, and a zero row
    raises ValueError."""
    norm = _norms(coeffs)
    off = np.abs(norm - 1.0) > 1e-12
    if off.any():
        if not norm.all():
            raise ValueError("zero vector is not a state")
        coeffs = np.divide(coeffs, norm[:, None], out=coeffs.copy(),
                           where=off[:, None])
    return coeffs


def _normalized_rows(coeffs: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """The rows of a complex stack (R, dim) at unit norm (_unit_rows), and
    the parity of each row.

    A row is even if its odd-index entries are all within _PARITY_TOL of
    its largest entry, odd if its even-index entries are, mixed otherwise.
    """
    coeffs = _unit_rows(coeffs)
    size = np.abs(coeffs)
    even = size[:, 0::2].max(axis=1)
    odd = size[:, 1::2].max(axis=1, initial=0.0)
    parities = []
    for e, o, scale in zip(even.tolist(), odd.tolist(),
                           np.maximum(even, odd).tolist()):
        if o <= _PARITY_TOL * scale:
            parities.append(PARITY_EVEN)
        elif e <= _PARITY_TOL * scale:
            parities.append(PARITY_ODD)
        else:
            parities.append(PARITY_MIXED)
    return coeffs, parities


@dataclass(frozen=True)
class StateVector:
    """Normalized state on one spin-j multiplet.

    coeffs[k] multiplies |j, m=k-j>, i.e. coefficients are stored by the
    Dicke index k = j + m = 0..2j.
    """

    j: int
    coeffs: np.ndarray
    parity: str = field(init=False)

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.shape != (2 * self.j + 1,):
            raise ValueError(
                f"need {2*self.j+1} coefficients for j={self.j}, got shape {arr.shape}")
        (arr,), (parity,) = _normalized_rows(arr[None])
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "parity", parity)

    @classmethod
    def dicke(cls, j: int, m: int) -> "StateVector":
        if not -j <= m <= j:
            raise ValueError(f"m must lie in [-{j}, {j}], got {m}")
        c = np.zeros(2 * j + 1, dtype=complex)
        c[j + m] = 1.0
        return cls(j=j, coeffs=c)

    def coefficient(self, m: int) -> complex:
        return complex(self.coeffs[self.j + m])


@dataclass(frozen=True)
class HamiltonianMatrix:
    """H in the Dicke basis, with its parameters: its bands (diag, off) of
    hamiltonian_bands."""

    params: ModelParams
    diag: np.ndarray
    off: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        """The dense symmetric matrix, assembled from the bands when read."""
        return _banded(self.diag, self.off, 2)

    @property
    def norm(self) -> float:
        """Max row sum (induced infinity norm), used to scale tolerances.
        An H whose norm is not finite raises overflow_refusal."""
        with np.errstate(over="ignore", invalid="ignore"):
            norm = float(max_row_sum(self.diag, self.off))
        if not norm < math.inf:
            p = self.params
            raise overflow_refusal(p.j, p.eps, p.lam, p.gam)
        return norm


def max_row_sum(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Max row sum of |H| of the bands of each point (hamiltonian_bands),
    each row summed in one fixed order, (|H_kk| + |H_k,k-2|) + |H_k,k+2|.
    Its rounding errors are those of two additions of non-negative terms,
    so it lies within two ulps of np.abs(H).sum(-1).max(-1) of the dense
    H, which sums the same three terms in numpy's pairwise order."""
    rows, size = np.abs(diag), np.abs(off)
    rows[..., 2:] += size
    rows[..., :-2] += size
    return rows.max(axis=-1)


@functools.cache
def _band_factors(j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The integer factors of the bands of H at j, computed once per j and
    returned read-only: m = -j..j, j(j+1) - m^2, and the off-band's
    sqrt((j-m)(j+m+1)(j-m-1)(j+m+2)) for m = -j..j-2, one rounding each
    from the exact integer."""
    m = np.arange(2 * j + 1) - j
    off = ((j - m) * (j + m + 1) * (j - m - 1) * (j + m + 2))[:-2]
    factors = (m, j * (j + 1) - m * m, np.sqrt(off.astype(float)))
    for factor in factors:
        factor.setflags(write=False)
    return factors


def hamiltonian_bands(j: int, eps, lam, gam) -> tuple[np.ndarray, np.ndarray]:
    """The bands of H for arrays of couplings: its diagonal (S, dim),
    <m|H|m> in column k = j + m, and its m+-2 band (S, dim - 2),
    <m+2|H|m> = <m|H|m+2> in column k.

    eps, lam and gam broadcast to one shape (S,).  Each entry is computed
    with the same operations, in the same order, as a scalar formula:

        Diagonal:   <m|H|m>   = eps*m + gam*(j(j+1) - m^2)
        Off-band:   <m+2|H|m> = (lam/2) * sqrt((j-m)(j+m+1)(j-m-1)(j+m+2))

    with the integer factors exact (_band_factors, once per j), so every
    sample gets the bits that build_hamiltonian gives it alone.
    """
    eps, lam, gam = (x.astype(float)[:, None] for x in
                     np.broadcast_arrays(*np.atleast_1d(eps, lam, gam)))
    m, quadratic, root = _band_factors(j)
    return eps * m + gam * quadratic, 0.5 * lam * root


def _banded(diag: np.ndarray, off: np.ndarray, step: int = 1) -> np.ndarray:
    """The symmetric matrices (..., n, n) with diagonal diag (..., n), off
    (..., n - step) on the diagonals +-step, and zeros elsewhere."""
    k = np.arange(diag.shape[-1])
    out = np.zeros(diag.shape + k.shape)
    out[..., k, k] = diag
    out[..., k[step:], k[:-step]] = out[..., k[:-step], k[step:]] = off
    return out


def parity_block(diag: np.ndarray, off: np.ndarray, offset: int) -> np.ndarray:
    """The tridiagonal blocks of sector offset (0 even, 1 odd) of bands
    (..., dim): the entries of H[offset::2, offset::2], bit for bit."""
    return _banded(diag[..., offset::2], off[..., offset::2])


def build_hamiltonian(params: ModelParams) -> HamiltonianMatrix:
    """The banded Dicke-basis H of one parameter point: the one-sample
    case of hamiltonian_bands.  Entries that overflow are left inf or
    NaN, and the norm refuses them."""
    with np.errstate(over="ignore", invalid="ignore"):
        diag, off = (b[0] for b in hamiltonian_bands(
            params.j, params.eps, params.lam, params.gam))
    diag.setflags(write=False)
    off.setflags(write=False)
    return HamiltonianMatrix(params=params, diag=diag, off=off)


def split_parity(h: HamiltonianMatrix
                 ) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Return (even block, odd block, index maps); each block is tridiagonal.

    The even block acts on Dicke indices 0, 2, 4, ... (j+m even), the odd
    block on 1, 3, 5, ...; the index maps give each block row's position
    in the full Dicke basis.
    """
    return (parity_block(h.diag, h.off, 0), parity_block(h.diag, h.off, 1),
            tuple(np.arange(offset, len(h.diag), 2) for offset in (0, 1)))


@dataclass(frozen=True)
class EigenPair:
    """One eigenpair.  `degenerate` means degenerate *within its parity
    sector*: that is the condition under which the eigenvector (hence its
    zeros) stops being well defined.  Cross-sector coincidences are
    harmless here because the sectors are solved independently and parity
    pins the basis; they are visible in the energies themselves."""

    energy: float
    state: StateVector
    index: int
    degenerate: bool


DEGENERACY_RTOL = 1e-9


def rank_states(values, gap_tol) -> tuple:
    """The states of solved sectors in ascending energy: per rank its
    sector, its column in that sector and its degenerate flag.

    values lists each sector's ascending eigenvalues, (n_s,) or a stack
    (S, n_s), and the ranks run over the last axis: a stable argsort of
    the values concatenated in list order.  A state is degenerate when a
    gap w[c+1] - w[c] beside it in its sector is at most gap_tol
    (broadcast as a column), so an exact tie is one at any gap_tol, 0
    included.  One concatenation serves the sort and the gaps, of which
    those across two sectors are dropped."""
    joined = np.concatenate(values, -1)
    order = np.argsort(joined, -1, kind="stable")
    sizes = [w.shape[-1] for w in values]
    starts = [0, *itertools.accumulate(sizes[:-1])]
    sector = np.repeat(np.arange(len(sizes)), sizes)[order]
    # a gap that overflows to inf is not close
    with np.errstate(over="ignore"):
        close = joined[..., 1:] - joined[..., :-1] <= gap_tol
    close[..., [s - 1 for s in starts if 0 < s < joined.shape[-1]]] = False
    # the value at position p has gaps p - 1 and p beside it
    flags = np.zeros(joined.shape, dtype=bool)
    flags[..., 1:] = close
    flags[..., :-1] |= close
    return (sector, order - np.array(starts)[sector],
            np.take_along_axis(flags, order, -1))


PARITY_SECTORS = ((PARITY_EVEN, 0), (PARITY_ODD, 1))

# c of the error bound c*n*eps*max(|H|, 1) of an n-row block: the
# eigenvalue window of parity_eigenstates' proof, and the residual
# |H x - E x| that certifies a boson eigenvector (bosonbcs._ranked_state)
EIGENVALUE_ERROR_C = 1e3

# Stacks of at least this many rows, points times 2j+1, solve one parity
# block per point (parity_eigenstates).  On a shared 2-core x86-64 host
# (numpy 2.4.6, one BLAS thread), with both solves building their blocks
# from the bands, the one-block solve of the ground state broke even with
# the two-block one at about 75 points of j = 4 (675 rows), 16 of j = 10
# (340), 7 of j = 20 (290) and 2 of j = 40 (160), and took 1.25-1.9
# times as long for a single point.
ONE_BLOCK_MIN_ROWS = 640

# Smallest pivot magnitude of _sturm_counts, on its scaled matrices
_PIVMIN = 2.0 ** -900


def parity_eigh(blocks: np.ndarray,
                name: str) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh of one parity block or a stack of them.

    Each block is already tridiagonal, so LAPACK's reduction to
    tridiagonal form leaves it unchanged; on numpy 2.4.6 and scipy 1.17.1
    the values and vectors are the bits of scipy's eigh_tridiagonal, and
    a stacked call gives each block the bits it gets alone.  A LAPACK
    failure raises ConvergenceError naming the sector.
    """
    try:
        return np.linalg.eigh(blocks)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"eigensolve failed in the {name} sector: {exc}") from exc


def _sturm_counts(diag: np.ndarray, off: np.ndarray,
                  x: np.ndarray) -> np.ndarray:
    """The number of eigenvalues below each x of a stack (S, K) of the
    symmetric tridiagonal matrix T of its row, whose diagonal is diag
    (S, n) and off-diagonal off (S, n - 1).

    The count is that of the negative pivots of T - x = L D L^T,
    d_1 = a_1 - x, d_i = (a_i - x) - b_(i-1)^2 / d_(i-1) (Sylvester's
    inertia; Barth, Martin & Wilkinson, Numer. Math. 9, 1967).  Each row
    and its x are first scaled by the power of two that brings their
    largest magnitude into [1/2, 1), exactly but for entries that
    underflow, so b^2 cannot overflow; a pivot of magnitude below
    _PIVMIN, zero included, is taken as -_PIVMIN, so no quotient
    exceeds 2^900, and no operation overflows or divides by zero.
    Computed so, the count is the exact count of a tridiagonal matrix
    whose off-diagonals are within a few ulps of T's (Kahan, Stanford
    CS41, 1966) and whose diagonal is moved by the pivot substitution
    and the underflow, each by at most 2^-899 of the scale.  A NaN x
    gives a meaningless count.
    """
    top = np.abs(np.concatenate([diag, off, x], axis=1)).max(axis=1)
    shift = -np.frexp(top)[1][:, None]
    b2 = np.square(np.ldexp(off, shift)).T
    # pivots[i] (K, S) is d_i at every x, computed in place
    pivots = np.ldexp(diag, shift).T[:, None, :] - np.ldexp(x, shift).T
    for i, d in enumerate(pivots):
        if i:
            d -= b2[i - 1] / pivots[i - 1]
        np.copyto(d, -_PIVMIN, where=np.abs(d) < _PIVMIN)
    return np.count_nonzero(pivots < 0, axis=0).T


def parity_eigenstates(diag, off, norm: np.ndarray, index: int) -> tuple:
    """The state of energy rank `index` of each H of a stack, given by its
    bands diag (S, dim) and off (S, dim - 2) (hamiltonian_bands), whose
    max row sums of |H| are norm (S,).  Each parity block is built from
    the bands (parity_block).

    Returns states_at's (degenerate, parts) of the two-block solve,
    solve_blocks, which is what a stack of fewer than ONE_BLOCK_MIN_ROWS
    rows (points times dim) takes.  An index outside 0..2j raises
    ValueError.

    A larger stack solves one block per point.  Its block A and column c
    are predicted from the weak-coupling order, H's diagonal sorted
    stably: A holds the Dicke index at rank `index`, and c is the number
    of A's indices before it.  With A's parity_eigh values w, the point
    is certified when _sturm_counts of the other block B gives index - c
    both at w[c] - 4*delta and at w[c] + 4*delta, with delta =
    c_E*n*eps*max(norm, 1), n = dim and c_E = EIGENVALUE_ERROR_C, and
    all of w and both windows are finite.  Its state is then column c of
    A.  An uncertified point keeps A's values and vectors, and
    solve_blocks solves B and ranks the two.

    Proof that a certified point gets what the two-block solve picks.
    Both solvers' values lie within delta of the exact eigenvalues (the
    LAPACK bound p(n)*eps*|H|_2, |H|_2 at most the max row sum; Golub &
    Van Loan, Matrix Computations, sec. 8.3), and a stacked parity_eigh
    gives each block the bits it gets alone, so A's values and vectors
    are those of the two-block solve.  A computed Sturm count at x is the
    exact count below x of a matrix B' within a few ulps of B (with
    _PIVMIN's shift, far below delta), whose eigenvalues lie within delta
    of B's (Weyl); rounding x costs less than another delta.  So the two
    counts put index - c of B's exact eigenvalues below w[c] - 2*delta and
    the others above w[c] + 2*delta, and B's computed values, within
    delta of them, index - c below w[c] - delta and the rest above
    w[c] + delta: none ties w[c].  In the stable sort of both blocks'
    values, A's columns before c come before it (ascending, ties in
    column order) and those after c after it, so (A, c) has rank
    c + (index - c) = index: the same sector, column, energy bits and
    vector bits, and the same degenerate flag, which rank_states takes
    from A's gaps alone.  The one difference: a LAPACK failure of B,
    which is not solved, is not raised.
    """
    dim = diag.shape[-1]
    if len(diag) * dim < ONE_BLOCK_MIN_ROWS or not 0 <= index < dim:
        return states_at(solve_blocks(diag, off, norm), index)
    first = np.argsort(diag, axis=1, kind="stable")[:, :index + 1] % 2
    predicted = first[:, index]
    col = np.count_nonzero(first[:, :index] == predicted[:, None], axis=1)
    delta = EIGENVALUE_ERROR_C * dim * np.finfo(float).eps * np.maximum(
        norm, 1.0)
    degenerate = np.zeros(len(diag), dtype=bool)
    parts = []
    for name, offset in PARITY_SECTORS:
        rows = np.flatnonzero(predicted == offset)
        if not rows.size:
            continue
        w, v = parity_eigh(parity_block(diag[rows], off[rows], offset), name)
        c = col[rows]
        at = w[np.arange(len(rows)), c]
        window = 4.0 * delta[rows]
        x = np.stack([at - window, at + window], axis=1)
        counts = _sturm_counts(diag[rows, 1 - offset::2],
                               off[rows, 1 - offset::2], x)
        ok = ((counts == (index - c)[:, None]).all(axis=1)
              & np.isfinite(w).all(axis=1) & np.isfinite(x).all(axis=1))
        here, rest = np.flatnonzero(ok), np.flatnonzero(~ok)
        if here.size:
            # w is ascending, so rank c in its own sector is column c
            flags = rank_states([w[here]],
                                DEGENERACY_RTOL * norm[rows[here], None])[2]
            degenerate[rows[here]] = flags[np.arange(here.size), c[here]]
            parts.append((offset, rows[here], v[here, :, c[here]],
                          at[here]))
        if rest.size:
            done = rows[rest]
            degenerate[done], more = states_at(solve_blocks(
                diag[done], off[done], norm[done],
                {offset: (w[rest], v[rest])}), index)
            parts += [(o, done[r], columns, energies)
                      for o, r, columns, energies in more]
    return degenerate, parts


def solve_blocks(diag: np.ndarray, off: np.ndarray, norm: np.ndarray,
                 known: dict | None = None) -> SolvedPoint:
    """The SolvedPoint of a stack of bands (S, dim) and their max row sums
    norm (S,): both blocks' parity_eigh, stacked, ranked by rank_states
    with gap DEGENERACY_RTOL * norm.  known maps a sector offset to the
    values and vectors of its blocks where they are already solved."""
    known = known or {}
    solutions = tuple(known[offset] if offset in known
                      else parity_eigh(parity_block(diag, off, offset), name)
                      for name, offset in PARITY_SECTORS)
    return SolvedPoint(diag, off, norm, solutions, rank_states(
        [w for w, _ in solutions], DEGENERACY_RTOL * norm[:, None]))


def states_at(record: SolvedPoint, index: int) -> tuple:
    """The state of energy rank index of each point of a SolvedPoint:
    (degenerate, parts), per point the degenerate flag of its state; and
    a list of parts (offset, rows, columns, energies), each of the points
    whose state lies in sector offset (0 even, 1 odd): their indices,
    ascending, and their eigenvectors in the sector's basis (len(rows),
    n_s) and energies.  Every point lies in one part, and no part is
    empty.  An index outside 0..2j raises ValueError."""
    if not 0 <= index < record.ranks[0].shape[-1]:
        raise ValueError(f"state_index {index} out of range")
    sector, col, flags = (r[:, index] for r in record.ranks)
    parts = []
    for offset, (w, v) in enumerate(record.solutions):
        rows = np.flatnonzero(sector == offset)
        c = col[rows]
        if rows.size:
            parts.append((offset, rows, v[rows, :, c], w[rows, c]))
    return flags, parts


def _eigenpair(h: HamiltonianMatrix, rows, column: np.ndarray, energy,
               index: int, degenerate) -> EigenPair:
    full = np.zeros(len(h.diag))
    full[rows] = column
    return EigenPair(energy=float(energy),
                     state=StateVector(j=h.params.j, coeffs=full),
                     index=index, degenerate=bool(degenerate))


def diagonalize(h: HamiltonianMatrix) -> list[EigenPair]:
    """All eigenpairs, sorted by ascending energy.

    Each parity sector is solved separately by parity_eigh (they are
    exactly decoupled), so eigenvectors carry exact structural zeros on
    the other sublattice and a sharp parity label; the solves and their
    ranking are those of h.params.parity_solutions, made once per
    ModelParams.  States closer than DEGENERACY_RTOL * |H| to a
    same-sector neighbor are flagged degenerate.  An H whose norm is not
    finite is refused before the solve, in HamiltonianMatrix.norm's words
    (overflow_refusal).
    """
    solved = h.params.parity_solutions
    return [_eigenpair(h, slice(offset, None, 2),
                       solved.solutions[offset][1][0, :, col],
                       solved.solutions[offset][0][0, col], index, flag)
            for index, (offset, col, flag) in enumerate(
                zip(*(r[0].tolist() for r in solved.ranks)))]


def eigenpair(h: HamiltonianMatrix, index: int) -> EigenPair:
    """diagonalize(h)[index], building only that one state: its sector,
    column and flag are read from h.params.parity_solutions (states_at),
    so the states of one ModelParams share one solve and one ranking.  An
    index outside 0..2j raises ValueError, and so does an H whose norm is
    not finite (overflow_refusal).
    """
    (flag,), [(offset, _, (column,), (energy,))] = states_at(
        h.params.parity_solutions, index)
    return _eigenpair(h, slice(offset, None, 2), column, energy, index, flag)


def expectation(h: HamiltonianMatrix, state: StateVector) -> float:
    return float(np.real(np.conj(state.coeffs) @ (h.matrix @ state.coeffs)))


def eigen_residual(h: HamiltonianMatrix, state: StateVector) -> float:
    """|| H psi - <H> psi || / |H|, a scale-free eigenvector quality
    measure: the one-state case of eigen_residuals."""
    return float(eigen_residuals(h.diag[None], h.off[None],
                                 state.coeffs[None])[0])


def eigen_residuals(diag, off, coeffs: np.ndarray,
                    norm: np.ndarray | None = None) -> np.ndarray:
    """eigen_residual of each unit state of a stack (R, dim) under the
    matching H of bands (R, dim) and (R, dim - 2), |H| their max_row_sum:
    norm (R,), where the caller holds it, else taken here.  H x is read
    off the bands, each row summed in max_row_sum's order, (H_kk x_k +
    H_k,k-2 x_k-2) + H_k,k+2 x_k+2, so no dense H is built; <H> is a
    stacked np.matmul and the norms _norms, so each state gets the bits
    it gets alone.  The residual vector and |H| are both scaled by the
    power of two that brings |H| into [1/2, 1), so the squares in _norms
    cannot overflow at any finite |H|.  The scaling is exact but for
    entries that underflow, so a residual whose squares neither overflow
    nor underflow keeps its bits."""
    hv = diag * coeffs
    hv[:, 2:] += off * coeffs[:, :-2]
    hv[:, :-2] += off * coeffs[:, 2:]
    ev = np.matmul(np.conj(coeffs)[:, None, :], hv[:, :, None])[:, 0, 0].real
    if norm is None:
        norm = max_row_sum(diag, off)
    scale = np.ldexp(1.0, -np.frexp(norm)[1])
    return (_norms((hv - ev[:, None] * coeffs) * scale[:, None])
            / (norm * scale))
