"""Quasispin Hamiltonian of the two-level pairing model.

H = eps*Jz + (lam/2)*(J+^2 + J-^2) + (gam/2)*(J+J- + J-J+)

acting on a single spin-j multiplet in the Dicke basis |j, m>, m = -j..j.
The interaction only connects m with m+-2, so the matrix is banded and the
even/odd sublattices (j+m even / odd) never mix.

Control parameters:
    gamma_x = (2j-1)(gam + lam)/eps,   gamma_y = (2j-1)(gam - lam)/eps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError

PARITY_EVEN = "even"
PARITY_ODD = "odd"
PARITY_MIXED = "mixed"

_PARITY_TOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Couplings of the quasispin Hamiltonian for one multiplet.

    j is a positive integer (number of particles N = 2j).  eps is the level
    splitting, lam the pair-exchange coupling, gam the scattering coupling.
    """

    j: int
    eps: float = 1.0
    lam: float = 0.0
    gam: float = 0.0

    def __post_init__(self):
        if not isinstance(self.j, (int, np.integer)) or self.j < 1:
            raise ValueError(f"j must be a positive integer, got {self.j!r}")
        for name in ("eps", "lam", "gam"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(
                    f"{name} must be finite, got {getattr(self, name)!r}")
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
        """Trajectory parameter sqrt|gamma_x / gamma_y|."""
        gy = self.gamma_y
        if gy == 0.0:
            raise ZeroDivisionError("t undefined: gamma_y = 0")
        return math.sqrt(abs(self.gamma_x / gy))


def couplings(j: int, gamma_x, gamma_y, eps=1.0):
    """(lam, gam) at the control parameters, elementwise over arrays."""
    if not isinstance(j, (int, np.integer)) or j < 1:
        raise ValueError(f"j must be a positive integer, got {j!r}")
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


def _normalized_rows(coeffs: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """The rows of a complex stack (R, dim) at unit norm, and the parity
    of each row.

    A row whose norm is off 1 by more than 1e-12 is divided by it; a zero
    row raises ValueError.  A row is even if its odd-index entries are all
    within _PARITY_TOL of its largest entry, odd if its even-index entries
    are, mixed otherwise.
    """
    norm = _norms(coeffs)
    off = [abs(n - 1.0) > 1e-12 for n in norm.tolist()]
    if any(off):
        if not norm.all():
            raise ValueError("zero vector is not a state")
        coeffs = np.divide(coeffs, norm[:, None], out=coeffs.copy(),
                           where=np.array(off)[:, None])
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
    """Dense symmetric matrix of H in the Dicke basis, with its parameters."""

    params: ModelParams
    matrix: np.ndarray

    @property
    def norm(self) -> float:
        """Max row sum (induced infinity norm), used to scale tolerances."""
        return float(max_row_sum(self.matrix))


def max_row_sum(matrices: np.ndarray) -> np.ndarray:
    """Max row sum of |H| for each matrix of a stack (..., dim, dim)."""
    return np.max(np.sum(np.abs(matrices), axis=-1), axis=-1)


def hamiltonian_stack(j: int, eps, lam, gam) -> np.ndarray:
    """The Dicke-basis matrices of H for arrays of couplings, (S, dim, dim).

    eps, lam and gam broadcast to one shape (S,).  Each entry is computed
    with the same operations, in the same order, as a scalar formula:

        Diagonal:   <m|H|m>   = eps*m + gam*(j(j+1) - m^2)
        Off-band:   <m+2|H|m> = (lam/2) * sqrt((j-m)(j+m+1)(j-m-1)(j+m+2))

    with the integer factors exact, so every sample gets the bits that
    build_hamiltonian gives it alone.
    """
    eps, lam, gam = (x.astype(float)[:, None] for x in
                     np.broadcast_arrays(*np.atleast_1d(eps, lam, gam)))
    dim = 2 * j + 1
    k = np.arange(dim)
    m = k - j
    H = np.zeros((eps.shape[0], dim, dim))
    H[:, k, k] = eps * m + gam * (j * (j + 1) - m * m)
    k, m = k[:-2], m[:-2]
    v = 0.5 * lam * np.sqrt(
        ((j - m) * (j + m + 1) * (j - m - 1) * (j + m + 2)).astype(float))
    H[:, k + 2, k] = v
    H[:, k, k + 2] = v
    return H


def build_hamiltonian(params: ModelParams) -> HamiltonianMatrix:
    """The banded Dicke-basis matrix of one parameter point: the
    one-sample case of hamiltonian_stack."""
    H = hamiltonian_stack(params.j, params.eps, params.lam, params.gam)[0]
    H.setflags(write=False)
    return HamiltonianMatrix(params=params, matrix=H)


def split_parity(h: HamiltonianMatrix
                 ) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Return (even block, odd block, index maps); each block is tridiagonal.

    The even block acts on Dicke indices 0, 2, 4, ... (j+m even), the odd
    block on 1, 3, 5, ...; the index maps give each block row's position
    in the full Dicke basis.
    """
    dim = h.matrix.shape[0]
    even_idx = np.arange(0, dim, 2)
    odd_idx = np.arange(1, dim, 2)
    return (h.matrix[0::2, 0::2], h.matrix[1::2, 1::2], (even_idx, odd_idx))


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


def degenerate_flags(w: np.ndarray, gap_tol) -> np.ndarray:
    """Mask of the eigenvalues within gap_tol of a neighbour, over the last
    axis of ascending w; gap_tol broadcasts against np.diff(w, axis=-1)."""
    close = np.diff(w, axis=-1) < gap_tol
    flags = np.zeros(w.shape, dtype=bool)
    flags[..., :-1] |= close
    flags[..., 1:] |= close
    return flags


def rank_states(values, gap_tol) -> tuple[np.ndarray, np.ndarray,
                                          np.ndarray]:
    """The states of solved sectors in ascending energy: per rank its
    sector, its column in that sector and its degenerate flag.

    values lists each sector's ascending eigenvalues, (n_s,) or a stack
    (S, n_s), and the ranks run over the last axis.  The rank is a
    stable argsort of the sectors' values concatenated in list order, and
    the flag degenerate_flags over the state's own sector, with gap_tol
    broadcasting against each sector's np.diff.
    """
    order = np.argsort(np.concatenate(values, axis=-1), axis=-1,
                       kind="stable")
    sizes = [w.shape[-1] for w in values]
    ends = np.cumsum(sizes)
    sector = np.searchsorted(ends, order, side="right")
    flags = np.concatenate([degenerate_flags(w, gap_tol) for w in values],
                           axis=-1)
    return (sector, order - (ends - sizes)[sector],
            np.take_along_axis(flags, order, axis=-1))


PARITY_SECTORS = ((PARITY_EVEN, 0), (PARITY_ODD, 1))


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


def parity_eigenstates(h: np.ndarray, index: int) -> tuple:
    """The state of energy rank `index` of each H in a stack (S, dim, dim).

    Both parity blocks are solved by parity_eigh, stacked.  Returns
    (solved, offset, col, degenerate): the (w, v) stacks of the sectors
    of PARITY_SECTORS, and for each H the sector offset (0 even, 1 odd),
    column and degenerate flag of its state, ranked by rank_states with
    gap DEGENERACY_RTOL * |H|, as diagonalize ranks its list.  An index
    outside 0..2j raises ValueError.
    """
    solved = [parity_eigh(h[:, offset::2, offset::2], name)
              for name, offset in PARITY_SECTORS]
    if not 0 <= index < h.shape[-1]:
        raise ValueError(f"state_index {index} out of range")
    sector, col, flags = rank_states([w for w, _ in solved],
                                     DEGENERACY_RTOL * max_row_sum(h)[:, None])
    return solved, sector[:, index], col[:, index], flags[:, index]


def _eigenpair(h: HamiltonianMatrix, rows, column: np.ndarray, energy,
               index: int, degenerate) -> EigenPair:
    full = np.zeros(h.matrix.shape[0])
    full[rows] = column
    return EigenPair(energy=float(energy),
                     state=StateVector(j=h.params.j, coeffs=full),
                     index=index, degenerate=bool(degenerate))


def diagonalize(h: HamiltonianMatrix) -> list[EigenPair]:
    """All eigenpairs, sorted by ascending energy.

    Each parity sector is solved separately by parity_eigh (they are
    exactly decoupled), so eigenvectors carry exact structural zeros on
    the other sublattice and a sharp parity label.  States closer than
    DEGENERACY_RTOL * |H| to a same-sector neighbor are flagged
    degenerate.
    """
    solved = [parity_eigh(h.matrix[offset::2, offset::2], name)
              for name, offset in PARITY_SECTORS]
    ranked = rank_states([w for w, _ in solved], DEGENERACY_RTOL * h.norm)
    return [_eigenpair(h, slice(offset, None, 2), solved[offset][1][:, col],
                       solved[offset][0][col], index, flag)
            for index, (offset, col, flag) in enumerate(
                zip(*(r.tolist() for r in ranked)))]


def eigenpair(h: HamiltonianMatrix, index: int) -> EigenPair:
    """diagonalize(h)[index], building only that one state: the
    one-sample case of parity_eigenstates.  An index outside 0..2j
    raises ValueError.
    """
    solved, (offset,), (col,), (flag,) = parity_eigenstates(h.matrix[None],
                                                            index)
    w, v = solved[offset]
    return _eigenpair(h, slice(offset, None, 2), v[0, :, col], w[0, col],
                      index, flag)


def expectation(h: HamiltonianMatrix, state: StateVector) -> float:
    return float(np.real(np.conj(state.coeffs) @ (h.matrix @ state.coeffs)))


def eigen_residual(h: HamiltonianMatrix, state: StateVector) -> float:
    """|| H psi - <H> psi || / |H|, a scale-free eigenvector quality
    measure: the one-state case of eigen_residuals."""
    return float(eigen_residuals(h.matrix[None], state.coeffs[None])[0])


def eigen_residuals(matrices: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """eigen_residual of each unit state of a stack (R, dim) under the
    matching H of a stack (R, dim, dim).  The products are stacked
    np.matmul and the norms _norms, so each state gets the bits it gets
    alone."""
    hv = np.matmul(matrices, coeffs[:, :, None])[:, :, 0]
    ev = np.matmul(np.conj(coeffs)[:, None, :], hv[:, :, None])[:, 0, 0].real
    return _norms(hv - ev[:, None] * coeffs) / max_row_sum(matrices)
