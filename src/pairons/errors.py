"""Exception types shared across the package.

Everything here signals a *numerical* or *structural* failure of a
computation that was otherwise called correctly.  Bad arguments keep
raising plain ValueError / TypeError.
"""


class PaironsError(Exception):
    """Base class for numerical/structural failures."""


class ConvergenceError(PaironsError):
    """A solver returned no trustworthy result.

    Root finding raises it when the companion-matrix roots fail the
    residual check or their normalized factor product misses the
    coefficients by more than ACCEPT_DEFECT (phasespace._solve_cores).
    The parity-block eigensolver (spin.parity_eigh) raises it when LAPACK
    fails, and the collapse detector's regula falsi when a bracket is still
    open after 100 rounds.
    Carries whatever partial results were available in ``partial``.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class DegenerateStateError(PaironsError):
    """Refused to extract zeros/pairons from a degenerate eigenstate."""


class SingularParameterError(PaironsError):
    """Control parameters sit on a singular locus (gamma_x = 0 or gamma_y = 0)."""


class UnpairedZeroError(PaironsError):
    """The zero set does not close under z -> -z, so no pairon set exists."""


class InconsistentPaironsError(PaironsError):
    """A pairon set violates a consistency requirement (imaginary parts
    failing to cancel in the energy sum, say, or a rebuilt state that
    fails its fidelity or eigen-residual check) that points at an
    upstream extraction problem rather than at physics."""


class UnresolvedAnchorError(PaironsError):
    """The collapses on a trajectory are not determined: the amplitude at
    the anchor is within its rounding noise at some sample, so its sign is
    lost, or the samples are too coarse to tell neighbouring sign changes
    apart."""
