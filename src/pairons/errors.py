"""Exception types shared across the package.

Everything here signals a *numerical* or *structural* failure of a
computation that was otherwise called correctly.  Bad arguments keep
raising plain ValueError / TypeError.
"""


class PaironsError(Exception):
    """Base class for numerical/structural failures."""


class ConvergenceError(PaironsError):
    """An iterative solver hit its iteration cap.

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
    failing to cancel in the energy sum, say) that points at an upstream
    extraction problem rather than at physics."""


class UnresolvedAnchorError(PaironsError):
    """The amplitude at a collapse anchor is within its rounding noise, so
    its sign, and with it the count of collapses, is not determined."""
