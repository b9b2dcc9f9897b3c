"""Pairing energies of two-level and multi-level boson models, read off
from the zeros of phase-space (Husimi) amplitudes."""

__version__ = "0.1.0"

from .errors import (ConvergenceError, DegenerateStateError,
                     InconsistentPaironsError, PaironsError,
                     SingularParameterError, UnpairedZeroError,
                     UnresolvedAnchorError)
from .sphere import SpherePoint, chordal_distance
from .spin import (EigenPair, HamiltonianMatrix, ModelParams, StateVector,
                   build_hamiltonian, diagonalize, eigen_residual,
                   eigenpair, expectation, split_parity)
from .phasespace import (MajoranaPoly, ZeroSet, coherent_overlap, husimi,
                         husimi_quadrature, majorana_poly, parity_slice,
                         poly_residual, poly_roots, root_residual,
                         strip_and_solve)
from .paironmap import (ExtractionDiagnostics, PaironSet, extract_pairons,
                        fidelity, pairon_from_u, pairons_from_state,
                        pairons_to_zeros, reconstruct_state, u_from_pairon)
from .collapse import (AnchorProfile, CollapseCandidate, CollapsePoint,
                       CollapseRow, CrossingPoint, ScanTable, TrajectorySpec,
                       anchor_profile, anchor_value, collapse_points,
                       collapse_rows, collapse_zero_pattern, crossing_points,
                       find_collapses, hyperbola_levels, label_collapses,
                       scan_trajectory, total_collapse,
                       total_collapse_candidates)
from .bosonbcs import (BosonModel, BosonPaironSet, BosonState,
                       boson_eigenstate, boson_eigenstates,
                       boson_husimi_amplitude,
                       build_bcs_hamiltonian, ellipsoid_axes,
                       extract_boson_pairons, fock_basis,
                       reconstruct_boson_state, verify_ellipsoid)

__all__ = [name for name in dir() if not name.startswith("_")]
