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
                   expectation, split_parity)
from .phasespace import (MajoranaPoly, ZeroSet, cluster_zeros,
                         coherent_overlap, husimi, husimi_quadrature,
                         majorana_poly, poly_roots, root_residual)
from .paironmap import (ExtractionDiagnostics, PaironSet, extract_pairons,
                        fidelity, pairon_from_u, pairons_to_zeros,
                        reconstruct_state, u_from_pairon, zeros_to_pairons)
from .collapse import (AnchorProfile, CollapseCandidate, CollapsePoint,
                       CrossingPoint, ScanTable, TrajectorySpec,
                       anchor_profile, anchor_value, collapse_points,
                       collapse_zero_pattern, crossing_points,
                       find_collapses, hyperbola_levels,
                       pairon_cluster_sizes, pattern_radius,
                       scan_trajectory, total_collapse)
from .bosonbcs import (BosonModel, BosonPaironSet, BosonState, boson_energy,
                       boson_fidelity, boson_husimi_amplitude,
                       build_bcs_hamiltonian, diagonalize_boson,
                       ellipsoid_axes, extract_boson_pairons, fock_basis,
                       reconstruct_boson_state, verify_ellipsoid)

__all__ = [name for name in dir() if not name.startswith("_")]
