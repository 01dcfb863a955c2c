"""Contour machinery and partition-function zeros for lattice spin models.

The package computes exact torus partition functions for finite-state,
finite-range spin models (Ising, multi-body Ising perturbations,
Blume-Capel, Potts), decomposes configurations into contours and contour
networks, evaluates cluster expansions of the resulting contour gases, and
predicts the zeros of the partition function in the complex field parameter
from the metastable free energies of the competing phases.  Every prediction
is checkable against exact torus partition functions.
"""

from .errors import BudgetError, ConvergenceError
from .lattice import Torus, torus
from .models import (
    EstimatedConstants,
    InteractionTerm,
    ModelError,
    SpinModel,
    TorusConfiguration,
    ZdConfiguration,
    blume_capel,
    excitation_energy,
    ground_state_energy,
    hamiltonian_torus,
    ising,
    model_from_config,
    perturbed_ising,
    potts,
    r_boundary,
    theta,
    theta_max,
)
from .torus_exact import (
    ExactZeroSet,
    PartitionPolynomial,
    exact_zeros,
    partition_function_exact,
    partition_polynomial,
    transfer_matrix_pf,
)
from .contours import (
    MatchingCollection,
    TorusContour,
    TorusNetwork,
    ZdContour,
    contour_classes,
    contour_graph,
    contour_partition_function,
    contour_weight,
    contours_in_region,
    exterior_interior,
    extract,
    is_matching,
    nesting_order,
    reconstruct,
    torus_contour_identity_check,
)
from .polymer import (
    Cluster,
    PolymerSystem,
    enumerate_clusters,
    estimate_c0,
    kp_certificate,
    log_partition_expansion,
    polymer_partition_function,
    tail_bounds_check,
    ursell_coefficient,
)
from .metastable import (
    Cutoffs,
    FreeEnergyTable,
    WeightEngine,
    nondegeneracy_check,
    estimate_M,
    estimate_tau,
    estimated_constants,
    finite_volume_zeta,
    free_energy_table,
    mollifier_eval,
    polymer_pressure,
    truncated_partition,
    truncated_weight,
    zeta,
)
from .zeros import (
    CoexistenceCurve,
    CurveError,
    PhaseEvaluator,
    ZeroSet,
    density_of_zeros,
    find_multiple_points,
    ising_zero_angle,
    match_predicted_exact,
    solve_zero_equations,
    splitting_residual,
    trace_coexistence,
)
