"""Quantifying how informative a quantum measurement is.

The central quantity is the robustness of a measurement: the least noise
weight that renders its statistics independent of the input state.  It
evaluates in closed form, certifies itself through primal and dual
optimizers of a small semidefinite program, equals the best advantage
the measurement gives in a state discrimination game, and is the
single-shot accessible information of the associated quantum-to-
classical channel.  The same toolbox covers post-processing
simulability with constructive witnesses and the robustness of
asymmetry and coherence for states.
"""

from .asymmetry import (
    AsymmetryReport,
    GroupRepresentation,
    dephasing_group,
    is_symmetric,
    orbit_ensemble,
    roa,
    roc,
    symmetric_subspace_basis,
    twirl,
    validate_group,
)
from .discrimination import (
    Ensemble,
    advantage,
    check_density_matrix,
    optimal_ensemble,
    p_guess_classical,
    p_guess_with_measurement,
    random_ensemble,
    validate_ensemble,
)
from .info import (
    AccessibleMinInfo,
    JointDistribution,
    acc_min_info_ensemble,
    acc_min_info_measurement,
    h_min,
    h_min_cond,
    i_min,
    joint_from_game,
)
from .measurement import (
    Povm,
    StochasticMap,
    depolarize_povm,
    post_process,
    projective_povm,
    random_povm,
    random_stochastic_map,
    rank_one_povm,
    trivial_povm,
    validate_povm,
)
from .numerics import (
    eig_hermitian,
    haar_random_unitary,
    hermitian_basis,
)
from .rom import (
    PseudoMixture,
    RobustnessReport,
    rom,
    rom_report,
    uniform_noise_mixture,
    verify_pseudo_mixture,
)
from .simulability import (
    SimulabilityCertificate,
    SimulabilityResult,
    is_simulable,
    witness_from_certificate,
)
from .solvers import (
    SdpSolution,
    min_error_guess_value,
    rom_via_sdp,
    solve_dominating,
    solve_lp,
)

__version__ = "0.1.0"
