"""Nonlinear semigroups from discretized accretive operators, with
closed-form smoothing exponents and verified decay estimates."""

from .exponents import (
    INF,
    ConditionError,
    ExponentTriple,
    GNParams,
    IterationResult,
    SExponents,
    StarExponents,
    barenblatt_exponent,
    doubly_nonlinear_exponents,
    dtn_exponents,
    extrapolate_to_infinity,
    fractional_exponents,
    iteration_sequence,
    moser_exponents,
    moser_q_sequence,
    plaplace_exponents,
    smoothing_exponents,
)
from .harness import (
    DecayFit,
    Report,
    barenblatt_comparison,
    config_hash,
    contraction_suite,
    conservation_suite,
    convergence_study,
    exponents_from_query,
    fit_power_law,
    gn_suite,
    initial_condition,
    order_suite,
    run_decay_experiment,
    run_suite,
    smooth_bump,
    spec_from_config,
)
from .measure import (
    DiscreteSpace,
    GridFunction,
    lq_norm,
    lq_norm_rows,
    mass,
    q_bracket,
)
from .operators import (
    BoundaryCondition,
    DiscreteOperator,
    GNCheckResult,
    Grid,
    LipschitzF,
    OperatorSpec,
    PhiSpec,
    barenblatt_on_grid,
    barenblatt_profile,
    barenblatt_support_radius,
    gn_check,
    linear_perturbation,
    tanh_perturbation,
)
from .resolvent import (
    NonConvergenceError,
    PreconditionError,
    ResolventBatchResult,
    ResolventResult,
    solve_resolvent,
    solve_resolvent_batch,
)
from .semigroup import (
    TimeGrid,
    Trajectory,
    evolve,
    trajectory_to_csv,
)

__version__ = "0.1.0"
