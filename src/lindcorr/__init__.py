"""Multi-time correlation functions of Markovian open quantum systems.

The package builds adjoint-equation generators on tensor products of operator
slots, so that products of Heisenberg-picture observables at staggered times —
out-of-time-order correlators included — evolve under one linear equation per
inter-time gap.  Brute-force references (exact diagonalization with discrete
bath modes, first-order stepping of the slot equation) live in
:mod:`lindcorr.oracles`.
"""

from .decomposition import (
    JumpDecomposition,
    JumpMode,
    assign_rates,
    bose_occupation,
    decompose_model,
    default_freq_tol,
    exact_bohr_decomposition,
    local_decomposition,
)
from .errors import ConfigError, DegenerateSteadyStateError, NumericsError, SlotBudgetError
from .generators import (
    SlotKroneckerAction,
    SuperOperator,
    adjoint_lindbladian,
    dissipation_channels,
    elementary_tensor,
    forward_lindbladian,
    multi_slot_action,
    multi_slot_generator,
)
from .models import (
    BathSpec,
    Coupling,
    SystemModel,
    coupled_dimer,
    named_operator,
    truncated_oscillator,
    two_level_atom,
)
from .operators import (
    anticommutator,
    annihilation,
    commutator,
    dagger,
    expm,
    hermitian_eig,
    identity,
    is_hermitian,
    sigma_minus,
    sigma_plus,
    sigma_x,
    sigma_y,
    sigma_z,
    unvec,
    vec,
)
from .oracles import (
    FiniteBath,
    closed_correlator,
    finite_bath_correlator,
    finite_bath_correlators,
    golden_rule_band,
    naive_equation_integrator,
)
from .propagation import (
    CorrelatorSpec,
    CorrelatorTrace,
    contraction_functional,
    equal_time_group_correlator,
    evolve_density,
    general_correlator,
    integrate_ode,
    otoc,
    qrt_correlator,
    steady_state,
)

__version__ = "0.1.0"

__all__ = [
    "BathSpec",
    "ConfigError",
    "CorrelatorSpec",
    "CorrelatorTrace",
    "Coupling",
    "DegenerateSteadyStateError",
    "FiniteBath",
    "JumpDecomposition",
    "JumpMode",
    "NumericsError",
    "SlotBudgetError",
    "SlotKroneckerAction",
    "SuperOperator",
    "SystemModel",
    "adjoint_lindbladian",
    "annihilation",
    "anticommutator",
    "assign_rates",
    "bose_occupation",
    "closed_correlator",
    "commutator",
    "contraction_functional",
    "coupled_dimer",
    "dagger",
    "decompose_model",
    "default_freq_tol",
    "dissipation_channels",
    "elementary_tensor",
    "equal_time_group_correlator",
    "evolve_density",
    "exact_bohr_decomposition",
    "expm",
    "finite_bath_correlator",
    "finite_bath_correlators",
    "forward_lindbladian",
    "general_correlator",
    "golden_rule_band",
    "hermitian_eig",
    "identity",
    "integrate_ode",
    "is_hermitian",
    "local_decomposition",
    "multi_slot_action",
    "multi_slot_generator",
    "naive_equation_integrator",
    "named_operator",
    "otoc",
    "qrt_correlator",
    "sigma_minus",
    "sigma_plus",
    "sigma_x",
    "sigma_y",
    "sigma_z",
    "steady_state",
    "truncated_oscillator",
    "two_level_atom",
    "unvec",
    "vec",
]
