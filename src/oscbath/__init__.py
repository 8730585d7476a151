"""Zero-temperature thermodynamics of a harmonic oscillator coupled to a
bosonic bath.

The package computes the excess system energy E_s(0), the coupling free
energy F(0), and the second-law deficit K = F(0) - E_s(0) for discrete baths
(exactly, by normal modes and residues) and for five continuous damping
families (Ohmic, Drude, exponential cutoff, extended Ohmic, extended Drude),
with closed forms, real-axis quadrature and an imaginary-axis trapezoid rule
cross-checking each other. A report takes all three numbers from one generic
integral, or from the Drude closed form (K from the rule where it cancels).
"""

from .discrete import (
    BathParseError,
    DegenerateBath,
    DiscreteBath,
    GroundStateReport,
    NormalModes,
    SecondLawReport,
    exact_ground_state_oracle,
    free_energy_0,
    gamma_zero,
    k_second_law,
    normal_modes,
    parse_bath_file,
    random_bath,
    system_energy_0,
)
from .quadrature import (
    DivergenceClass,
    DivergenceTag,
    Inconclusive,
    IntegralResult,
    NonConvergence,
    classify_tail,
    integrate_interval,
    integrate_semi_infinite,
)
from .spectral import (
    Drude,
    Exponential,
    ExtendedDrude,
    ExtendedOhmic,
    InvalidModel,
    ModelStatus,
    Ohmic,
    SpectralModel,
    StatusTag,
    UnsupportedKernel,
    classify_model,
    g_plus,
    gamma_plus,
    gamma_plus_derivative,
    parse_model,
)
from .thermo import (
    DrudeParams,
    ThermoReport,
    drude_params_from_physical,
    drude_params_to_physical,
    free_energy_0_cont,
    k_cont,
    k_drude_closed,
    k_drude_lambda,
    k_exponential,
    k_extended_drude1,
    k_extended_drude2_closed,
    limit_checks,
    system_energy_0_cont,
    thermo_report,
)

__version__ = "0.1.0"
