"""Graded-algebra toolkit relating quantum and classical spin path integrals.

Layers, bottom up:

* :mod:`spindeq.exact`: exact rational-complex coefficients, and
  ``crational``, which lifts a float to its exact binary value;
* :mod:`spindeq.symbols`: graded polynomials in named symbols with formal
  time derivatives, parsing, and printing; ``SymbolContext`` is the one
  algebra class and ``GradedPolynomial``, every coefficient exact, its one
  element class;
* :mod:`spindeq.grassmann`: Berezin calculus and operators given by their
  symbols;
* :mod:`spindeq.superfield`: superfield expansions and the dequantization
  map from quantum to classical-path-integral Lagrangians;
* :mod:`spindeq.quantum`: spin-1/2 states and operators in one Grassmann
  algebra, symbol composition, and time-sliced propagators;
* :mod:`spindeq.cpi`: the classical-path-integral Hamiltonian as an
  operator, and its exact evolution and the classical flow on one Cayley
  clock;
* :mod:`spindeq.orbit`: the constrained sphere: Poisson brackets, Dirac
  brackets as exact polynomials, and the precession flow;
* :mod:`spindeq.suite` / :mod:`spindeq.cli`: end-to-end checks and the
  ``spindeq`` command.
"""

from .errors import (
    FormatError,
    IdentityViolationError,
    OddPowerError,
    ParityError,
    ParseError,
    SpindeqError,
    TableMismatchError,
    UnknownSymbolError,
    UnsupportedCaseError,
)
from .exact import CRational, I, crational
from .symbols import (
    EVEN,
    ODD,
    GradedPolynomial,
    SymbolContext,
    SymbolDecl,
    bind_constants,
    formal_time_derivative,
    format_poly,
    parse,
    partial_derivative,
    substitute,
)
from .grassmann import GrassmannOperator, berezin_integral, product
from .superfield import (
    CASES,
    DequantizationCase,
    DequantizationResult,
    FieldFamily,
    OMEGA_CANONICAL,
    builtin_hamiltonian,
    builtin_hamiltonians,
    compose_observable_taylor,
    dequantize,
    get_case,
    quantum_lagrangian,
    superfield_bindings,
    supertime_integral,
    top_component,
)
from .quantum import (
    MagneticField,
    SpinOperator,
    SpinState,
    apply_kernel,
    compose_symbols,
    hamiltonian,
    integral_kernel,
    kernel_from_symbol,
    kernel_propagate,
    kernel_to_matrix,
    magnetic_evolution,
    operator_from_matrix,
    ordered_symbol,
    pauli_evolve,
    sliced_propagator,
    sliced_symbol,
    slicing_errors,
    spin_operators,
    symbol_to_matrix,
)
from .cpi import (
    DEFAULT_EVEN_TRUNCATION,
    CpiSpec,
    LiouvilleOperator,
    build_cpi_hamiltonian,
    characteristics_check,
    cpi_hamiltonian,
    cpi_kinetic,
    cpi_lagrangian,
    evolve,
)
from .orbit import (
    CARTESIAN,
    CONSTRAINT_1,
    CONSTRAINT_2,
    HEIGHT,
    PHI,
    P_PHI,
    P_THETA,
    THETA,
    X1,
    X2,
    X3,
    SPHERE,
    OrbitState,
    PhaseFunction,
    classical_trajectory,
    dirac_bracket,
    on_sphere,
    poisson_bracket,
    precession_rate,
    pull_back,
    scaled_dirac_bracket,
    total_hamiltonian,
)
from .suite import (
    ALL_CHECKS,
    CheckResult,
    check_bosonic_dequantization,
    check_coadjoint_dequantization,
    check_cpi_transport,
    check_dirac_brackets,
    check_grassmann_dequantization,
    check_isomorphism,
    check_observable_map,
    check_precession,
    check_slicing,
    run_all,
)

__version__ = "0.1.0"

__all__ = [
    # errors
    "FormatError", "IdentityViolationError", "OddPowerError", "ParityError", "ParseError", "SpindeqError",
    "TableMismatchError", "UnknownSymbolError", "UnsupportedCaseError",
    # exact
    "CRational", "I", "crational",
    # symbols
    "EVEN", "ODD", "GradedPolynomial", "SymbolContext", "SymbolDecl", "bind_constants",
    "formal_time_derivative", "format_poly", "parse", "partial_derivative",
    "substitute",
    # grassmann
    "GrassmannOperator", "berezin_integral", "product",
    # superfield
    "CASES", "DequantizationCase", "DequantizationResult", "FieldFamily",
    "OMEGA_CANONICAL", "builtin_hamiltonian", "builtin_hamiltonians",
    "compose_observable_taylor", "dequantize", "get_case", "quantum_lagrangian",
    "superfield_bindings", "supertime_integral", "top_component",
    # quantum
    "MagneticField", "SpinOperator", "SpinState", "apply_kernel", "compose_symbols",
    "hamiltonian", "integral_kernel", "kernel_from_symbol", "kernel_propagate",
    "kernel_to_matrix", "magnetic_evolution", "operator_from_matrix", "ordered_symbol",
    "pauli_evolve", "sliced_propagator", "sliced_symbol", "slicing_errors",
    "spin_operators", "symbol_to_matrix",
    # cpi
    "DEFAULT_EVEN_TRUNCATION", "CpiSpec", "LiouvilleOperator",
    "build_cpi_hamiltonian", "characteristics_check", "cpi_hamiltonian", "cpi_kinetic",
    "cpi_lagrangian", "evolve",
    # orbit
    "CARTESIAN", "CONSTRAINT_1", "CONSTRAINT_2", "HEIGHT", "PHI", "P_PHI", "P_THETA",
    "SPHERE", "THETA", "X1", "X2", "X3", "OrbitState", "PhaseFunction",
    "classical_trajectory", "dirac_bracket", "on_sphere", "poisson_bracket",
    "precession_rate", "pull_back", "scaled_dirac_bracket", "total_hamiltonian",
    # suite
    "ALL_CHECKS", "CheckResult", "check_bosonic_dequantization",
    "check_coadjoint_dequantization", "check_cpi_transport", "check_dirac_brackets",
    "check_grassmann_dequantization", "check_isomorphism", "check_observable_map",
    "check_precession", "check_slicing", "run_all",
]
