"""Multipartite Svetlichny and Mermin-Klyshko operators with refined bounds.

Build the exact symbolic operators, realize them against measurement
scenarios on arbitrary finite-dimensional states, and tighten the flat
2**(N-1) sqrt(2) ceiling using measured local and bipartite correlations.

Only the documented entry points are exported here; everything else is
imported from its submodule (``bellbounds.linalg``, ``bellbounds.bounds``,
...).
"""

from .bounds import (
    BoundReport,
    best_mk_bound,
    best_svetlichny_bound,
    chi,
    classical_pair_report,
    covariance_inequality,
    eta,
    mk_bound_classical_pair,
    mk_bound_odd,
    svetlichny_bound,
)
from .experiments import (
    OptimizerConfig,
    SweepConfig,
    figure_sweep,
    maximize_violation,
    verify_bounds_random,
)
from .linalg import (
    FileFormatError,
    InvariantViolation,
    QuantumState,
    expectation,
    ghz_state,
    write_state_file,
)
from .observables import (
    DichotomicObservable,
    MeasurementScenario,
    write_scenario_file,
)
from .polynomials import (
    BellPolynomial,
    check_equivalence_even,
    dump_terms,
    is_permutation_invariant,
    mk,
    parse_terms,
    realize,
    svetlichny,
)

__version__ = "0.1.0"

__all__ = [
    "BellPolynomial",
    "BoundReport",
    "DichotomicObservable",
    "FileFormatError",
    "InvariantViolation",
    "MeasurementScenario",
    "OptimizerConfig",
    "QuantumState",
    "SweepConfig",
    "best_mk_bound",
    "best_svetlichny_bound",
    "check_equivalence_even",
    "chi",
    "classical_pair_report",
    "covariance_inequality",
    "dump_terms",
    "eta",
    "expectation",
    "figure_sweep",
    "ghz_state",
    "is_permutation_invariant",
    "maximize_violation",
    "mk",
    "mk_bound_classical_pair",
    "mk_bound_odd",
    "parse_terms",
    "realize",
    "svetlichny",
    "svetlichny_bound",
    "verify_bounds_random",
    "write_scenario_file",
    "write_state_file",
]
