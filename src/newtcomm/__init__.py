"""Exact commutants of planar Newton derivations.

The derivation delta_f acts by x -> y, y -> f(x); this package computes
the space of polynomial derivations commuting with it, certifies that the
space is K[H] * delta_f for deg f >= 2 (H = y^2 - 2*int f dx), analyzes
the parity-split coefficient systems, builds the slope obstruction
polynomials with their Laurent-ring root witnesses, and verifies the
classical rectification formula numerically for affine fields.
"""

from .commutant import (
    CommutantBasis,
    HDecomposition,
    RankOneCertificate,
    certify_rank_one,
    decompose_in_H,
    solve_commutant,
)
from .derivations import (
    LaurentDerivation,
    PlanarDerivation,
    divergence,
    hamiltonian,
    newton_derivation,
)
from .errors import (
    DegenerateRecurrence,
    HypothesisViolation,
    InvalidInput,
    NewtcommError,
    NotAMultiple,
    NotDivisible,
    ParseError,
    RingMismatch,
    SingularDelta,
)
from .family import (
    LaurentFamily,
    build_family,
    first_integral,
    linear_pair,
    pm_witness,
    pm_witness_linear,
)
from .flows import (
    FlowCheckReport,
    LinearizationResult,
    adaptive_simpson,
    companion_for_linear,
    example_fixture,
    rectification_defect,
    rk4_flow,
)
from .obstruction import (
    ObstructionPoly,
    build_obstruction,
    expected_root_set,
    rational_roots,
)
from .parity import (
    LemmaSuiteReport,
    ParitySystem,
    SolutionSpace,
    build_system,
    check_lemma_suite,
    solve_system,
)
from .parsing import parse_bipoly, parse_laurent, parse_laurent_bipoly, parse_unipoly
from .poly import BiPoly, LaurentBiPoly, LaurentPoly, UniPoly

__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "CommutantBasis",
    "DegenerateRecurrence",
    "FlowCheckReport",
    "HDecomposition",
    "HypothesisViolation",
    "InvalidInput",
    "LaurentBiPoly",
    "LaurentDerivation",
    "LaurentFamily",
    "LaurentPoly",
    "LemmaSuiteReport",
    "LinearizationResult",
    "NewtcommError",
    "NotAMultiple",
    "NotDivisible",
    "ObstructionPoly",
    "ParitySystem",
    "ParseError",
    "PlanarDerivation",
    "RankOneCertificate",
    "RingMismatch",
    "SingularDelta",
    "SolutionSpace",
    "UniPoly",
    "adaptive_simpson",
    "build_family",
    "build_obstruction",
    "build_system",
    "certify_rank_one",
    "check_lemma_suite",
    "companion_for_linear",
    "decompose_in_H",
    "divergence",
    "example_fixture",
    "expected_root_set",
    "first_integral",
    "hamiltonian",
    "linear_pair",
    "newton_derivation",
    "parse_bipoly",
    "parse_laurent",
    "parse_laurent_bipoly",
    "parse_unipoly",
    "pm_witness",
    "pm_witness_linear",
    "rational_roots",
    "rectification_defect",
    "rk4_flow",
    "solve_commutant",
    "solve_system",
    "__version__",
]
