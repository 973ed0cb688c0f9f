"""Count and classify solutions of a^x + b^y = c^z for bases sharing a factor.

The layers build on each other: arith supplies integer routines, triple
fixes a base triple and its shared primes, solve enumerates solutions
and groups them into classes, classify tags solutions at each shared
prime, families covers the four infinite two-solution families and the
anomaly verdict, catalog lists the known anomalous nine-tuples, and
search hunts for new ones.  The cli module exposes all of it as the
exptriple command.
"""

from .arith import (
    Factored,
    as_power_of,
    factorize,
    introot,
    is_prime,
    least_index,
    lte_odd,
    power_representations,
    prime_support_subset,
    same_prime_set_scan,
    two_adic,
    two_adic_profile,
    valuation,
)
from .catalog import KNOWN_ANOMALOUS, SEARCHED_RADICAL_BOUND, is_known_anomalous
from .classify import TypeProfile, type_profile
from .config import RunConfig, SearchBounds
from .errors import (
    FamilyConstraintError,
    InputDataError,
    InternalInvariantError,
    ProportionalityError,
    UsageError,
)
from .families import (
    FAMILY_TAGS,
    Classification,
    FamilyWitness,
    NineTuple,
    canonical_nine,
    classify_nine,
    gen_family,
    in_F,
    in_family,
    make_nine_tuple,
)
from .search import (
    EquationRecord,
    Identity,
    IngestReport,
    PipelineOutcome,
    ReconstructionResult,
    SolvedSystem,
    decompose,
    direct_search,
    generate_equations,
    ingest_equations,
    make_equation,
    pair_and_solve,
    reconstruct_and_verify,
    run_pipeline,
)
from .solve import (
    SolutionSet,
    Solution,
    SpecialShape,
    correspond,
    count_N,
    detect_special_case,
    enumerate_solutions,
    make_solution,
    power_of_two_solutions,
    term_multiset,
)
from .triple import GDecomposition, Triple, build_triple, g_decomposition

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "EquationRecord",
    "FAMILY_TAGS",
    "Factored",
    "FamilyConstraintError",
    "FamilyWitness",
    "GDecomposition",
    "Identity",
    "IngestReport",
    "InputDataError",
    "InternalInvariantError",
    "KNOWN_ANOMALOUS",
    "NineTuple",
    "PipelineOutcome",
    "ProportionalityError",
    "ReconstructionResult",
    "RunConfig",
    "SEARCHED_RADICAL_BOUND",
    "SearchBounds",
    "Solution",
    "SolutionSet",
    "SolvedSystem",
    "SpecialShape",
    "Triple",
    "TypeProfile",
    "UsageError",
    "as_power_of",
    "build_triple",
    "canonical_nine",
    "classify_nine",
    "correspond",
    "count_N",
    "decompose",
    "detect_special_case",
    "direct_search",
    "enumerate_solutions",
    "factorize",
    "g_decomposition",
    "gen_family",
    "generate_equations",
    "in_F",
    "in_family",
    "ingest_equations",
    "introot",
    "is_known_anomalous",
    "is_prime",
    "least_index",
    "lte_odd",
    "make_equation",
    "make_nine_tuple",
    "make_solution",
    "pair_and_solve",
    "power_of_two_solutions",
    "power_representations",
    "prime_support_subset",
    "reconstruct_and_verify",
    "run_pipeline",
    "same_prime_set_scan",
    "term_multiset",
    "two_adic",
    "two_adic_profile",
    "type_profile",
    "valuation",
]
