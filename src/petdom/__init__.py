"""Domination theory toolkit for generalized Petersen graphs P(n,2).

Closed-form domination numbers, explicit witness constructions, two
independent exact solvers, and the proof artifacts (blocks by member
count, per-column pair profiles, component censuses) that check them.
"""

from .domination import (
    BlockType,
    Bound,
    CensusChecks,
    Component,
    ComponentCensus,
    DominationKind,
    InequalityCheck,
    ValidationReport,
    Violation,
    blocks_by_count,
    census_inequalities,
    classify_singleton_block,
    component_census,
    induced_components,
    is_valid,
)
from .errors import (
    CensusError,
    ClassificationImpossibleError,
    ConstructionError,
    InfeasibleError,
    InternalError,
    ParameterError,
    PetdomError,
    SizeLimitError,
)
from .formulas import f_one_two, g_one_two_total, gamma_ref, gamma_t_ref
from .graph import (
    Block,
    BlockSign,
    PetersenGraph,
    Ring,
    Vertex,
    VertexSet,
    build_petersen,
    parse_vertex,
)
from .solver import (
    Eq1Check,
    PairProfile,
    SolveMethod,
    SolveResult,
    brute_force_min,
    check_eq1,
    enumerate_eq1,
    pair_profile,
)
from .transfer import dp_min, dp_minima

__version__ = "0.1.0"

__all__ = [
    "Block",
    "BlockSign",
    "BlockType",
    "Bound",
    "CensusChecks",
    "CensusError",
    "ClassificationImpossibleError",
    "Component",
    "ComponentCensus",
    "ConstructionError",
    "DominationKind",
    "Eq1Check",
    "InequalityCheck",
    "InfeasibleError",
    "InternalError",
    "PairProfile",
    "ParameterError",
    "PetdomError",
    "PetersenGraph",
    "Ring",
    "SizeLimitError",
    "SolveMethod",
    "SolveResult",
    "ValidationReport",
    "Vertex",
    "VertexSet",
    "Violation",
    "blocks_by_count",
    "brute_force_min",
    "build_petersen",
    "census_inequalities",
    "check_eq1",
    "classify_singleton_block",
    "component_census",
    "dp_min",
    "dp_minima",
    "enumerate_eq1",
    "f_one_two",
    "g_one_two_total",
    "gamma_ref",
    "gamma_t_ref",
    "induced_components",
    "is_valid",
    "pair_profile",
    "parse_vertex",
]
