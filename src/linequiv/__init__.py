"""Linear-equivalence invariants of finite directed graphs.

Two directed graphs are linearly equivalent when their source/target matrix
pairs can be carried into each other by invertible row and column changes of
basis.  This package computes a complete set of invariants for that relation
purely combinatorially, by counting vertex classes of iterated left/right
contractions, and decides equivalence; an independent exact-rational
linear-algebra oracle recomputes every record straight from the matrices.
"""

from .contraction import (
    ContractionDiagram,
    Partition,
    StabilizationShapeError,
    StableShape,
    classify_stable,
    gamma_table,
    iterated_contraction,
    left_partition,
    quotient,
    right_partition,
    stabilize,
)
from .invariants import (
    ConsistencyError,
    DualFormMismatch,
    EquivVerdict,
    InvariantRecord,
    NegativeMultiplicity,
    RationalRegularPart,
    analyze_graph,
    cyclotomic_refine,
    decide_equiv,
    full_invariants,
    gamma_content,
    part_one,
    part_three_zt00,
    part_two,
    vertex_check,
)
from .linearize import PairMatrices, linearize, parse_pair_file, serialize_pair
from .oracle import (
    DimensionMismatch,
    OracleReport,
    analyze,
    canonical_pair,
    compare,
    kernel_meet_dim,
    minimal_indices_left,
    minimal_indices_right,
    oracle_invariants,
    regular_pair,
)
from .parsing import ParseError, parse_graph, serialize
from .relation import (
    BinaryRelation,
    GraphError,
    MultiDigraph,
    ReductionSummary,
    converse,
    reduce,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryRelation",
    "ConsistencyError",
    "ContractionDiagram",
    "DimensionMismatch",
    "DualFormMismatch",
    "EquivVerdict",
    "GraphError",
    "InvariantRecord",
    "MultiDigraph",
    "NegativeMultiplicity",
    "OracleReport",
    "ParseError",
    "PairMatrices",
    "Partition",
    "RationalRegularPart",
    "ReductionSummary",
    "StabilizationShapeError",
    "StableShape",
    "analyze",
    "analyze_graph",
    "canonical_pair",
    "classify_stable",
    "compare",
    "converse",
    "cyclotomic_refine",
    "decide_equiv",
    "full_invariants",
    "gamma_content",
    "gamma_table",
    "iterated_contraction",
    "kernel_meet_dim",
    "left_partition",
    "linearize",
    "minimal_indices_left",
    "minimal_indices_right",
    "oracle_invariants",
    "parse_graph",
    "parse_pair_file",
    "part_one",
    "part_three_zt00",
    "part_two",
    "quotient",
    "reduce",
    "regular_pair",
    "right_partition",
    "serialize",
    "serialize_pair",
    "stabilize",
    "vertex_check",
]
