"""Linear-equivalence invariants of finite directed graphs.

Two directed graphs are linearly equivalent when their source/target matrix
pairs can be carried into each other by invertible row and column changes of
basis.  This package computes a complete set of invariants for that relation
purely combinatorially, by counting vertex classes of iterated left/right
contractions, and decides equivalence; an independent exact-rational
linear-algebra oracle recomputes every record straight from the matrices.

The public names resolve on first use (PEP 562), and the oracle side
(`linearize`, `oracle`) is registered lazily, so a graph command never
compiles the oracle.
"""

import importlib
import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "contraction": ("ContractionDiagram", "StabilizationShapeError", "StableShape",
                    "classify_stable", "gamma_table", "iterated_contraction", "left_partition",
                    "right_partition", "stabilize"),
    "invariants": ("ConsistencyError", "DualFormMismatch", "EquivVerdict",
                   "InvariantRecord", "NegativeMultiplicity", "RationalRegularPart",
                   "analyze_graph", "cyclotomic_refine", "decide_equiv", "full_invariants",
                   "gamma_content", "part_one", "part_three_zt00", "part_two",
                   "vertex_check"),
    "linearize": ("PairMatrices", "linearize", "parse_pair_file", "serialize_pair"),
    "oracle": ("DimensionMismatch", "OracleReport", "analyze", "canonical_pair", "compare",
               "kernel_meet_dim", "minimal_indices_left", "minimal_indices_right",
               "oracle_invariants", "regular_pair"),
    "parsing": ("ParseError", "parse_graph", "serialize"),
    "relation": ("BinaryRelation", "GraphError", "MultiDigraph", "Partition",
                 "ReductionSummary", "converse", "quotient", "reduce"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def _lazy_submodule(name: str):
    """The module linequiv.<name>, put in `sys.modules` without running it:
    `importlib.util.LazyLoader` compiles and executes its source on the first
    attribute access.  A later import finds the same object."""
    fullname = f"{__name__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
    return sys.modules[fullname]


# Registered here, before anything imports them: the import system binds a
# submodule it loads to the package attribute of that name, which would hide
# the `linearize` function; and code that looks modules up in `sys.modules`,
# such as the benchmark's tracer, finds both.
_lazy_submodule("linearize")
oracle = _lazy_submodule("oracle")
