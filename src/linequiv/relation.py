"""Directed multigraphs, binary relations, and reduction.

A :class:`MultiDigraph` is the user-facing input: an ordered vertex list and
an ordered edge list that may contain parallel edges and loops.  A
:class:`BinaryRelation` is the reduced form every other operation works on:
the edge set is a genuine set of ordered pairs.  Both are immutable values;
all functions here are pure.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


class GraphError(ValueError):
    """Raised for structurally invalid graphs."""


@dataclass(frozen=True)
class MultiDigraph:
    """Finite directed graph; parallel edges and loops allowed."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple((s, t) for s, t in self.edges))
        seen = set()
        for v in self.vertices:
            if v in seen:
                raise GraphError(f"duplicate vertex label {v!r}")
            seen.add(v)
        for s, t in self.edges:
            if s not in seen:
                raise GraphError(f"edge source {s!r} is not a declared vertex")
            if t not in seen:
                raise GraphError(f"edge target {t!r} is not a declared vertex")

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class BinaryRelation:
    """Reduced directed graph: pairs is a set, so no parallel edges."""

    vertices: tuple[str, ...]
    pairs: frozenset[tuple[str, str]]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "pairs", frozenset(self.pairs))
        index = {v: i for i, v in enumerate(self.vertices)}
        if len(index) != len(self.vertices):
            raise GraphError("duplicate vertex label")
        for s, t in self.pairs:
            if s not in index or t not in index:
                raise GraphError(f"pair ({s!r}, {t!r}) leaves the vertex set")

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.pairs)

    def index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    def sorted_pairs(self) -> tuple[tuple[str, str], ...]:
        """Pairs in (source index, target index) order; the canonical edge order."""
        ix = self.index()
        return tuple(sorted(self.pairs, key=lambda p: (ix[p[0]], ix[p[1]])))

    def to_multidigraph(self) -> MultiDigraph:
        return MultiDigraph(self.vertices, self.sorted_pairs())


@dataclass(frozen=True)
class ReductionSummary:
    """Outcome of merging parallel edges.

    split_count is the number of deleted edges; downstream, the full graph's
    invariants are those of `reduced` plus split_count extra summands of the
    one-edge/zero-vertex indecomposable type.
    """

    reduced: BinaryRelation
    parallel_class_sizes: tuple[int, ...] = field(default=())
    split_count: int = 0

    def __post_init__(self):
        sizes = tuple(sorted(self.parallel_class_sizes))
        object.__setattr__(self, "parallel_class_sizes", sizes)
        if self.split_count != sum(sizes) - len(sizes):
            raise GraphError("split_count does not match parallel class sizes")


def reduce(g: MultiDigraph) -> ReductionSummary:
    """Merge parallel edges, keeping one representative per (source, target)."""
    classes = Counter(g.edges)
    reduced = BinaryRelation(g.vertices, frozenset(classes))
    sizes = tuple(sorted(classes.values()))
    return ReductionSummary(reduced, sizes, sum(sizes) - len(sizes))


def converse(r: BinaryRelation) -> BinaryRelation:
    """Reverse every pair; vertices unchanged."""
    return BinaryRelation(r.vertices, frozenset((t, s) for s, t in r.pairs))

