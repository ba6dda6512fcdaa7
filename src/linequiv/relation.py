"""Directed multigraphs, binary relations, and reduction.

A :class:`MultiDigraph` is the user-facing input: an ordered vertex list and
an ordered edge list that may contain parallel edges and loops.  A
:class:`BinaryRelation` is the reduced form every other operation works on:
the edge set is a genuine set of ordered pairs.  Both are immutable values;
all functions here are pure.

Both store their edges as vertex ids, a vertex's id being its position in
`vertices`.  Labels become ids once: in the parser, or in the public
constructors here, which check them.  Every later stage works on `ids`; the
label pairs (`edges`, `pairs`) are built only when a caller reads them, and
a relation the contraction engine builds makes even its vertex labels only
then.

The contraction engine works on vertex ids too: its result is an array of
class ids, the classes numbered in the order of their first vertex, which
is the canonical order of a :class:`Partition`.  Labels come back only at
the boundary, here: a Partition is read off such an array in one scan, and
a quotient relation makes its class labels when they are first read, so
gamma_table and the record never build them.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from operator import attrgetter

_set = object.__setattr__


class GraphError(ValueError):
    """Raised for structurally invalid graphs."""


class _Value:
    """An immutable value.  Assigning or deleting an attribute raises
    AttributeError, so a constructor sets fields with object.__setattr__.  A
    subclass that names its fields in __slots__ is equal to an instance of
    its own class with equal fields, hashes and shows them in order, and
    copies and pickles: what `@dataclass(frozen=True)` generates, without
    compiling source at import."""

    __slots__ = ()

    def __init_subclass__(cls):
        if cls.__slots__:
            cls._fields = attrgetter(*cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __setstate__(self, state):
        """Restore what copy and pickle saved: the instance dict, or
        (instance dict or None, slot values)."""
        if isinstance(state, tuple):
            state = {**(state[0] or {}), **state[1]}
        for name, value in state.items():
            _set(self, name, value)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        fields = self._fields
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._fields(self)))
        return f"{type(self).__qualname__}({fields})"


class _Graph(_Value):
    """Vertex labels and edge ids, equal when both agree.  The constructor
    checks labels and turns them into ids; subclasses name the container
    that holds the ids."""

    _container: type

    def __init__(self, vertices, edges):
        vertices = tuple(vertices)
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) < len(vertices):
            raise GraphError("duplicate vertex label")
        try:
            ids = self._container((index[s], index[t]) for s, t in edges)
        except KeyError as exc:
            raise GraphError(f"edge end {exc.args[0]!r} is not a vertex") from None
        _set(self, "vertex_count", len(vertices))
        _set(self, "vertices", vertices)
        _set(self, "ids", ids)

    @classmethod
    def _of(cls, vertex_count: int, ids, vertices):
        """A graph whose ids are known to be valid, so nothing is checked.
        vertices is the label tuple, or a function that makes it on first
        read."""
        g = object.__new__(cls)
        _set(g, "vertex_count", vertex_count)
        _set(g, "ids", ids)
        _set(g, "vertices" if isinstance(vertices, tuple) else "_labels", vertices)
        return g

    @cached_property
    def vertices(self) -> tuple[str, ...]:
        return self._labels()

    @property
    def edge_count(self) -> int:
        return len(self.ids)

    def __eq__(self, other):
        return (type(other) is type(self) and self.ids == other.ids
                and self.vertices == other.vertices)

    def __hash__(self):
        return hash((self.vertices, self.ids))

    def __repr__(self):
        return f"{type(self).__name__}(vertices={self.vertices!r}, ids={self.ids!r})"


class MultiDigraph(_Graph):
    """Finite directed graph; parallel edges and loops allowed.  ids holds
    the edges as (source id, target id) pairs, in input order."""

    _container = tuple

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        v = self.vertices
        return tuple((v[s], v[t]) for s, t in self.ids)


class BinaryRelation(_Graph):
    """Reduced directed graph: ids, the pairs as (source id, target id), is a
    set, so no parallel edges."""

    _container = frozenset

    @cached_property
    def pairs(self) -> frozenset[tuple[str, str]]:
        v = self.vertices
        return frozenset((v[s], v[t]) for s, t in self.ids)

    def sorted_ids(self) -> list[tuple[int, int]]:
        """The id pairs in (source id, target id) order: the canonical edge
        order, in which every writer lists a relation's edges."""
        return sorted(self.ids)

    def sorted_pairs(self) -> tuple[tuple[str, str], ...]:
        """Pairs in the canonical edge order."""
        v = self.vertices
        return tuple((v[s], v[t]) for s, t in self.sorted_ids())


class Partition(_Value):
    """Partition of a relation's vertex set, in canonical form: members of
    each class ascend in the base vertex order, classes are listed by their
    smallest member."""

    __slots__ = ("over", "classes")
    over: tuple[str, ...]
    classes: tuple[tuple[str, ...], ...]

    def __init__(self, over, classes):
        over = tuple(over)
        ix = {v: i for i, v in enumerate(over)}
        seen: set[str] = set()
        canon = []
        for cls in map(tuple, classes):
            if not cls:
                raise GraphError("empty partition class")
            for v in cls:
                if v not in ix or v in seen:
                    raise GraphError(f"partition misuses vertex {v!r}")
                seen.add(v)
            canon.append(tuple(sorted(cls, key=ix.__getitem__)))
        if len(seen) != len(over):
            raise GraphError("partition does not cover the vertex set")
        canon.sort(key=lambda c: ix[c[0]])
        _set(self, "over", over)
        _set(self, "classes", tuple(canon))

    @classmethod
    def _of(cls, over: tuple[str, ...], ids: list[int]) -> "Partition":
        """The partition of a canonical class-id array (class c's smallest
        vertex precedes class c + 1's), read in one scan, unchecked."""
        classes: list[list[str]] = [[] for _ in range(max(ids, default=-1) + 1)]
        for v, c in zip(over, ids):
            classes[c].append(v)
        p = cls.__new__(cls)
        _set(p, "over", over)
        _set(p, "classes", tuple(map(tuple, classes)))
        return p

    def __len__(self) -> int:
        return len(self.classes)


def class_label(members) -> str:
    """Vertex label for a merged class: bare label for singletons, so that a
    trivial quotient is the identity; set notation otherwise."""
    if len(members) == 1:
        return members[0]
    return "{" + ",".join(members) + "}"


def _quotient(r: BinaryRelation, cls: list[int], pairs: frozenset | None = None) -> BinaryRelation:
    """The relation r induces on the classes of a canonical class-id array,
    its class-id pairs read off r's edges unless given; its class labels
    are made on first read."""
    k = max(cls, default=-1) + 1
    if k == r.vertex_count:  # every class a singleton, in vertex order
        return r

    def labels() -> tuple[str, ...]:
        out = tuple(map(class_label, Partition._of(r.vertices, cls).classes))
        if len(set(out)) < k:
            raise GraphError("duplicate vertex label")
        return out

    if pairs is None:
        pairs = frozenset([(cls[s], cls[t]) for s, t in r.ids])
    return BinaryRelation._of(k, pairs, labels)


def quotient(r: BinaryRelation, p: Partition) -> BinaryRelation:
    """Relation induced on the classes of p: a class pair is related iff some
    member pair is."""
    if p.over != r.vertices:
        raise GraphError("partition is over a different vertex set")
    number = {v: c for c, members in enumerate(p.classes) for v in members}
    return _quotient(r, [number[v] for v in r.vertices])


class ReductionSummary(_Value):
    """Outcome of merging parallel edges: the reduced relation and the size
    of each class of parallel edges, in increasing order.

    split_count is the number of deleted edges; downstream, the full graph's
    invariants are those of `reduced` plus split_count extra summands of the
    one-edge/zero-vertex indecomposable type.
    """

    __slots__ = ("reduced", "parallel_class_sizes")

    def __init__(self, reduced: BinaryRelation, parallel_class_sizes: tuple[int, ...]):
        _set(self, "reduced", reduced)
        _set(self, "parallel_class_sizes", parallel_class_sizes)

    @property
    def split_count(self) -> int:
        return sum(self.parallel_class_sizes) - len(self.parallel_class_sizes)


def reduce(g: MultiDigraph) -> ReductionSummary:
    """Merge parallel edges, keeping one representative per (source, target)."""
    classes = Counter(g.ids)
    reduced = BinaryRelation._of(g.vertex_count, frozenset(classes), g.vertices)
    return ReductionSummary(reduced, tuple(sorted(classes.values())))


def converse(r: BinaryRelation) -> BinaryRelation:
    """Reverse every pair; vertices unchanged."""
    return BinaryRelation._of(r.vertex_count, frozenset((t, s) for s, t in r.ids), r.vertices)
