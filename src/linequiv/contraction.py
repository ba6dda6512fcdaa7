"""Left/right contractions, iterated contraction tables, and stabilization.

The left contraction merges all out-neighbors of a common source; the right
contraction merges all in-neighbors of a common target.  Iterating both in
any order coarsens a partition of the original vertex set, and the partition
reached after m left and n right steps is independent of the interleaving.
The number of classes at each suitable lattice point (|m - n| <= 2) is what
the invariant formulas read.

One engine does every contraction: a mutable quotient holding a union-find
over the original vertex indices and, for each class with edges, the sets
of its out- and in-neighbor classes.  A merge folds the class with fewer
adjacency entries into the other and renames it in its neighbors' sets, as
in congruence closure (Downey, Sethi and Tarjan, JACM 1980).  A left step
merges only the out-neighbors of classes with out-degree >= 2, and a merge
raises the degree of no class but the merged one, so the classes merged
since the last left step are the only ones that can feed the next (right
steps alike).  A step therefore costs the degrees of those classes and the
entries its merges rename, not the size of the relation.

gamma_table runs two alternating chains, one after the other so that one
quotient is alive at a time, and the table is what they counted.  The
left-first chain gives gamma at (k, k), (k + 1, k) and, by a probe that
counts a step's merges without making them, (k + 2, k); its fixpoint is the
stable relation.  The right-first chain gives (k, k + 1) and (k, k + 2).  A
chain stops only after two idle steps, so it ends at the fixpoint; every
suitable point it did not pass lies beyond that end, and contracting a
fixpoint changes nothing, so the point takes the stable value.  The record
formulas read this table through the diagram cells of invariants.py.

Every contracted relation eventually stabilizes at a disjoint union of
directed cycles and simple directed paths; anything else raises
StabilizationShapeError, which would signal a bug, not bad input.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .relation import BinaryRelation, GraphError


class StabilizationShapeError(RuntimeError):
    """The fully contracted relation is not a union of cycles and paths."""


class _UnionFind:
    def __init__(self):
        self.parent: dict[int, int] = {}

    def find(self, a: int) -> int:
        root = a
        while root in self.parent:
            root = self.parent[root]
        while a != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


@dataclass(frozen=True)
class Partition:
    """Partition of a relation's vertex set, in canonical form: members of
    each class ascend in the base vertex order, classes are listed by their
    smallest member."""

    over: tuple[str, ...]
    classes: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "over", tuple(self.over))
        ix = {v: i for i, v in enumerate(self.over)}
        seen: set[str] = set()
        canon = []
        for cls in self.classes:
            members = tuple(sorted(cls, key=ix.__getitem__))
            if not members:
                raise GraphError("empty partition class")
            for v in members:
                if v not in ix or v in seen:
                    raise GraphError(f"partition misuses vertex {v!r}")
                seen.add(v)
            canon.append(members)
        if len(seen) != len(self.over):
            raise GraphError("partition does not cover the vertex set")
        canon.sort(key=lambda c: ix[c[0]])
        object.__setattr__(self, "classes", tuple(canon))

    @staticmethod
    def singletons(vertices: tuple[str, ...]) -> "Partition":
        return Partition(vertices, tuple((v,) for v in vertices))

    def __len__(self) -> int:
        return len(self.classes)

    def class_sets(self) -> frozenset[frozenset[str]]:
        return frozenset(frozenset(c) for c in self.classes)


def class_label(members: tuple[str, ...]) -> str:
    """Vertex label for a merged class: bare label for singletons, so that a
    trivial quotient is the identity; set notation otherwise."""
    if len(members) == 1:
        return members[0]
    return "{" + ",".join(members) + "}"


# -- the contraction engine ---------------------------------------------------
_SIDE = {"l": 0, "r": 1}


class _Quotient:
    """Quotient of r.  adj[0], adj[1] map a class root to its out-, in-neighbor
    roots; front[side] holds every root whose degree there may be >= 2."""

    def __init__(self, r: BinaryRelation):
        self.r, self.uf, self.count = r, _UnionFind(), len(r.vertices)
        ix = r.index()
        out, inn = self.adj = ({}, {})
        for s, t in r.pairs:
            out.setdefault(ix[s], set()).add(ix[t])
            inn.setdefault(ix[t], set()).add(ix[s])
        self.front = tuple({x for x, nbrs in adj.items() if len(nbrs) > 1} for adj in self.adj)

    def _union(self, a: int, b: int) -> None:
        a, b = self.uf.find(a), self.uf.find(b)
        if a == b:
            return
        out, inn = self.adj
        if len(out.get(a, ())) + len(inn.get(a, ())) < len(out.get(b, ())) + len(inn.get(b, ())):
            a, b = b, a
        self.uf.parent[b] = a
        self.count -= 1
        for fwd, back in ((out, inn), (inn, out)):
            moved = {a if x == b else x for x in fwd.pop(b, ())}
            for x in moved:
                back.setdefault(x, set()).discard(b)
                back[x].add(a)
            fwd.setdefault(a, set()).update(moved)
        for front in self.front:
            front.add(a)

    def _groups(self, side: int) -> list[tuple[int, ...]]:
        adj = self.adj[side]
        return [tuple(adj[x]) for x in self.front[side] if len(adj.get(x, ())) > 1]

    def step(self, side: int) -> int:
        """Contract once on side (0 left, 1 right); returns the merge count.
        All groups are read before the first merge, so merges never cascade."""
        groups, before = self._groups(side), self.count
        self.front[side].clear()
        for group in groups:
            for y in group[1:]:
                self._union(group[0], y)
        return before - self.count

    def probe(self, side: int) -> int:
        """The merge count step(side) would return, without merging."""
        uf = _UnionFind()
        return sum(uf.union(group[0], y) for group in self._groups(side) for y in group[1:])

    def partition(self) -> Partition:
        classes: dict[int, list[str]] = {}
        for i, v in enumerate(self.r.vertices):
            classes.setdefault(self.uf.find(i), []).append(v)
        return Partition(self.r.vertices, tuple(map(tuple, classes.values())))


def _chain(r: BinaryRelation, side: int) -> tuple[dict[tuple[int, int], int], int, Partition]:
    """Contract r in rounds, one step on side then one on the other, until
    two steps in a row merge nothing.  Returns the class count at every
    (i, j) passed, i steps on side and j on the other, and at each (j + 2, j)
    by a probe; the rounds before the fixpoint; and the fixpoint."""
    q = _Quotient(r)
    gamma = {(0, 0): q.count}
    j = idle = 0
    while idle < 2:
        idle = 0 if q.step(side) else idle + 1
        gamma[j + 1, j] = q.count
        gamma[j + 2, j] = q.count - q.probe(side)
        idle = 0 if q.step(1 - side) else idle + 1
        j += 1
        gamma[j, j] = q.count
    return gamma, j - 1, q.partition()


# -- public operations -------------------------------------------------------


def left_partition(r: BinaryRelation) -> Partition:
    """Smallest equivalence merging y, y' whenever some x has edges to both."""
    return contraction_sequence(r, "l")[1]


def right_partition(r: BinaryRelation) -> Partition:
    """Smallest equivalence merging x, x' whenever both have edges to some y."""
    return contraction_sequence(r, "r")[1]


def quotient(r: BinaryRelation, p: Partition) -> BinaryRelation:
    """Relation induced on the classes of p: a class pair is related iff some
    member pair is."""
    if p.over != r.vertices:
        raise GraphError("partition is over a different vertex set")
    vertices = tuple(class_label(cls) for cls in p.classes)
    labels = {v: label for cls, label in zip(p.classes, vertices) for v in cls}
    pairs = frozenset((labels[s], labels[t]) for s, t in r.pairs)
    return BinaryRelation(vertices, pairs)


def contraction_sequence(r: BinaryRelation, steps: str) -> tuple[BinaryRelation, Partition]:
    """Apply a mixed word of contractions, e.g. "rlr" (left to right); returns
    the final quotient and the induced partition of r's vertices."""
    q = _Quotient(r)
    for step in steps:
        if step not in _SIDE:
            raise ValueError(f"unknown contraction step {step!r}")
        q.step(_SIDE[step])
    part = q.partition()
    return quotient(r, part), part


def iterated_contraction(r: BinaryRelation, m: int, n: int) -> tuple[BinaryRelation, Partition]:
    """m left and n right contractions (rights applied first; the resulting
    partition is interleaving-independent).  Vertices of the result are the
    classes of the returned partition of r's original vertex set.  A side
    stops at its first step that merges nothing, so huge counts are cheap."""
    if m < 0 or n < 0:
        raise ValueError("contraction counts must be nonnegative")
    q = _Quotient(r)
    for side, count in ((_SIDE["r"], n), (_SIDE["l"], m)):
        while count and q.step(side):
            count -= 1
    part = q.partition()
    return quotient(r, part), part


@dataclass(frozen=True)
class StableShape:
    """Cycle/path census of a fully contracted relation: one entry per
    N-cycle and one vertex count per simple path component."""

    cycles: tuple[int, ...]
    paths: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "cycles", tuple(sorted(self.cycles)))
        object.__setattr__(self, "paths", tuple(sorted(self.paths)))

    @property
    def total_vertices(self) -> int:
        return sum(self.cycles) + sum(self.paths)


def classify_stable(r: BinaryRelation) -> StableShape:
    """Decompose a bi-stable relation into directed cycles C_k and simple
    directed paths on k vertices; anything else is a shape error."""
    ix = r.index()
    uf = _UnionFind()
    for s, t in r.pairs:
        uf.union(ix[s], ix[t])
    comp_vertices: dict[int, list[str]] = {}
    for v in r.vertices:
        comp_vertices.setdefault(uf.find(ix[v]), []).append(v)
    comp_edges = Counter(uf.find(ix[s]) for s, _t in r.pairs)
    outdeg = {v: 0 for v in r.vertices}
    indeg = {v: 0 for v in r.vertices}
    for s, t in r.pairs:
        outdeg[s] += 1
        indeg[t] += 1
    cycles = []
    paths = []
    for root, members in comp_vertices.items():
        k = len(members)
        edges = comp_edges[root]
        if any(outdeg[v] > 1 or indeg[v] > 1 for v in members):
            raise StabilizationShapeError("branching component in stable relation")
        if edges == k:
            cycles.append(k)
        elif edges == k - 1:
            paths.append(k)
        else:
            raise StabilizationShapeError(
                f"component with {k} vertices and {edges} edges is neither cycle nor path")
    return StableShape(tuple(cycles), tuple(paths))


def stabilize(r: BinaryRelation) -> tuple[StableShape, BinaryRelation, int]:
    """Contract in full left-then-right rounds until a round changes nothing;
    returns the cycle/path shape, the stable relation, and the round count."""
    _, rounds, final = _chain(r, _SIDE["l"])
    stable = quotient(r, final)
    return classify_stable(stable), stable, rounds


@dataclass(frozen=True)
class ContractionDiagram:
    """Class counts gamma(m, n) on the suitable band |m - n| <= 2.

    gamma holds the count at every point the two chains of gamma_table
    passed, and band_end is the largest m + n among them.  Every other
    suitable point lies beyond a chain's fixpoint and takes stable_value.
    horizon is the least D with gamma constant on suitable points having
    min(m, n) >= D.  stable and depth are the fully contracted relation and
    the number of left-then-right rounds that reach it, as `stabilize`
    returns them.
    """

    gamma: dict[tuple[int, int], int]
    stable_value: int
    horizon: int
    band_end: int
    stable: BinaryRelation
    depth: int

    @staticmethod
    def is_suitable(m: int, n: int) -> bool:
        return m >= 0 and n >= 0 and abs(m - n) <= 2

    def value(self, m: int, n: int) -> int:
        if not self.is_suitable(m, n):
            raise ValueError(f"({m}, {n}) is not a suitable lattice point")
        return self.gamma.get((m, n), self.stable_value)

    def nonstable_points(self) -> dict[tuple[int, int], int]:
        return {p: g for p, g in sorted(self.gamma.items()) if g != self.stable_value}

    def signature(self) -> tuple:
        """Equal signatures iff the gamma functions agree on every suitable
        point."""
        return (self.stable_value, tuple(sorted(self.nonstable_points().items())))


def gamma_table(r: BinaryRelation) -> ContractionDiagram:
    """Tabulate gamma over the suitable band: the counts of the left-first
    chain and, transposed, of the right-first chain."""
    gamma, depth, final = _chain(r, _SIDE["l"])
    right, _, right_final = _chain(r, _SIDE["r"])
    if right_final != final:
        raise AssertionError("the left-first and right-first chains reach different fixpoints")
    gamma.update(((n, m), g) for (m, n), g in right.items())
    stable = quotient(r, final)
    stable_value = stable.vertex_count
    horizon = max((1 + min(p) for p, g in gamma.items() if g != stable_value), default=0)
    return ContractionDiagram(gamma, stable_value, horizon, max(map(sum, gamma)), stable, depth)
