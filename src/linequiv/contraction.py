"""Left/right contractions, iterated contraction tables, and stabilization.

The left contraction merges, repeatedly, all out-neighbors of a common
source; the right contraction merges all in-neighbors of a common target.
Iterating both in any order coarsens a partition of the original vertex set,
and the partition reached after m left and n right steps is independent of
the interleaving.  The number of classes at each suitable lattice point
(|m - n| <= 2) is what the invariant formulas read.

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
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
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


# -- internal index-level engine -------------------------------------------
#
# A state is a partition of the original vertex indices (canonical order)
# plus the quotient relation on class positions.


@dataclass(frozen=True)
class _State:
    classes: tuple[tuple[int, ...], ...]
    pairs: frozenset[tuple[int, int]]


def _initial_state(r: BinaryRelation) -> _State:
    ix = r.index()
    pairs = frozenset((ix[s], ix[t]) for s, t in r.pairs)
    return _State(tuple((i,) for i in range(len(r.vertices))), pairs)


def _merge(state: _State, uf: _UnionFind) -> tuple[_State, bool]:
    k = len(state.classes)
    roots = sorted({uf.find(c) for c in range(k)})
    if len(roots) == k:
        return state, False
    pos = {root: i for i, root in enumerate(roots)}
    merged: list[list[int]] = [[] for _ in roots]
    for c in range(k):
        merged[pos[uf.find(c)]].extend(state.classes[c])
    classes = tuple(tuple(sorted(m)) for m in merged)
    order = sorted(range(len(classes)), key=lambda i: classes[i][0])
    rank = {old: new for new, old in enumerate(order)}
    classes = tuple(classes[i] for i in order)
    remap = {c: rank[pos[uf.find(c)]] for c in range(k)}
    pairs = frozenset((remap[a], remap[b]) for a, b in state.pairs)
    return _State(classes, pairs), True


def _left_once(state: _State) -> tuple[_State, bool]:
    uf = _UnionFind(len(state.classes))
    out: dict[int, int] = {}
    for a, b in state.pairs:
        if a in out:
            uf.union(out[a], b)
        else:
            out[a] = b
    return _merge(state, uf)


def _right_once(state: _State) -> tuple[_State, bool]:
    uf = _UnionFind(len(state.classes))
    inc: dict[int, int] = {}
    for a, b in state.pairs:
        if b in inc:
            uf.union(inc[b], a)
        else:
            inc[b] = a
    return _merge(state, uf)


def _state_partition(r: BinaryRelation, state: _State) -> Partition:
    return Partition(r.vertices, tuple(tuple(r.vertices[i] for i in cls) for cls in state.classes))


def _state_relation(r: BinaryRelation, state: _State) -> BinaryRelation:
    labels = [class_label(tuple(r.vertices[i] for i in cls)) for cls in state.classes]
    return BinaryRelation(tuple(labels), frozenset((labels[a], labels[b]) for a, b in state.pairs))


# -- public operations -------------------------------------------------------


def left_partition(r: BinaryRelation) -> Partition:
    """Smallest equivalence merging y, y' whenever some x has edges to both."""
    state, _ = _left_once(_initial_state(r))
    return _state_partition(r, state)


def right_partition(r: BinaryRelation) -> Partition:
    """Smallest equivalence merging x, x' whenever both have edges to some y."""
    state, _ = _right_once(_initial_state(r))
    return _state_partition(r, state)


def quotient(r: BinaryRelation, p: Partition) -> BinaryRelation:
    """Relation induced on the classes of p: a class pair is related iff some
    member pair is."""
    if p.over != r.vertices:
        raise GraphError("partition is over a different vertex set")
    labels = {v: class_label(cls) for cls in p.classes for v in cls}
    vertices = tuple(class_label(cls) for cls in p.classes)
    pairs = frozenset((labels[s], labels[t]) for s, t in r.pairs)
    return BinaryRelation(vertices, pairs)


def contraction_sequence(r: BinaryRelation, steps: str) -> tuple[BinaryRelation, Partition]:
    """Apply a mixed word of contractions, e.g. "rlr" (left to right); returns
    the final quotient and the induced partition of r's vertices."""
    state = _initial_state(r)
    for step in steps:
        if step == "l":
            state, _ = _left_once(state)
        elif step == "r":
            state, _ = _right_once(state)
        else:
            raise ValueError(f"unknown contraction step {step!r}")
    return _state_relation(r, state), _state_partition(r, state)


def iterated_contraction(r: BinaryRelation, m: int, n: int) -> tuple[BinaryRelation, Partition]:
    """m left and n right contractions (rights applied first; the resulting
    partition is interleaving-independent).  Vertices of the result are the
    classes of the returned partition of r's original vertex set."""
    if m < 0 or n < 0:
        raise ValueError("contraction counts must be nonnegative")
    return contraction_sequence(r, "r" * n + "l" * m)


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
    uf = _UnionFind(len(r.vertices))
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


def _stable_state(r: BinaryRelation) -> tuple[_State, int]:
    state = _initial_state(r)
    rounds = 0
    while True:
        after_left, ch1 = _left_once(state)
        after_right, ch2 = _right_once(after_left)
        if not (ch1 or ch2):
            return state, rounds
        state = after_right
        rounds += 1


def stabilize(r: BinaryRelation) -> tuple[StableShape, BinaryRelation, int]:
    """Contract in full left-then-right rounds until a round changes nothing;
    returns the cycle/path shape, the stable relation, and the round count."""
    state, rounds = _stable_state(r)
    stable = _state_relation(r, state)
    return classify_stable(stable), stable, rounds


@dataclass(frozen=True)
class ContractionDiagram:
    """Class counts gamma(m, n) on the suitable band |m - n| <= 2.

    gamma stores every computed point; beyond the stored band all suitable
    points take stable_value.  horizon is the least D with gamma constant on
    suitable points having min(m, n) >= D; band_end the last computed
    antidiagonal m + n.  stable and depth are the fully contracted relation
    and the number of left-then-right rounds that reach it, as `stabilize`
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
        got = self.gamma.get((m, n))
        if got is not None:
            return got
        if min(m, n) >= self.horizon or m + n > self.band_end:
            return self.stable_value
        raise AssertionError(f"gamma table has a hole at ({m}, {n})")

    def nonstable_points(self) -> dict[tuple[int, int], int]:
        return {p: g for p, g in sorted(self.gamma.items()) if g != self.stable_value}

    def signature(self) -> tuple:
        """Equal signatures iff the gamma functions agree on every suitable
        point."""
        return (self.stable_value, tuple(sorted(self.nonstable_points().items())))


def _suitable_ms(s: int) -> list[int]:
    return [m for m in range((s - 2 + 1) // 2, s // 2 + 2) if 0 <= m <= s and abs(2 * m - s) <= 2]


def gamma_table(r: BinaryRelation) -> ContractionDiagram:
    """Tabulate gamma over the suitable band by dynamic programming, reusing
    each quotient, until three consecutive antidiagonals sit at the stable
    value."""
    final, depth = _stable_state(r)
    stable_value = len(final.classes)
    states: dict[int, _State] = {0: _initial_state(r)}
    gamma: dict[tuple[int, int], int] = {(0, 0): len(states[0].classes)}
    s = 0
    stable_run = 3 if len(states[0].classes) == stable_value else 0
    limit = 2 * len(r.vertices) + 8
    while stable_run < 3:
        s += 1
        if s > limit:
            raise AssertionError("contraction table failed to stabilize")
        nxt: dict[int, _State] = {}
        for m in _suitable_ms(s):
            n = s - m
            if m >= 1 and ContractionDiagram.is_suitable(m - 1, n):
                nxt[m], _ = _left_once(states[m - 1])
            else:
                nxt[m], _ = _right_once(states[m])
            gamma[(m, n)] = len(nxt[m].classes)
        states = nxt
        if all(st.classes == final.classes for st in states.values()):
            stable_run += 1
        else:
            stable_run = 0
    nonstable = [p for p, g in gamma.items() if g != stable_value]
    horizon = 1 + max(min(p) for p in nonstable) if nonstable else 0
    return ContractionDiagram(gamma, stable_value, horizon, s, _state_relation(r, final), depth)
