"""Left/right contractions, iterated contraction tables, and stabilization.

The left contraction merges all out-neighbors of a common source; the right
contraction merges all in-neighbors of a common target.  Iterating both in
any order coarsens a partition of the original vertex set, and the partition
reached after m left and n right steps is independent of the interleaving.
The number of classes at each suitable lattice point (|m - n| <= 2) is what
the invariant formulas read.

Everything here works on vertex ids, positions in the relation's vertex
tuple.  One engine does every contraction: a mutable quotient holding a
union-find over the ids and, for each class with edges, its out- and
in-neighbor classes, all in lists indexed by id.  A lone neighbor is kept
as a bare id and only a second one makes a set, so a functional graph
holds no out-sets at all.  A merge folds the class with fewer vertices
into the other (union by size, Tarjan, JACM 1975) and renames it in its
neighbors' entries, as in congruence closure (Downey, Sethi and Tarjan,
JACM 1980): an edge end is renamed only when its class at least doubles,
so O(E log V) renames in all.  A left step merges only the out-neighbors of
classes with out-degree >= 2, and a merge raises the degree of no class
but the merged one, so the classes whose out-set grew since the last left
step are the only ones that can feed the next (right steps alike).  A step
therefore costs the degrees of those classes and the entries its merges
rename, not the size of the relation.

gamma_table stores the band as its five diagonals m - n = -2 .. 2, each a
list indexed by min(m, n) that a chain appends to as it goes.  The
left-first chain gives the diagonals 0, 1 and, by a probe that counts a
step's merges without making them, 2; r induces the stable relation on the
classes of its fixpoint.  A chain stops only after two idle steps, so it
ends at the fixpoint; every suitable point it did not pass lies
beyond that end, and contracting a fixpoint changes nothing, so the point
takes the stable value.  The record formulas read the diagonals through the
diagram cells of invariants.py.

A chain skips the work that an empty front proves idle, by two exact
rules.  Rule 1: a step or probe on a side whose front is empty is not run;
such a step has no group to merge, so it would merge nothing.  Rule 2: at
the probe point, after j + 1 steps on the chain's side and j on the other,
an empty front on the other side makes that side's next step idle, so the
partition after the next step on the chain's side is the one j + 2 and j
steps reach (a step is a function of the partition alone); gamma(j + 2, j)
is then the count after that step, and the probe is not run.  On a graph
whose merges all fall on one side, such as a Y graph, a chain runs only the
steps that merge, and no probe.

The diagonals -1 and -2 come from a second, right-first chain, which counts
the main diagonal a second time: the two lists must be equal, as must the
two fixpoints.  Each chain runs K + 1 rounds, K the least k with P(k, k) a
fixpoint, since a round from any earlier P(j, j) merges in one of its
steps; so both lists have K + 2 entries.  The chains run one after the
other and each returns only the class ids of its fixpoint, so one quotient
is alive at a time.

A one-sided relation runs no chain.  If every vertex has at most one
out-edge, the relation is a partial map f.  A right merge joins classes that
share their only target, so no class ever gets two out-neighbours and no
left step ever merges; a vertex with two out-edges starts in the left
front, so the first left step runs.  Hence the left-first chain runs no left
step iff the out-degree is at most one, and no right step iff the in-degree
is, which is the mirror case, read on the converse.  On a partial map, k
right steps join x and x' iff f^i(x) = f^i(x') for some i <= k, and left
steps are idle, so gamma(m, k) = c_k counts vertices: one class per vertex
that f^k reaches, and for each sink z one per distance d < k at which some
vertex lies from z:

    c_k = #{y : ht(y) >= k} + sum over sinks z of min(k, ht(z) + 1),

where ht(y) is the length of the longest path ending at y, infinite on a
cycle, from one pass in topological order (Kahn, CACM 1962).  The depth D
is the least k with c_{k+1} = c_k, and the main diagonal is c_0 .. c_{D+1},
as the left-first chain lists it.  With no left step, P(j, j + k) is
P(j + k, j + k) and P(j + k, j) is P(j, j), so the diagonals -1 and -2 are
the main diagonal shifted by one and two, padded with the stable value,
and 1 and 2 are the main diagonal less its last entry; with no right step,
the mirror.  The fixpoint joins x and x' iff f^j(x) = f^j(x') for some j:
a class is a sink and a distance to it, or, on a cycle's trees, the cycle
vertex that lies that distance behind the cycle entry, numbered in
Partition order.  The reader builds no quotient: a random map's trees are
Theta(sqrt n) tall (Flajolet and Odlyzko, 1989), so a chain would run
Theta(sqrt n) rounds where the reader makes two passes.

A contraction's result is an array of class ids, the classes numbered in
the order of their first vertex, which is the canonical order of a
Partition; two chains agree when their arrays are equal.  relation.py
turns such an array back into labels.

Every contracted relation eventually stabilizes at a disjoint union of
directed cycles and simple directed paths; anything else is a failed
self-check, an AssertionError, which would signal a bug, not bad input.
stabilize reads that shape, the stable relation and the rounds that reach
it off gamma_table, so there is one dispatch between the two readers.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, count, filterfalse, repeat
from operator import itemgetter

from .relation import BinaryRelation, Partition, _Value, _quotient, _set


def _find(parent, a: int) -> int:
    """Root of a in a union-find forest (a list or dict, roots their own
    parent), with path compression."""
    root = a
    while parent[root] != root:
        root = parent[root]
    while parent[a] != root:
        parent[a], a = root, parent[a]
    return root


def _join(groups, parent, merge) -> None:
    """Join the members of each group in the union-find forest parent;
    merge(a, b) joins two roots and returns the one that stays a root.
    Most members are roots, so a member's root is looked up inline first."""
    for group in groups:
        a = _find(parent, group[0])
        for y in group[1:]:
            b = y if parent[y] == y else _find(parent, y)
            if a != b:
                a = merge(a, b)


def _canonical(labels: list[int]) -> tuple[dict[int, int], list[int]]:
    """Number the distinct labels of a per-vertex label array in the order
    of their first vertex, the canonical order of Partition: the number of
    each label, and every vertex's class id."""
    number = dict.fromkeys(labels)
    for i, x in enumerate(number):
        number[x] = i
    return number, list(map(number.__getitem__, labels))


# -- the contraction engine ---------------------------------------------------


class _Quotient:
    """Quotient of a relation on vertex ids 0..n-1.  parent is a union-find
    forest over the ids and size[x] the number of ids in the class of a root
    x.  adj[0][x], adj[1][x] hold the out- and in-neighbour roots of a root
    x: None for none, a bare id for one, a set from the second on, and None
    again once x is merged away.  A set is never turned back into an id,
    though renames may shrink it.  front[side] holds every root whose set
    on that side was made or grew since that side's last step."""

    def __init__(self, r: BinaryRelation):
        n = r.vertex_count
        out, inn = self.adj = ([None] * n, [None] * n)
        sources, targets = grown = ([], [])
        for s, t in r.ids:
            x = out[s]
            if x is None:
                out[s] = t
            elif x.__class__ is int:
                out[s] = {x, t}
                sources.append(s)
            else:
                x.add(t)
            x = inn[t]
            if x is None:
                inn[t] = s
            elif x.__class__ is int:
                inn[t] = {x, s}
                targets.append(t)
            else:
                x.add(s)
        self.front = tuple(map(set, grown))
        self.directions = ((out, inn, self.front[0]), (inn, out, self.front[1]))
        self.parent, self.size, self.count = list(range(n)), [1] * n, n

    def _merge(self, a: int, b: int) -> int:
        """Fold the smaller of the roots a, b into the larger; returns the
        survivor."""
        size = self.size
        if size[a] < size[b]:
            a, b = b, a
        size[a] += size[b]
        self.parent[b] = a
        self.count -= 1
        for fwd, back, front in self.directions:
            moved = fwd[b]
            if moved is None:
                continue
            fwd[b] = None
            kept = fwd[a]
            # a loop at b is renamed by the second pass: the first puts a in
            # b's in-entry, whose pass then renames b to a in a's out-entry
            if moved.__class__ is int:
                nbrs = back[moved]
                if nbrs.__class__ is int:  # its one neighbour is b
                    back[moved] = a
                else:
                    nbrs.discard(b)
                    nbrs.add(a)
                if kept is None:
                    fwd[a] = moved
                    continue
                if kept.__class__ is int:
                    if kept == moved:
                        continue
                    kept = fwd[a] = {kept}
                kept.add(moved)
            else:
                for x in moved:
                    nbrs = back[x]
                    if nbrs.__class__ is int:
                        back[x] = a
                    else:
                        nbrs.discard(b)
                        nbrs.add(a)
                if kept is None:
                    fwd[a] = moved
                elif kept.__class__ is int:
                    moved.add(kept)
                    fwd[a] = moved
                elif len(kept) < len(moved):  # keep the larger set, add the smaller
                    moved |= kept
                    fwd[a] = moved
                else:
                    kept |= moved
            front.add(a)
        return a

    def _groups(self, side: int) -> list[tuple[int, ...]]:
        adj = self.adj[side]
        return [tuple(s) for s in map(adj.__getitem__, self.front[side])
                if s is not None and len(s) > 1]

    def step(self, side: int) -> int:
        """Contract once on side (0 left, 1 right); returns the merge count.
        All groups are read before the first merge, so merges never cascade."""
        groups, before = self._groups(side), self.count
        self.front[side].clear()
        _join(groups, self.parent, self._merge)
        return before - self.count

    def probe(self, side: int) -> int:
        """The merge count step(side) would return, without merging."""
        groups = self._groups(side)
        parent = {y: y for group in groups for y in group}

        def link(a: int, b: int) -> int:
            parent[b] = a
            return a

        _join(groups, parent, link)
        return sum(x != p for x, p in parent.items())

    def classes(self) -> list[int]:
        """The class id of every vertex, classes numbered in the order of
        their smallest vertex: the canonical order of Partition.  Pointer
        jumping compresses every path in C-level passes, one per halving of
        the deepest path."""
        root, up = self.parent, None
        while up != root:
            up, root = root, list(map(root.__getitem__, root))
        return _canonical(root)[1]


def _chain(r: BinaryRelation, side: int) -> tuple[tuple[list[int], ...], int, list[int]]:
    """Contract in rounds, one step on side then one on the other, until
    two steps in a row merge nothing.  Returns three lists indexed by the
    round j: the class count after j steps on each side, after j + 1 on side
    and j on the other, and after j + 2 and j; then the rounds before the
    fixpoint, and the class ids of the fixpoint.

    The lists are those of a loop that runs a step, a probe and a step in
    every round; two exact rules skip the calls that cannot merge.  Rule 1:
    a step or probe on a side with an empty front has no group to merge,
    so it is not run and counts as idle.  Rule 2: if at the probe point the
    other side's front is empty, that side's next step is idle, so the next
    step on side reaches the partition of j + 2 and j steps; its count is
    gamma(j + 2, j), and the probe is not run.  Such a round's step on side
    merged (it left a front), so the loop goes on to that next step."""
    q = _Quotient(r)
    front, other = q.front[side], q.front[1 - side]
    same, one, two = [q.count], [], []
    idle, late = 0, False
    while idle < 2:
        idle = 0 if front and q.step(side) else idle + 1
        count = q.count
        if late:  # rule 2: the count the last round's probe was not run for
            two.append(count)
        one.append(count)
        late = not other and bool(front)
        if not late:
            two.append(count - q.probe(side) if front else count)
        idle = 0 if other and q.step(1 - side) else idle + 1
        same.append(q.count)
    return (same, one, two), len(one) - 1, q.classes()


# -- one-sided relations: no chain -------------------------------------------


def _one_sided(r: BinaryRelation) -> tuple[int, list[int], BinaryRelation] | None:
    """For a relation with out-degree <= 1, a partial map f, or in-degree
    <= 1, the converse of one: the side that never steps (0 left, 1 right),
    the counts c_0 .. c_{D+1} after 0 .. D + 1 steps on the other side, and
    the stable relation.  None when both sides have a vertex of degree two,
    where the chains run.

    Kahn's topological sort, its queue a list that grows as vertices lose
    their last in-edge, meets the vertices in order of ht(y), the length
    of the longest path ending at y, so y's last in-neighbour to be met has
    ht(y) - 1; the vertices it never meets lie on cycles, where ht is
    infinite.  c_k is #{y : ht(y) >= k} plus, over the sinks z,
    min(k, ht(z) + 1), so c_{k+1} - c_k is the number of sinks with
    ht(z) >= k less the number of vertices with ht(y) = k.  At the fixpoint
    x ~ x' iff f^j(x) = f^j(x') for some j: a second pass, from the sinks
    and cycles outward, names a class by the first vertex it meets, the
    class of x being the one that f maps into the class of f(x) (on a
    cycle, its vertex one step back).  All members of a class map into one
    class, so the stable relation has one pair per class with an image,
    read off the vertex that names it."""
    f = dict(r.ids)
    side = 0
    if len(f) < r.edge_count:
        f, side = dict(map(itemgetter(1, 0), r.ids)), 1
        if len(f) < r.edge_count:
            return None
    n = r.vertex_count
    succ = list(map(f.get, range(n)))  # None at a sink
    waiting = list(map(Counter(f.values()).get, range(n), repeat(0)))
    order, ht = list(compress(range(n), map((0).__eq__, waiting))), [0] * n
    for x in order:
        y = succ[x]
        if y is not None:
            waiting[y] -= 1
            if not waiting[y]:
                ht[y] = ht[x] + 1
                order.append(y)
    at_height = Counter(map(ht.__getitem__, order))
    sinks_at = Counter(map(ht.__getitem__, filterfalse(f.__contains__, range(n))))
    counts, open_sinks = [n], n - len(f)  # the sinks z with ht(z) >= k
    for k in count():
        counts.append(counts[-1] + open_sinks - at_height[k])
        if counts[-1] == counts[-2]:
            break
        open_sinks -= sinks_at[k]
    cyclic = list(compress(range(n), waiting))
    back = dict(zip(map(succ.__getitem__, cyclic), cyclic))  # the cycle vertex one step back
    label = list(range(n))
    for x in reversed(order):
        y = succ[x]
        if y is not None:
            label[x] = back.setdefault(label[y], x)
    number, final = _canonical(label)
    pairs = [(number[c], number[label[y]])
             for c, y in zip(number, map(succ.__getitem__, number)) if y is not None]
    if side:
        pairs = map(itemgetter(1, 0), pairs)
    return side, counts, _quotient(r, final, frozenset(pairs))


# -- public operations -------------------------------------------------------


def left_partition(r: BinaryRelation) -> Partition:
    """Smallest equivalence merging y, y' whenever some x has edges to both."""
    return iterated_contraction(r, 1, 0)[1]


def right_partition(r: BinaryRelation) -> Partition:
    """Smallest equivalence merging x, x' whenever both have edges to some y."""
    return iterated_contraction(r, 0, 1)[1]


def iterated_contraction(r: BinaryRelation, m: int, n: int) -> tuple[BinaryRelation, Partition]:
    """m left and n right contractions (rights applied first; the resulting
    partition is interleaving-independent).  Vertices of the result are the
    classes of the returned partition of r's original vertex set.  A side
    stops at its first step that merges nothing, so huge counts are cheap."""
    if m < 0 or n < 0:
        raise ValueError("contraction counts must be nonnegative")
    q = _Quotient(r)
    for side, count in ((1, n), (0, m)):
        while count and q.step(side):
            count -= 1
    cls = q.classes()
    return _quotient(r, cls), Partition._of(r.vertices, cls)


class StableShape(_Value):
    """Cycle/path census of a fully contracted relation: one entry per
    N-cycle and one vertex count per simple path component."""

    __slots__ = ("cycles", "paths")
    cycles: tuple[int, ...]
    paths: tuple[int, ...]

    def __init__(self, cycles, paths):
        _set(self, "cycles", tuple(sorted(cycles)))
        _set(self, "paths", tuple(sorted(paths)))


def classify_stable(r: BinaryRelation) -> StableShape:
    """Decompose a bi-stable relation into directed cycles C_k and simple
    directed paths on k vertices; anything else fails a self-check."""
    succ = dict(r.ids)
    targets = set(succ.values())
    if len(targets) < r.edge_count or len(succ) < r.edge_count:
        raise AssertionError("stable shape: a branching component in the stable relation")
    # every degree is at most one: walk each path from its start; what is
    # left lies on cycles
    seen: set[int] = set()

    def walk(v: int | None) -> int:
        k = 0
        while v is not None and v not in seen:
            seen.add(v)
            k += 1
            v = succ.get(v)
        return k

    paths = [walk(v) for v in range(r.vertex_count) if v not in targets]
    cycles = [walk(v) for v in range(r.vertex_count) if v not in seen]
    return StableShape(tuple(cycles), tuple(paths))


def stabilize(r: BinaryRelation) -> tuple[StableShape, BinaryRelation, int]:
    """The cycle/path shape, the stable relation, and the number of
    left-then-right rounds that reach it, read off gamma_table."""
    d = gamma_table(r)
    return classify_stable(d.stable), d.stable, d.depth


# the point (m, n) at index 0 of each diagonal m - n = -2 .. 2
FIRST_POINTS = ((0, 2), (0, 1), (0, 0), (1, 0), (2, 0))


def _trim(diagonal: tuple[int, ...], stable_value: int) -> tuple[int, ...]:
    """A diagonal without its tail of stable values."""
    end = len(diagonal)
    while end and diagonal[end - 1] == stable_value:
        end -= 1
    return diagonal[:end]


class ContractionDiagram(_Value):
    """Class counts gamma(m, n) on the suitable band |m - n| <= 2, stored as
    its five diagonals.

    diagonals[o + 2][i] is gamma at m - n = o and min(m, n) = i, for every
    point the chains of gamma_table passed: o = 0, 1, 2 from the left-first
    chain, o = -1, -2 from the right-first one, and the main diagonal from
    both, which must list the same counts.  A relation with out- or
    in-degree at most one runs no chain: every diagonal is read off the
    counts of its one-sided reader, the main diagonal as the left-first
    chain would list it.  Every other suitable point lies beyond a chain's
    fixpoint and takes stable_value.  horizon is the least D with gamma
    constant on suitable points having min(m, n) >= D, and band_end the
    largest m + n of a stored point.
    stable and depth are the fully contracted relation and the number of
    left-then-right rounds that reach it; `stabilize` reads them from here.
    """

    __slots__ = ("diagonals", "stable_value", "stable", "depth", "horizon")

    def __init__(self, diagonals: tuple[tuple[int, ...], ...], stable_value: int,
                 stable: BinaryRelation, depth: int):
        _set(self, "diagonals", diagonals)
        _set(self, "stable_value", stable_value)
        _set(self, "stable", stable)
        _set(self, "depth", depth)
        _set(self, "horizon", max(len(_trim(diagonal, stable_value)) for diagonal in diagonals))

    @staticmethod
    def is_suitable(m: int, n: int) -> bool:
        return m >= 0 and n >= 0 and abs(m - n) <= 2

    @staticmethod
    def antidiagonal(s: int) -> list[tuple[int, int]]:
        """The suitable points with m + n = s, in increasing m."""
        reach = min(s, 2)
        return [((s + o) // 2, (s - o) // 2)
                for o in range(-reach, reach + 1) if (s + o) % 2 == 0]

    def value(self, m: int, n: int) -> int:
        if not self.is_suitable(m, n):
            raise ValueError(f"({m}, {n}) is not a suitable lattice point")
        diagonal, i = self.diagonals[m - n + 2], min(m, n)
        return diagonal[i] if i < len(diagonal) else self.stable_value

    def _stored(self):
        """((m, n), gamma) for every stored point, diagonal by diagonal."""
        return (((m + i, n + i), g) for (m, n), diagonal in zip(FIRST_POINTS, self.diagonals)
                for i, g in enumerate(diagonal))

    @property
    def band_end(self) -> int:
        return max(m + n + 2 * len(diagonal) - 2
                   for (m, n), diagonal in zip(FIRST_POINTS, self.diagonals) if diagonal)

    def nonstable_points(self) -> dict[tuple[int, int], int]:
        stable_value = self.stable_value
        return dict(sorted(point for point in self._stored() if point[1] != stable_value))


def gamma_table(r: BinaryRelation) -> ContractionDiagram:
    """Tabulate gamma over the suitable band: the diagonals m - n = 0, 1, 2
    from the left-first chain and m - n = -1, -2 from the right-first one.
    Both chains count gamma(k, k) and must agree on it and on their fixpoint.
    A one-sided relation runs no chain: its counts c_k after k steps on the
    side that steps give every diagonal."""
    one_sided = _one_sided(r)
    if one_sided is not None:
        idle_side, same, stable = one_sided
        depth = len(same) - 2
        # gamma(j, j + k) is c_{j + k} if the left side never steps, c_j if
        # the right side never steps, and the mirror for gamma(j + k, j)
        idle, stepping = (same[:-1], same[:-1]), (same[1:], same[2:] + same[-1:])
        (left_one, left_two), (right_one, right_two) = \
            (idle, stepping) if idle_side == 0 else (stepping, idle)
    else:
        (same, left_one, left_two), depth, final = _chain(r, 0)
        (right_same, right_one, right_two), _, right_final = _chain(r, 1)
        if right_final != final:
            raise AssertionError("the left-first and right-first chains reach different fixpoints")
        if same != right_same:
            raise AssertionError("the left-first and right-first chains count different gamma(k, k)")
        stable = _quotient(r, final)
    diagonals = tuple(map(tuple, (right_two, right_one, same, left_one, left_two)))
    return ContractionDiagram(diagonals, stable.vertex_count, stable, depth)
