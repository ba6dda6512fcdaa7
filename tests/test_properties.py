"""Metamorphic properties of the record, checked without the oracle.

Inputs are small multigraphs with loops and parallel edges.  Each property
relates the records of two graphs by a rule that holds for every graph, so
it checks the contraction route at any size.  Seeds are fixed
(derandomize=True), and hypothesis shrinks a failing graph.
"""

import random
from collections import Counter

from hypothesis import assume, given, settings, strategies as st

from linequiv import (BinaryRelation, InvariantRecord, MultiDigraph, contraction, converse,
                      full_invariants, gamma_table, iterated_contraction, stabilize)
from linequiv.contraction import ContractionDiagram, _chain, contraction_sequence
from linequiv.relation import _quotient

from conftest import as_multidigraph, swapped

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@st.composite
def multigraphs(draw, max_vertices: int = 7, max_edges: int = 14) -> MultiDigraph:
    n = draw(st.integers(0, max_vertices))
    vertices = tuple(f"v{i}" for i in range(n))
    edges = draw(st.lists(st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)),
                          max_size=max_edges)) if n else []
    return MultiDigraph(vertices, tuple(edges))


def renamed(g: MultiDigraph, name) -> MultiDigraph:
    return MultiDigraph(tuple(map(name, g.vertices)),
                        tuple((name(s), name(t)) for s, t in g.edges))


def record_sum(a: InvariantRecord, b: InvariantRecord) -> InvariantRecord:
    return InvariantRecord(Counter(a.zt) + Counter(b.zt), Counter(a.tz) + Counter(b.tz),
                           Counter(a.t) + Counter(b.t), Counter(a.ztz) + Counter(b.ztz),
                           a.cycles + b.cycles)


@SETTINGS
@given(multigraphs(), multigraphs())
def test_disjoint_union_adds_records(g, h):
    a, b = renamed(g, lambda v: "a" + v), renamed(h, lambda v: "b" + v)
    union = MultiDigraph(a.vertices + b.vertices, a.edges + b.edges)
    assert full_invariants(union) == record_sum(full_invariants(g), full_invariants(h))


@SETTINGS
@given(multigraphs(), st.data())
def test_relabelling_and_edge_order_leave_the_record(g, data):
    labels = data.draw(st.permutations([f"w{i}" for i in range(len(g.vertices))]))
    name = dict(zip(g.vertices, labels)).__getitem__
    moved = renamed(g, name)
    order = data.draw(st.permutations(range(len(g.vertices))))
    edges = data.draw(st.permutations(moved.edges))
    shuffled = MultiDigraph(tuple(moved.vertices[i] for i in order), tuple(edges))
    assert full_invariants(shuffled) == full_invariants(g)


@SETTINGS
@given(multigraphs())
def test_converse_swaps_zt_and_tz(g):
    converse = MultiDigraph(g.vertices, tuple((t, s) for s, t in g.edges))
    assert full_invariants(converse) == swapped(full_invariants(g))


@SETTINGS
@given(multigraphs(), st.data())
def test_each_parallel_edge_adds_one_ztz0(g, data):
    assume(g.edges)
    extra = data.draw(st.lists(st.sampled_from(g.edges), min_size=1, max_size=3))
    base = full_invariants(g)
    ztz = Counter(base.ztz) + Counter({0: len(extra)})
    more = MultiDigraph(g.vertices, g.edges + tuple(extra))
    assert full_invariants(more) == InvariantRecord(base.zt, base.tz, base.t, ztz, base.cycles)


# -- the same rules at bench scale ---------------------------------------------
#
# Hypothesis draws graphs of at most seven vertices; these inputs are the
# bench families at ~10^4 vertices, whose records have closed forms: a
# functional graph's cycles are its map's cycle lengths and its tz the Jordan
# type of the nilpotent part, read off the image sizes r_k = |f^k(V)|; the
# Y graph Y(a, a) has t[a] = tz[a] = 1.  These graphs have out-degree <= 1,
# so each table is read off the map's in-heights with no chain (the one-sided
# reader of contraction.py), and the converses take its in-degree branch.


def functional_record(f: list) -> InvariantRecord:
    sizes, image = [len(f)], set(range(len(f)))
    while len(sizes) < 2 or sizes[-1] != sizes[-2]:
        image = {f[v] for v in image}
        sizes.append(len(image))
    tz = {k: sizes[k - 1] - 2 * sizes[k] + sizes[k + 1] for k in range(1, len(sizes) - 1)}
    cycles, seen = [], set()
    for v in sorted(image):
        u, k = v, 0
        while u not in seen:
            seen.add(u)
            u, k = f[u], k + 1
        if k:
            cycles.append(k)
    return InvariantRecord(tz=tz, cycles=tuple(cycles))


def test_rules_hold_at_bench_scale(monkeypatch):
    chains = []

    def logged(r, side):
        chains.append(side)
        return _chain(r, side)

    monkeypatch.setattr(contraction, "_chain", logged)
    rng = random.Random("bench-scale")
    n = 10_000
    f = [rng.randrange(n) for _ in range(n)]
    functional = MultiDigraph([f"f{v}" for v in range(n)],
                              [(f"f{v}", f"f{f[v]}") for v in range(n)])
    arm = 2000
    arms = [[f"{side}{i}" for i in range(arm)] + ["hub"] for side in "ab"]
    y_graph = MultiDigraph(["hub"] + arms[0][:-1] + arms[1][:-1],
                           [e for chain in arms for e in zip(chain, chain[1:])])
    expected = [functional_record(f), InvariantRecord(tz={arm: 1}, t={arm: 1})]
    for g, closed_form in zip((functional, y_graph), expected):
        record = full_invariants(g)
        assert record == closed_form
        order = list(range(g.vertex_count))
        rng.shuffle(order)
        name = {v: f"w{order[i]}" for i, v in enumerate(g.vertices)}.__getitem__
        moved = renamed(g, name)
        edges = list(moved.edges)
        rng.shuffle(edges)
        shuffled = MultiDigraph(sorted(moved.vertices, key=lambda v: int(v[1:])), edges)
        assert full_invariants(shuffled) == record
        converse = MultiDigraph(g.vertices, [(t, s) for s, t in g.edges])
        assert full_invariants(converse) == swapped(record)
    union = MultiDigraph(functional.vertices + y_graph.vertices, functional.edges + y_graph.edges)
    assert full_invariants(union) == record_sum(*expected)
    assert chains == []


def chain_table(r: BinaryRelation) -> ContractionDiagram:
    """The table the engine's two chains give, the main diagonal from the
    longer one: a second algorithm for a one-sided relation's table."""
    (same, left_one, left_two), depth, final = _chain(r, 0)
    (right_same, right_one, right_two), _, right_final = _chain(r, 1)
    assert right_final == final
    same = max(same, right_same, key=len)
    diagonals = tuple(map(tuple, (right_two, right_one, same, left_one, left_two)))
    stable = _quotient(r, final)
    return ContractionDiagram(diagonals, stable.vertex_count, stable, depth)


def test_partial_map_table_equals_the_chains_at_bench_scale():
    # one vertex in a hundred is a sink: deep trees run into sinks and cycles
    rng = random.Random("partial-map")
    n = 10_000
    f = [None if rng.random() < 0.01 else rng.randrange(n) for _ in range(n)]
    labels = [f"p{v}" for v in range(n)]
    r = BinaryRelation(labels, [(labels[v], labels[y]) for v, y in enumerate(f) if y is not None])
    for s in (r, converse(r)):
        d, expected = gamma_table(s), chain_table(s)
        assert (d, d.band_end) == (expected, expected.band_end)


# -- the chain against the definition, on two-sided relations at 10^4 ----------
#
# Random relations with one to three edges per vertex, each end drawn
# uniformly, have a vertex of out-degree two and one of in-degree two, so
# gamma_table runs both chains.  The reference shares no code with the
# engine: each step rebuilds the partition from all edges with a fresh
# union-find over the classes, O(n + e), and P(m + 1, n + 1) is a left then
# a right step from P(m, n), the partition being independent of the
# interleaving.  The inputs are shallow, so each diagonal is a few rounds.


def sparse_relation(rng: random.Random, n: int, per_vertex: int) -> BinaryRelation:
    labels = [f"s{v}" for v in range(n)]
    pairs = {(labels[rng.randrange(n)], labels[rng.randrange(n)]) for _ in range(per_vertex * n)}
    r = BinaryRelation(labels, pairs)
    for side in (0, 1):
        assert max(Counter(pair[side] for pair in r.ids).values()) > 1  # two-sided
    return r


def contract_once(r: BinaryRelation, cls: list[int], side: int) -> list[int]:
    """The canonical class ids after one left (side 0) or right (side 1)
    step from the partition cls: the classes that one class has edges to
    (left), or from (right), become one."""
    parent = list(range(max(cls, default=-1) + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    first = {}
    for pair in {(cls[s], cls[t]) for s, t in r.ids}:
        group, member = pair if side == 0 else pair[::-1]
        a, b = find(first.setdefault(group, member)), find(member)
        if a != b:
            parent[b] = a
    root = [find(c) for c in range(len(parent))]
    number = {}
    return [number.setdefault(root[c], len(number)) for c in cls]


def definition_table(r: BinaryRelation) -> tuple[list[list[int]], list[int], int]:
    """gamma on each diagonal m - n = -2 .. 2, from its first point until a
    left-then-right round changes nothing; the fixpoint's class ids; and the
    rounds from the singletons to it."""
    left, right = (lambda cls: contract_once(r, cls, 0)), (lambda cls: contract_once(r, cls, 1))
    start = list(range(r.vertex_count))
    walks, fixpoints = [], []
    for cls in (right(right(start)), right(start), start, left(start), left(left(start))):
        walk = [len(set(cls))]
        while (after := right(left(cls))) != cls:
            cls = after
            walk.append(len(set(cls)))
        walks.append(walk)
        fixpoints.append(cls)
    assert all(cls == fixpoints[0] for cls in fixpoints)
    return walks, fixpoints[0], len(walks[2]) - 1


def check_against_the_definition(r: BinaryRelation) -> ContractionDiagram:
    walks, final, depth = definition_table(r)
    stable_value = max(final) + 1
    d = gamma_table(r)
    assert (d.stable_value, d.depth) == (stable_value, depth)
    for diagonal, walk in zip(d.diagonals, walks):
        assert walk[-1] == stable_value
        end = max(len(diagonal), len(walk))
        assert list(diagonal) + [stable_value] * (end - len(diagonal)) == \
            walk + [stable_value] * (end - len(walk))
    horizon = max(max((i + 1 for i, g in enumerate(walk) if g != stable_value), default=0)
                  for walk in walks)
    assert d.horizon == horizon
    members = [[] for _ in range(stable_value)]
    for v, c in zip(r.vertices, final):
        members[c].append(v)
    classes = tuple(map(tuple, members))
    labels = tuple(m[0] if len(m) == 1 else "{" + ",".join(m) + "}" for m in classes)
    stable = d.stable
    assert (stable.vertex_count, stable.ids, stable.vertices) == \
        (stable_value, frozenset((final[s], final[t]) for s, t in r.ids), labels)
    assert stabilize(r)[1:] == (stable, depth)
    for rel, part in (iterated_contraction(r, 10 ** 18, 10 ** 18),
                      contraction_sequence(r, "lr" * (depth + 1))):
        assert (rel, part.classes) == (stable, classes)
    return d


def test_two_sided_tables_match_the_definition_at_10_4():
    rng = random.Random("definition")
    for per_vertex in (1, 2, 3):
        check_against_the_definition(sparse_relation(rng, 10 ** 4, per_vertex))


# -- the metamorphic laws on a two-sided relation at 10^4 ----------------------


def test_metamorphic_laws_hold_on_a_two_sided_relation_at_10_4():
    rng = random.Random("two-sided laws")
    n = 10 ** 4
    g, h = (as_multidigraph(sparse_relation(rng, n, k)) for k in (2, 1))
    base = full_invariants(g)
    b = renamed(h, lambda v: "b" + v)
    union = MultiDigraph(g.vertices + b.vertices, g.edges + b.edges)
    assert full_invariants(union) == record_sum(base, full_invariants(h))
    converse_g = MultiDigraph(g.vertices, [(t, s) for s, t in g.edges])
    assert full_invariants(converse_g) == swapped(base)
    order = list(range(n))
    rng.shuffle(order)
    name = {v: f"w{order[i]}" for i, v in enumerate(g.vertices)}.__getitem__
    moved = renamed(g, name)
    edges = list(moved.edges)
    rng.shuffle(edges)
    assert full_invariants(MultiDigraph(sorted(moved.vertices), edges)) == base
    isolated = MultiDigraph(g.vertices + ("lone",), g.edges)
    t = Counter(base.t) + Counter({0: 1})
    assert full_invariants(isolated) == InvariantRecord(base.zt, base.tz, t, base.ztz, base.cycles)
    parallel = MultiDigraph(g.vertices, g.edges + (rng.choice(g.edges),))
    ztz = Counter(base.ztz) + Counter({0: 1})
    assert full_invariants(parallel) == InvariantRecord(base.zt, base.tz, base.t, ztz,
                                                        base.cycles)
