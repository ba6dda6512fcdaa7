import random
from fractions import Fraction

import pytest

from linequiv import (BinaryRelation, classify_stable,
                      converse, gamma_table, iterated_contraction, left_partition,
                      quotient, right_partition, stabilize)
from linequiv.cli import _diagram_lines, random_relation
from linequiv.contraction import (ContractionDiagram, StableShape, _chain, _one_sided, _Quotient,
                                  _find)
from linequiv.invariants import cell_contents, part_one
from linequiv.parsing import parse_graph
from linequiv.relation import GraphError, Partition, _quotient, class_label, reduce

from conftest import (class_sets, contract_word, relation, seeded_relation, sets, singletons,
                      spider, stored_gamma)

# frozen intermediate data for g4; every partition below is also forced by
# the gamma table and the final record, both of which the oracle confirms
G4_LEFT = sets([0], [1, 11], [2], [3, 5, 8, 12, 15], [4], [6, 14], [7],
               [9], [10], [13], [16], [17])
G4_RIGHT = sets([0], [1], [2, 4, 7, 11, 14], [3], [5, 13], [6], [8],
                [9, 17], [10], [12], [15], [16])
G4_ALL = frozenset(str(i) for i in range(18))


def minus(*gone):
    return G4_ALL - {str(x) for x in gone}


def test_left_partition_small(g3):
    assert class_sets(left_partition(relation(g3))) == sets([1], [2, 3], [4])


def test_left_partition_braided(g4):
    assert class_sets(left_partition(relation(g4))) == G4_LEFT


def test_left_partition_edgeless():
    r = BinaryRelation(("a", "b", "c"), frozenset())
    assert class_sets(left_partition(r)) == sets(["a"], ["b"], ["c"])


def test_right_partition_small(g3):
    assert class_sets(right_partition(relation(g3))) == sets([1, 4], [2], [3])


def test_right_partition_braided(g4):
    assert class_sets(right_partition(relation(g4))) == G4_RIGHT


def test_right_is_left_of_converse():
    for i in range(50):
        r = seeded_relation(f"right-converse:{i}")
        assert (class_sets(right_partition(r))
                == class_sets(left_partition(converse(r))))


def test_quotient_small(g3):
    r = relation(g3)
    q = quotient(r, left_partition(r))
    assert q.vertex_count == 3
    assert q.pairs == frozenset({("1", "{2,3}"), ("{2,3}", "4"), ("4", "{2,3}")})


def test_quotient_by_singletons_is_identity(g4):
    r = relation(g4)
    assert quotient(r, singletons(r.vertices)) == r


def test_partition_still_imports_from_contraction():
    # the label side lives in relation.py; the old import path still works
    from linequiv.contraction import Partition as imported
    assert imported is Partition


def test_quotient_braided(g4):
    # the 12-class left quotient, with its 17 induced edges
    r = relation(g4)
    part = left_partition(r)
    q = quotient(r, part)
    assert q.vertex_count == 12
    big = "{3,5,8,12,15}"
    pair = "{1,11}"
    expected = {
        ("0", pair), (pair, "2"), (pair, big), ("2", big),
        (big, "4"), (big, "{6,14}"), (big, "9"), (big, "13"), (big, "16"),
        ("4", big), ("{6,14}", "7"), ("{6,14}", big), ("7", big),
        ("9", "10"), ("13", "{6,14}"), ("16", "17"), ("17", "10"),
    }
    assert q.pairs == frozenset(expected)


def test_quotient_wrong_vertex_set(g3, g4):
    with pytest.raises(GraphError):
        quotient(relation(g4), left_partition(relation(g3)))


def compose_partitions(r: BinaryRelation, p: Partition, q: Partition) -> Partition:
    """Partition of r's vertices obtained by coarsening p with a partition q
    of the quotient's vertex labels."""
    by_label = {class_label(cls): cls for cls in p.classes}
    if set(q.over) != set(by_label):
        raise GraphError("outer partition is not over the quotient's vertices")
    classes = tuple(tuple(v for lbl in cls for v in by_label[lbl]) for cls in q.classes)
    return Partition(r.vertices, classes)


def refines(p: Partition, q: Partition) -> bool:
    """True if every class of p lies inside a class of q."""
    if set(p.over) != set(q.over):
        return False
    owner = {v: i for i, cls in enumerate(q.classes) for v in cls}
    return all(len({owner[v] for v in cls}) == 1 for cls in p.classes)


def test_quotient_functoriality():
    # contracting a quotient equals contracting once by the composed partition
    for i in range(30):
        r = seeded_relation(f"functorial:{i}")
        p = left_partition(r)
        q1 = quotient(r, p)
        p2 = right_partition(q1)
        twice = quotient(q1, p2)
        composed_part = compose_partitions(r, p, p2)
        once = quotient(r, composed_part)
        # resolve both vertex namings down to sets of original vertices
        by_label = {class_label(cls): frozenset(cls) for cls in p.classes}
        twice_sets = {class_label(cls): frozenset().union(*(by_label[l] for l in cls))
                      for cls in p2.classes}
        once_sets = {class_label(cls): frozenset(cls) for cls in composed_part.classes}
        assert set(twice_sets.values()) == set(once_sets.values())
        assert ({(twice_sets[s], twice_sets[t]) for s, t in twice.pairs}
                == {(once_sets[s], once_sets[t]) for s, t in once.pairs})


def test_iterated_contraction_identity(g3):
    r = relation(g3)
    rel, part = iterated_contraction(r, 0, 0)
    assert rel == r
    assert part == singletons(r.vertices)


def test_iterated_contraction_braided_1_1(g4):
    _, part = iterated_contraction(relation(g4), 1, 1)
    assert class_sets(part) == sets(
        [0], [1, 2, 4, 6, 7, 11, 14], [3, 5, 8, 12, 13, 15], [9, 17], [10], [16])


def test_iterated_contraction_braided_3_1(g4):
    _, part = iterated_contraction(relation(g4), 3, 1)
    assert class_sets(part) == {minus(0), frozenset({"0"})}


def test_strengthened_commutation():
    # every interleaving of m lefts and n rights yields literally the same
    # partition of the original vertex set
    rng = random.Random("interleavings")
    for i in range(100):
        r = seeded_relation(f"commute:{i}")
        m, n = rng.randint(0, 3), rng.randint(0, 3)
        word = list("l" * m + "r" * n)
        rng.shuffle(word)
        _, base = iterated_contraction(r, m, n)
        _, other = contract_word(r, "".join(word))
        assert base == other, (sorted(r.pairs), m, n, word)


def test_monotone_coarsening():
    for i in range(100):
        r = seeded_relation(f"coarsen:{i}")
        for m, n in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1)):
            _, here = iterated_contraction(r, m, n)
            _, more_left = iterated_contraction(r, m + 1, n)
            _, more_right = iterated_contraction(r, m, n + 1)
            assert refines(here, more_left)
            assert refines(here, more_right)


def test_converse_duality_of_partitions():
    for i in range(50):
        r = seeded_relation(f"conv-dual:{i}")
        for m, n in ((1, 0), (1, 1), (2, 1), (0, 2)):
            _, a = iterated_contraction(converse(r), m, n)
            _, b = iterated_contraction(r, n, m)
            assert class_sets(a) == class_sets(b)


def test_gamma_table_small(g3):
    d = gamma_table(relation(g3))
    assert d.value(0, 0) == 4
    assert [d.value(*p) for p in ((1, 0), (0, 1), (2, 0), (0, 2))] == [3, 3, 3, 3]
    for point in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 5), (9, 9)):
        assert d.value(*point) == 2
    assert d.stable_value == 2
    assert d.horizon == 1


def test_gamma_table_braided(g4):
    d = gamma_table(relation(g4))
    expected = {
        (0, 0): 18, (1, 0): 12, (0, 1): 12,
        (2, 0): 6, (1, 1): 6, (0, 2): 6,
        (2, 1): 3, (1, 2): 3, (1, 3): 3,
        (3, 1): 2, (2, 2): 2, (2, 3): 2, (2, 4): 2,
    }
    assert d.nonstable_points() == expected
    assert d.stable_value == 1
    assert d.horizon == 3
    for point in ((3, 2), (3, 3), (4, 2), (4, 6), (12, 10)):
        assert d.value(*point) == 1


def test_gamma_table_edgeless():
    d = gamma_table(BinaryRelation(tuple("abcd"), frozenset()))
    assert d.stable_value == 4
    assert d.horizon == 0
    assert d.value(0, 0) == d.value(5, 3) == 4


def test_gamma_monotonicity_and_corner():
    for i in range(100):
        r = seeded_relation(f"gamma-mono:{i}")
        d = gamma_table(r)
        assert d.value(0, 0) == r.vertex_count
        for (m, n) in stored_gamma(d):
            if d.is_suitable(m + 1, n):
                assert d.value(m, n) >= d.value(m + 1, n)
            if d.is_suitable(m, n + 1):
                assert d.value(m, n) >= d.value(m, n + 1)


def test_gamma_rejects_unsuitable(g3):
    with pytest.raises(ValueError):
        gamma_table(relation(g3)).value(0, 3)


def test_gamma_converse_transposes():
    for i in range(50):
        r = seeded_relation(f"gamma-conv:{i}")
        d = gamma_table(r)
        dc = gamma_table(converse(r))
        for (m, n) in stored_gamma(d):
            assert dc.value(n, m) == d.value(m, n)


def test_stabilize_braided_reaches_one_loop(g4):
    shape, stable, depth = stabilize(relation(g4))
    assert shape == StableShape((1,), ())
    assert stable.edge_count == 1 and stable.vertex_count == 1
    assert depth <= 18


def test_stabilize_small_reaches_two_cycle(g3):
    shape, stable, _ = stabilize(relation(g3))
    assert shape == StableShape((2,), ())
    assert class_sets(singletons(stable.vertices)) \
        == sets(["{1,4}"], ["{2,3}"])
    assert stable.pairs == frozenset({("{1,4}", "{2,3}"), ("{2,3}", "{1,4}")})


def test_stabilize_path_is_already_stable():
    shape, stable, depth = stabilize(BinaryRelation(("a", "b"), frozenset({("a", "b")})))
    assert shape == StableShape((), (2,))
    assert depth == 0


def test_stabilize_depth_bound():
    for i in range(100):
        r = seeded_relation(f"depth:{i}")
        _, _, depth = stabilize(r)
        assert depth <= r.vertex_count


def test_stabilize_shape_never_fails_on_graphs():
    for i in range(150):
        shape, _, _ = stabilize(seeded_relation(f"shape:{i}"))
        assert sum(shape.cycles) + sum(shape.paths) >= 0


def test_classify_isolated_vertex_is_a_one_path():
    shape = classify_stable(BinaryRelation(("a",), frozenset()))
    assert shape == StableShape((), (1,))


def test_classify_rejects_branching():
    r = BinaryRelation(("a", "b", "c"), frozenset({("a", "b"), ("a", "c")}))
    with pytest.raises(AssertionError, match="stable shape"):
        classify_stable(r)
    with pytest.raises(AssertionError, match="stable shape"):
        classify_stable(BinaryRelation(("a", "b"), frozenset({("a", "b"), ("b", "a"), ("a", "a")})))


def test_stable_value_matches_shape():
    for i in range(60):
        r = seeded_relation(f"stable-count:{i}")
        shape, stable, depth = stabilize(r)
        d = gamma_table(r)
        assert sum(shape.cycles) + sum(shape.paths) == stable.vertex_count == d.stable_value
        assert (d.stable, d.depth) == (stable, depth)


# -- a from-the-definition reference ------------------------------------------
#
# Every partition below is recomputed from scratch over the original
# vertices: a class name per vertex, one contraction step at a time, with no
# code shared with the contraction engine.


def naive_step(r: BinaryRelation, name: dict, side: str) -> dict:
    """Merge all targets (side "l") or all sources (side "r") of each class
    of `name`, closing the merges by relabelling over the original vertices."""
    groups: dict = {}
    for s, t in r.pairs:
        source, target = (s, t) if side == "l" else (t, s)
        groups.setdefault(name[source], set()).add(target)
    new = dict(name)
    for members in groups.values():
        merged = {new[v] for v in members}
        keep = min(merged)
        for v in new:
            if new[v] in merged:
                new[v] = keep
    return new


def naive_partition(r: BinaryRelation, word: str) -> Partition:
    name = {v: v for v in r.vertices}
    for side in word:
        name = naive_step(r, name, side)
    classes: dict = {}
    for v in r.vertices:
        classes.setdefault(name[v], []).append(v)
    return Partition(r.vertices, tuple(map(tuple, classes.values())))


def naive_count(r: BinaryRelation, m: int, n: int) -> int:
    """gamma(m, n) from its own word of n rights and m lefts."""
    return len(naive_partition(r, "r" * n + "l" * m))


def naive_diagram(r: BinaryRelation) -> tuple:
    """(stable_value, horizon, stable, depth) from naive counts, the horizon
    by walking antidiagonals until three in a row are stable."""
    depth = 0
    while naive_partition(r, "lr" * (depth + 1)) != naive_partition(r, "lr" * depth):
        depth += 1
    final = naive_partition(r, "lr" * depth)
    stable_value = len(final)
    gamma = {(0, 0): r.vertex_count}
    s, run = 0, 3 if r.vertex_count == stable_value else 0
    while run < 3:
        s += 1
        row = {(m, s - m): naive_count(r, m, s - m)
               for m in range(s + 1) if abs(2 * m - s) <= 2}
        gamma.update(row)
        run = run + 1 if set(row.values()) == {stable_value} else 0
    nonstable = [min(p) for p, g in gamma.items() if g != stable_value]
    horizon = 1 + max(nonstable) if nonstable else 0
    return stable_value, horizon, quotient(r, final), depth


# labels whose declaration order is not their lexical order; no merged
# class can take the label of a vertex
ODD_LABELS = ("10", "9", "{a,b}", "{c}", "100", "2", "x y", "b", "01", "z")


def declared_out_of_order(r: BinaryRelation, tag: str) -> BinaryRelation:
    """r relabelled with ODD_LABELS and read back through the DOT parser,
    statements in seeded order and isolated vertices declared by node
    statements, so vertex ids follow first appearance in the text."""
    rng = random.Random(tag)
    name = dict(zip(r.vertices, rng.sample(ODD_LABELS, r.vertex_count)))
    touched = {v for pair in r.pairs for v in pair}
    stmts = [f'"{name[v]}";' for v in r.vertices if v not in touched]
    stmts += [f'"{name[s]}" -> "{name[t]}";' for s, t in sorted(r.pairs)]
    rng.shuffle(stmts)
    return reduce(parse_graph("digraph {\n" + "\n".join(stmts) + "\n}\n")).reduced


def functional_relation(f: list) -> BinaryRelation:
    """The relation x -> f(x) on vertices 0 .. len(f) - 1; f(x) None leaves
    x without an out-edge."""
    labels = tuple(map(str, range(len(f))))
    return BinaryRelation(labels, frozenset((labels[x], labels[y]) for x, y in enumerate(f)
                                            if y is not None))


def loop_heavy_maps() -> list[BinaryRelation]:
    """Functional graphs rich in fixed points and 2-cycles, and a loop on a
    vertex of degree one, alone and inside larger relations."""
    maps = [functional_relation(f) for f in
            ([0], [0, 0], [1, 0], [0, 1], [1, 0, 2, 2, 3], [0, 0, 1, 1, 2, 2], [1, 0, 0, 1, 4, 4])]
    maps.append(BinaryRelation(("a", "b"), frozenset({("a", "a")})))
    maps.append(BinaryRelation(("a", "b", "c"), frozenset({("a", "a"), ("b", "c"), ("c", "b")})))
    for i in range(40):
        rng = random.Random(f"loop-heavy:{i}")
        n = rng.randint(2, 9)
        maps.append(functional_relation([x if rng.random() < 0.4 else rng.randrange(n)
                                         for x in range(n)]))
    return maps


def partial_maps() -> list[BinaryRelation]:
    """Seeded random partial maps on at most 60 vertices, each vertex left
    without an out-edge with probability 1/4, so that sinks, trees into
    cycles and isolated vertices all occur; and their converses."""
    rng = random.Random("partial-maps")
    maps = []
    for _ in range(40):
        n = rng.randint(1, 60)
        maps.append(functional_relation([None if rng.random() < 0.25 else rng.randrange(n)
                                         for _ in range(n)]))
    return maps + [converse(r) for r in maps]


@pytest.fixture
def reference_inputs(g1, g2, g3, g4):
    inputs = [relation(g) for g in (g1, g2, g3, g4)]
    inputs += [BinaryRelation(tuple("abcd"), frozenset()), BinaryRelation((), frozenset())]
    inputs += [spider(arms) for arms in
               ((1,), (2, 2), (3, 3), (5, 5), (2, 6), (4, 4, 1), (1, 2, 3))]
    inputs += [seeded_relation(f"reference:{i}", max_vertices=9,
                               prob=Fraction(random.Random(i).randint(1, 6), 10))
               for i in range(200)]
    odd = [seeded_relation(f"odd-labels:{i}", max_vertices=9, prob=Fraction(1 + i % 4, 10))
           for i in range(60)]
    inputs += [declared_out_of_order(r, f"odd-labels:{i}")
               for i, r in enumerate(odd) if r.vertices]
    return inputs + loop_heavy_maps() + partial_maps()


def test_gamma_table_matches_definition(reference_inputs):
    for r in reference_inputs:
        d = gamma_table(r)
        assert all(d.is_suitable(m, n) for m, n in stored_gamma(d)), sorted(r.pairs)
        assert d.band_end == max(m + n for m, n in stored_gamma(d)), sorted(r.pairs)
        for s in range(d.band_end + 4):
            for m in range(s + 1):
                if d.is_suitable(m, s - m):
                    assert d.value(m, s - m) == naive_count(r, m, s - m), (sorted(r.pairs), m)
        got = (d.stable_value, d.horizon, d.stable, d.depth)
        assert got == naive_diagram(r), sorted(r.pairs)


def test_contractions_match_definition(reference_inputs):
    rng = random.Random("reference-words")
    for r in reference_inputs:
        for _ in range(4):
            word = "".join(rng.choice("lr") for _ in range(rng.randint(1, 7)))
            rel, part = contract_word(r, word)
            assert part == naive_partition(r, word), (sorted(r.pairs), word)
            assert rel == quotient(r, part)
            m, n = rng.randint(0, 4), rng.randint(0, 4)
            assert iterated_contraction(r, m, n)[1] == naive_partition(r, "r" * n + "l" * m)
        assert left_partition(r) == naive_partition(r, "l")
        assert right_partition(r) == naive_partition(r, "r")


# The diagram cells with index k as the paper draws them, by role-labelled
# corners: a square a, b, c, d has content gamma_a - gamma_b - gamma_d +
# gamma_c, a parallelogram a, a2, b, b2 has gamma_a + gamma_a2 - gamma_b -
# gamma_b2.
ROLE_SIGN = {"a": 1, "a2": 1, "c": 1, "b": -1, "b2": -1, "d": -1}


def role_cells(k: int) -> list[tuple[str, str, int, dict[str, tuple[int, int]]]]:
    """Name, multiplicity family, family index and corners by role of the
    seven cells with index k."""
    j, l = k - 1, k + 1
    return [
        (f"A{k}", "ztz", 2 * k - 1, {"a": (j, j), "b": (j, k), "c": (k, k), "d": (k, j)}),
        (f"B{k}", "ztz", 2 * k, {"a": (k, j), "b": (k, k), "c": (l, k), "d": (l, j)}),
        (f"B{k}'", "ztz", 2 * k, {"a": (j, k), "b": (j, l), "c": (k, l), "d": (k, k)}),
        (f"C{k}", "tz", k, {"a": (j, l), "a2": (k, j), "b": (j, k), "b2": (k, k)}),
        (f"C{k}'", "tz", k, {"a": (k, l), "a2": (l, j), "b": (k, k), "b2": (l, k)}),
        (f"D{k}", "zt", k, {"a": (j, l), "a2": (l, k), "b": (k, k), "b2": (k, l)}),
        (f"D{k}'", "zt", k, {"a": (l, j), "a2": (j, k), "b": (k, k), "b2": (k, j)}),
    ]


def role_content(d: ContractionDiagram, corners: dict[str, tuple[int, int]]) -> int:
    """A cell's content, each corner read through value, point by point."""
    return sum(ROLE_SIGN[role] * d.value(m, n) for role, (m, n) in corners.items())


def test_part_one_matches_the_cell_reader(reference_inputs):
    # cell_contents, which part_one and the diagram command read, takes the
    # cells as slices of the padded diagonals, for k = 1 .. horizon + 1;
    # role_content reads each corner through value, point by point, and
    # past horizon + 1 every content vanishes
    for r in reference_inputs:
        d = gamma_table(r)
        contents = cell_contents(d)
        mult = dict(zip(("zt", "tz", "ztz"), part_one(d)))
        assert len(contents) == d.horizon + 1
        for k, row in enumerate(contents, 1):
            cells = role_cells(k)
            assert list(row) == [role_content(d, corners) for *_, corners in cells], \
                (sorted(r.pairs), k)
            for name, family, index, corners in cells:
                assert mult[family].get(index, 0) == role_content(d, corners), \
                    (sorted(r.pairs), name)
        assert [role_content(d, corners) for *_, corners in role_cells(d.horizon + 2)] == [0] * 7
        # the diagram command names each cell, its family and index
        assert _diagram_lines(d, 0)[-len(contents):] == [
            "  ".join(f"|{name}| = {role_content(d, corners)} ({family}[{index}])"
                      for name, family, index, corners in role_cells(k))
            for k in range(1, d.horizon + 2)]


def test_diagonals_hold_the_stored_points(reference_inputs):
    for r in reference_inputs:
        d = gamma_table(r)
        assert len(d.diagonals) == 5
        for o, diagonal in enumerate(d.diagonals, -2):
            for i, g in enumerate(diagonal):
                m, n = (i + o, i) if o >= 0 else (i, i - o)
                assert stored_gamma(d)[m, n] == g == d.value(m, n)
        assert sum(map(len, d.diagonals)) == len(stored_gamma(d))


def test_antidiagonal_lists_the_suitable_points_in_order():
    for s in range(12):
        expected = [(m, s - m) for m in range(s + 1)
                    if ContractionDiagram.is_suitable(m, s - m)]
        assert ContractionDiagram.antidiagonal(s) == expected


# -- the engine's own layout ---------------------------------------------------


def test_single_neighbours_stay_bare_ids():
    rng = random.Random("bare-ids")
    n = 10 ** 4
    f = [rng.randrange(n) for _ in range(n)]
    q = _Quotient(functional_relation(f))
    sources: dict[int, set[int]] = {}
    for x, y in enumerate(f):
        sources.setdefault(y, set()).add(x)
    out, inn = q.adj
    assert out == f
    assert q.front[0] == set()
    many = {y for y, xs in sources.items() if len(xs) >= 2}
    assert many and q.front[1] == many
    for y, entry in enumerate(inn):
        xs = sources.get(y, set())
        if not xs:
            assert entry is None
        elif len(xs) == 1:
            assert type(entry) is int and {entry} == xs
        else:
            assert type(entry) is set and entry == xs


def check_layout(r: BinaryRelation, q: _Quotient) -> None:
    """The quotient's adjacency is the relation r induces on its classes,
    keyed by root and holding only roots, the two sides mirror each other,
    and every root with two neighbours on a side is in that side's front."""
    roots = [_find(q.parent, v) for v in range(r.vertex_count)]
    induced = ({}, {})
    for s, t in r.ids:
        induced[0].setdefault(roots[s], set()).add(roots[t])
        induced[1].setdefault(roots[t], set()).add(roots[s])
    assert q.count == len(set(roots))
    assert all(q.size[x] == roots.count(x) for x in set(roots))

    def held(entry) -> set:
        return set() if entry is None else {entry} if type(entry) is int else entry

    for side, (adj, front) in enumerate(zip(q.adj, q.front)):
        for x, entry in enumerate(adj):
            assert held(entry) == induced[side].get(x, set()) if roots[x] == x else entry is None
            assert all(x in held(q.adj[1 - side][y]) for y in held(entry))
            if len(held(entry)) > 1:
                assert type(entry) is set and x in front


def test_every_step_keeps_the_layout(reference_inputs):
    for r in reference_inputs:
        for side in (0, 1):
            q = _Quotient(r)
            check_layout(r, q)
            idle, turn = 0, side
            while idle < 2:
                q.probe(turn)
                idle = 0 if q.step(turn) else idle + 1
                check_layout(r, q)
                turn = 1 - turn


# -- the chain's skip rules ----------------------------------------------------


def reference_chain(r: BinaryRelation, side: int) -> tuple:
    """_chain's lists, depth and fixpoint classes from a loop that runs a
    step, a probe and a step in every round, skipping nothing."""
    q = _Quotient(r)
    same, one, two = [q.count], [], []
    idle = 0
    while idle < 2:
        idle = 0 if q.step(side) else idle + 1
        one.append(q.count)
        two.append(q.count - q.probe(side))
        idle = 0 if q.step(1 - side) else idle + 1
        same.append(q.count)
    return (same, one, two), len(one) - 1, q.classes()


def chain_inputs() -> list[BinaryRelation]:
    """Y graphs, spiders, functional graphs and relations drawn as `fuzz`
    draws them (8 vertices, edge probability 3/10)."""
    rng = random.Random("chain-inputs")
    inputs = [spider((a, b)) for a in range(6) for b in range(a, 9)]
    inputs += [spider((L, L)) for L in (16, 33, 64)] + [spider((20, 21)), spider((7, 40))]
    inputs += [spider(tuple(rng.randint(1, 12) for _ in range(rng.randint(3, 6))))
               for _ in range(30)]
    for _ in range(60):
        n = rng.randint(1, 60)
        inputs.append(functional_relation([rng.randrange(n) for _ in range(n)]))
    fuzz = random.Random(1)
    return inputs + [random_relation(fuzz, 8, Fraction(3, 10)) for _ in range(300)]


def test_chain_equals_the_loop_that_skips_nothing(reference_inputs):
    for r in reference_inputs + chain_inputs():
        for side in (0, 1):
            assert _chain(r, side) == reference_chain(r, side), (sorted(r.pairs), side)


@pytest.mark.parametrize("L", [32, 256])
def test_y_graph_table_runs_no_chain(monkeypatch, L):
    # Y(L, L) has out-degree <= 1 and its converse in-degree <= 1: both are
    # read off their in-heights, with no quotient, step or probe
    calls = {"step": 0, "probe": 0, "build": 0}
    step, probe, build = _Quotient.step, _Quotient.probe, _Quotient.__init__

    def counted(name, fn):
        def wrapper(self, arg):
            calls[name] += 1
            return fn(self, arg)
        return wrapper

    monkeypatch.setattr(_Quotient, "step", counted("step", step))
    monkeypatch.setattr(_Quotient, "probe", counted("probe", probe))
    monkeypatch.setattr(_Quotient, "__init__", counted("build", build))
    for r in (spider((L, L)), converse(spider((L, L)))):
        calls.update(step=0, probe=0, build=0)
        d = gamma_table(r)
        assert calls == {"step": 0, "probe": 0, "build": 0}
        assert d.stable_value == L + 1 and d.depth == L


def test_rule_2_skips_the_probes_at_scale(monkeypatch):
    # Y(5000, 5000) with an out-fork beside it is two-sided, so both chains
    # run, 5000 rounds each: the fork merges once on one side and the Y
    # graph 5000 times on the other.  A chain that starts on the Y graph's
    # side finds the other front empty at nearly every probe point, where
    # rule 2 stands in for the probe; one that starts on the fork's side
    # skips its probes by rule 1.
    y = spider((5000, 5000))
    r = BinaryRelation(y.vertices + ("x", "y", "z"), y.pairs | {("x", "y"), ("x", "z")})
    probes = []
    probe = _Quotient.probe

    def counted(self, side):
        probes.append(side)
        return probe(self, side)

    for s in (r, converse(r)):
        for side in (0, 1):
            probes.clear()
            monkeypatch.setattr(_Quotient, "probe", counted)
            got = _chain(s, side)
            monkeypatch.undo()
            assert got[1] == 5000 and len(probes) <= 3, (side, len(probes))
            assert got == reference_chain(s, side), side


def test_two_sided_table_runs_both_chains(monkeypatch, g4):
    sides = []

    def logged(r, side):
        sides.append(side)
        return _chain(r, side)

    monkeypatch.setattr("linequiv.contraction._chain", logged)
    gamma_table(relation(g4))
    assert sides == [0, 1]


def test_stabilize_reads_the_gamma_table(monkeypatch, reference_inputs):
    inputs = reference_inputs + chain_inputs()
    inputs += [converse(r) for r in inputs]
    assert {_one_sided(r) is None for r in inputs} == {False, True}  # both readers run
    for r in inputs:
        d = gamma_table(r)
        assert stabilize(r) == (classify_stable(d.stable), d.stable, d.depth), sorted(r.pairs)
    # it has no reader of its own: with only the table, it still answers
    monkeypatch.setattr("linequiv.contraction.gamma_table", lambda r: d)
    monkeypatch.setattr("linequiv.contraction._chain", None)
    monkeypatch.setattr("linequiv.contraction._one_sided", None)
    assert stabilize(inputs[-1]) == (classify_stable(d.stable), d.stable, d.depth)


def two_chain_table(r: BinaryRelation) -> ContractionDiagram:
    """The table of both reference chains, the main diagonal from the
    longer one."""
    (same, left_one, left_two), depth, classes = reference_chain(r, 0)
    (right_same, right_one, right_two), _, right_classes = reference_chain(r, 1)
    assert classes == right_classes
    same = max(same, right_same, key=len)
    diagonals = tuple(map(tuple, (right_two, right_one, same, left_one, left_two)))
    return ContractionDiagram(diagonals, max(classes, default=-1) + 1,
                              _quotient(r, classes), depth)


def test_one_sided_table_equals_the_two_chain_table(reference_inputs):
    # a functional graph or in-tree has out-degree <= 1 and its converse
    # in-degree <= 1: between them they take both branches of the reader
    for r in reference_inputs + chain_inputs():
        for s in (r, converse(r)):
            d, expected = gamma_table(s), two_chain_table(s)
            assert (d, d.band_end) == (expected, expected.band_end), sorted(s.pairs)
