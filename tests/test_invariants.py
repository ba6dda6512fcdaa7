"""The record pipeline on the reference graphs and on random relations.

Two of the assertions below pin the orientation of the zt/tz difference
formulas; both have independent hand-checkable witnesses:

  * the fan v -> a, v -> b decomposes as t[1] + zt[1]: the difference of the
    two edges is killed by the source map and not by the target map, which
    is exactly the nilpotent-first canonical summand;
  * g1 decomposes as ztz[1] + tz[1] + S(X - 1): its source map has a
    one-dimensional kernel that the ztz[1] summand already accounts for, so
    zt must be empty.

The exact-linear-algebra oracle agrees on both (and on every random trial in
test_oracle.py / the acceptance suite).
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from linequiv import (BinaryRelation, InvariantRecord, converse,
                      cyclotomic_refine, decide_equiv, full_invariants,
                      gamma_table, invariants, part_one, part_three_zt00,
                      part_two)
from linequiv.contraction import ContractionDiagram, StableShape
from linequiv.invariants import _first_gamma_difference, cell_contents
from linequiv.ratpoly import totient
from linequiv.relation import MultiDigraph

from conftest import as_multidigraph, multidigraph, relation, seeded_relation, spider, swapped


def rec(**kw) -> InvariantRecord:
    return InvariantRecord(**kw)


def test_part_one_braided(g4):
    d = gamma_table(relation(g4))
    zt, tz, ztz = part_one(d)
    assert ztz == {2: 3, 3: 2}
    assert zt == {3: 1}
    assert tz == {2: 1}


def test_part_one_small(g3):
    zt, tz, ztz = part_one(gamma_table(relation(g3)))
    assert zt == {1: 1} and tz == {1: 1} and ztz == {}


def test_part_one_constant_diagram():
    d = gamma_table(BinaryRelation(tuple("abc"), frozenset()))
    assert part_one(d) == ({}, {}, {})


def test_part_one_fan_orientation():
    fan = BinaryRelation(("v", "a", "b"), frozenset({("v", "a"), ("v", "b")}))
    zt, tz, ztz = part_one(gamma_table(fan))
    assert zt == {1: 1} and tz == {} and ztz == {}


def test_part_two():
    t, cycles = part_two(StableShape((1,), ()))
    assert t == {} and cycles == (1,)
    t, cycles = part_two(StableShape((2,), ()))
    assert cycles == (2,)
    t, cycles = part_two(StableShape((), (2, 1, 2)))
    assert t == {0: 1, 1: 2} and cycles == ()


def test_part_two_two_vertex_path_is_t1():
    # the 2-vertex path's matrices are literally the canonical K -> K^2
    # shift pair; the oracle run in test_oracle.py pins the same n = 1
    path = BinaryRelation(("a", "b"), frozenset({("a", "b")}))
    assert full_invariants(path) == rec(t={1: 1})


def test_part_three_braided(g4):
    partial = rec(zt={3: 1}, tz={2: 1}, ztz={2: 3, 3: 2}, cycles=(1,))
    assert part_three_zt00(23, partial) == 0


def test_part_three_complete_two():
    partial = rec(ztz={1: 1}, cycles=(1,))
    assert part_three_zt00(4, partial) == 1  # 4 - 0 - 0 - 2 - 1


def test_part_three_single_loop():
    assert part_three_zt00(1, rec(cycles=(1,))) == 0


def test_part_three_rejects_overdraft():
    with pytest.raises(AssertionError, match=r"negative multiplicity: ztz\[0\] = -1"):
        part_three_zt00(0, rec(cycles=(1,)))


def test_vertex_check(g4):
    good = rec(zt={3: 1}, tz={2: 1}, ztz={2: 3, 3: 2}, cycles=(1,))
    good.check_dimensions(23, 18)           # 18 = 2*3 + 3*2 + 3 + 2 + 1
    corrupted = rec(zt={3: 1}, tz={2: 1}, ztz={2: 3, 3: 1}, cycles=(1,))
    with pytest.raises(AssertionError, match="edge and vertex identities fail: "
                       "record accounts for 19x15, pair is 19x18"):
        corrupted.check_dimensions(19, 18)
    with pytest.raises(AssertionError, match="edge and vertex identities fail: "
                       "record accounts for 23x18, pair is 22x18"):
        good.check_dimensions(22, 18)


def test_record_normalization_and_totals():
    r = rec(zt={2: 1, 5: 0}, t={0: 2}, cycles=(3, 1))
    assert r.zt == {2: 1}
    assert r.dimensions() == (2 + 0 + 4, 2 + 2 + 4)
    assert swapped(r).tz == {2: 1}
    with pytest.raises(AssertionError, match="negative multiplicity: -1 at index 1"):
        rec(tz={1: -1})


def raised(d: ContractionDiagram, offset: int, i: int, by: int) -> ContractionDiagram:
    """d with entry i of the diagonal m - n = offset raised by `by`."""
    diagonals = list(d.diagonals)
    diagonal = list(diagonals[offset + 2])
    diagonal[i] += by
    diagonals[offset + 2] = tuple(diagonal)
    return ContractionDiagram(tuple(diagonals), d.stable_value, d.stable, d.depth)


def test_raising_gamma_2_0_fails_the_dual_forms(g4):
    # gamma(2, 0), read by B1, C1' and D1' but by none of their duals
    d = raised(gamma_table(relation(g4)), 2, 0, 1)
    with pytest.raises(AssertionError, match=r"dual forms disagree: ztz\[2\]: 2 != 3"):
        part_one(d)


def test_a_changed_main_diagonal_entry_makes_both_forms_negative(g4):
    # gamma(1, 1) is subtracted by all six dual cells of index 1 and added
    # by A1 and A2: raised, tz[1] = 0 drops to -1 in both of its forms;
    # lowered, A1 = ztz[1] = 0 drops to -1
    d = gamma_table(relation(g4))
    with pytest.raises(AssertionError, match=r"negative multiplicity: tz\[1\] = -1"):
        part_one(raised(d, 0, 1, 1))
    with pytest.raises(AssertionError, match=r"negative multiplicity: ztz\[1\] = -1"):
        part_one(raised(d, 0, 1, -1))


def test_cyclotomic_refine_cases():
    assert cyclotomic_refine((2,)) == ((1, 1), (2, 1))
    assert cyclotomic_refine((1,)) == ((1, 1),)
    part = cyclotomic_refine((6, 2))
    assert part == ((1, 2), (2, 2), (3, 1), (6, 1))
    # independent degree bookkeeping: sum of phi(d) * mult = sum of lengths
    assert sum(totient(d) * m for d, m in part) == 8


def refine_by_definition(cycles) -> tuple:
    """One Phi_d for each divisor d of each cycle length, d tried 1 .. n."""
    counts = Counter()
    for n in cycles:
        for d in range(1, n + 1):
            if n % d == 0:
                counts[d] += 1
    return tuple(sorted(counts.items()))


def test_cyclotomic_refine_matches_the_definition():
    rng = random.Random("cyclotomic-refine")
    cases = [[], list(range(1, 61)), [36, 36, 49, 1, 1]]
    cases += [[rng.randint(1, 60) for _ in range(rng.randint(1, 12))] for _ in range(300)]
    # the identity map on 10^5 vertices, and one 10^5-cycle
    cases += [[1] * 10 ** 5, [10 ** 5]]
    for cycles in cases:
        assert cyclotomic_refine(cycles) == refine_by_definition(cycles), cycles[:12]


def test_full_invariants_golden_small(g1, g2, g3):
    assert full_invariants(g1) == rec(ztz={1: 1}, tz={1: 1}, cycles=(1,))
    assert full_invariants(g2) == rec(ztz={0: 1, 1: 1}, cycles=(1,))
    assert full_invariants(g3) == rec(zt={1: 1}, tz={1: 1}, cycles=(2,))


def test_full_invariants_braided(g4):
    assert full_invariants(g4) == rec(zt={3: 1}, tz={2: 1},
                                      ztz={2: 3, 3: 2}, cycles=(1,))


def test_full_invariants_empty_and_tiny():
    assert full_invariants(BinaryRelation((), frozenset())) == rec()
    assert full_invariants(BinaryRelation(("v",), frozenset())) == rec(t={0: 1})
    loop = BinaryRelation(("v",), frozenset({("v", "v")}))
    assert full_invariants(loop) == rec(cycles=(1,))


def test_identities_hold_on_random_graphs():
    for i in range(120):
        r = seeded_relation(f"identities:{i}")
        record = full_invariants(r)  # raises on any internal mismatch
        record.check_dimensions(r.edge_count, r.vertex_count)
        assert all(c > 0 for m in (record.zt, record.tz, record.t, record.ztz)
                   for c in m.values())


def test_a_dropped_summand_fails_the_vertex_identity(monkeypatch):
    # a cycle lost in part_two moves its edges to ztz[0], so the edge
    # identity still closes and only the vertex identity sees the loss
    two = invariants.part_two
    monkeypatch.setattr(invariants, "part_two", lambda shape: (two(shape)[0], ()))
    cycle = BinaryRelation(("a", "b"), frozenset({("a", "b"), ("b", "a")}))
    with pytest.raises(AssertionError, match="edge and vertex identities fail: "
                       "record accounts for 2x0, pair is 2x2"):
        full_invariants(cycle)


def test_converse_swaps_record():
    for i in range(100):
        r = seeded_relation(f"record-conv:{i}")
        assert full_invariants(converse(r)) == swapped(full_invariants(r))


def test_parallel_edge_additivity():
    rng = random.Random("dup")
    for i in range(100):
        r = seeded_relation(f"dup:{i}")
        if not r.pairs:
            continue
        g = as_multidigraph(r)
        edge = rng.choice(sorted(r.pairs))
        k = rng.randint(1, 3)
        dup = MultiDigraph(g.vertices, g.edges + (edge,) * k)
        base, more = full_invariants(g), full_invariants(dup)
        assert more.ztz.get(0, 0) == base.ztz.get(0, 0) + k
        assert (more.zt, more.tz, more.t, more.cycles) == \
            (base.zt, base.tz, base.t, base.cycles)


def test_gamma_content_square_and_pairs(g4):
    d = gamma_table(relation(g4))
    a1, b1, b1_dual = cell_contents(d)[0][:3]
    assert a1 == 0  # gamma at (0,0), (1,1) less (0,1), (1,0): 18 + 6 - 12 - 12
    assert b1 == b1_dual == 3


def test_gamma_content_constant_diagram():
    d = gamma_table(BinaryRelation(tuple("ab"), frozenset()))
    assert d.horizon == 0 and cell_contents(d) == [(0,) * 7]


def test_decide_equiv_relabeled(g1):
    relabeled = multidigraph("xyz", [("x", "z"), ("x", "y"), ("z", "y"), ("y", "z")])
    verdict = decide_equiv(g1, relabeled)
    assert verdict.equivalent
    assert str(verdict) == "equivalent"


def test_decide_equiv_distinguishes(g1, g2):
    verdict = decide_equiv(g1, g2)
    assert not verdict.equivalent
    assert verdict.reason == "gamma[0,0]: 3 != 2"
    # and the records differ where expected: t^0 side and ztz[0]
    a, b = full_invariants(g1), full_invariants(g2)
    assert a.tz.get(1, 0) != b.tz.get(1, 0)
    assert a.ztz.get(0, 0) != b.ztz.get(0, 0)


def test_decide_equiv_isolated_vertex(g2):
    padded = MultiDigraph(g2.vertices + ("w",), g2.edges)
    verdict = decide_equiv(g2, padded)
    assert not verdict.equivalent
    assert verdict.reason == "gamma[0,0]: 2 != 3"
    assert full_invariants(padded).t == {0: 1}


def test_decide_equiv_reason_deep_in_the_band():
    # Y(64, 64) and Y(63, 65) first differ on the diagonal m - n = -2
    verdict = decide_equiv(spider((64, 64)), spider((63, 65)))
    assert verdict.reason == "gamma[62,64]: 65 != 66"
    r = seeded_relation("toggle:531", max_vertices=9, prob=Fraction(15, 100))
    toggled = BinaryRelation(r.vertices, r.pairs ^ {("v2", "v7")})
    assert decide_equiv(r, toggled).reason == "gamma[1,3]: 2 != 1"


def scanned_difference(da: ContractionDiagram, db: ContractionDiagram) -> str | None:
    """The first point where two gamma functions differ, by its definition:
    antidiagonals m + n = 0, 1, ... in turn, each in increasing m."""
    for s in range(max(da.band_end, db.band_end) + 4):
        for m, n in ContractionDiagram.antidiagonal(s):
            if da.value(m, n) != db.value(m, n):
                return f"gamma[{m},{n}]: {da.value(m, n)} != {db.value(m, n)}"
    return None


def random_diagram_pair(rng: random.Random) -> tuple[ContractionDiagram, ContractionDiagram]:
    """Two diagrams with short diagonals of small values, the second often
    the first with one value changed, a diagonal cut or grown, or another
    stable value, so that most pairs differ at one point."""
    empty = BinaryRelation((), frozenset())

    def diagonals() -> list[list[int]]:
        return [[rng.randint(0, 3) for _ in range(rng.randint(o == 0, 6))] for o in range(5)]

    first, stable = diagonals(), rng.randint(1, 2)
    second, other_stable = [list(d) for d in first], stable
    change = rng.randrange(5)
    o = rng.randrange(5)
    if change == 0:
        second = diagonals()
    elif change == 1 and second[o]:
        second[o][rng.randrange(len(second[o]))] = rng.randint(0, 3)
    elif change == 2 and len(second[o]) > (o == 2):
        del second[o][rng.randrange(o == 2, len(second[o])):]
    elif change == 3:
        second[o] += [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
    else:
        other_stable = 3 - stable
    return tuple(ContractionDiagram(tuple(map(tuple, d)), v, empty, 0)
                 for d, v in ((first, stable), (second, other_stable)))


def test_first_gamma_difference_matches_the_scan():
    rng = random.Random("first-difference")
    pairs = [random_diagram_pair(rng) for _ in range(3000)]
    pairs += [(gamma_table(spider((L, L))), gamma_table(spider((L - 1, L + 1))))
              for L in (1, 2, 3, 8, 33, 64)]
    graphs = [gamma_table(seeded_relation(f"first-difference:{i}", max_vertices=7))
              for i in range(30)]
    pairs += [(da, db) for da in graphs for db in graphs]
    differing = Counter()
    for da, db in pairs:
        expected = scanned_difference(da, db)
        assert _first_gamma_difference(da, db) == expected, (da.diagonals, db.diagonals)
        if expected is None:
            continue
        differing["pairs"] += 1
        differing["lengths"] += list(map(len, da.diagonals)) != list(map(len, db.diagonals))
        differing["stable"] += da.stable_value != db.stable_value
    assert differing["pairs"] >= 2000
    assert differing["lengths"] >= 500 and differing["stable"] >= 500


def test_no_gamma_difference_iff_gamma_agrees_everywhere():
    diagrams = [gamma_table(seeded_relation(f"signature:{i}", max_vertices=4))
                for i in range(40)]
    equal_pairs = 0
    for da in diagrams:
        for db in diagrams:
            end = max(da.band_end, db.band_end) + 4
            agree = all(da.value(m, n) == db.value(m, n)
                        for m in range(end + 1) for n in range(end + 1 - m)
                        if da.is_suitable(m, n))
            assert (_first_gamma_difference(da, db) is None) == agree
            equal_pairs += agree
    assert equal_pairs > len(diagrams)


def test_decide_equiv_edge_count_tiebreak(g4):
    # duplicated edge: same gamma table and shape, one more edge
    dup = MultiDigraph(g4.vertices, g4.edges + (g4.edges[0],))
    verdict = decide_equiv(g4, dup)
    assert not verdict.equivalent
    assert verdict.reason == "edge count: 23 != 24"


def test_a_missed_gamma_difference_fails_the_record_check(monkeypatch):
    # a loop with an out-edge and a loop with an in-edge share their stable
    # shape and edge count; only gamma tells their zt[1] and tz[1] apart
    out_edge = BinaryRelation(("a", "b"), frozenset({("a", "a"), ("a", "b")}))
    assert decide_equiv(out_edge, converse(out_edge)).reason.startswith("gamma[")
    monkeypatch.setattr(invariants, "_first_gamma_difference", lambda da, db: None)
    with pytest.raises(AssertionError, match="primitive invariants and records disagree"):
        decide_equiv(out_edge, converse(out_edge))


def test_decide_equiv_is_an_equivalence():
    graphs = [seeded_relation(f"equiv-rel:{i}", max_vertices=4) for i in range(8)]
    n = len(graphs)
    table = [[decide_equiv(graphs[i], graphs[j]).equivalent for j in range(n)]
             for i in range(n)]
    for i in range(n):
        assert table[i][i]
        for j in range(n):
            assert table[i][j] == table[j][i]
            for k in range(n):
                if table[i][j] and table[j][k]:
                    assert table[i][k]


def test_dual_forms_exercised_on_random_graphs():
    # part_one evaluates every multiplicity by two redundant formulas and
    # raises on disagreement; run it broadly
    for i in range(150):
        part_one(gamma_table(seeded_relation(f"dual:{i}")))


def test_full_invariants_accepts_multigraph_and_relation(g1):
    assert full_invariants(g1) == full_invariants(relation(g1))


# -- closed-form records, at sizes the oracle cannot reach ---------------------


def test_y_graph_record_at_scale():
    # two in-arms of 1000 vertices into one hub: one arm with the hub is the
    # shift pair t[1000], the other a nilpotent chain tz[1000]
    assert full_invariants(spider((1000, 1000))) == rec(tz={1000: 1}, t={1000: 1})


def test_functional_graph_record_at_scale():
    # the graph of a map f has source map the identity and target map f, so
    # its record is f's nilpotent Jordan type, read off the image sizes
    # |f^k(V)|, plus one cycle summand per cycle of f
    n = 20_000
    rng = random.Random("functional-20k")
    f = [rng.randrange(n) for _ in range(n)]
    sizes, image = [n], set(range(n))
    while len(sizes) < 2 or sizes[-1] != sizes[-2]:
        image = {f[v] for v in image}
        sizes.append(len(image))
    blocks = {k: sizes[k - 1] - 2 * sizes[k] + sizes[k + 1] for k in range(1, len(sizes) - 1)}
    cycles, seen = [], set()
    for v in image:
        length, u = 0, v
        while u not in seen:
            seen.add(u)
            u, length = f[u], length + 1
        if length:
            cycles.append(length)
    g = BinaryRelation(tuple(map(str, range(n))),
                       frozenset((str(v), str(f[v])) for v in range(n)))
    assert full_invariants(g) == rec(tz=blocks, cycles=tuple(cycles))
    assert sum(k * c for k, c in blocks.items()) == n - len(image)
