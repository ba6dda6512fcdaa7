"""The exact-linear-algebra route, and its agreement with the contraction
route.  All expected values here are forced by hand-checkable elimination on
the small pairs, or by the canonical single-summand matrices."""

import copy
import dataclasses
import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest

from linequiv import (BinaryRelation, InvariantRecord, canonical_pair, compare, full_invariants,
                      minimal_indices_left, minimal_indices_right, oracle_invariants,
                      regular_pair)
from linequiv import oracle, ratpoly as rp
from linequiv.cli import random_relation, run_fuzz
from linequiv.echelon import Echelon, forest_ranks, forest_rows
from linequiv.linearize import PairMatrices, linearize, parse_pair_file
from linequiv.oracle import (OracleFactorError, OracleReport, _cyclotomic_blocks,
                             _eliminations, _lift, _multiset, _ranks, _row_basis, _screen_clears,
                             _shape, _solution_space_dims, _transpose, _unit_rows, analyze,
                             invariant_factors, normal_rank, rank_of_rows)
from linequiv.smith import factor_stored

from conftest import (dense, in_tree, multidigraph, pair_of, seeded_relation, spider,
                      transposed)


DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


def rec(**kw) -> InvariantRecord:
    return InvariantRecord(**kw)


def frac_rows(rows):
    return [{j: Fraction(v) for j, v in enumerate(row) if v} for row in rows]


def primitive(row: dict) -> dict:
    """The nonzeros of a rational row times the positive constant that makes
    them coprime integers; the rank of a set of rows does not change."""
    row = {j: x for j, x in row.items() if x}
    den = lcm(*(Fraction(x).denominator for x in row.values()))
    row = {j: int(x * den) for j, x in row.items()}
    content = gcd(*row.values())
    return {j: x // content for j, x in row.items()} if content > 1 else row


def integer_rank(rows) -> int:
    """`rank_of_rows` on rational rows, each scaled to integers first."""
    return rank_of_rows(map(primitive, rows))


def fraction_rank(rows) -> int:
    """Reference rank: plain Gaussian elimination on dense Fraction rows."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] / rows[rank][col]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def reference_normal_rank(p: PairMatrices) -> int:
    """Largest Fraction rank of M + t*N over t = 0..min(e, v)."""
    return max(fraction_rank([[a + t * b for a, b in zip(m_row, n_row)]
                              for m_row, n_row in zip(*dense(p))])
               for t in range(min(p.edge_dim, p.vertex_dim) + 1))


def direct_sum(p: PairMatrices, q: PairMatrices) -> PairMatrices:
    """Block-diagonal pair: p's edges and vertices first, then q's."""
    zero = Fraction(0)

    def stack(a, b):
        return (tuple(tuple(row) + (zero,) * q.vertex_dim for row in a)
                + tuple((zero,) * p.vertex_dim + tuple(row) for row in b))

    (pm, pn), (qm, qn) = dense(p), dense(q)
    return pair_of(p.edge_dim + q.edge_dim, p.vertex_dim + q.vertex_dim,
                   stack(pm, qm), stack(pn, qn))


def test_rank_of_rows():
    assert integer_rank(frac_rows([[1, 2], [2, 4], [0, 1]])) == 2
    assert integer_rank(frac_rows([[0, 0], [0, 0]])) == 0
    assert rank_of_rows(iter([])) == 0
    assert integer_rank(frac_rows([[Fraction(1, 2), 0], [0, Fraction(2, 3)]])) == 2
    # zeros left in integer rows, as in rows of M + c*N where entries cancel
    rows = [{0: 1, 1: 0}, {0: 0, 1: 0}, {0: 2, 1: 0, 2: 3}]
    assert rank_of_rows(rows) == 2
    assert rows == [{0: 1, 1: 0}, {0: 0, 1: 0}, {0: 2, 1: 0, 2: 3}]


@pytest.mark.parametrize("rows, rank", [
    # negative entries; the third row is the difference of the first two
    ([[1, -2, 3], [-4, 5, -6], [5, -7, 9]], 2),
    # mixed denominators: the second row is the first times 1/2
    ([[Fraction(1, 3), Fraction(1, 6), 1], [Fraction(1, 6), Fraction(1, 12), Fraction(1, 2)],
      [Fraction(-1, 3), Fraction(1, 6), 0]], 2),
    # content 6 and 4 to divide out, and a reduced row with content 2
    ([[6, 12, 18], [4, 8, 14], [2, 0, 2]], 3),
    ([[6, 12, 18], [4, 8, 12], [-10, -20, -30]], 1),
    # rank-deficient 4x4: row 4 = row 1 + 2*row 2 - row 3
    ([[2, 0, -1, 3], [0, 1, 4, -2], [1, 1, 1, 1], [1, 1, 6, -2]], 3),
    ([[0, 0, 0, 0], [3, 0, 0, 9], [0, 0, 0, 0], [-1, 0, 0, -3]], 1),
])
def test_rank_of_rows_integer_elimination(rows, rank):
    assert fraction_rank(rows) == rank
    assert integer_rank(frac_rows(rows)) == rank
    # int-valued and Fraction-valued rows mixed, fed as a generator
    mixed = ({j: (Fraction(v) if i % 2 else v) for j, v in enumerate(row) if v}
             for i, row in enumerate(rows))
    assert integer_rank(mixed) == rank


def test_normal_rank_matches_fraction_reference():
    pairs = [linearize(seeded_relation(f"normal-rank:{i}", max_vertices=7,
                                       prob=Fraction(1 + i % 9, 10)))
             for i in range(45)]
    pairs += [canonical_pair(family, n) for family in ("zt", "tz") for n in range(1, 5)]
    pairs += [canonical_pair(family, n) for family in ("t", "ztz") for n in range(5)]
    pairs += [parse_pair_file(text) for text in (
        "3 2\n1/2 0\n1 1\n0 -3\n0 2\n1/3 0\n1 1\n",
        "2 2\n1 -1/2\n0 0\n-2 1\n0 -1/3\n",
        "2 2\n1 1/2\n2 1\n-1 0\n-2 0\n",
        "3 3\n1/2 0 0\n0 0 -3\n0 0 0\n0 -2/3 0\n0 0 0\n0 0 5/7\n",
        # diag(1, t - 1): the rank drops at t = 1
        "2 2\n1 0\n0 -1\n0 0\n0 1\n",
        # diag(t - 1, t - 2): the rank drops at t = 1 and at the sample t = 2
        "2 2\n-1 0\n0 -2\n1 0\n0 1\n",
    )]
    split = direct_sum(canonical_pair("t", 1), canonical_pair("ztz", 1))
    # normal rank 2 under a bound min(rank [M N], rank [M; N]) of 3, which
    # therefore cannot certify it
    m, n = dense(split)
    assert min(fraction_rank([a + b for a, b in zip(m, n)]), fraction_rank(m + n)) == 3
    pairs.append(split)
    for p in pairs:
        assert normal_rank(p) == reference_normal_rank(p), p
    assert normal_rank(split) == 2


def test_normal_rank_is_the_largest_sampled_rank():
    # the definition: the largest rank of M + tN over t = 0..min(e, v), on
    # pairs with both ztz[k >= 1] and t[k >= 1], where no rank bound from
    # [M N] and [M; N] is tight, and on pairs whose sample t = 2 is an
    # eigenvalue
    relations = (seeded_relation(f"certified:{i}", max_vertices=10, prob=Fraction(1 + i % 3, 10))
                 for i in range(1000))
    small = [linearize(r) for r in relations if len(r.ids) <= 10][:200]
    assert len(small) == 200
    pairs = differential_pairs() + small
    both = 0
    for p in pairs:
        e, v = p.edge_dim, p.vertex_dim
        # integer elimination, as `reference_normal_rank` is too slow here
        sampled = max(rank_of_rows([{j: m.get(j, 0) + t * n.get(j, 0) for j in m.keys() | n.keys()}
                                    for m, n in p.rows]) for t in range(min(e, v) + 1))
        assert normal_rank(p) == sampled, p
        report = analyze(p)
        if max(report.left_minimal_indices, default=0) and max(report.right_minimal_indices,
                                                               default=0):
            both += 1
    assert both >= 5
    two_at_sample = parse_pair_file("1 1\n-2\n1\n")
    assert normal_rank(two_at_sample) == 1
    assert minimal_indices_left(two_at_sample) == ()


def test_no_stage_changes_the_integer_rows(g1, g2, g3, g4):
    # `rank_of_rows` copies each row before `Echelon.add` takes it over, and
    # every other stage builds new rows from `p.rows`
    pairs = [parse_pair_file((DATA / "pair_ztz1.txt").read_text())]
    pairs += [linearize(g) for g in (g1, g2, g3, g4)] + differential_pairs()
    for p in pairs:
        before = copy.deepcopy(p.rows)
        oracle_invariants(p)
        assert p.rows == before, p


def kernel_meet_dim(p: PairMatrices) -> int:
    """Dimension of the joint row kernel {x : xM = 0 and xN = 0}."""
    return p.edge_dim - len(_row_basis(_shape(p), p.vertex_dim))


def test_kernel_meet_dim_examples(g1, g2):
    p2 = linearize(g2)
    assert kernel_meet_dim(p2) == 1
    # the joint kernel witness: e11 - e12 - e21 + e22 annihilates both maps
    w = (1, -1, -1, 1)
    for mat in dense(p2):
        assert all(sum(w[i] * mat[i][j] for i in range(4)) == 0 for j in range(2))
    assert kernel_meet_dim(linearize(g1)) == 0
    assert kernel_meet_dim(canonical_pair("ztz", 0)) == 1  # e=1, v=0: everything


def test_normal_rank(g1):
    assert normal_rank(linearize(g1)) == 3
    assert normal_rank(canonical_pair("ztz", 2)) == 2
    assert normal_rank(canonical_pair("t", 2)) == 2


def test_minimal_indices_left_canonical():
    for d in range(5):
        assert minimal_indices_left(canonical_pair("ztz", d)) == (d,)


def test_minimal_indices_left_examples(g2, g4):
    assert minimal_indices_left(linearize(g2)) == (0, 1)
    assert minimal_indices_left(linearize(g4)) == (2, 2, 2, 3, 3)


def test_minimal_indices_right_examples(g4):
    edgeless = linearize(multidigraph("abc", []))
    assert minimal_indices_right(edgeless) == (0, 0, 0)
    path = linearize(multidigraph("ab", [("a", "b")]))
    # hand elimination on the 1x2 polynomial row [1, t]: the single column
    # solution (t, -1) has degree 1
    assert minimal_indices_right(path) == (1,)
    assert minimal_indices_right(linearize(g4)) == ()


def test_invariant_factors_divisibility_chain():
    x_minus, x_plus = rp.poly(-1, 1), rp.poly(1, 1)
    mat = [[x_minus, rp.ZERO], [rp.ZERO, x_plus]]
    factors = invariant_factors(mat)
    assert factors == [rp.ONE, rp.poly(-1, 0, 1)]  # 1 and X^2 - 1


def test_finite_divisors_loop_calibration():
    loop = linearize(multidigraph("v", [("v", "v")]))
    assert analyze(loop).finite_divisors == ((rp.poly(-1, 1), 1),)  # S(X - 1)


def test_finite_divisors_small(g3):
    divs = analyze(linearize(g3)).finite_divisors
    assert divs == ((rp.poly(-1, 1), 1), (rp.X, 1), (rp.poly(1, 1), 1))


def test_finite_divisors_canonical_zt():
    assert analyze(canonical_pair("zt", 2)).finite_divisors == ((rp.X, 2),)


def test_canonical_pairs_are_the_kronecker_blocks():
    # written out from the definitions: zt[n] is (J, I) and tz[n] is (I, J)
    # on K^n, J the nilpotent shift; t[n] is ([I 0], [0 I]), n x (n + 1),
    # and ztz[n] is ([I; 0], [0; I]), (n + 1) x n
    def block(e, v, m_at, n_at):
        return pair_of(e, v, *([[int(j == at(i)) for j in range(v)] for i in range(e)]
                               for at in (m_at, n_at)))

    blocks = {
        "zt": lambda n: block(n, n, lambda i: i + 1, lambda i: i),
        "tz": lambda n: block(n, n, lambda i: i, lambda i: i + 1),
        "t": lambda n: block(n, n + 1, lambda i: i, lambda i: i + 1),
        "ztz": lambda n: block(n + 1, n, lambda i: i, lambda i: i - 1),
    }
    for family, build in blocks.items():
        for n in range(family in ("zt", "tz"), 13):
            assert canonical_pair(family, n) == build(n), (family, n)
    for family in ("zt", "tz"):
        with pytest.raises(ValueError, match="multiplicity index 0 below 1"):
            canonical_pair(family, 0)
    with pytest.raises(ValueError, match="multiplicity index -1 below 0"):
        canonical_pair("ztz", -1)
    with pytest.raises(ValueError, match="unknown family 'zz'"):
        canonical_pair("zz", 0)


def test_infinite_divisors_examples(g1, g4):
    assert analyze(canonical_pair("tz", 3)).infinite_divisors == (3,)
    assert analyze(linearize(g1)).infinite_divisors == (1,)
    # g4's one identity-first nilpotent summand has depth 2 (its mirror zt
    # summand has depth 3), read from the X^2 in the Smith form of N + X*M;
    # the counting identities close under either zt/tz orientation, so they
    # cannot pin it
    assert analyze(linearize(g4)).infinite_divisors == (2,)


def test_oracle_records_reference_graphs(g1, g2, g3, g4):
    assert oracle_invariants(linearize(g1)) == rec(ztz={1: 1}, tz={1: 1}, cycles=(1,))
    assert oracle_invariants(linearize(g2)) == rec(ztz={0: 1, 1: 1}, cycles=(1,))
    assert oracle_invariants(linearize(g3)) == rec(zt={1: 1}, tz={1: 1}, cycles=(2,))
    assert oracle_invariants(linearize(g4)) == rec(zt={3: 1}, tz={2: 1},
                                                   ztz={2: 3, 3: 2}, cycles=(1,))


def test_braided_graph_oracle_record(g4):
    # the zt/tz orientation witness at scale: both computation routes yield
    # zt[3], tz[2] (not the transposed pair)
    assert not compare(full_invariants(g4), oracle_invariants(linearize(g4)))


def _x_power_exponents(vertices, edges, flip):
    """Sorted positive x-power exponents of the nonzero invariant factors of
    M + x*N (N + x*M if flip), built straight from an edge list with sympy."""
    sp = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    x = sp.Symbol("x")
    ix = {v: i for i, v in enumerate(vertices)}
    m, n = sp.zeros(len(edges), len(vertices)), sp.zeros(len(edges), len(vertices))
    for row, (s, t) in enumerate(edges):
        m[row, ix[s]] = 1
        n[row, ix[t]] = 1
    pencil = n + x * m if flip else m + x * n
    exps = []
    for f in invariant_factors(pencil, domain=sp.QQ[x]):
        if f != 0:
            low = min(mono[0] for mono in sp.Poly(f, x).monoms())
            if low:
                exps.append(low)
    return tuple(sorted(exps))


def test_smith_form_orientation_witness(g1, g4):
    # a witness sharing no code with either route: zt[n] is [nilpotent,
    # identity], so its X^n sits in the Smith form of M + X*N, and tz[n]'s
    # in that of N + X*M
    fan = (("v", "a", "b"), (("v", "a"), ("v", "b")))
    for (vertices, edges), zt, tz in (((g4.vertices, g4.edges), (3,), (2,)),
                                      ((g1.vertices, g1.edges), (), (1,)),
                                      (fan, (1,), ())):
        assert _x_power_exponents(vertices, edges, flip=False) == zt
        assert _x_power_exponents(vertices, edges, flip=True) == tz


def test_oracle_zero_pair():
    zero = PairMatrices(0, 0, ())
    assert oracle_invariants(zero) == rec()
    assert analyze(zero) == analyze(zero)


def test_oracle_cycle_assembly():
    # disjoint 6-cycle and 2-cycle: divisors regroup into X^6 - 1 and X^2 - 1
    six = [(str(i), str((i + 1) % 6)) for i in range(6)]
    two = [("a", "b"), ("b", "a")]
    g = multidigraph([str(i) for i in range(6)] + ["a", "b"], six + two)
    assert oracle_invariants(linearize(g)) == rec(cycles=(2, 6))


def test_oracle_non_cyclotomic_regular_part():
    pair = regular_pair(rp.poly(1, 0, 1))  # S(X^2 + 1)
    out = oracle_invariants(pair)
    assert out.cycles == ()
    assert out.regular_divisors == ((rp.poly(1, 0, 1), 1),)
    squared = oracle_invariants(regular_pair(rp.poly(-1, 1), 2))
    assert squared.regular_divisors == ((rp.poly(-1, 1), 2),)
    linear = oracle_invariants(regular_pair(rp.poly(-2, 1)))
    assert linear.regular_divisors == ((rp.poly(-2, 1), 1),)
    half, three = rp.poly(Fraction(-1, 2), 1), rp.poly(-3, 1)
    split = oracle_invariants(regular_pair(rp.mul(rp.mul(half, half), three)))
    assert split.regular_divisors == ((rp.poly(-3, 1), 1), (half, 2))


def test_oracle_rejects_unfactorable_quadratic():
    with pytest.raises(OracleFactorError):
        oracle_invariants(regular_pair(rp.poly(-2, 0, 1)))  # X^2 - 2


def test_compare_reports_differences(g1, g2):
    a, b = full_invariants(g1), full_invariants(g2)
    assert compare(a, a) == []
    diff = compare(a, b)
    assert "ztz[0]: 0 != 1" in diff
    assert "tz[1]: 1 != 0" in diff


def test_compare_refines_regular_parts():
    # a single 2-cycle against its rational splitting: equal after refinement
    two_cycle = rec(cycles=(2,))
    split = rec(regular_divisors=((rp.poly(-1, 1), 1), (rp.poly(1, 1), 1)))
    assert compare(two_cycle, split) == []
    # two 1-cycles have cyclotomic content {d=1 twice}, not {d=1, d=2}
    assert compare(two_cycle, rec(cycles=(1, 1))) != []
    assert compare(rec(cycles=(2,)), rec(cycles=(4,))) != []


def test_compare_splits_regular_parts_only_when_cycles_differ(monkeypatch):
    # equal cycles on two cycle records are equal regular parts, so no
    # split runs; the lines for parts that differ are the ones the split
    # always gave, cycles against cycles and a Smith record against cycles
    split = oracle._regular_multiset
    calls = []
    monkeypatch.setattr(oracle, "_regular_multiset", lambda r: calls.append(r) or split(r))
    assert compare(rec(zt={1: 1}, cycles=(1, 6)), rec(zt={2: 1}, cycles=(1, 6))) == [
        "zt[1]: 1 != 0", "zt[2]: 0 != 1"]
    assert compare(rec(cycles=(3, 3)), rec(cycles=(3, 3))) == [] and calls == []
    assert compare(rec(cycles=(6,)), rec(cycles=(1, 2, 3))) == [
        "regular S((X - 1)^1): 1 != 3", "regular S((X^2 - X + 1)^1): 1 != 0"]
    assert compare(rec(cycles=(1, 2, 3)), rec(cycles=(6,))) == [
        "regular S((X - 1)^1): 3 != 1", "regular S((X^2 - X + 1)^1): 0 != 1"]
    smith = rec(regular_divisors=((rp.cyclotomic(1), 1), (rp.poly(-2, 1), 1)))
    assert compare(rec(cycles=(1, 2)), smith) == [
        "regular S((X - 2)^1): 0 != 1", "regular S((X - 1)^1): 2 != 1",
        "regular S((X + 1)^1): 1 != 0"]
    assert compare(smith, rec(cycles=(1, 2))) == [
        "regular S((X - 2)^1): 1 != 0", "regular S((X - 1)^1): 1 != 2",
        "regular S((X + 1)^1): 0 != 1"]
    six = rec(regular_divisors=tuple((rp.cyclotomic(d), 1) for d in (1, 2, 3, 6)))
    assert compare(rec(cycles=(6,)), six) == compare(six, rec(cycles=(6,))) == []
    assert len(calls) == 2 * 6


def test_matrix_file_through_oracle():
    # canonical ztz[1] matrices fed in as a plain text pair
    text = "2 1\n1\n0\n0\n1\n"
    assert oracle_invariants(parse_pair_file(text)) == rec(ztz={1: 1})


def test_integer_entries_give_the_fraction_result(g4):
    # plain int entries become Fractions where the Smith forms build their
    # polynomials, so monic never divides two ints into a float
    pairs = [linearize(g4), regular_pair(rp.poly(-2, 1)),
             parse_pair_file("3 2\n2 0\n1 1\n0 -3\n0 2\n3 0\n1 1\n")]
    for p in pairs:
        assert all(x.denominator == 1 for mat in dense(p) for row in mat for x in row)
        as_int = pair_of(p.edge_dim, p.vertex_dim,
                         *(tuple(tuple(int(x) for x in row) for row in mat) for mat in dense(p)))
        assert oracle_invariants(as_int) == oracle_invariants(p)
        report = analyze(as_int)
        assert report == analyze(p)
        assert all(type(c) is Fraction for poly, _ in report.finite_divisors for c in poly)


def test_every_rational_pair_closes_dimensions():
    # the record must account for e and v exactly on arbitrary rational
    # pairs, not just 0/1 graph pairs (the dimension check stays a pure
    # internal guard)
    text = "3 2\n1/2 0\n1 1\n0 -3\n0 2\n1/3 0\n1 1\n"
    out = oracle_invariants(parse_pair_file(text))
    assert out.dimensions() == (3, 2)


def test_a_miscounted_report_fails_the_dimension_check(monkeypatch, g1):
    # the rank route closes both counts by construction, so the report is
    # corrupted: one more left minimal index takes 2 edges and 1 vertex
    analyze_pair = oracle.analyze

    def miscounted(p):
        report = analyze_pair(p)
        return dataclasses.replace(report, left_minimal_indices=(1, *report.left_minimal_indices))

    monkeypatch.setattr(oracle, "analyze", miscounted)
    with pytest.raises(AssertionError, match="edge and vertex identities fail: "
                       "record accounts for 6x4, pair is 4x3"):
        oracle_invariants(linearize(g1))


def test_kernel_meet_dim_equals_ztz0():
    for i in range(60):
        p = linearize(seeded_relation(f"meet:{i}"))
        assert kernel_meet_dim(p) == oracle_invariants(p).ztz.get(0, 0)


def test_nullity_sequence_concavity():
    # second differences nonnegative: implicitly asserted inside
    # minimal_indices_left; exercise it across random pairs
    for i in range(80):
        r = seeded_relation(f"nullity:{i}")
        minimal_indices_left(linearize(r))
        minimal_indices_right(linearize(r))


def test_oracle_matches_contractions_across_probabilities():
    for i in range(60):
        r = seeded_relation(f"cross:{i}", max_vertices=6,
                            prob=Fraction(1 + (i % 5), 10))
        assert not compare(full_invariants(r), oracle_invariants(linearize(r)))
    # and at the reach of the oracle's union-find kernel: Y(L, L), in-trees,
    # and relations on 1000 and 3000 vertices with 1.5 edges per vertex
    big = []
    for n in (1000, 3000):
        rng = random.Random(f"linequiv-test:cross-{n}")
        labels = tuple(f"v{i}" for i in range(n))
        edges = frozenset((labels[i // n], labels[i % n])
                          for i in rng.sample(range(n * n), 3 * n // 2))
        big.append(BinaryRelation(labels, edges))
    for r in [spider((L, L)) for L in (24, 32, 48, 64, 96, 128, 192, 256)] + [
            in_tree(h) for h in (32, 64, 128, 256)] + big:
        assert not compare(full_invariants(r), oracle_invariants(linearize(r))), r.vertex_count


# -- the rank-only route against the Smith-form reference ----------------------


def cycles_graph(lengths, tail=0):
    """Disjoint directed cycles, plus an in-path of `tail` edges into the
    first cycle."""
    vertices, edges = [], []
    for c, length in enumerate(lengths):
        names = [f"c{c}.{i}" for i in range(length)]
        vertices += names
        edges += list(zip(names, names[1:] + names[:1]))
    prev = vertices[0]
    for i in range(tail):
        vertices.append(f"t{i}")
        edges.append((f"t{i}", prev))
        prev = f"t{i}"
    return multidigraph(vertices, edges)


def differential_pairs():
    pairs = [linearize(seeded_relation(f"rank-only:{i}", max_vertices=10,
                                       prob=Fraction(1 + i % 5, 10)))
             for i in range(150)]
    pairs += [canonical_pair(family, n) for family in ("zt", "tz") for n in range(1, 6)]
    pairs += [canonical_pair(family, n) for family in ("t", "ztz") for n in range(6)]
    powers = [regular_pair(poly, e) for poly in (rp.poly(-1, 1), rp.cyclotomic(3),
                                                 rp.cyclotomic(4)) for e in (2, 3)]
    pairs += powers + [regular_pair(rp.cyclotomic(12))]
    # X^6 - 1 times X - 1 or X - 2: a block of size 2 at d = 1 among blocks
    # of size 1, and a cyclotomic part beside a residue for the Smith route
    six = rp.sub(rp.x_power(6), rp.ONE)
    pairs += [regular_pair(rp.mul(six, rp.poly(c, 1))) for c in (-1, -2)]
    # regular parts with several rational, non-root-of-unity eigenvalues
    two, three = rp.poly(-2, 1), rp.poly(-3, 1)
    pairs += [regular_pair(rp.mul(two, three)), regular_pair(rp.mul(rp.mul(two, two), three)),
              regular_pair(rp.mul(rp.poly(Fraction(-1, 2), 1), three))]
    for reg in (regular_pair(rp.poly(-1, 1)), powers[0], powers[2]):
        for family, n in (("zt", 2), ("tz", 3), ("t", 1), ("ztz", 2)):
            pairs.append(direct_sum(reg, canonical_pair(family, n)))
    pairs += [linearize(cycles_graph((24,))), linearize(cycles_graph((6, 10, 15), 3))]
    # X - 2 alone and beside ztz[1] and t[1]: M + 2N loses rank, so the
    # normal rank's one sample sits on an eigenvalue and the left nullity
    # sequence runs to its cap
    two_at_sample = parse_pair_file("1 1\n-2\n1\n")
    pairs += [two_at_sample, direct_sum(direct_sum(two_at_sample, canonical_pair("ztz", 1)),
                                        canonical_pair("t", 1))]
    return pairs


def smith_reference(p: PairMatrices) -> OracleReport:
    """Minimal indices re-eliminated from scratch for every k, and both
    divisor lists from the Smith forms of M + X*N and N + X*M."""
    def left(q: PairMatrices) -> tuple[int, ...]:
        e, v = q.edge_dim, q.vertex_dim
        rows = q.rows
        f = [0]
        for k in range(1, min(e, v) + 3):
            f.append(k * e - rank_of_rows({**{j * v + c: x for c, x in m.items()},
                                           **{(j + 1) * v + c: x for c, x in n.items()}}
                                          for j in range(k) for m, n in rows))
        return tuple(d for d in range(len(f) - 1)
                     for _ in range(f[d + 1] - 2 * f[d] + (f[d - 1] if d else 0)))

    def pencil(first, second):
        return [[rp.poly(a, b) for a, b in zip(*rows)] for rows in zip(first, second)]

    m, n = dense(p)
    finite = sorted(factor for q in invariant_factors(pencil(m, n)) for factor in factor_stored(q))
    blocks = [(cyclotomic_index(irred), mult) for irred, mult in finite if irred != rp.X]
    infinite = [rp.x_order(q) for q in invariant_factors(pencil(n, m))]
    return OracleReport(left(p), left(transposed(p)), tuple(finite),
                        tuple(sorted(k for k in infinite if k)),
                        None if any(d is None for d, _ in blocks) else tuple(blocks))


def cyclotomic_index(poly) -> int | None:
    """The d with poly = Phi_d, or None; phi(d) >= sqrt(d/2), so a d past
    2*deg^2 has phi(d) > deg."""
    deg = rp.deg(poly)
    return next((d for d in range(1, 2 * deg * deg + 1)
                 if rp.totient(d) == deg and rp.cyclotomic(d) == poly), None)


def test_rank_only_analyze_matches_the_smith_reference():
    smith_route = 0
    for p in differential_pairs():
        report, reference = analyze(p), smith_reference(p)
        assert report == reference, p
        # cyclotomic_blocks is not compared by ==: the scan's d for each
        # divisor against the d of the Smith factor it equals, and None
        # where a factor is not cyclotomic, which the fallback reports
        if reference.cyclotomic_blocks is None:
            assert report.cyclotomic_blocks is None, p
            smith_route += 1
        else:
            assert Counter(report.cyclotomic_blocks) == Counter(reference.cyclotomic_blocks), p
    assert smith_route >= 5


def test_smith_fallback_never_runs_on_graph_pairs(monkeypatch, g1, g2, g3, g4):
    calls = []
    smith = oracle.invariant_factors
    monkeypatch.setattr(oracle, "invariant_factors",
                        lambda mat: calls.append(len(mat)) or smith(mat))
    for g in (g1, g2, g3, g4):
        oracle_invariants(linearize(g))
    assert run_fuzz(5, 20, 6, Fraction(3, 10))[0] == 0
    assert calls == []
    # S(X - 2) is no root of unity: its residue takes the Smith route
    assert oracle_invariants(regular_pair(rp.poly(-2, 1))).regular_divisors == (
        (rp.poly(-2, 1), 1),)
    assert calls


def test_factor_stored_splits_into_irreducibles():
    # each irreducible factor with its exponent, cyclotomic or not
    for d in (1, 2, 3, 4, 5, 6, 8, 12, 15):
        stored = rp.cyclotomic(d)
        assert factor_stored(rp.substitute_neg_x(stored)) == [(stored, 1)]
    x3_minus_1 = rp.poly(-1, 0, 0, 1)  # reducible: Phi_1 * Phi_3
    assert factor_stored(rp.substitute_neg_x(x3_minus_1)) == [
        (rp.cyclotomic(1), 1), (rp.cyclotomic(3), 1)]
    two, half = rp.poly(-2, 1), rp.poly(Fraction(-1, 2), 1)
    stored = rp.mul(rp.mul(rp.x_power(2), rp.mul(two, two)),
                    rp.mul(half, rp.mul(rp.cyclotomic(6), rp.cyclotomic(6))))
    assert Counter(factor_stored(rp.substitute_neg_x(stored))) == Counter(
        [(rp.X, 2), (two, 2), (half, 1), (rp.cyclotomic(6), 2)])


def test_cyclotomic_blocks_come_from_the_rank_route():
    # the rank route's scan names each d; the Smith route, which a residue
    # at X - 2 forces, names none, even for the cyclotomic part beside it,
    # and its record has no cycles
    report = analyze(linearize(cycles_graph((6, 2))))
    assert sorted(report.cyclotomic_blocks) == [(1, 1), (1, 1), (2, 1), (2, 1), (3, 1), (6, 1)]
    six = rp.sub(rp.x_power(6), rp.ONE)
    p = regular_pair(rp.mul(six, rp.poly(-2, 1)))
    assert analyze(p).cyclotomic_blocks is None
    assert oracle_invariants(p).cycles == ()
    assert oracle_invariants(p).regular_divisors == tuple(sorted(
        [(rp.cyclotomic(d), 1) for d in (1, 2, 3, 6)] + [(rp.poly(-2, 1), 1)]))
    assert oracle_invariants(regular_pair(rp.poly(-2, 1))).cycles == ()


def test_echelon_rank_after_every_row():
    rng = random.Random("echelon")
    for trial in range(40):
        width = rng.randint(1, 7)
        rows = [{j: rng.choice((-3, -1, 1, 2, Fraction(1, 2), Fraction(-2, 3)))
                 for j in range(width) if rng.random() < 0.4}
                for _ in range(rng.randint(1, 9))]
        if trial % 3 == 0:  # repeat combinations so the rank stalls
            rows += [{j: 2 * x for j, x in row.items()} for row in rows[:2]]
        echelon = Echelon()
        for i, row in enumerate(rows):
            echelon.add(primitive(row))
            prefix = rows[:i + 1]
            assert echelon.rank == integer_rank(prefix)
            assert echelon.rank == fraction_rank(
                [[row.get(j, 0) for j in range(width)] for row in prefix])


def modular_rank(rows, p: int, width: int) -> int:
    """Reference rank over F_p: plain Gaussian elimination on dense rows."""
    rows = [[row.get(j, 0) % p for j in range(width)] for row in rows]
    rank = 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] * inv
            rows[i] = [(a - factor * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_echelon_rank_modulo_a_prime():
    # small primes make entries, leading ones too, vanish mod p, before and
    # during elimination; the large one is the screen's kind of prime
    rng = random.Random("echelon-mod-p")
    for trial in range(300):
        p = rng.choice((2, 3, 5, 7, 1048583))
        width = rng.randint(1, 7)
        rows = [{j: rng.choice((-2 * p, -p - 1, -3, -1, 1, 2, p, p + 2, 3 * p * p + 1))
                 for j in range(width) if rng.random() < 0.5}
                for _ in range(rng.randint(1, 9))]
        if trial % 3 == 0:  # repeat combinations so the rank stalls
            rows += [{j: (p + 2) * x for j, x in row.items()} for row in rows[:2]]
        echelon = Echelon(p)
        for i, row in enumerate(rows):
            echelon.add({j: x for j, x in row.items() if x})
            assert echelon.rank == modular_rank(rows[:i + 1], p, width), (p, rows[:i + 1])
        assert all(min(pivot) == col and pivot[col] == 1 and all(0 < x < p for x in pivot.values())
                   for col, pivot in echelon.pivots.items())
        # a rank cannot rise under reduction mod p
        assert rank_of_rows(rows) >= rank_of_rows(rows, p) == echelon.rank


def block_toeplitz(pairs, width: int, k: int, truncated: bool) -> list[dict]:
    """Row block j < k holds each pair's x at column block j and its y at
    column block j + 1, in blocks `width` wide; a truncated matrix leaves y
    out of its last row block.  Untruncated, from a pair's rows (m, n), this
    is the minimal-index T_k; truncated, from (m, n) or (n, m), the local
    type's T_k."""
    rows = []
    for j in range(k):
        for x, y in pairs:
            row = {j * width + c: a for c, a in x.items()}
            if not (truncated and j == k - 1):
                row.update({(j + 1) * width + c: b for c, b in y.items()})
            rows.append(row)
    return rows


def test_singular_part_ranks_are_the_same_over_every_field():
    # a graph pair's 0/1 rows put one 1 in M and one in N, so each row of
    # these matrices, or each column on the column side, holds at most two
    # 1s, in adjacent column blocks: they are totally unimodular (README,
    # "Field independence"), and their rank is the same over Q, F_2 and F_3.
    # k runs to the k each sequence reaches, one past the largest index of
    # its family, where the oracle's sequence saturates, and at least to 4
    rng = random.Random("linequiv-test:field-independence")
    graphs = [random_relation(rng, rng.randint(1, 7), Fraction(rng.randint(1, 6), 10))
              for _ in range(300)]
    graphs += [spider((8, 8)), spider((7, 3, 2)), cycles_graph((3, 4), 6)]
    compared = dependent = deepest = 0
    for g in graphs:
        p, rec = linearize(g), full_invariants(g)
        v, columns = p.vertex_dim, list(zip(*_transpose(p)))
        for family, pairs, width, truncated in (("ztz", p.rows, v, False),
                                                ("t", columns, p.edge_dim, False),
                                                ("zt", p.rows, v, True),
                                                ("tz", [(n, m) for m, n in p.rows], v, True)):
            reach = max(getattr(rec, family), default=0) + 1
            deepest = max(deepest, reach)
            for k in range(1, max(4, reach) + 1):
                rows = block_toeplitz(pairs, width, k, truncated)
                rank = rank_of_rows(rows)
                assert rank_of_rows(rows, 2) == rank == rank_of_rows(rows, 3), (g, family, k)
                compared += 1
                dependent += rank < len(rows)
    assert compared > 303 * 4 * 4 and dependent > compared // 3 and deepest == 9
    # the lift at d = 1, M - N, holds at most a 1 and a -1 per row, which
    # cancel on a loop: a signed incidence matrix, totally unimodular too.
    # Its rank over F_2, as the oracle takes it, the union-find kernel fed
    # each row's two ends as an edge, is its rank over Q and over F_3, here and
    # on the kernel's unit-row pairs, whose canonical families have rows
    # with an empty M or N side, and whose multigraphs have parallel edges
    pairs = [linearize(g) for g in graphs] + [p for p, _ in kernel_inputs()]
    seen, dependent = Counter(), 0
    for p in pairs:
        difference = _lift(p.rows, 1)
        forest = len(forest_rows(_shape(p)[0], p.vertex_dim, 0))
        rank = rank_of_rows(difference)
        assert forest == rank == rank_of_rows(difference, 2) == rank_of_rows(difference, 3), p
        dependent += rank < p.edge_dim
        seen["loop"] += any(m == n for m, n in p.rows)
        seen["parallel"] += len(set(map(repr, p.rows))) < p.edge_dim
        seen["empty side"] += any(not m or not n for m, n in p.rows)
    assert min(seen.values()) > 0 and len(seen) == 3 and dependent > len(pairs) // 3


def kernel_inputs() -> list[tuple[PairMatrices, InvariantRecord]]:
    """Unit-row pairs with their records: random relations, two multigraphs
    with parallel edges and loops, cycles with in-paths, the four canonical
    families up to n = 12, Y(64, 64) and an in-tree of height 64."""
    graphs = [seeded_relation(f"kernel:{i}", max_vertices=9, prob=Fraction(1 + i % 5, 10))
              for i in range(40)]
    graphs += [multidigraph("abcd", [("a", "b"), ("a", "b"), ("b", "a"), ("c", "c"),
                                     ("c", "c"), ("b", "c"), ("c", "d"), ("d", "b")]),
               multidigraph("ab", [("a", "a"), ("a", "b"), ("a", "b"), ("a", "b")])]
    graphs += [cycles_graph(lengths, tail) for lengths, tail in
               (((5,), 0), ((3, 4), 2), ((1, 6), 5), ((2, 2, 9), 7))]
    graphs += [spider((64, 64)), in_tree(64)]
    out = [(linearize(g), full_invariants(g)) for g in graphs]
    return out + [(canonical_pair(family, n), rec(**{family: {n: 1}}))
                  for family in ("zt", "tz", "t", "ztz")
                  for n in range(1 if family in ("zt", "tz") else 0, 13)]


def test_forest_ranks_equal_the_ranks_over_q():
    """On a unit-row pair the union-find kernel gives rank T_k over Q at
    every k up to one past saturation, and at least to 4, on each of the
    oracle's four block sequences, and the row basis and the rank of M - N
    as well.  It reads each row's ends (s, t): the column of m's 1 and of
    n's 1, or None.

    The graphs: node (j, c) is column c in block j, and an end None is the
    ground.  Each end pair (a, b) gives one edge (j, a) - (j + 1, b) per
    block j, and rank T_k is the number of edges that join two trees.
      * ztz: ends (s, t) of the basis rows, with nodes in blocks 0..k.  T_k
        only gains rows as k grows, so its rank is the count of joins.
      * zt: ends (s, t).  tz and t: ends (t, s).
      * These three are truncated.  Block k is the ground for this k only,
        so the edges at j = k - 1 ground their block-(k - 1) end until
        k + 1.  So rank T_k = k*v minus the number of trees that miss the
        ground.
      * t also has the edges at j = -1, which ground (0, s) for every row.
    A row with one empty side, as in canonical zt[n] and tz[n], grounds
    its other end for good: its edge at j = k - 2 must become a permanent
    ground edge at step k, or the rank is off by one from k = 2.  Zero rows
    (canonical ztz[0]), loops (a zero row of M - N) and parallel edges
    are covered too."""
    graphs = [seeded_relation(f"forest:{i}", max_vertices=9, prob=Fraction(1 + i % 5, 10))
              for i in range(500)]
    inputs = kernel_inputs() + [(linearize(g), full_invariants(g)) for g in graphs]
    seen, compared = Counter(), 0
    for p, record in inputs:
        e, v = p.edge_dim, p.vertex_dim
        ends, cols = _shape(p)
        assert cols is None and ends == [(min(m, default=None), min(n, default=None))
                                         for m, n in p.rows], p
        rows, columns = p.rows, list(zip(*_transpose(p)))
        basis = _row_basis((ends, None), v)
        assert len(basis) == len(_row_basis((rows, columns), v)), p
        assert len(forest_rows([ends[i] for i in basis], v, 0)) == rank_of_rows(_lift(rows, 1)), p
        reversed_ends = [(b, a) for a, b in ends]
        reach = max([0, *record.zt, *record.tz, *record.t, *record.ztz]) + 2
        for family, forest, rational in (
                ("ztz", forest_ranks([ends[i] for i in basis], v), _eliminations(rows, v, 1)),
                ("t", forest_ranks(reversed_ends, v, True, True), _eliminations(columns, e, 1)),
                ("zt", forest_ranks(ends, v, True), _eliminations(columns, e, -1)),
                ("tz", forest_ranks(reversed_ends, v, True),
                 _eliminations([(n, m) for m, n in columns], e, -1))):
            for k, a, b in zip(range(1, max(4, reach) + 1), forest, rational):
                assert a == b, (p, family, k)
                compared += 1
        seen["one empty side"] += any((a is None) != (b is None) for a, b in ends)
        seen["zero row"] += (None, None) in ends
        seen["loop"] += any(a == b is not None for a, b in ends)
        seen["parallel"] += len(set(ends)) < e
    assert len(inputs) > 590 and compared > 11000 and min(seen.values()) > 0 and len(seen) == 4


def skew_kernel(monkeypatch, truncated: bool, grounded: bool, rank) -> None:
    """Make the union-find kernel report rank(k, rank T_k) on its block
    sequences with these flags, in place of any earlier skew: ztz has
    neither, zt and tz are truncated, and t has both."""
    def skewed(ends, width, *flags):
        for k, forest in enumerate(forest_ranks(ends, width, *flags), 1):
            yield rank(k, forest) if flags == (truncated, grounded) else forest

    monkeypatch.setattr(oracle, "forest_ranks", skewed)


def test_a_kernel_that_misreports_a_rank_trips_a_saturation_check(monkeypatch, g1):
    # ranks that never grow leave every nullity sequence unsaturated; g1
    # has one left minimal index and no right one, and the path a -> b -> c
    # one right minimal index and no left one
    path = linearize(multidigraph("abc", [("a", "b"), ("b", "c")]))
    skew_kernel(monkeypatch, False, False, lambda k, rank: 0)
    with pytest.raises(AssertionError, match="row solution dimensions failed to saturate"):
        minimal_indices_left(linearize(g1))
    skew_kernel(monkeypatch, True, True, lambda k, rank: 0)
    with pytest.raises(AssertionError, match="row solution dimensions failed to saturate"):
        minimal_indices_right(path)
    skew_kernel(monkeypatch, True, False, lambda k, rank: 0)
    with pytest.raises(AssertionError, match="local Jordan chains failed to saturate"):
        oracle_invariants(path)


def test_a_kernel_that_misreports_a_rank_trips_a_count_check(monkeypatch, g3):
    # one rank T_2 too low at the local types makes h(k) rise and fall back
    skew_kernel(monkeypatch, True, False, lambda k, rank: rank - (k == 2))
    with pytest.raises(AssertionError, match="nullity sequence is not concave"):
        oracle_invariants(linearize(g3))
    # every local rank one too low adds a zt and a tz block of size 1 that
    # the path's vertices leave no room for
    skew_kernel(monkeypatch, True, False, lambda k, rank: rank - 1)
    with pytest.raises(AssertionError,
                       match="regular degree: singular and nilpotent parts exceed 3 vertices"):
        oracle_invariants(linearize(multidigraph("abc", [("a", "b"), ("b", "c")])))
    # only a sequence that does not start at 0 can have a last increment
    # that disagrees with the multiset's size, so that is the precondition
    with pytest.raises(AssertionError, match="nullity sequence starts at 1, not 0"):
        _multiset([1, 2])


def test_a_wrong_lift_trips_the_root_of_unity_checks(monkeypatch):
    # one lifted row too many at d = 3 on the 3-cycle: the rank falls by
    # one, not by a multiple of phi(3) = 2
    lift = oracle._lift
    monkeypatch.setattr(oracle, "_lift", lambda rows, d: lift(rows, d) + [{10**6: 1}] * (d > 1))
    with pytest.raises(AssertionError, match="lifted rank at d=3 is not a multiple of phi"):
        oracle_invariants(linearize(cycles_graph((3,))))
    monkeypatch.undo()
    # Phi_3^2 has one Jordan block of size 2 at each primitive cube root; a
    # lifted local type with one extra block is not two equal copies
    local = oracle._local_type
    monkeypatch.setattr(oracle, "_local_type", lambda ranks, v, rank:
                        local(ranks, v, rank) + (1,) * (v > 4))
    with pytest.raises(AssertionError, match="lifted Jordan type at d=3 is not 2 equal copies"):
        oracle_invariants(regular_pair(rp.cyclotomic(3), 2))


def test_a_smith_form_without_the_zero_divisors_trips_the_zt_check(monkeypatch):
    # X - 2 beside zt[1] takes the Smith route, which must find S(X^1) too
    factor = oracle.factor_stored
    monkeypatch.setattr(oracle, "factor_stored",
                        lambda q: [f for f in factor(q) if f[0] != rp.X])
    with pytest.raises(AssertionError, match="Smith form and local ranks disagree on zt"):
        oracle_invariants(direct_sum(regular_pair(rp.poly(-2, 1)), canonical_pair("zt", 1)))


def test_screen_keeps_every_root_the_lift_finds():
    # the row basis is integer rows with the rows' span over Q, so the
    # screen stays sound on it
    for p in differential_pairs():
        rank = normal_rank(p)
        basis = [p.rows[i] for i in _row_basis(_shape(p), p.vertex_dim)]
        for rows in (p.rows, basis):
            for d in (1, 2, 3, 4, 5, 6, 10, 12, 15, 24):
                if rp.totient(d) * p.vertex_dim > 160:
                    continue
                present = rp.totient(d) * rank > rank_of_rows(_lift(rows, d))
                if present:
                    assert not _screen_clears(rows, rank, d), (p, d)


def random_rational_pair(rng: random.Random) -> PairMatrices:
    """A `--matrix` pair of small e-by-v rational matrices, often of low
    rank: rows repeat, scaled, half the time."""
    e, v = rng.randint(1, 7), rng.randint(1, 5)
    entries = (0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3))
    rows = [[rng.choice(entries) for _ in range(2 * v)] for _ in range(e)]
    for i in range(1, e):
        if rng.random() < 0.5:
            rows[i] = [Fraction(rng.choice((1, -3, Fraction(1, 2)))) * x for x in rows[i - 1]]
    text = "\n".join([f"{e} {v}"] + [" ".join(map(str, row[:v])) for row in rows]
                     + [" ".join(map(str, row[v:])) for row in rows])
    return parse_pair_file(text + "\n")


def explicit_block_rank(rows, v: int, k: int) -> int:
    """rank T_k, with row block j < k holding every row (m, n) at column
    blocks j and j + 1."""
    return rank_of_rows({**{j * v + c: x for c, x in m.items()},
                         **{(j + 1) * v + c: x for c, x in n.items()}}
                        for j in range(k) for m, n in rows)


def test_row_basis_stands_in_for_the_rows():
    # the basis is input rows, from the union-find kernel on a unit-row
    # pair, where [M N] is totally unimodular, or from an elimination over Q
    pairs = differential_pairs()
    pairs += [linearize(seeded_relation(f"dense:{i}", max_vertices=10, prob=Fraction(1, 2)))
              for i in range(12)]
    pairs += [parse_pair_file((DATA / "pair_ztz1.txt").read_text())]
    rng = random.Random("basis")
    pairs += [random_rational_pair(rng) for _ in range(40)]
    assert any(p.edge_dim > 2 * p.vertex_dim > 0 for p in pairs)
    assert 0 < sum(map(_unit_rows, (p.rows for p in pairs))) < len(pairs)
    for p in pairs:
        e, v = p.edge_dim, p.vertex_dim
        columns = list(zip(*_transpose(p)))
        rank = normal_rank(p)
        everything = [{**m, **{v + j: x for j, x in n.items()}} for m, n in p.rows]
        # the Q form, and `_shape`'s, which holds ends on a unit-row pair
        for rows, cols in ((p.rows, columns), _shape(p)):
            indices = _row_basis((rows, cols), v)
            assert indices == sorted(set(indices)), p
            stacked = [everything[i] for i in indices]
            assert rank_of_rows(stacked) == len(indices) == rank_of_rows(stacked + everything), p
            ranks = _ranks(([rows[i] for i in indices], cols), "ztz", e, v)
            f = _solution_space_dims(ranks, e, v, e - rank)
            assert f == [k * e - explicit_block_rank(p.rows, v, k) for k in range(len(f))], p
            # the column side reads every column
            f = _solution_space_dims(_ranks((rows, cols), "t", e, v), v, e, v - rank)
            assert f == [k * v - explicit_block_rank(columns, e, k) for k in range(len(f))], p
        basis = [p.rows[i] for i in _row_basis(_shape(p), v)]
        for d in range(1, 13):
            if rp.totient(d) * v <= 160:
                assert rank_of_rows(_lift(basis, d)) == rank_of_rows(_lift(p.rows, d)), (p, d)


def test_cyclotomic_scan_accounts_for_the_degree_exactly():
    rows = linearize(cycles_graph((6,))).rows
    assert _cyclotomic_blocks(rows, 6, 6, 6) == [(1, 1), (2, 1), (3, 1), (6, 1)]
    # too small a degree: phi(6) = 2 no longer fits, so d = 6 stays unscanned
    # and the shortfall goes to the Smith route
    assert _cyclotomic_blocks(rows, 6, 6, 5) is None
    # the blind spot: a degree too small by 2 is filled at d = 3, so the
    # scan stops there and never sees Phi_6
    assert _cyclotomic_blocks(rows, 6, 6, 4) == [(1, 1), (2, 1), (3, 1)]
    # two loops found where the degree leaves room for one
    with pytest.raises(AssertionError, match="regular degree: roots of unity carry more than 1"):
        _cyclotomic_blocks(linearize(cycles_graph((1, 1))).rows, 2, 2, 1)
    # (X - 1)^2: one block at d = 1 of size 2, found by the lifted local type
    p = regular_pair(rp.poly(-1, 1), 2)
    assert _cyclotomic_blocks(p.rows, 2, 2, 2) == [(1, 2)]


def unit_triangular(n: int, rng: random.Random, lower: bool) -> list[list[Fraction]]:
    """A random unit lower (or upper) triangular n-by-n matrix, off-diagonal
    entries drawn from {0, +-1/2, 2/3}: invertible, with mixed denominators."""
    entries = (Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3))
    return [[Fraction(1) if i == j else rng.choice(entries) if (j < i) == lower else Fraction(0)
             for j in range(n)] for i in range(n)]


def matmul(a, b, inner: int, cols: int):
    return tuple(tuple(sum((row[k] * b[k][j] for k in range(inner)), Fraction(0))
                       for j in range(cols)) for row in a)


def test_both_fields_give_the_same_report():
    # doubling row i of M and of N is a left multiplication by an invertible
    # diagonal matrix, so the record stays; the 2s make the pair not
    # unit-row, so `analyze` reads it over Q where it reads the unit-row
    # original over F_2 (t[0] and ztz[0] have no nonzero row to double)
    rng = random.Random("linequiv-test:cross-path")
    graphs = [random_relation(rng, n, Fraction(rng.randint(2, 5), 2 * n))
              for n in (rng.randint(8, 40) for _ in range(300))]
    pairs = [linearize(g) for g in graphs + [spider((16, 16))]]
    pairs += [canonical_pair(family, n) for family in ("zt", "tz", "t", "ztz")
              for n in range(1 if family in ("zt", "tz") else 0, 9)]
    compared, skipped = Counter(), []
    for p in pairs:
        nonzero = [i for i, (m, n) in enumerate(p.rows) if m or n]
        if not nonzero:
            skipped.append(p)
            continue
        i = rng.choice(nonzero)
        rows = list(p.rows)
        rows[i] = tuple({j: 2 * x for j, x in row.items()} for row in rows[i])
        doubled = PairMatrices(p.edge_dim, p.vertex_dim, tuple(rows))
        assert _unit_rows(p.rows) and not _unit_rows(doubled.rows), p
        report, over_q = analyze(p), analyze(doubled)
        assert over_q == report and over_q.cyclotomic_blocks == report.cyclotomic_blocks, p
        compared.update(name for name in ("left_minimal_indices", "right_minimal_indices",
                                          "infinite_divisors", "cyclotomic_blocks")
                        if getattr(report, name))
        compared["zt"] += any(poly == rp.X for poly, _ in report.finite_divisors)
    assert skipped == [canonical_pair("t", 0), canonical_pair("ztz", 0)]
    assert min(compared.values()) > 20 and len(compared) == 5


def test_analyze_is_invariant_under_simultaneous_equivalence(g1, g2, g3, g4):
    # the paper's linear equivalence: (M, N) ~ (S*M*T, S*N*T) for invertible
    # S and T.  The transformed rows carry different denominators, so their
    # integer scales differ row by row when they reach the column side.
    rng = random.Random("equivalence")
    pairs = [q for q in differential_pairs() if 0 < q.vertex_dim <= 4 and q.edge_dim]
    pairs += [linearize(g) for g in (g1, g2, g3, g4)]
    assert any(q.edge_dim != q.vertex_dim and analyze(q).right_minimal_indices for q in pairs)
    for p in pairs:
        e, v = p.edge_dim, p.vertex_dim
        s, t = unit_triangular(e, rng, lower=True), unit_triangular(v, rng, lower=False)
        moved = pair_of(e, v, *(matmul(matmul(s, mat, e, v), t, v, v) for mat in dense(p)))
        assert analyze(moved) == analyze(p), p
