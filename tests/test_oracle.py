"""The exact-linear-algebra route, and its agreement with the contraction
route.  All expected values here are forced by hand-checkable elimination on
the small pairs, or by the canonical single-summand matrices."""

import copy
import dataclasses
import itertools
import random
import sys
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
from linequiv.echelon import Echelon, echelon_ranks, forest_ranks, winding_rank
from linequiv.linearize import PairMatrices, linearize, parse_pair_file, rows_of_ends
from linequiv.oracle import (OracleFactorError, OracleReport, _basis, _basis_rows,
                             _cyclotomic_blocks, _lift, _multiset, _pencil_rows, _ranks,
                             _screen_clears, _solution_space_dims, analyze, invariant_factors,
                             normal_rank, rank_of_rows)
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
    return p.edge_dim - len(_basis(p)[0])


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


def test_nullity_sequence_concavity(monkeypatch):
    # second differences nonnegative: implicitly asserted inside
    # minimal_indices_left; exercise it across random pairs.  Each public
    # wrapper reads the pair's form once, in one `_basis`
    basis, reads = oracle._basis, []
    monkeypatch.setattr(oracle, "_basis", lambda p: reads.append(p) or basis(p))
    for i in range(80):
        p = linearize(seeded_relation(f"nullity:{i}"))
        for wrapper in (minimal_indices_left, minimal_indices_right, normal_rank):
            reads.clear()
            wrapper(p)
            assert reads == [p], wrapper


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
    return [row for j in range(k)
            for row in row_block(pairs, width, j, not (truncated and j == k - 1))]


def row_block(pairs, width: int, j: int, with_y: bool = True) -> list[dict]:
    """Row block j of `block_toeplitz`: each pair's x at column block j and,
    `with_y`, its y at column block j + 1."""
    return [{**{j * width + c: a for c, a in x.items()},
             **({(j + 1) * width + c: b for c, b in y.items()} if with_y else {})}
            for x, y in pairs]


def definition_ranks(pairs, width: int, truncated: bool):
    """rank block_toeplitz(pairs, width, k, truncated) over Q for k = 1, 2,
    ..., from the same rows added block by block to one `Echelon`, not
    rebuilt at each k.  Untruncated, T_k is T_(k-1) plus `row_block` k - 1.
    Truncated, T_k is the untruncated T_(k-1) plus row block k - 1 without
    its y, so those rows go to a copy of the untruncated elimination, which
    shares its pivot rows, since `Echelon.add` never changes a pivot row."""
    full = Echelon()
    for j in itertools.count():
        if truncated:
            trial = Echelon()
            trial.pivots = dict(full.pivots)
            for row in row_block(pairs, width, j, False):
                if row:
                    trial.add(row)
            yield trial.rank
        for row in row_block(pairs, width, j):
            if row:
                full.add(row)
        if not truncated:
            yield full.rank


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
        v, columns = p.vertex_dim, columns_of(p)
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
    # Its rank as the oracle takes it, `winding_rank` at c = -1 fed each
    # row's two ends as an edge, is its rank over Q, F_2 and F_3, here and
    # on the kernel's unit-row pairs, whose canonical families have rows
    # with an empty M or N side, and whose multigraphs have parallel edges
    pairs = [linearize(g) for g in graphs] + [p for p, _ in kernel_inputs()]
    seen, dependent = Counter(), 0
    for p in pairs:
        difference = _lift(p.rows, 1)
        forest = winding_rank(ends_of(p.rows), p.vertex_dim, -1)
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


def ends_of(rows) -> list:
    """Each row's ends, as `_basis` writes them on a unit-row pair: the
    column of m's 1 and of n's 1, None for an empty side."""
    return [(min(m, default=None), min(n, default=None)) for m, n in rows]


def columns_of(p: PairMatrices) -> list:
    """(column of M, column of N) per vertex, sparse over the e rows: the
    rows of the transposed pair."""
    columns = [({}, {}) for _ in range(p.vertex_dim)]
    for i, pair in enumerate(p.rows):
        for side, row in enumerate(pair):
            for j, x in row.items():
                columns[j][side][i] = x
    return columns


def forest_graphs() -> list[BinaryRelation]:
    """500 seeded relations of up to 9 vertices, which with
    `kernel_inputs()` make up 598 unit-row pairs."""
    return [seeded_relation(f"forest:{i}", max_vertices=9, prob=Fraction(1 + i % 5, 10))
            for i in range(500)]


def test_forest_ranks_equal_the_ranks_over_q():
    """Both kernels, fed the row basis, give rank T_k of each of the
    oracle's four block sequences, with T_k built from its definition on
    all e rows (`block_toeplitz`, and for t the transposed pair's T_k on
    all v columns) and ranked over Q, at every k up to one past saturation
    and at least to 4: by `definition_ranks`, which adds T_k's rows block
    by block to one elimination, and, to check that, by `rank_of_rows` on
    the whole T_k up to k = 3 on pairs of at most 24 rows.  `_ranks` runs
    the oracle's kernel on `_basis`'s form, `forest_ranks` on the basis
    rows' ends of a unit-row pair, else `echelon_ranks` on its integer
    rows, and on a unit-row pair `echelon_ranks` also runs on the integer
    rows, with the test's own flags: ztz is (m, n) untruncated, zt (m, n) truncated, tz (n, m)
    truncated, and t's T_k, transposed, is (n, m) truncated with a row
    block j = -1 that holds m in column block 0 (grounded).  The basis has
    the rank of [M N], and on a unit-row pair `winding_rank`'s rank of
    M - N on the basis ends is its rank over Q.

    The union-find's graphs: node (j, c) is column c in block j, and an end
    None is the ground.  Each end pair (a, b) gives one edge
    (j, a) - (j + 1, b) per block j, and rank T_k is the number of edges
    that join two trees.
      * ztz: nodes in blocks 0..k.  T_k only gains rows as k grows, so its
        rank is the count of joins.
      * zt, tz and t are truncated.  Block k is the ground for this k only,
        so the edges at j = k - 1 ground their block-(k - 1) end until
        k + 1.  So rank T_k = k*v minus the number of trees that miss the
        ground.
      * t also has the edges at j = -1, which ground (0, s) for every row.
    A row with one empty side, as in canonical zt[n] and tz[n], grounds
    its other end for good: its edge at j = k - 2 must become a permanent
    ground edge at step k, or the rank is off by one from k = 2.  Zero rows
    (canonical ztz[0]), loops (a zero row of M - N) and parallel edges
    are covered too.  The pairs: 598 unit-row pairs, `kernel_inputs()`
    and 500 seeded relations, and, for `echelon_ranks` alone, the
    doubled-row pairs of `doubled_pairs()`, 40 `random_rational_pair`s and
    `regular_pair`s with blocks of size 1 to 3."""
    inputs = kernel_inputs() + [(linearize(g), full_invariants(g)) for g in forest_graphs()]
    unit = len(inputs)
    inputs += [(doubled, record) for _, doubled, record in doubled_pairs()]
    rng = random.Random("kernels")
    inputs += [(random_rational_pair(rng), None) for _ in range(40)]
    inputs += [(regular_pair(poly, n), None) for poly in (rp.poly(-1, 1), rp.cyclotomic(3),
                                                          rp.cyclotomic(4), rp.poly(-2, 1))
               for n in (1, 2, 3)]
    seen, compared = Counter(), Counter()
    for p, record in inputs:
        e, v = p.edge_dim, p.vertex_dim
        basis = _basis(p)
        rows = _basis_rows(basis)
        assert len(rows) == rank_of_rows([{**m, **{v + j: x for j, x in n.items()}}
                                          for m, n in p.rows]), p
        if p.ends is not None:
            assert basis == (ends_of(rows), forest_ranks), p
            assert winding_rank(basis[0], v, -1) == rank_of_rows(_lift(p.rows, 1)), p
            seen["unit-row"] += 1
        else:
            assert basis == (rows, echelon_ranks), p
        reach = 2 + (max([0, *record.zt, *record.tz, *record.t, *record.ztz]) if record
                     else min(e, v))
        # per family: the kernel's flags, then T_k by its definition, from
        # all e rows (for t, the transposed pair's T_k, from all v columns)
        for family, flip, truncated, grounded, (pairs, width, cut) in (
                ("ztz", False, False, False, (p.rows, v, False)),
                ("zt", False, True, False, (p.rows, v, True)),
                ("tz", True, True, False, ([(n, m) for m, n in p.rows], v, True)),
                ("t", True, True, True, (columns_of(p), e, False))):
            # the oracle's kernel through its own table, and on a unit-row
            # pair `echelon_ranks` on the integer rows as well
            sequences = [(basis[1], _ranks(basis, family, v))]
            if basis[1] is forest_ranks:
                sequences.append((echelon_ranks, echelon_ranks(
                    [(n, m) for m, n in rows] if flip else rows, v, truncated, grounded)))
            definition = definition_ranks(pairs, width, cut)
            for k in range(1, max(4, reach) + 1):
                rank = next(definition)
                if k <= 3 and e <= 24:
                    assert rank == rank_of_rows(block_toeplitz(pairs, width, k, cut)), (p, k)
                for kernel, ranks in sequences:
                    assert next(ranks) == rank, (p, family, k, kernel.__name__)
                    compared[kernel] += 1
        ends = ends_of(p.rows)
        seen["one empty side"] += any((a is None) != (b is None) for a, b in ends)
        seen["zero row"] += (None, None) in ends
        seen["loop"] += any(a == b is not None for a, b in ends)
        seen["parallel"] += len(set(ends)) < e
    assert unit > 590 and seen["unit-row"] >= unit and len(inputs) > unit + 300
    assert compared[forest_ranks] > 11000 and compared[echelon_ranks] > compared[forest_ranks] + 5000
    assert min(seen.values()) > 0 and len(seen) == 5


def unit_row_pairs() -> list[PairMatrices]:
    """The 598 unit-row pairs of `test_forest_ranks_equal_the_ranks_over_q`
    and 300 random multigraphs with loops, parallel edges and isolated
    vertices."""
    pairs = [p for p, _ in kernel_inputs()] + [linearize(g) for g in forest_graphs()]
    rng = random.Random("windings")
    for _ in range(300):
        vertices = "abcdefgh"[:rng.randint(1, 8)]
        pairs.append(linearize(multidigraph(vertices, [
            (rng.choice(vertices), rng.choice(vertices)) for _ in range(rng.randint(0, 10))])))
    return pairs


def test_winding_rank_is_the_rank_of_m_plus_2n_and_of_m_minus_n():
    """`winding_rank` on a unit-row pair's ends is rank(M + 2N) over Q at
    c = 2 and rank(M - N) at c = -1, read on every row and on `_basis`'s
    form, as `_left_indices` and `_cyclotomic_blocks` read them: on
    the 598 unit-row pairs of `test_forest_ranks_equal_the_ranks_over_q`
    (random relations, cycles, the four canonical families with their
    one-term rows and ztz[0]'s zero row, Y(64, 64) and `in_tree(64)`), and
    300 random multigraphs with loops, parallel edges and isolated
    vertices; and on 2000 denser random end lists.  At c = 2 parallel
    edges close cycles of winding 0, which leave a tree ungrounded; two
    opposite edges close one of winding 2, and a loop one of winding 1,
    which ground it.  At c = -1 no cycle grounds a tree, and a loop is a
    zero row."""
    pairs = unit_row_pairs()
    rng = random.Random("deep windings")
    seen, compared = Counter(), 0
    for p in pairs:
        v = p.vertex_dim
        basis = _basis(p)
        assert basis[1] is forest_ranks, p
        for rows, form in ((p.rows, ends_of(p.rows)), (_basis_rows(basis), basis[0])):
            for c in (2, -1):
                assert winding_rank(form, v, c) == rank_of_rows(_pencil_rows(rows, c)), (p, c)
                compared += 1
        ends = ends_of(p.rows)
        seen["one term"] += any((a is None) != (b is None) for a, b in ends)
        seen["zero row"] += (None, None) in ends
        seen["loop"] += any(a == b is not None for a, b in ends)
        seen["parallel"] += len(set(ends)) < len(ends)
        seen["opposite"] += any(a != b and (b, a) in ends for a, b in ends)
        seen["isolated"] += len({c for end in ends for c in end} - {None}) < v
    assert len(pairs) == 898 and compared == 4 * len(pairs)
    # 2000 end lists of v to 2v random edges on v <= 8 columns: trees deep
    # enough that a find halves a path past a node with a nonzero winding
    # to its parent before a cycle closes in that tree, on either end
    for _ in range(2000):
        v = rng.randint(2, 8)
        ends = [(rng.randrange(v), rng.randrange(v)) for _ in range(rng.randint(v, 2 * v))]
        for c in (2, -1):
            assert winding_rank(ends, v, c) == rank_of_rows(_pencil_rows(rows_of_ends(ends), c)), (
                ends, c)
    assert min(seen.values()) > 0 and len(seen) == 6


def test_ends_rows_and_the_q_form_give_one_report(monkeypatch):
    """A unit-row pair gives the same report, `cyclotomic_blocks` too, in
    three forms: built from its ends, as `linearize` builds a graph's;
    rebuilt from its rows, which give the same ends; and rebuilt from its
    rows with `_unit_ends` saying no, which ranks it over Q.  On the 898
    pairs of `unit_row_pairs()`, Y(16, 16), `in_tree(32)` and the four
    canonical families up to n = 12, whose rows have empty sides."""
    pairs = unit_row_pairs() + [linearize(g) for g in (spider((16, 16)), in_tree(32))]
    pairs += [canonical_pair(family, n) for family in ("zt", "tz", "t", "ztz")
              for n in range(1 if family in ("zt", "tz") else 0, 13)]
    linearize_module = sys.modules["linequiv.linearize"]
    seen = Counter()
    for p in pairs:
        e, v = p.edge_dim, p.vertex_dim
        from_ends, from_rows = PairMatrices(e, v, ends=p.ends), PairMatrices(e, v, p.rows)
        with monkeypatch.context() as patched:
            patched.setattr(linearize_module, "_unit_ends", lambda rows: None)
            over_q = PairMatrices(e, v, p.rows)
        assert from_rows.ends == p.ends is not None and over_q.ends is None, p
        assert from_ends.rows == p.rows == over_q.rows, p
        assert [_basis(q)[1] for q in (from_ends, from_rows, over_q)] == [
            forest_ranks, forest_ranks, echelon_ranks], p
        reports = [analyze(q) for q in (from_ends, from_rows, over_q)]
        assert reports[0] == reports[1] == reports[2], p
        assert len({report.cyclotomic_blocks for report in reports}) == 1, p
        seen["cycle"] += bool(reports[0].cyclotomic_blocks)
        seen["empty side"] += any(None in ends for ends in p.ends)
    assert len(pairs) == 898 + 2 + 50 and min(seen.values()) > 40


def test_the_winding_sample_is_only_a_hint(monkeypatch):
    """`_left_indices` takes any sample s from `winding_rank` at c = 2 as a
    hint: on 120 small random relations, with r the normal rank, every
    s <= r and s = e (confirmed over Q) give the same report,
    `cyclotomic_blocks` too, and every r < s < e leaves a nullity sequence
    unsaturated.  The c = -1 call, the rank of M - N, is no hint and runs
    unpatched."""
    pairs = [linearize(seeded_relation(f"hint:{i}", max_vertices=7, prob=Fraction(1 + i % 4, 8)))
             for i in range(120)]
    equal = raised = 0
    for p, report in [(p, analyze(p)) for p in pairs]:
        e = p.edge_dim
        rank = e - len(report.left_minimal_indices)
        for sample in range(e + 1):
            monkeypatch.setattr(oracle, "winding_rank", lambda ends, width, c, s=sample:
                                s if c == 2 else winding_rank(ends, width, c))
            if sample <= rank or sample == e:
                got = analyze(p)
                assert got == report, (p, sample)
                assert got.cyclotomic_blocks == report.cyclotomic_blocks, (p, sample)
                equal += 1
            else:
                with pytest.raises(AssertionError, match="failed to saturate"):
                    analyze(p)
                raised += 1
    assert equal > 500 and raised > 200


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
        for rows in (p.rows, _basis_rows(_basis(p))):
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


def test_row_basis_stands_in_for_the_rows(monkeypatch):
    # the basis is input rows, in order: from the union-find kernel on a
    # unit-row pair, where [M N] is totally unimodular, or from an
    # elimination over Q, which a unit-row pair takes too when it is built
    # from its rows with `linearize._unit_ends` saying no.  Each form's nullities equal those of T_k on all e rows, on
    # the row side and on the column side, and so do the lifted ranks
    pairs = differential_pairs()
    pairs += [linearize(seeded_relation(f"dense:{i}", max_vertices=10, prob=Fraction(1, 2)))
              for i in range(12)]
    pairs += [parse_pair_file((DATA / "pair_ztz1.txt").read_text())]
    rng = random.Random("basis")
    pairs += [random_rational_pair(rng) for _ in range(40)]
    assert any(p.edge_dim > 2 * p.vertex_dim > 0 for p in pairs)
    assert 0 < sum(p.ends is not None for p in pairs) < len(pairs)
    for p in pairs:
        e, v = p.edge_dim, p.vertex_dim
        columns = columns_of(p)
        rank = normal_rank(p)
        everything = [{**m, **{v + j: x for j, x in n.items()}} for m, n in p.rows]
        forms = [_basis(p)]
        with monkeypatch.context() as patched:
            patched.setattr(sys.modules["linequiv.linearize"], "_unit_ends", lambda rows: None)
            forms.append(_basis(PairMatrices(e, v, p.rows)))
        assert [kernel for _, kernel in forms] == [
            forest_ranks if p.ends is not None else echelon_ranks, echelon_ranks], p
        for basis in forms:
            rows = _basis_rows(basis)
            unread = iter(p.rows)
            assert all(any(row == other for other in unread) for row in rows), p
            stacked = [{**m, **{v + j: x for j, x in n.items()}} for m, n in rows]
            assert rank_of_rows(stacked) == len(rows) == rank_of_rows(stacked + everything), p
            f = _solution_space_dims(_ranks(basis, "ztz", v), e, v, e - rank)
            assert f == [k * e - explicit_block_rank(p.rows, v, k) for k in range(len(f))], p
            # the column side reads the basis too: its T_k's columns
            f = _solution_space_dims(_ranks(basis, "t", v), v, e, v - rank)
            assert f == [k * v - explicit_block_rank(columns, e, k) for k in range(len(f))], p
            for d in range(1, 13):
                if rp.totient(d) * v <= 160:
                    assert rank_of_rows(_lift(rows, d)) == rank_of_rows(_lift(p.rows, d)), (p, d)


def test_cyclotomic_scan_accounts_for_the_degree_exactly():
    # the 6-cycle from its basis over F_2, and from its rows as the Q form
    rows = linearize(cycles_graph((6,))).rows
    for basis in (_basis(linearize(cycles_graph((6,)))), (list(rows), echelon_ranks)):
        assert _cyclotomic_blocks(basis, 6, 6, 6) == [(1, 1), (2, 1), (3, 1), (6, 1)]
        # too small a degree: phi(6) = 2 no longer fits, so d = 6 stays
        # unscanned and the shortfall goes to the Smith route
        assert _cyclotomic_blocks(basis, 6, 6, 5) is None
        # the blind spot: a degree too small by 2 is filled at d = 3, so the
        # scan stops there and never sees Phi_6
        assert _cyclotomic_blocks(basis, 6, 6, 4) == [(1, 1), (2, 1), (3, 1)]
    # two loops found where the degree leaves room for one
    with pytest.raises(AssertionError, match="regular degree: roots of unity carry more than 1"):
        _cyclotomic_blocks(_basis(linearize(cycles_graph((1, 1)))), 2, 2, 1)
    # (X - 1)^2: one block at d = 1 of size 2, found by the lifted local type
    assert _cyclotomic_blocks(_basis(regular_pair(rp.poly(-1, 1), 2)), 2, 2, 2) == [(1, 2)]


def unit_triangular(n: int, rng: random.Random, lower: bool) -> list[list[Fraction]]:
    """A random unit lower (or upper) triangular n-by-n matrix, off-diagonal
    entries drawn from {0, +-1/2, 2/3}: invertible, with mixed denominators."""
    entries = (Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3))
    return [[Fraction(1) if i == j else rng.choice(entries) if (j < i) == lower else Fraction(0)
             for j in range(n)] for i in range(n)]


def matmul(a, b, inner: int, cols: int):
    return tuple(tuple(sum((row[k] * b[k][j] for k in range(inner)), Fraction(0))
                       for j in range(cols)) for row in a)


def doubled_pairs() -> list[tuple[PairMatrices, PairMatrices, InvariantRecord]]:
    """Unit-row pairs with their records, each beside a copy with one
    nonzero row of M and of N doubled: 300 random relations of 8 to 40
    vertices, Y(16, 16) and the four canonical families up to n = 8, but
    t[0] and ztz[0], which have no nonzero row to double.  Doubling is a
    left multiplication by an invertible diagonal matrix, so the record
    stays, and the 2s make the copy not unit-row."""
    rng = random.Random("linequiv-test:cross-path")
    graphs = [random_relation(rng, n, Fraction(rng.randint(2, 5), 2 * n))
              for n in (rng.randint(8, 40) for _ in range(300))]
    inputs = [(linearize(g), full_invariants(g)) for g in graphs + [spider((16, 16))]]
    inputs += [(canonical_pair(family, n), rec(**{family: {n: 1}}))
               for family in ("zt", "tz", "t", "ztz")
               for n in range(1 if family in ("zt", "tz") else 0, 9)]
    out = []
    for p, record in inputs:
        nonzero = [i for i, (m, n) in enumerate(p.rows) if m or n]
        if nonzero:
            i = rng.choice(nonzero)
            rows = list(p.rows)
            rows[i] = tuple({j: 2 * x for j, x in row.items()} for row in rows[i])
            out.append((p, PairMatrices(p.edge_dim, p.vertex_dim, tuple(rows)), record))
    return out


def test_both_fields_give_the_same_report():
    # `analyze` reads a unit-row pair over F_2 and its doubled-row copy
    # over Q, and both give the same report
    pairs = doubled_pairs()
    originals = [p for p, _, _ in pairs]
    assert len(pairs) == 301 + 34 - 2
    assert canonical_pair("t", 0) not in originals and canonical_pair("ztz", 0) not in originals
    compared = Counter()
    for p, doubled, _ in pairs:
        assert p.ends is not None and doubled.ends is None, p
        report, over_q = analyze(p), analyze(doubled)
        assert over_q == report and over_q.cyclotomic_blocks == report.cyclotomic_blocks, p
        compared.update(name for name in ("left_minimal_indices", "right_minimal_indices",
                                          "infinite_divisors", "cyclotomic_blocks")
                        if getattr(report, name))
        compared["zt"] += any(poly == rp.X for poly, _ in report.finite_divisors)
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
