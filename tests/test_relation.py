import pytest

from linequiv import (BinaryRelation, GraphError, MultiDigraph, Partition, converse,
                      full_invariants, reduce)
from linequiv.linearize import linearize
from linequiv.oracle import compare, oracle_invariants

from conftest import as_multidigraph, multidigraph, relation


def test_multidigraph_validation():
    with pytest.raises(GraphError):
        MultiDigraph(("a", "a"), ())
    with pytest.raises(GraphError):
        MultiDigraph(("a",), (("a", "b"),))
    g = MultiDigraph(("a", "b"), (("a", "b"), ("a", "b")))
    assert g.edge_count == 2 and g.vertex_count == 2


def test_binary_relation_is_a_set():
    r = BinaryRelation(("a", "b"), frozenset({("a", "b"), ("a", "b")}))
    assert r.edge_count == 1
    with pytest.raises(GraphError):
        BinaryRelation(("a",), frozenset({("a", "c")}))


def test_partition_validation():
    p = Partition(("a", "b", "c"), (("c",), ("b", "a")))
    assert p.classes == (("a", "b"), ("c",))
    for classes, message in (
            ((("a", "b"), (), ("c",)), "empty partition class"),
            ((("a", "b"), ("b", "c")), "partition misuses vertex 'b'"),
            ((("a", "a"), ("b", "c")), "partition misuses vertex 'a'"),
            ((("a", "b"), ("c", "d")), "partition misuses vertex 'd'"),
            ((("a", "b"),), "partition does not cover the vertex set")):
        with pytest.raises(GraphError, match=message):
            Partition(("a", "b", "c"), classes)


def test_reduce_merges_parallel_edges():
    g = multidigraph("abc", [("a", "b"), ("a", "b"), ("b", "c")])
    summary = reduce(g)
    assert summary.reduced.pairs == frozenset({("a", "b"), ("b", "c")})
    assert summary.parallel_class_sizes == (1, 2)
    assert summary.split_count == 1  # forced: (2 + 1) - 2


def test_reduce_is_idempotent():
    g = multidigraph("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    summary = reduce(g)
    assert summary.split_count == 0
    again = reduce(as_multidigraph(summary.reduced))
    assert again.split_count == 0
    assert again.reduced == summary.reduced


def test_reduce_split_count_matches_invariant_shift():
    # five edges in two parallel classes of sizes 3 and 2: split = 5 - 2 = 3,
    # and the only record change is three extra ztz[0] summands.  Both the
    # combinatorial route and the oracle agree on each side.
    g = multidigraph("ab", [("a", "b")] * 3 + [("a", "a")] * 2)
    summary = reduce(g)
    assert summary.split_count == 3
    assert summary.reduced.edge_count == 2
    full = full_invariants(g)
    red = full_invariants(summary.reduced)
    assert full.ztz.get(0, 0) == red.ztz.get(0, 0) + 3
    assert (full.zt, full.tz, full.t, full.cycles) == (red.zt, red.tz, red.t, red.cycles)
    assert not compare(full, oracle_invariants(linearize(g)))
    assert not compare(red, oracle_invariants(linearize(summary.reduced)))


def test_converse_reverses_pairs():
    r = BinaryRelation(("1", "2"), frozenset({("1", "2")}))
    assert converse(r).pairs == frozenset({("2", "1")})


def test_converse_is_an_involution(g3):
    r = relation(g3)
    assert converse(converse(r)) == r


def test_converse_preserves_edge_count(g4):
    r = relation(g4)
    assert converse(r).edge_count == 23
