import copy
import pickle

import pytest

from linequiv import (BinaryRelation, ContractionDiagram, EquivVerdict, GraphError,
                      InvariantRecord, MultiDigraph, Partition, ReductionSummary, StableShape,
                      converse, full_invariants, reduce)
from linequiv.invariants import GraphAnalysis, analyze_graph
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


_R = BinaryRelation(("a", "b"), frozenset({("a", "b")}))
_X = analyze_graph(_R)
# (class, constructor keywords in field order, every field in order, hashable)
VALUES = [
    (Partition, {"over": ("a", "b"), "classes": (("a",), ("b",))},
     ("over", "classes"), True),
    (ReductionSummary, {"reduced": _R, "parallel_class_sizes": (1, 2)},
     ("reduced", "parallel_class_sizes"), True),
    (StableShape, {"cycles": (1,), "paths": (2,)}, ("cycles", "paths"), True),
    (ContractionDiagram, {"diagonals": ((2,), (2,), (2, 1), (1,), (1,)), "stable_value": 1,
                          "stable": _R, "depth": 1},
     ("diagonals", "stable_value", "stable", "depth", "horizon"), True),
    (GraphAnalysis, {"edge_count": 1, "diagram": _X.diagram, "shape": _X.shape,
                     "record": _X.record},
     ("edge_count", "diagram", "shape", "record"), False),
    (EquivVerdict, {"equivalent": False, "reason": "edge count: 1 != 2"},
     ("equivalent", "reason"), True),
    *((InvariantRecord, kwargs, ("zt", "tz", "t", "ztz", "cycles", "regular_divisors"), False)
      for kwargs in ({"zt": {1: 1}, "tz": {}, "t": {0: 1}, "ztz": {0: 2}, "cycles": (1, 3),
                      "regular_divisors": None},
                     {"zt": {2: 1}}, {"tz": {2: 1}}, {"t": {0: 1}}, {"ztz": {0: 1}}, {})),
]


@pytest.mark.parametrize("cls, kwargs, fields, hashable", VALUES,
                         ids=[f"{cls.__name__}-{i}" for i, (cls, *_) in enumerate(VALUES)])
def test_value_classes_keep_frozen_dataclass_semantics(cls, kwargs, fields, hashable):
    value = cls(**kwargs)
    assert {name: getattr(value, name) for name in kwargs} == kwargs
    again = cls(**kwargs)
    assert value == again and not value != again
    # a mutable field is never shared between two instances
    assert all(getattr(value, name) is not getattr(again, name) for name in fields
               if isinstance(getattr(value, name), dict))
    assert all(value != other_cls(**other) for other_cls, other, *_ in VALUES
               if other_cls is not cls)
    assert value != tuple(getattr(value, name) for name in fields)
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is cls and copied == value
    assert repr(value) == (f"{cls.__name__}("
                           + ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
                           + ")")
    if hashable:
        assert hash(value) == hash(again)
    else:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(value)
