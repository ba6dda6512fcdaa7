"""Shared reference graphs and random generators.

g1..g4 are the bundled worked examples: their invariant records, contraction
tables, and intermediate partitions are pinned throughout the suite, with
every value double-checked by the exact-linear-algebra oracle.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

import linequiv
from linequiv import BinaryRelation, InvariantRecord, MultiDigraph
from linequiv.cli import random_relation
from linequiv.linearize import PairMatrices


def checkout_env() -> dict:
    """The environment for a new interpreter that imports this checkout's
    package."""
    src = str(Path(linequiv.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


def multidigraph(vertices, edges) -> MultiDigraph:
    return MultiDigraph(tuple(vertices), tuple(tuple(e) for e in edges))


@pytest.fixture
def g1() -> MultiDigraph:
    """Three vertices; two routes out of v1 and a 2-cycle between v2, v3."""
    return multidigraph(
        ("v1", "v2", "v3"),
        (("v1", "v2"), ("v1", "v3"), ("v2", "v3"), ("v3", "v2")))


@pytest.fixture
def g2() -> MultiDigraph:
    """Complete relation on two vertices, loops included."""
    return multidigraph(
        ("v1", "v2"),
        (("v1", "v1"), ("v1", "v2"), ("v2", "v1"), ("v2", "v2")))


@pytest.fixture
def g3() -> MultiDigraph:
    """Four vertices: 1 -> 2, 4 -> 2, 4 -> 3, 3 -> 4."""
    return multidigraph(
        ("1", "2", "3", "4"),
        (("1", "2"), ("4", "2"), ("4", "3"), ("3", "4")))


def braided() -> MultiDigraph:
    """g4: chains 0..10 and 0,11..17,10 braided by five cross edges; 18
    vertices, 23 edges."""
    top = [(str(i), str(i + 1)) for i in range(10)]
    bottom = [("0", "11")] + [(str(i), str(i + 1)) for i in range(11, 17)]
    bottom.append(("17", "10"))
    extra = [("5", "14"), ("14", "5"), ("2", "8"), ("2", "12"), ("7", "15")]
    return multidigraph((str(i) for i in range(18)), top + bottom + extra)


@pytest.fixture
def g4() -> MultiDigraph:
    return braided()


def relation(g: MultiDigraph) -> BinaryRelation:
    return BinaryRelation(g.vertices, frozenset(g.edges))


def as_multidigraph(r: BinaryRelation) -> MultiDigraph:
    """The relation as a multidigraph, its edges in the canonical order."""
    return MultiDigraph(r.vertices, r.sorted_pairs())


def transposed(p: PairMatrices) -> PairMatrices:
    """The pair (M^T, N^T)."""
    e, v = p.edge_dim, p.vertex_dim
    return PairMatrices(v, e, *(tuple(tuple(mat[i][j] for i in range(e)) for j in range(v))
                                for mat in (p.m, p.n)))


def swapped(rec: InvariantRecord) -> InvariantRecord:
    """zt and tz exchanged: the record of the converse graph."""
    return InvariantRecord(dict(rec.tz), dict(rec.zt), dict(rec.t), dict(rec.ztz),
                           rec.cycles, rec.regular_divisors)


def spider(arms) -> BinaryRelation:
    """In-arms of the given lengths into a hub h; a Y graph has two arms.
    Its record is t[longest arm] plus tz[a] for each other arm a."""
    edges, vertices = [], ["h"]
    for a, length in enumerate(arms):
        arm = [f"a{a}.{i}" for i in range(length)]
        vertices += arm
        edges += list(zip(arm, arm[1:] + ["h"]))
    return BinaryRelation(tuple(vertices), frozenset(edges))


def seeded_relation(tag: str, max_vertices: int = 6,
                    prob: Fraction = Fraction(3, 10)) -> BinaryRelation:
    rng = random.Random(f"linequiv-test:{tag}")
    return random_relation(rng, rng.randint(0, max_vertices), prob)


def class_sets(partition) -> set[frozenset[str]]:
    return {frozenset(cls) for cls in partition.classes}


def sets(*groups) -> set[frozenset[str]]:
    return {frozenset(str(x) for x in grp) for grp in groups}
