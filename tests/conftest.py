"""Shared reference graphs and random generators.

g1..g4 are the bundled worked examples: their invariant records, contraction
tables, and intermediate partitions are pinned throughout the suite, with
every value double-checked by the exact-linear-algebra oracle.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import linequiv
from linequiv import BinaryRelation, InvariantRecord, MultiDigraph, Partition, full_invariants
from linequiv.cli import random_relation
from linequiv.contraction import FIRST_POINTS, ContractionDiagram, _Quotient
from linequiv.linearize import PairMatrices, integer_row
from linequiv.relation import _quotient


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


def dense(p: PairMatrices) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    """(M, N) as dense rows of Fractions, read off the pair's integer rows."""
    v = p.vertex_dim
    return tuple(tuple(tuple(Fraction(row.get(j, 0)) for j in range(v)) for row in side)
                 for side in ([m for m, _ in p.rows], [n for _, n in p.rows]))


def pair_of(e: int, v: int, m, n) -> PairMatrices:
    """The e-by-v pair with the dense rational rows m of M and n of N."""
    def nonzeros(row) -> dict:
        return {j: x for j, x in enumerate(row) if x}

    return PairMatrices(e, v, tuple(integer_row(nonzeros(a), nonzeros(b)) for a, b in zip(m, n)))


def transposed(p: PairMatrices) -> PairMatrices:
    """The pair (M^T, N^T)."""
    e, v = p.edge_dim, p.vertex_dim
    return pair_of(v, e, *(tuple(tuple(mat[i][j] for i in range(e)) for j in range(v))
                           for mat in dense(p)))


def contract_word(r: BinaryRelation, word: str) -> tuple[BinaryRelation, Partition]:
    """Apply a mixed word of contractions, e.g. "rlr" (left to right), with
    the contraction engine; returns the final quotient and the induced
    partition of r's vertices."""
    q = _Quotient(r)
    for step in word:
        q.step("lr".index(step))
    cls = q.classes()
    return _quotient(r, cls), Partition._of(r.vertices, cls)


def singletons(vertices: tuple[str, ...]) -> Partition:
    return Partition(vertices, tuple((v,) for v in vertices))


def stored_gamma(d: ContractionDiagram) -> dict[tuple[int, int], int]:
    """gamma at every point the diagram stores, keyed by (m, n)."""
    return {(m + i, n + i): g for (m, n), diagonal in zip(FIRST_POINTS, d.diagonals)
            for i, g in enumerate(diagonal)}


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


def in_tree(height: int) -> BinaryRelation:
    """A random in-tree of the given height: a path of `height` edges into
    the root, and 2*height more vertices, each with an edge to a random
    earlier vertex less than `height` deep.  Its record is tz and one
    t[height]."""
    rng = random.Random(f"linequiv-test:in-tree:{height}")
    depth = list(range(height + 1))
    edges = [(i, i - 1) for i in range(1, height + 1)]
    for i in range(height + 1, 3 * height + 1):
        parent = rng.choice([u for u in range(i) if depth[u] < height])
        depth.append(depth[parent] + 1)
        edges.append((i, parent))
    labels = tuple(f"n{i}" for i in range(len(depth)))
    return BinaryRelation(labels, frozenset((labels[a], labels[b]) for a, b in edges))


def seeded_relation(tag: str, max_vertices: int = 6,
                    prob: Fraction = Fraction(3, 10)) -> BinaryRelation:
    rng = random.Random(f"linequiv-test:{tag}")
    return random_relation(rng, rng.randint(0, max_vertices), prob)


def class_sets(partition) -> set[frozenset[str]]:
    return {frozenset(cls) for cls in partition.classes}


def sets(*groups) -> set[frozenset[str]]:
    return {frozenset(str(x) for x in grp) for grp in groups}


def winding_census(g: MultiDigraph | BinaryRelation) -> tuple[tuple[int, ...], int]:
    """The winding numbers of a graph's weakly connected components.  Each
    component gets integer potentials p, +1 along an edge and -1 against it,
    and its winding number is the gcd, over its edges (s, t), of
    p(s) + 1 - p(t).  Returns the nonzero winding numbers, sorted, and the
    number of components whose winding number is 0."""
    steps: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count)]
    for s, t in g.ids:
        steps[s].append((t, 1))
        steps[t].append((s, -1))
    potential, component = [0] * len(steps), [-1] * len(steps)
    components = 0
    for root in range(len(steps)):
        if component[root] < 0:
            component[root], stack = components, [root]
            while stack:
                a = stack.pop()
                for b, step in steps[a]:
                    if component[b] < 0:
                        component[b], potential[b] = components, potential[a] + step
                        stack.append(b)
            components += 1
    winding = [0] * components
    for s, t in g.ids:
        winding[component[s]] = gcd(winding[component[s]], potential[s] + 1 - potential[t])
    return tuple(sorted(w for w in winding if w)), winding.count(0)


def check_winding_census(g: MultiDigraph | BinaryRelation, d: int = 1) -> None:
    """The record's regular part and its numbers of t and ztz summands, from
    the winding census alone: one cycle of length w per component of winding
    number w != 0, one t summand per component of winding number 0, and
    e - v + (that number) ztz summands.  Each winding number must be a
    multiple of d."""
    cycles, balanced = winding_census(g)
    rec = full_invariants(g)
    assert all(w % d == 0 for w in cycles)
    assert rec.cycles == cycles
    assert sum(rec.t.values()) == balanced
    assert sum(rec.ztz.values()) == g.edge_count - g.vertex_count + balanced
