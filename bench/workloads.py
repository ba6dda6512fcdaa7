"""Seeded inputs, op lists and expected results for the three workloads.

Every input is built from ``random.Random(f"{workload}:{seed}")``, so one
seed gives byte-identical files.  Expected records never come from the
contraction route they check.  They come from closed forms that the
self-tests cross-check against the exact oracle at small sizes:

* in-spider (arms of lengths l1 >= l2 >= ... into one hub; Y(a, b) has two
  arms):  t[l1] = 1 plus one tz[li] for every other arm;
* functional graph f: cycles are the cycle lengths of f, and tz holds the
  Jordan type of f's nilpotent part, read off the image sizes
  r_k = |f^k(V)|: tz[k] = (r_{k-1} - r_k) - (r_k - r_{k+1});
* in-tree of height h: the record of the tree with a loop at its root (a
  functional graph), with one tz[h] and the loop's cycle traded for t[h];
* disjoint union: the sum of the component records;
* each extra parallel copy of an edge adds one ztz[0].

Input shapes do not depend on the seed, so the cost of one pass varies
little from seed to seed.  The seed chooses labels, edge order, parallel
edges, relations and fuzz seeds.  The random trees of deep_chains and the
maps of wide_shallow's functional graphs are drawn once, from a fixed seed
per size: the cost of a random map depends on its tallest tree, which
varied 2.4-fold between draws at n = 10^4.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("deep_chains", "wide_shallow", "oracle_crosscheck")


# -- records ------------------------------------------------------------------

FAMILIES = ("zt", "tz", "t", "ztz")


@dataclass
class Record:
    """Multiplicities by family, plus the sorted cycle lengths."""

    zt: Counter = field(default_factory=Counter)
    tz: Counter = field(default_factory=Counter)
    t: Counter = field(default_factory=Counter)
    ztz: Counter = field(default_factory=Counter)
    cycles: list = field(default_factory=list)

    def __add__(self, other: "Record") -> "Record":
        return Record(self.zt + other.zt, self.tz + other.tz, self.t + other.t,
                      self.ztz + other.ztz, self.cycles + other.cycles)

    def as_json(self) -> dict:
        """The record's semantic fields in the CLI's ``--json`` shape."""
        out = {name: {str(n): c for n, c in sorted(getattr(self, name).items()) if c}
               for name in FAMILIES}
        out["cycles"] = sorted(self.cycles)
        return out


def semantic_record(doc: dict) -> dict:
    """The fields of a ``--json`` record that the checks compare; keys a later
    version adds are ignored."""
    return {name: doc[name] for name in (*FAMILIES, "cycles")}


def record_ok(doc: dict, expected: dict) -> bool:
    return (semantic_record(doc) == expected
            and doc["edge_check"] is True and doc["vertex_check"] is True)


# -- graphs and their closed-form records -------------------------------------


@dataclass
class Graph:
    """Vertices 0..n-1 and an edge list that may repeat edges and hold loops."""

    n: int
    edges: list
    record: Record

    def union(self, other: "Graph") -> "Graph":
        shifted = [(s + self.n, t + self.n) for s, t in other.edges]
        return Graph(self.n + other.n, self.edges + shifted, self.record + other.record)


def spider(arms) -> Graph:
    """In-arms of the given lengths into one hub (vertex 0)."""
    edges = []
    n = 1
    for length in arms:
        chain = list(range(n, n + length))
        n += length
        edges += [(chain[j], chain[j + 1]) for j in range(length - 1)]
        edges.append((chain[-1], 0))
    longest, *rest = sorted(arms, reverse=True)
    return Graph(n, edges, Record(tz=Counter(rest), t=Counter({longest: 1})))


def y_graph(a: int, b: int) -> Graph:
    return spider((a, b))


def _nilpotent_type(f: list) -> Counter:
    """Jordan block sizes of the nilpotent part of v -> f(v) on K^n."""
    sizes = [len(f)]
    image = set(range(len(f)))
    while True:
        image = {f[v] for v in image}
        sizes.append(len(image))
        if sizes[-1] == sizes[-2]:
            break
    return Counter({k: c for k in range(1, len(sizes) - 1)
                    if (c := sizes[k - 1] - 2 * sizes[k] + sizes[k + 1])})


def _cycle_lengths(f: list) -> list:
    on_cycle = set(range(len(f)))
    for _ in range(len(f)):
        nxt = {f[v] for v in on_cycle}
        if nxt == on_cycle:
            break
        on_cycle = nxt
    lengths, seen = [], set()
    for v in sorted(on_cycle):
        if v not in seen:
            u, k = v, 0
            while u not in seen:
                seen.add(u)
                u, k = f[u], k + 1
            lengths.append(k)
    return lengths


def functional_graph(f: list) -> Graph:
    """The graph of a map f on 0..n-1: one edge v -> f(v) per vertex."""
    return Graph(len(f), [(v, f[v]) for v in range(len(f))],
                 Record(tz=_nilpotent_type(f), cycles=_cycle_lengths(f)))


def in_tree(parent: list) -> Graph:
    """Tree with root 0 and edges v -> parent[v] for v >= 1."""
    looped = [0] + list(parent[1:])
    tz = _nilpotent_type(looped)
    height = max(tz)
    tz[height] -= 1
    return Graph(len(parent), [(v, parent[v]) for v in range(1, len(parent))],
                 Record(tz=+tz, t=Counter({height: 1})))


def random_functional(rng: random.Random, n: int, loops: int = 0) -> Graph:
    f = [rng.randrange(n) for _ in range(n)]
    for v in rng.sample(range(n), loops):
        f[v] = v
    return functional_graph(f)


def long_in_tree(rng: random.Random, height: int) -> Graph:
    """A path of `height` edges into the root, with `height` more vertices
    hung below random earlier vertices."""
    parent = [0] + list(range(height))
    for v in range(height + 1, 2 * height + 1):
        parent.append(rng.randrange(v))
    return in_tree(parent)


# Small components of the disjoint-union inputs, with their records.
COMPONENTS = {
    "isolated": Graph(1, [], Record(t=Counter({0: 1}))),
    "loop": Graph(1, [(0, 0)], Record(cycles=[1])),
    "edge": Graph(2, [(0, 1)], Record(t=Counter({1: 1}))),
    "double_edge": Graph(2, [(0, 1), (0, 1)], Record(t=Counter({1: 1}), ztz=Counter({0: 1}))),
    "two_cycle": Graph(2, [(0, 1), (1, 0)], Record(cycles=[2])),
    "path3": Graph(3, [(0, 1), (1, 2)], Record(t=Counter({2: 1}))),
    "in_fork": Graph(3, [(1, 0), (2, 0)], Record(tz=Counter({1: 1}), t=Counter({1: 1}))),
    "out_fork": Graph(3, [(0, 1), (0, 2)], Record(zt=Counter({1: 1}), t=Counter({1: 1}))),
}


def disjoint_mix(rng: random.Random, per_kind: int) -> Graph:
    """`per_kind` copies of every small component, in seeded order."""
    kinds = [k for k in COMPONENTS for _ in range(per_kind)]
    rng.shuffle(kinds)
    g = Graph(0, [], Record())
    for kind in kinds:
        g = g.union(COMPONENTS[kind])
    return g


def with_parallel_copies(rng: random.Random, g: Graph, copies: int) -> Graph:
    """Duplicate `copies` edges, chosen at random, loops first."""
    loops = [e for e in g.edges if e[0] == e[1]]
    others = [e for e in g.edges if e[0] != e[1]]
    chosen = loops[:copies] + rng.sample(others, copies - min(copies, len(loops)))
    return Graph(g.n, g.edges + chosen, g.record + Record(ztz=Counter({0: len(chosen)})))


# -- files --------------------------------------------------------------------


def edge_list_text(g: Graph, rng: random.Random, prefix: str) -> str:
    """Edge-list file with seeded labels and seeded edge order; vertices on
    no edge are declared first."""
    width = len(str(max(g.n - 1, 0)))
    perm = list(range(g.n))
    rng.shuffle(perm)
    label = [f"{prefix}{p:0{width}d}" for p in perm]
    edges = list(g.edges)
    rng.shuffle(edges)
    touched = {v for e in edges for v in e}
    lines = [f"vertex {label[v]}" for v in range(g.n) if v not in touched]
    lines += [f"{label[s]} {label[t]}" for s, t in edges]
    return "\n".join(lines) + "\n"


def dot_text(g: Graph, rng: random.Random, prefix: str) -> str:
    body = edge_list_text(g, rng, prefix).splitlines()
    stmts = [f"  {line.split()[1]};" if line.startswith("vertex ") else
             "  {} -> {};".format(*line.split()) for line in body]
    return "digraph {\n" + "\n".join(stmts) + "\n}\n"


# -- ops ----------------------------------------------------------------------


@dataclass
class Op:
    """One call of the CLI's ``main(argv)``; `files` are (name, text) pairs
    written before the run, and `expect` is what the check compares."""

    kind: str
    label: str
    argv: list
    files: list
    expect: dict
    size: int = 0  # vertex count of the input, for the scaling curve


def _invariants(label: str, g: Graph, rng, dot: bool = False) -> Op:
    name = f"{label}.{'dot' if dot else 'edges'}"
    text = dot_text(g, rng, "v") if dot else edge_list_text(g, rng, "v")
    return Op("invariants", label, ["invariants", "--json", name], [(name, text)],
              {"record": g.record.as_json()}, g.n)


def _equiv(label: str, a: Graph, b: Graph, equivalent: bool, rng) -> Op:
    fa, fb = f"{label}.a.edges", f"{label}.b.edges"
    return Op("equiv", label, ["equiv", "--json", fa, fb],
              [(fa, edge_list_text(a, rng, "a")), (fb, edge_list_text(b, rng, "b"))],
              {"equivalent": equivalent}, a.n)


def _reduce(label: str, g: Graph, rng) -> Op:
    name = f"{label}.red.edges"
    distinct = len(set(g.edges))
    return Op("reduce", label, ["reduce", "--json", name],
              [(name, edge_list_text(g, rng, "v"))],
              {"vertices": g.n, "pairs": distinct, "split_count": len(g.edges) - distinct},
              g.n)


def _oracle(label: str, rng, n: int) -> Op:
    """A relation on n vertices with n^2 // 10 distinct pairs, loops allowed."""
    pairs = rng.sample([(s, t) for s in range(n) for t in range(n)], n * n // 10)
    g = Graph(n, pairs, Record())
    name = f"{label}.edges"
    return Op("oracle", label, ["oracle", "--json", name],
              [(name, edge_list_text(g, rng, "v"))], {}, n)


def _fuzz(label: str, rng, count: int) -> Op:
    seed = rng.getrandbits(64)
    return Op("fuzz", label, ["fuzz", "--json", "--vertices", "8", "--count", str(count),
                              "--seed", str(seed)], [], {"trials": count}, 8)


# deep_chains: the scaling curve runs `invariants` on Y(L, L); the other ops
# mix trees (drawn from fixed seeds, as wide_shallow's maps are), equivalent
# pairs (relabelled, edge-permuted copies) and the
# inequivalent pairs Y(L, L) / Y(L-1, L+1), which gamma alone separates.
CURVE = (24, 32, 48, 64, 96, 128, 192, 256)
TREE_HEIGHTS = (32, 64, 128)
EQUIV_SAME = (24, 48, 96)
EQUIV_SHIFTED = (32, 64, 128)
EQUIV_TREES = (32, 64)
SMALL = (8, 12, 16, 20)


def deep_chains(rng: random.Random) -> list:
    ops = [_invariants(f"y{L}", y_graph(L, L), rng) for L in CURVE]
    for h in TREE_HEIGHTS:
        ops.append(_invariants(f"tree{h}", long_in_tree(random.Random(f"tree:{h}"), h), rng))
    for L in EQUIV_SAME:
        ops.append(_equiv(f"same_y{L}", y_graph(L, L), y_graph(L, L), True, rng))
    for L in EQUIV_SHIFTED:
        ops.append(_equiv(f"shift_y{L}", y_graph(L, L), y_graph(L - 1, L + 1), False, rng))
    for h in EQUIV_TREES:
        tree = long_in_tree(random.Random(f"equiv_tree:{h}"), h)
        ops.append(_equiv(f"same_tree{h}", tree, tree, True, rng))
    for L in SMALL:
        ops.append(_invariants(f"y{L}_{L // 2}", y_graph(L, L // 2), rng))
        ops.append(_invariants(f"spider{L}", spider((L, L // 2, L // 4)), rng))
        ops.append(_equiv(f"mirror_y{L}", y_graph(L, L // 2), y_graph(L // 2, L), True, rng))
        ops.append(_equiv(f"shift_y{L}", y_graph(L, L), y_graph(L - 1, L + 1), False, rng))
    return ops


# wide_shallow: many vertices, few contraction rounds.  The maps come from
# fixed seeds, so that the benchmark seed changes labels and edge order but
# not the tree heights that set their cost.
FUNCTIONAL_SIZES = (500, 500, 1000, 1000, 2000, 4000, 10000)
MIX_PER_KIND = (10, 10, 20, 20, 40, 80, 160)
MULTI_SIZES = (500, 1000, 2000, 4000)


def wide_shallow(rng: random.Random) -> list:
    ops = []
    for i, n in enumerate(FUNCTIONAL_SIZES):
        g = random_functional(random.Random(f"functional:{n}:{i}"), n)
        ops += [_invariants(f"func{n}_{i}", g, rng), _reduce(f"func{n}_{i}", g, rng)]
    for i, k in enumerate(MIX_PER_KIND):
        g = disjoint_mix(rng, k)
        ops += [_invariants(f"mix{k}_{i}", g, rng, dot=i % 2 == 1),
                _reduce(f"mix{k}_{i}", g, rng)]
    for n in MULTI_SIZES:
        f = random_functional(random.Random(f"multi:{n}"), n, loops=n // 100)
        g = with_parallel_copies(rng, f, n // 10)
        ops += [_invariants(f"multi{n}", g, rng), _reduce(f"multi{n}", g, rng)]
    return ops


# oracle_crosscheck: `oracle` on random relations (e ~ n^2/10) and many
# small `fuzz` runs, where fixed overhead dominates.
ORACLE_SIZES = ((10, 10), (20, 3), (30, 1), (40, 1))
FUZZ_OPS = 20
FUZZ_COUNT = 3


def oracle_crosscheck(rng: random.Random) -> list:
    ops = [_oracle(f"oracle{n}_{i}", rng, n) for n, reps in ORACLE_SIZES for i in range(reps)]
    ops += [_fuzz(f"fuzz{i}", rng, FUZZ_COUNT) for i in range(FUZZ_OPS)]
    return ops


OP_LISTS = {"deep_chains": deep_chains, "wide_shallow": wide_shallow,
            "oracle_crosscheck": oracle_crosscheck}


def build_ops(workload: str, seed: int) -> list:
    return OP_LISTS[workload](random.Random(f"{workload}:{seed}"))


def write_inputs(ops: list, directory: Path) -> list:
    """Write every op's files under `directory`; returns argv lists with the
    file names made absolute."""
    directory.mkdir(parents=True, exist_ok=True)
    argvs = []
    for op in ops:
        names = {}
        for name, text in op.files:
            path = directory / name
            path.write_text(text, encoding="utf-8")
            names[name] = str(path)
        argvs.append([names.get(a, a) for a in op.argv])
    return argvs
