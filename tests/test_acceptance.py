"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s``).

All comparisons are exact; there are no tolerances anywhere.

Criterion 1 pins the golden decompositions of all four reference graphs.
The g4 record once listed zt[2], tz[3]: the zt/tz transpose of what the
package's own definitions require.  zt[n] is [nilpotent, identity] on K^n,
so its pencil M + X*N carries the elementary divisor X^n.  The old golden
also contradicted test_invariants.py::test_full_invariants_braided, which
pins zt[3], tz[2], so no program could pass both.  The g4 golden is now
zt[3], tz[2], which is what the contraction route and the exact oracle give
(they share no code).  A third witness that imports nothing from linequiv,
test_oracle.py::test_smith_form_orientation_witness, reads the same
orientation from sympy's Smith forms of M + X*N and N + X*M.  See README.md,
section "A note on the g4 golden record".
"""

import random
import time
from fractions import Fraction

from linequiv import (InvariantRecord, compare, converse, full_invariants,
                      gamma_table, iterated_contraction, oracle_invariants,
                      part_one, stabilize)
from linequiv.cli import random_relation
from linequiv.contraction import StableShape
from linequiv.linearize import linearize
from linequiv.oracle import canonical_pair, regular_pair
from linequiv import ratpoly as rp
from linequiv.relation import MultiDigraph

from conftest import (as_multidigraph, braided, class_sets, contract_word, multidigraph, relation,
                      sets, stored_gamma, swapped)


def _report(name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL (" + "; ".join(failures) + ")"
    print(f"acceptance {name}: {status}")
    assert not failures, f"{name}: {failures}"


def _graphs():
    g1 = multidigraph(("v1", "v2", "v3"),
                      (("v1", "v2"), ("v1", "v3"), ("v2", "v3"), ("v3", "v2")))
    g2 = multidigraph(("v1", "v2"),
                      (("v1", "v1"), ("v1", "v2"), ("v2", "v1"), ("v2", "v2")))
    g3 = multidigraph(("1", "2", "3", "4"),
                      (("1", "2"), ("4", "2"), ("4", "3"), ("3", "4")))
    return g1, g2, g3, braided()


def test_criterion_1_golden_decompositions():
    g1, g2, g3, g4 = _graphs()
    golden = {
        "g1": (g1, InvariantRecord(ztz={1: 1}, tz={1: 1}, cycles=(1,))),
        "g2": (g2, InvariantRecord(ztz={0: 1, 1: 1}, cycles=(1,))),
        "g3": (g3, InvariantRecord(zt={1: 1}, tz={1: 1}, cycles=(2,))),
        # corrected from zt={2: 1}, tz={3: 1}, the zt/tz transpose: the Smith
        # form of M + X*N has X^3 (zt[3]) and that of N + X*M has X^2
        # (tz[2]); see the module docstring
        "g4": (g4, InvariantRecord(zt={3: 1}, tz={2: 1}, ztz={2: 3, 3: 2},
                                   cycles=(1,))),
    }
    failures = []
    start = time.monotonic()
    for name, (graph, expected) in golden.items():
        t0 = time.monotonic()
        got = full_invariants(graph)
        if time.monotonic() - t0 >= 1.0:
            failures.append(f"{name} took >= 1 s")
        if got != expected:
            failures.append(f"{name}: computed {got.describe()!r}, "
                            f"golden {expected.describe()!r}")
        if name == "g4" and got.ztz.get(0, 0) != 0:
            failures.append("g4 ztz[0] != 0")
    assert time.monotonic() - start < 4.0
    _report("criterion 1 (golden decompositions)", failures)


def test_criterion_2_braided_intermediates():
    g4 = relation(braided())
    failures = []

    def check(name, got, expected):
        if got != expected:
            failures.append(f"{name}: {got} != {expected}")

    everything = frozenset(str(i) for i in range(18))

    def minus(*xs):
        return everything - {str(x) for x in xs}

    def partition_at(m, n):
        return class_sets(iterated_contraction(g4, m, n)[1])

    check("left classes", partition_at(1, 0),
          sets([0], [1, 11], [2], [3, 5, 8, 12, 15], [4], [6, 14], [7],
               [9], [10], [13], [16], [17]))
    check("right classes", partition_at(0, 1),
          sets([0], [1], [2, 4, 7, 11, 14], [3], [5, 13], [6], [8],
               [9, 17], [10], [12], [15], [16]))
    check("S(2,0)", partition_at(2, 0),
          sets([0], [1, 11], [2, 3, 5, 7, 8, 12, 15], [4, 6, 9, 13, 14, 16],
               [10], [17]))
    check("S(1,1)", partition_at(1, 1),
          sets([0], [1, 2, 4, 6, 7, 11, 14], [3, 5, 8, 12, 13, 15],
               [9, 17], [10], [16]))
    check("S(0,2)", partition_at(0, 2),
          sets([0, 1, 3, 5, 6, 13], [2, 4, 7, 11, 12, 14], [8, 16],
               [9, 17], [10], [15]))
    check("S(2,1)", partition_at(2, 1), {minus(0, 10), minus(*range(1, 18)),
                                         frozenset({"10"})})
    check("S(1,2)", partition_at(1, 2), {minus(9, 10, 17),
                                         frozenset({"9", "17"}), frozenset({"10"})})
    check("S(1,3)", partition_at(1, 3), partition_at(1, 2))
    check("S(2,2)", partition_at(2, 2), {minus(10), frozenset({"10"})})
    check("S(2,3)", partition_at(2, 3), partition_at(2, 2))
    check("S(2,4)", partition_at(2, 4), partition_at(2, 2))
    check("S(3,1)", partition_at(3, 1), {minus(0), frozenset({"0"})})

    d = gamma_table(g4)
    check("gamma nonstable", d.nonstable_points(), {
        (0, 0): 18, (1, 0): 12, (0, 1): 12,
        (2, 0): 6, (1, 1): 6, (0, 2): 6,
        (2, 1): 3, (1, 2): 3, (1, 3): 3,
        (3, 1): 2, (2, 2): 2, (2, 3): 2, (2, 4): 2,
    })
    check("gamma stable value", d.stable_value, 1)

    shape, stable, _ = stabilize(g4)
    check("stabilization", shape, StableShape((1,), ()))
    check("stable relation", (stable.vertex_count, stable.edge_count), (1, 1))
    check("edge count", g4.edge_count, 23)

    rec = full_invariants(g4)
    check("vertex check", rec.vertex_total(), 18)
    singles = sorted(n for n, c in list(rec.zt.items()) + list(rec.tz.items())
                     if c == 1)
    check("vertex identity arithmetic",
          2 * 3 + 3 * 2 + singles[0] + singles[1] + 1, 18)
    _report("criterion 2 (braided-graph intermediate data)", failures)


def test_criterion_3_oracle_agreement_200_trials():
    failures = []
    start = time.monotonic()
    trials = 0
    for prob in (Fraction(1, 10), Fraction(2, 10), Fraction(3, 10), Fraction(5, 10)):
        for i in range(50):
            rng = random.Random(f"acceptance-3:{prob}:{i}")
            r = random_relation(rng, rng.randint(0, 6), prob)
            diffs = compare(full_invariants(r), oracle_invariants(linearize(r)))
            trials += 1
            if diffs:
                failures.append(f"trial p={prob} #{i}: {diffs}")
    elapsed = time.monotonic() - start
    if trials != 200:
        failures.append(f"ran {trials} trials")
    if elapsed >= 60:
        failures.append(f"took {elapsed:.1f} s")
    print(f"  (200 trials in {elapsed:.2f} s)")
    _report("criterion 3 (oracle agreement, 200 random relations)", failures)


def test_criterion_4_invariant_suite():
    pool = []
    for i in range(120):
        rng = random.Random(f"acceptance-4:{i}")
        pool.append(random_relation(rng, rng.randint(0, 6), Fraction(3, 10)))
    rng = random.Random("acceptance-4:aux")
    failures = []

    for i, r in enumerate(pool):
        tag = f"instance {i}"
        try:
            d = gamma_table(r)
            part_one(d)  # dual-form agreement self-checks
            rec = full_invariants(r)  # nonnegativity self-checks
        except Exception as exc:  # noqa: BLE001 - any raise is a failure here
            failures.append(f"{tag}: {type(exc).__name__}: {exc}")
            continue
        if (rec.edge_total(), rec.vertex_total()) != (r.edge_count, r.vertex_count):
            failures.append(f"{tag}: counting identity failed")

        # strengthened commutation: a random interleaving equals the fixed order
        m, n = rng.randint(0, 3), rng.randint(0, 3)
        word = list("l" * m + "r" * n)
        rng.shuffle(word)
        if (iterated_contraction(r, m, n)[1]
                != contract_word(r, "".join(word))[1]):
            failures.append(f"{tag}: commutation broken for {''.join(word)}")

        # converse duality: gamma transposes, the record swaps zt and tz
        dc = gamma_table(converse(r))
        if any(dc.value(nn, mm) != d.value(mm, nn) for (mm, nn) in stored_gamma(d)):
            failures.append(f"{tag}: gamma transpose failed")
        if full_invariants(converse(r)) != swapped(rec):
            failures.append(f"{tag}: converse record swap failed")

        # parallel-edge additivity
        if r.pairs:
            g = as_multidigraph(r)
            k = rng.randint(1, 3)
            dup = MultiDigraph(g.vertices, g.edges + (rng.choice(sorted(r.pairs)),) * k)
            more = full_invariants(dup)
            if more.ztz.get(0, 0) != rec.ztz.get(0, 0) + k or more.zt != rec.zt \
                    or more.tz != rec.tz or more.t != rec.t or more.cycles != rec.cycles:
                failures.append(f"{tag}: parallel-edge additivity failed")

        # gamma monotonicity
        for (mm, nn) in stored_gamma(d):
            for step in ((mm + 1, nn), (mm, nn + 1)):
                if d.is_suitable(*step) and d.value(mm, nn) < d.value(*step):
                    failures.append(f"{tag}: gamma increased at {step}")

        # stabilization depth bound and shape (no shape error was raised)
        _, _, depth = stabilize(r)
        if depth > r.vertex_count:
            failures.append(f"{tag}: depth {depth} > {r.vertex_count}")

    _report("criterion 4 (invariant suite on 120 random instances)", failures)


def summand_count(rec: InvariantRecord) -> int:
    regular = len(rec.cycles) if rec.regular_divisors is None else len(rec.regular_divisors)
    return sum(sum(m.values()) for m in (rec.zt, rec.tz, rec.t, rec.ztz)) + regular


def test_criterion_5_calibration():
    failures = []
    cases = []
    for n in range(1, 5):
        cases.append((f"zt[{n}]", canonical_pair("zt", n), InvariantRecord(zt={n: 1})))
        cases.append((f"tz[{n}]", canonical_pair("tz", n), InvariantRecord(tz={n: 1})))
    for n in range(0, 5):
        cases.append((f"t[{n}]", canonical_pair("t", n), InvariantRecord(t={n: 1})))
        cases.append((f"ztz[{n}]", canonical_pair("ztz", n),
                      InvariantRecord(ztz={n: 1})))
    cases.append(("S(X-1)", regular_pair(rp.poly(-1, 1)),
                  InvariantRecord(cycles=(1,))))
    cases.append(("S(X^2+1)", regular_pair(rp.poly(1, 0, 1)),
                  InvariantRecord(regular_divisors=((rp.poly(1, 0, 1), 1),))))
    for name, pair, expected in cases:
        got = oracle_invariants(pair)
        if got != expected or summand_count(got) != 1:
            failures.append(f"{name}: {got.describe()}")
    _report("criterion 5 (canonical-form calibration)", failures)
