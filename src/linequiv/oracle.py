"""Independent verification path: the same multiplicity record, computed from
the raw matrix pair by exact rational linear algebra.

No contractions are used anywhere here.  The pair (M, N) is analyzed as the
polynomial matrix M + X*N:

  * row-solution degrees (nullity second differences of block matrices) give
    the ztz indices, and the same computation on the transposed pair gives t;
  * the Smith normal form of M + X*N yields elementary divisors: X-powers
    are zt, the rest is the regular part;
  * the Smith normal form of N + X*M read at X-powers gives tz.

Everything is exact; nothing touches floating point.  Ranks (the normal
rank and the block matrices behind the minimal indices) come from
fraction-free elimination on integer rows, each rational row first scaled to
integers; the Smith forms work on polynomials with Fraction coefficients.
Divisors of the pencil are reported in the convention where a single loop
edge yields S(X - 1): a pencil factor q gives the stored polynomial
monic(q(-X)).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import ratpoly as rp
from .invariants import InvariantRecord, cyclotomic_refine
from .linearize import PairMatrices
from .ratpoly import Poly


class DimensionMismatch(RuntimeError):
    """The assembled record does not account for every matrix dimension."""


class OracleFactorError(RuntimeError):
    """An invariant factor has a non-cyclotomic irreducible part of degree
    above one; cannot happen for graph-derived pairs."""


SparseRow = dict[int, int]


def _primitive(row: dict) -> SparseRow:
    """The nonzeros of a rational row times the positive constant that makes
    them coprime integers; the rank of a set of rows does not change."""
    row = {j: x for j, x in row.items() if x}
    den = lcm(*(x.denominator for x in row.values()))
    row = {j: x.numerator * (den // x.denominator) for j, x in row.items()}
    content = gcd(*row.values())
    if content > 1:
        row = {j: x // content for j, x in row.items()}
    return row


def rank_of_rows(rows) -> int:
    """Exact rank of sparse rational rows (dicts column -> int or Fraction),
    by incremental fraction-free elimination: each row is first scaled to
    coprime integers, then reduced against a pivot by row = a*row - b*pivot
    and divided by the gcd of its entries, so every entry stays an integer."""
    pivots: dict[int, SparseRow] = {}
    for row in rows:
        row = _primitive(row)
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            a, b = pivot[col], row.pop(col)
            g = gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                row = {j: a * x for j, x in row.items()}
            for j, x in pivot.items():
                if j != col:
                    new = row.get(j, 0) - b * x
                    if new:
                        row[j] = new
                    else:
                        del row[j]
            content = gcd(*row.values())
            if content > 1:
                row = {j: x // content for j, x in row.items()}
    return len(pivots)


def _integer_rows(p: PairMatrices) -> list[tuple[SparseRow, SparseRow]]:
    """The nonzeros of row i of M and of N, both times one positive integer
    that clears their denominators.  Scaling row i of M and N alike is a
    left multiplication by a constant invertible diagonal matrix, so it
    leaves every rank taken below unchanged."""
    out = []
    for m_row, n_row in zip(p.m, p.n):
        m_nz = {j: x for j, x in enumerate(m_row) if x}
        n_nz = {j: x for j, x in enumerate(n_row) if x}
        den = lcm(*(x.denominator for x in m_nz.values()),
                  *(x.denominator for x in n_nz.values()))
        out.append(({j: x.numerator * (den // x.denominator) for j, x in m_nz.items()},
                    {j: x.numerator * (den // x.denominator) for j, x in n_nz.items()}))
    return out


def _shifted(row: SparseRow, offset: int) -> SparseRow:
    return {offset + j: x for j, x in row.items()}


def kernel_meet_dim(p: PairMatrices) -> int:
    """Dimension of the joint row kernel {x : xM = 0 and xN = 0}; equals
    ztz[0] of the pair."""
    v = p.vertex_dim
    return p.edge_dim - rank_of_rows({**m, **_shifted(n, v)}
                                     for m, n in _integer_rows(p))


def normal_rank(p: PairMatrices) -> int:
    """Rank of M + t*N over the rational function field, by exact integer
    evaluation at t = 1, 2, ...

    The rank at each point is at most the normal rank, which is at most
    min(rank [M N], rank [M; N]) since M + tN = [M N]*[I; tI] = [I tI]*[M; N].
    So sampling stops at the first point whose rank meets that bound.
    Otherwise it takes min(e, v) + 1 points: a nonzero maximal minor has
    degree at most min(e, v) in t, so it vanishes at no more than min(e, v)
    of them."""
    e, v = p.edge_dim, p.vertex_dim
    rows = _integer_rows(p)
    bound = min(rank_of_rows({**m, **_shifted(n, v)} for m, n in rows),
                rank_of_rows([m for m, _ in rows] + [n for _, n in rows]))
    best = 0
    for t in range(1, min(e, v) + 2):
        if best == bound:
            break
        sample = []
        for m, n in rows:
            row = dict(m)
            for j, x in n.items():
                row[j] = row.get(j, 0) + t * x
            sample.append(row)
        best = max(best, rank_of_rows(sample))
    return best


def _solution_space_dims(p: PairMatrices, k_max: int, total: int) -> list[int]:
    """f(k) = dimension of row vectors x(t) of degree < k with x(t)(M + tN)
    = 0, for k = 0..; stops once the increments reach `total`."""
    e, v = p.edge_dim, p.vertex_dim
    rows = _integer_rows(p)
    f = [0]
    for k in range(1, k_max + 1):
        blocks = [{**_shifted(m, j * v), **_shifted(n, (j + 1) * v)}
                  for j in range(k) for m, n in rows]
        f.append(k * e - rank_of_rows(blocks))
        if f[-1] - f[-2] == total:
            break
    return f


def minimal_indices_left(p: PairMatrices, rank: int | None = None) -> tuple[int, ...]:
    """Degrees of a minimal basis of polynomial row solutions of
    x(t)(M + tN) = 0; one ztz summand per index.  `rank` is the normal
    rank of the pair when already known."""
    if rank is None:
        rank = normal_rank(p)
    total = p.edge_dim - rank
    if total == 0:
        return ()
    f = _solution_space_dims(p, min(p.edge_dim, p.vertex_dim) + 2, total)
    if f[-1] - f[-2] != total:
        raise AssertionError("row solution dimensions failed to saturate")
    out = []
    for d in range(len(f) - 1):
        mult = f[d + 1] - 2 * f[d] + (f[d - 1] if d else 0)
        if mult < 0:
            raise AssertionError("nullity sequence is not concave")
        out.extend([d] * mult)
    if len(out) != total:
        raise AssertionError("minimal index count mismatch")
    return tuple(out)


def minimal_indices_right(p: PairMatrices, rank: int | None = None) -> tuple[int, ...]:
    """Column-side analogue; one t summand per index.  The transposed pair
    has the same normal rank, so a known `rank` carries over."""
    return minimal_indices_left(p.transposed(), rank)


# -- Smith normal form over Q[X] ---------------------------------------------


def _pencil_matrix(first, second, e: int, v: int) -> list[list[Poly]]:
    return [[rp.poly(first[i][j], second[i][j]) for j in range(v)] for i in range(e)]


def invariant_factors(mat: list[list[Poly]]) -> list[Poly]:
    """Monic nonzero invariant factors of a polynomial matrix, in divisibility
    order, by the classical pivot-and-reduce Smith procedure."""
    mat = [row[:] for row in mat]
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    factors: list[Poly] = []
    top = 0
    while True:
        pos = None
        best = -1
        for i in range(top, rows):
            for j in range(top, cols):
                d = rp.deg(mat[i][j])
                if mat[i][j] and (pos is None or d < best):
                    pos, best = (i, j), d
        if pos is None:
            break
        i, j = pos
        mat[top], mat[i] = mat[i], mat[top]
        for row in mat:
            row[top], row[j] = row[j], row[top]
        while True:
            # clear the pivot column, restarting whenever a remainder of
            # smaller degree shows up (it becomes the better pivot)
            restart = False
            for i in range(top + 1, rows):
                if rp.is_zero(mat[i][top]):
                    continue
                q, r = rp.divmod_poly(mat[i][top], mat[top][top])
                mat[i] = [rp.sub(a, rp.mul(q, b)) if b else a
                          for a, b in zip(mat[i], mat[top])]
                if not rp.is_zero(r):
                    mat[top], mat[i] = mat[i], mat[top]
                    restart = True
                    break
            if restart:
                continue
            for j in range(top + 1, cols):
                if rp.is_zero(mat[top][j]):
                    continue
                q, r = rp.divmod_poly(mat[top][j], mat[top][top])
                for row in mat:
                    if row[top]:
                        row[j] = rp.sub(row[j], rp.mul(q, row[top]))
                if not rp.is_zero(r):
                    for row in mat:
                        row[top], row[j] = row[j], row[top]
                    restart = True
                    break
            if restart:
                continue
            if any(not rp.is_zero(mat[i][top]) for i in range(top + 1, rows)):
                continue
            break
        factors.append(rp.monic(mat[top][top]))
        top += 1
        if top == rows or top == cols:
            break
    # repair the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            a, b = factors[i], factors[i + 1]
            if not rp.divides(a, b):
                factors[i], factors[i + 1] = rp.gcd(a, b), rp.lcm(a, b)
                changed = True
    return factors


def _factor_stored(q: Poly) -> list[tuple[Poly, int]]:
    """Split monic(q(-X)) into irreducibles: an X-power, cyclotomic factors,
    linear leftovers; anything else is unsupported."""
    g = rp.monic(rp.substitute_neg_x(q))
    out: Counter[Poly] = Counter()
    k = rp.x_order(g)
    if k:
        out[rp.X] += k
        g = rp.norm(g[k:])
    d = 1
    while rp.deg(g) >= 1:
        if d > 2 * rp.deg(g) ** 2 + 6:
            break
        if rp.totient(d) <= rp.deg(g):
            phi = rp.cyclotomic(d)
            quo, rem = rp.divmod_poly(g, phi)
            if rp.is_zero(rem):
                out[phi] += 1
                g = quo
                continue  # repeat the same d; exponents can exceed one
        d += 1
    if rp.deg(g) == 1:
        out[rp.monic(g)] += 1
        g = rp.ONE
    if rp.deg(g) >= 1:
        raise OracleFactorError(
            f"cannot factor invariant-factor part {rp.poly_str(g)} over the rationals")
    # group equal irreducibles into (p, exponent) with exponent = multiplicity
    return sorted(out.items())


def finite_divisors(p: PairMatrices) -> tuple[tuple[Poly, int], ...]:
    """Elementary divisors of M + X*N, stored in the loop-gives-S(X-1)
    convention; pairs with first component X are zt summands."""
    out: Counter[tuple[Poly, int]] = Counter()
    for q in invariant_factors(_pencil_matrix(p.m, p.n, p.edge_dim, p.vertex_dim)):
        for irred, mult in _factor_stored(q):
            out[(irred, mult)] += 1
    return tuple(sorted(out.elements()))


def infinite_divisors(p: PairMatrices) -> tuple[int, ...]:
    """X-power exponents in the Smith form of N + X*M; one tz summand each.
    (zt summands contribute unimodular factors there and stay invisible.)"""
    out = []
    for q in invariant_factors(_pencil_matrix(p.n, p.m, p.edge_dim, p.vertex_dim)):
        k = rp.x_order(q)
        if k:
            out.append(k)
    return tuple(sorted(out))


@dataclass(frozen=True)
class OracleReport:
    """Raw pencil data the record is assembled from."""

    left_minimal_indices: tuple[int, ...]
    right_minimal_indices: tuple[int, ...]
    finite_divisors: tuple[tuple[Poly, int], ...]
    infinite_divisors: tuple[int, ...]


def analyze(p: PairMatrices) -> OracleReport:
    rank = normal_rank(p)
    return OracleReport(
        minimal_indices_left(p, rank),
        minimal_indices_right(p, rank),
        finite_divisors(p),
        infinite_divisors(p),
    )


def _assemble_cycles(regular: list[tuple[Poly, int]]) -> tuple[int, ...] | None:
    """Match a multiset of (irreducible, exponent) against full divisor sets
    of X^n - 1, largest n first; None when they do not assemble."""
    if any(e != 1 for _, e in regular):
        return None
    indices: Counter[int] = Counter()
    for poly, _ in regular:
        d = rp.cyclotomic_index(poly)
        if d is None:
            return None
        indices[d] += 1
    cycles = []
    while indices:
        n = max(indices)
        needed = [d for d in range(1, n + 1) if n % d == 0]
        if any(indices[d] < 1 for d in needed):
            return None
        for d in needed:
            indices[d] -= 1
            if not indices[d]:
                del indices[d]
        cycles.append(n)
    return tuple(sorted(cycles))


def oracle_invariants(p: PairMatrices) -> InvariantRecord:
    """Assemble the full record from the pencil data and verify that it
    accounts for both matrix dimensions exactly."""
    report = analyze(p)
    ztz = Counter(report.left_minimal_indices)
    t = Counter(report.right_minimal_indices)
    zt: Counter[int] = Counter()
    regular: list[tuple[Poly, int]] = []
    for poly, e in report.finite_divisors:
        if poly == rp.X:
            zt[e] += 1
        else:
            regular.append((poly, e))
    tz = Counter(report.infinite_divisors)
    cycles = _assemble_cycles(regular)
    if cycles is not None:
        rec = InvariantRecord(dict(zt), dict(tz), dict(t), dict(ztz), cycles)
    else:
        rec = InvariantRecord(dict(zt), dict(tz), dict(t), dict(ztz), (),
                              tuple(regular))
    if rec.edge_total() != p.edge_dim or rec.vertex_total() != p.vertex_dim:
        raise DimensionMismatch(
            f"record accounts for {rec.edge_total()}x{rec.vertex_total()}, "
            f"pair is {p.edge_dim}x{p.vertex_dim}")
    return rec


def _regular_multiset(rec: InvariantRecord) -> Counter:
    if rec.regular_divisors is not None:
        return Counter(rec.regular_divisors)
    out: Counter = Counter()
    for d, mult in cyclotomic_refine(rec.cycles).divisors:
        out[(rp.cyclotomic(d), 1)] += mult
    return out


def compare(combinatorial: InvariantRecord, oracle: InvariantRecord) -> list[str]:
    """Field-by-field differences, with both regular parts split over the
    rationals first; empty means the records agree."""
    diffs = []
    for name in ("zt", "tz", "t", "ztz"):
        a, b = getattr(combinatorial, name), getattr(oracle, name)
        for n in sorted(set(a) | set(b)):
            if a.get(n, 0) != b.get(n, 0):
                diffs.append(f"{name}[{n}]: {a.get(n, 0)} != {b.get(n, 0)}")
    ra, rb = _regular_multiset(combinatorial), _regular_multiset(oracle)
    for key in sorted(set(ra) | set(rb)):
        if ra[key] != rb[key]:
            poly, e = key
            diffs.append(f"regular S(({rp.poly_str(poly)})^{e}): {ra[key]} != {rb[key]}")
    return diffs


# -- canonical single-summand pairs (used for calibration) --------------------


def _unit_rows(n: int, cols: int, shift: int) -> tuple[tuple[Fraction, ...], ...]:
    zero, one = Fraction(0), Fraction(1)
    return tuple(tuple(one if j == i + shift else zero for j in range(cols))
                 for i in range(n))


def canonical_pair(family: str, n: int) -> PairMatrices:
    """The canonical matrices of one indecomposable summand: families "zt",
    "tz" (nilpotent-plus-identity on K^n, n >= 1), "t" (K^n -> K^(n+1)),
    and "ztz" (K^(n+1) -> K^n)."""
    if family == "zt":
        if n < 1:
            raise ValueError("zt needs n >= 1")
        return PairMatrices(n, n, _unit_rows(n, n, 1), _unit_rows(n, n, 0))
    if family == "tz":
        if n < 1:
            raise ValueError("tz needs n >= 1")
        return PairMatrices(n, n, _unit_rows(n, n, 0), _unit_rows(n, n, 1))
    if family == "t":
        if n < 0:
            raise ValueError("t needs n >= 0")
        return PairMatrices(n, n + 1, _unit_rows(n, n + 1, 0), _unit_rows(n, n + 1, 1))
    if family == "ztz":
        if n < 0:
            raise ValueError("ztz needs n >= 0")
        return PairMatrices(n + 1, n, _unit_rows(n + 1, n, 0), _unit_rows(n + 1, n, -1))
    raise ValueError(f"unknown family {family!r}")


def regular_pair(poly: Poly, exponent: int = 1) -> PairMatrices:
    """The canonical pair of S(poly^exponent): multiplication by X on
    Q[X]/(poly^exponent) against the identity."""
    f = rp.ONE
    for _ in range(exponent):
        f = rp.mul(f, rp.monic(poly))
    k = rp.deg(f)
    zero, one = Fraction(0), Fraction(1)
    rows = []
    for i in range(k):
        if i + 1 < k:
            rows.append(tuple(one if j == i + 1 else zero for j in range(k)))
        else:
            rows.append(tuple(-f[j] for j in range(k)))
    return PairMatrices(k, k, tuple(rows), _unit_rows(k, k, 0))
