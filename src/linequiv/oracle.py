"""Independent verification path: the same multiplicity record, computed from
the raw matrix pair by exact linear algebra.

No contractions are used anywhere here.  The pair (M, N) is analyzed as the
pencil M + X*N, and every count in the record is read off exact ranks of
sparse integer matrices built from M and N.  One kernel ranks each block
sequence T_1, T_2, ... of the pair (`_ranks`), and one reader, `_multiset`,
turns the saturated nullities of T_k into a multiset:

  * the minimal indices, from row solutions x(t)(M + tN) = 0 of degree
    < k: ztz, and t on the transposed pair;
  * the local Jordan type at s = 0 of A + s*B, from truncated block
    Toeplitz T_k: (A, B) = (M, N) gives zt, and (N, M) gives tz.

The normal rank r is one sample s = rank(M + 2N) that the ztz nullities
certify.  A stored divisor S(Phi_d^n) of the regular part is a Jordan
block of size n at each pencil eigenvalue X = -zeta, zeta a primitive d-th
root of unity: ranks of M - zeta*N, lifted to Q by the companion matrix of
Phi_d, count those blocks for d = 1, 2, ... until they fill the regular
degree (from d = 2 on, a rank modulo a prime rules most d out first), and
the lifted local type gives their sizes when needed.

Each rank comes from the pair as `PairMatrices` holds it: its ends on a
unit-row pair, else its integer rows.  `analyze` reads the pair once, in
`_basis`, which takes a row basis of [M N], at most 2v of the rows,
picks the kernel that ranks the block sequences by whether the pair has
ends, and keeps the basis in that kernel's form.  Every stage reads that
basis, and no stage reads the e rows.

On a unit-row pair, where each row of M and of N holds at most one
nonzero entry, a 1 (graph pairs and `canonical_pair`), every T_k above is
totally unimodular, so its rank is the same over every field (README,
"Field independence").  Over F_2 each T_k has at most two 1s per row, so
its rank is that of a graph: the number of rows that join two trees of a
forest on its columns and a ground.  Such a pair carries each row's two
ends, the column of m's 1 and of n's 1, which for a graph are its edge
ids, so no dict row of it is made: `echelon.forest_rows` takes the basis
off the ends, and one union-find per sequence (`echelon.forest_ranks`)
ranks T_1, T_2, ... from the basis ends.  The
sample M + 2N and the lift at d = 1, M - N itself, are ranks of gain
graphs on the same ends, each basis row x_a + c*x_b an edge a -> b of
gain -c, which one union-find counts for both (`echelon.winding_rank`,
c = 2 and c = -1).  The rows of M - N hold at most a 1 and a -1: a
signed incidence matrix, totally unimodular as well (Schrijver, ch. 19),
so every cycle is balanced and its rank is a graph's.  The sample is a
hint: only s = e skips the nullity sequence, and that value is taken
again over Q; any s <= r gives the same report, and r < s < e leaves a
nullity sequence unsaturated, which raises (`_left_indices`).  Any other
pair's sequences and sample are eliminated over Q
(`echelon.echelon_ranks`), and so are, for every pair, the roots of
unity from d = 2 on, fraction-free, or modulo a prime for a screen.  On
a unit-row pair those stages over Q read integer rows made from the
basis ends (`_basis_rows`), only when they run.  Nothing touches
floating point.

The regular part of a graph pair is cyclotomic, so graphs never go further.
Only a residue the cyclotomic scan leaves, possible on matrix input, falls
back to the Smith normal form of M + X*N over Q[X] and factors it.
Divisors are reported in the convention where a single loop edge yields
S(X - 1): a pencil factor q gives the stored polynomial monic(q(-X)).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field

from . import ratpoly as rp
from .echelon import (Echelon, SparseRow, echelon_ranks, forest_ranks, forest_rows,
                      prime_and_root, rank_of_rows, winding_rank)
from .invariants import InvariantRecord, cyclotomic_refine
from .linearize import PairMatrices, integer_row, rows_of_ends
from .ratpoly import Poly
# OracleFactorError stays importable from here: callers catch it as part of the oracle
from .smith import OracleFactorError, factor_stored, invariant_factors, pencil_matrix


def _pencil_rows(rows, c: int) -> list[SparseRow]:
    """The rows of M + c*N; entries that cancel stay as zeros."""
    return [{j: m.get(j, 0) + c * n.get(j, 0) for j in m.keys() | n.keys()} for m, n in rows]


def _basis(p: PairMatrices) -> tuple[list, object]:
    """The pair as every stage reads it: a basis of R = rowspace([M N])
    among its rows, at most 2v of them, in the form its kernel reads; and
    that kernel, `forest_ranks` or `echelon_ranks`.

    The basis stands in for the e rows: each row of every matrix ranked
    here (a row block of a T_k in `_ranks`, M + 2N, a lift of M - zeta*N
    and its local type's T_k) is a fixed linear image of one row (m, n) of
    [M N], so its row space is a sum of linear images of R, which the basis
    spans as the e rows do.  Only the counts k*e of the nullities read e.

    On a unit-row pair, whose `ends` are set, the form is each row's ends,
    (the column of m's 1, the column of n's 1) with None for an empty side,
    and the basis is the rows that join two trees of T_1 = [M N] as a
    graph: independent over Q too, and as many as its rank over Q, since
    [M N] is totally unimodular.  Else the form is the integer rows
    themselves, and the basis the rows that become pivots as [M N] is
    eliminated over Q."""
    v, ends = p.vertex_dim, p.ends
    if ends is not None:
        return [ends[i] for i in forest_rows(ends, v)], forest_ranks
    echelon = Echelon()
    return [(m, n) for m, n in p.rows
            if echelon.add({**m, **{v + j: x for j, x in n.items()}})], echelon_ranks


def _basis_rows(basis) -> list:
    """`_basis`'s basis as integer rows (m, n), which the stages over Q
    read: on a unit-row pair made from the basis ends, each time such a
    stage runs."""
    form, kernel = basis
    return form if kernel is echelon_ranks else list(rows_of_ends(form))


# each family's T_k as a kernel's flags (reversed, truncated, grounded) on
# the pair's rows (m, n), or (n, m) when reversed: t's T_k is the transpose
# of the transposed pair's, whose row block j = -1 holds M at column block 0
_FAMILIES = {"ztz": (False, False, False), "zt": (False, True, False),
             "tz": (True, True, False), "t": (True, True, True)}


def _ranks(basis, family: str, v: int) -> Iterator[int]:
    """rank T_1, T_2, ... of the block sequence of `family`, "ztz", "t",
    "zt" or "tz", read by the basis's kernel from its form; over F_2 that
    is exact by total unimodularity (README, "Field independence")."""
    form, kernel = basis
    reverse, truncated, grounded = _FAMILIES[family]
    return kernel([(y, x) for x, y in form] if reverse else form, v, truncated, grounded)


def _solution_space_dims(ranks, e: int, v: int, total: int) -> list[int]:
    """f(k) = dimension of row vectors x(t) of degree < k with x(t)(M + tN)
    = 0, for a pair of e rows and v columns, from `ranks`, which yields
    rank T_k for k = 1, 2, ...; stops once an increment reaches `total`,
    or at k = min(e, v) + 2.

    f(k) = k*e - rank T_k, where row block j < k of T_k is [M N] at column
    blocks j and j + 1."""
    f = [0]
    for k, rank in zip(range(1, min(e, v) + 3), ranks):
        f.append(k * e - rank)
        if f[-1] - f[-2] == total:
            break
    return f


def _multiset(f: list[int]) -> tuple[int, ...]:
    """The multiset of a saturated sequence f(k) = sum of max(0, k - n)
    over its members n: n occurs as often as the second difference of f
    at n, and the last increment counts them all.  The second differences
    telescope to the last increment minus f(0), so once each is
    nonnegative, that count holds exactly when f(0) = 0."""
    if f[0]:
        raise AssertionError(f"nullity sequence starts at {f[0]}, not 0")
    out = []
    for d in range(len(f) - 1):
        mult = f[d + 1] - 2 * f[d] + (f[d - 1] if d else 0)
        if mult < 0:
            raise AssertionError("nullity sequence is not concave")
        out.extend([d] * mult)
    return tuple(out)


def _left_indices(basis, e: int, v: int) -> tuple[int, ...]:
    """`minimal_indices_left` from `_basis`'s basis of the pair's e rows:
    the sample s = rank(M + 2N) reads the basis, since the rows of M + 2N
    are the images of its rows (x, y) under (x, y) -> x + 2y, and the
    nullities read its form.  On a unit-row pair `echelon.winding_rank`
    reads s off the basis ends, and s = e, the one value that skips the
    nullity sequence, is taken again over Q from the integer rows; any
    other pair's s is eliminated over Q.  So no report rests on the
    winding argument: any s <= r gives the same multiset (`normal_rank`),
    and r < s < e leaves a nullity sequence unsaturated, here, in
    `_right_indices` or in `_local_type`, which raises."""
    form, kernel = basis
    sample = winding_rank(form, v, 2) if kernel is forest_ranks else e
    if sample == e:
        sample = rank_of_rows(_pencil_rows(_basis_rows(basis), 2))
    if sample == e:
        return ()
    f = _solution_space_dims(_ranks(basis, "ztz", v), e, v, e - sample)
    last = f[-1] - f[-2]
    if last > e - sample or (last < e - sample and last != f[-2] - f[-3]):
        raise AssertionError("row solution dimensions failed to saturate")
    return _multiset(f)


def minimal_indices_left(p: PairMatrices) -> tuple[int, ...]:
    """Degrees of a minimal basis of polynomial row solutions of
    x(t)(M + tN) = 0; one ztz summand per index.  Their nullity sequence
    also certifies the normal rank; see `normal_rank`."""
    return _left_indices(_basis(p), p.edge_dim, p.vertex_dim)


def normal_rank(p: PairMatrices) -> int:
    """Rank r of M + t*N over the rational function field: e minus the
    number of left minimal indices.

    `minimal_indices_left` takes one sample s = rank(M + 2N) <= r, then the
    left nullity sequence f.  By the predictable-degree property of minimal
    bases, f(k) - f(k-1) counts the left minimal indices below k, so it is
    at most e - r, and an increment e - s proves r = s.  If 2 is an
    eigenvalue, f runs on to k = min(e, v) + 2, past every minimal index
    (their sum is at most r), where the increment is e - r.  A graph pencil
    has eigenvalues only at 0 and at -zeta, zeta a root of unity: never 2.
    So any s <= r gives r, and only s = e, where no f runs, must be exact:
    on a unit-row pair s comes from `echelon.winding_rank`, and s = e is
    taken again over Q."""
    return p.edge_dim - len(minimal_indices_left(p))


def _right_indices(basis, e: int, v: int, rank: int) -> tuple[int, ...]:
    """`minimal_indices_right` from `_basis`'s basis and the normal `rank`,
    which the transposed pair shares."""
    total = v - rank
    if total == 0:
        return ()
    f = _solution_space_dims(_ranks(basis, "t", v), v, e, total)
    if f[-1] - f[-2] != total:
        raise AssertionError("row solution dimensions failed to saturate")
    return _multiset(f)


def minimal_indices_right(p: PairMatrices) -> tuple[int, ...]:
    """Column-side analogue of `minimal_indices_left`; one t summand per
    index."""
    e, v, basis = p.edge_dim, p.vertex_dim, _basis(p)
    return _right_indices(basis, e, v, e - len(_left_indices(basis, e, v)))


# -- local Jordan types ---------------------------------------------------------


def _local_type(ranks, v: int, rank: int) -> tuple[int, ...]:
    """Sizes of the Jordan blocks of a pencil A + s*B with v columns at
    s = 0, i.e. the exponents of its elementary divisors s^n, from `ranks`,
    which yields rank T_k for k = 1, 2, ...; `rank` is its normal rank.

    T_k is the truncated block Toeplitz matrix whose row block j < k holds A
    in column block j and B in column block j + 1 (when j + 1 < k); its left
    kernel is the row solutions of x(s)(A + sB) = 0 modulo s^k.  So, for e
    rows, h(k) = (k*e - rank T_k) - k*(e - rank) = k*rank - rank T_k is the
    sum of min(n, k) over the blocks, at most v in all, and k*h(1) - h(k),
    the sum of max(0, k - n), is the shape `_multiset` reads."""
    h = [0]
    for k, rank_k in zip(range(1, v + 2), ranks):
        h.append(k * rank - rank_k)
        if h[-1] == h[-2]:
            break
    else:
        raise AssertionError("local Jordan chains failed to saturate")
    return _multiset([k * h[1] - x for k, x in enumerate(h)])


# -- the regular part: roots of unity -------------------------------------------


def _screen_clears(rows, rank: int, d: int) -> bool:
    """True when M - zeta*N has rank `rank` over F_p, for p and zeta from
    `prime_and_root(d)`, read from integer rows (m, n) that span the same
    rational row space as those of [M N], such as `_basis`'s.  Their
    images x - zeta_d*y span the row space of M - zeta_d*N over Q(zeta_d).
    A rank cannot rise under the ring map Z[zeta_d] -> F_p that sends
    zeta_d to zeta, and cannot exceed the normal rank, so then M - zeta_d*N
    has full rank `rank` and -zeta_d is no eigenvalue.  A lower rank proves
    nothing."""
    p, zeta = prime_and_root(d)
    return rank_of_rows(_pencil_rows(rows, -zeta), p) == rank


def _lift(rows, d: int) -> list[SparseRow]:
    """The rows of M (x) I - N (x) C, where C is the companion matrix of
    Phi_d: M - zeta_d*N over Q(zeta_d), written over Q.  Every rank over
    Q(zeta_d) becomes phi(d) times as large."""
    coeffs = [int(c) for c in rp.cyclotomic(d)]
    phi = len(coeffs) - 1
    companion = [{a + 1: 1} for a in range(phi - 1)]
    companion.append({b: -c for b, c in enumerate(coeffs[:-1]) if c})
    out = []
    for m, n in rows:
        for a in range(phi):
            row = {j * phi + a: x for j, x in m.items()}
            for j, x in n.items():
                for b, c in companion[a].items():
                    key = j * phi + b
                    new = row.get(key, 0) - x * c
                    if new:
                        row[key] = new
                    else:
                        row.pop(key, None)
            out.append(row)
    return out


def _cyclotomic_blocks(basis, v: int, rank: int, degree: int) -> list[tuple[int, int]] | None:
    """One (d, n) per Jordan block of size n at the pencil eigenvalues -zeta,
    zeta a primitive d-th root of unity; None when blocks at roots of unity
    leave part of the regular `degree` unaccounted for.

    `basis` is `_basis`'s, whose integer rows the lifts read in place of the
    e rows; the local type's h(k) = k*rank - rank T_k does not read their
    number.

    First, one lifted rank per d counts the blocks at d: phi(d) times their
    number is rank*phi(d) minus the rank of the lift of M - zeta_d*N.  For
    d >= 2 a rank modulo a prime screens d first.  At d = 1 the lift is
    M - N itself, so the screen would cost as much as the rank, and on a
    graph pair with a cycle X - 1 always divides, so it would never clear.
    Where the basis is ranked over F_2, `winding_rank(form, v, -1)` takes
    that rank on the basis ends, a row (a, b) as an edge a - b: each row of
    M - N holds at most a 1 and a -1, which cancel on a loop, so M - N is a
    signed incidence matrix, totally unimodular, whose gain graph has no
    unbalanced cycle, and its rank is the same over every field.
    M + N at d = 2 is not (an odd cycle gives determinant 2), and the lifts
    for d >= 3 are not incidence matrices, so they stay over Q.  The scan
    runs while phi(d) fits in the degree not yet counted, up to the bound
    2*deg^2 + 6 past which phi(d) > deg.  If phi(d) times the counts fills
    the degree, every block has size 1, as it always does for graphs
    (X^k - 1 is squarefree).  Otherwise the lifted local type gives the
    sizes at each d found whose phi(d) fits in the degree still left, since
    a block of size n adds (n - 1)*phi(d) beyond its count.  The local type
    is this second pass, and not the scan itself, because its T_2 costs far
    more than one rank: 20 times as much on the 37-cycle at d = 37.  Blocks
    beyond the regular degree are an error.  The scan stops once the degree
    is filled, so it cannot see blocks the degree leaves no room for."""
    form, kernel = basis
    # the basis's integer rows; a unit-row basis's are made when d = 2 needs them
    rows = form if kernel is echelon_ranks else None
    found: dict[int, int] = {}
    left = degree
    d = 1
    while left > 0 and d <= 2 * left * left + 6:
        phi = rp.totient(d)
        if phi <= left:
            if rows is None and d > 1:
                rows = _basis_rows(basis)
            if d == 1 or not _screen_clears(rows, rank, d):
                lifted = (winding_rank(form, v, -1) if rows is None
                          else rank_of_rows(_lift(rows, d)))
                count, rest = divmod(phi * rank - lifted, phi)
                if rest or count < 0:
                    raise AssertionError(f"lifted rank at d={d} is not a multiple of phi(d)")
                if count:
                    found[d] = count
                    left -= phi * count
        d += 1
    blocks = []
    for d, count in found.items():
        phi = rp.totient(d)
        if phi > left:  # a block of size n > 1 at d would add (n - 1)*phi(d)
            blocks += [(d, 1)] * count
        else:  # left >= phi(d) >= 1, so the scan made the rows at d = 2
            lifted_n = [{j * phi + a: x for j, x in n.items()} for _, n in rows for a in range(phi)]
            ranks = echelon_ranks(list(zip(_lift(rows, d), lifted_n)), v * phi, truncated=True)
            sizes = Counter(_local_type(ranks, v * phi, rank * phi))
            if any(mult % phi for mult in sizes.values()) or sum(sizes.values()) != phi * count:
                raise AssertionError(f"lifted Jordan type at d={d} is not {phi} equal copies")
            blocks += [(d, n) for n, mult in sizes.items() for _ in range(mult // phi)]
    left = degree - sum(rp.totient(d) * n for d, n in blocks)
    if left < 0:
        raise AssertionError(f"regular degree: roots of unity carry more than {degree}")
    return blocks if left == 0 else None


# -- the report -------------------------------------------------------------------


@dataclass(frozen=True)
class OracleReport:
    """Raw pencil data the record is assembled from.  cyclotomic_blocks
    holds one (d, n) per regular divisor S(Phi_d^n), as the rank route's
    scan found it; it is None after the Smith fallback, whose regular part
    is not all cyclotomic."""

    left_minimal_indices: tuple[int, ...]
    right_minimal_indices: tuple[int, ...]
    finite_divisors: tuple[tuple[Poly, int], ...]
    infinite_divisors: tuple[int, ...]
    cyclotomic_blocks: tuple[tuple[int, int], ...] | None = field(compare=False)


def analyze(p: PairMatrices) -> OracleReport:
    """Minimal indices, the divisors of M + X*N and the X-powers of N + X*M,
    all from exact ranks; see the module docstring."""
    e, v = p.edge_dim, p.vertex_dim
    basis = _basis(p)
    left = _left_indices(basis, e, v)
    rank = e - len(left)
    right = _right_indices(basis, e, v, rank)
    zt = _local_type(_ranks(basis, "zt", v), v, rank)
    tz = _local_type(_ranks(basis, "tz", v), v, rank)
    degree = v - sum(zt) - sum(tz) - sum(n + 1 for n in right) - sum(left)
    if degree < 0:
        raise AssertionError(f"regular degree: singular and nilpotent parts exceed {v} vertices")
    blocks = _cyclotomic_blocks(basis, v, rank, degree)
    if blocks is None:  # the fallback: the divisors of M + X*N from its Smith form, factored
        finite = tuple(sorted(factor for q in invariant_factors(pencil_matrix(p.rows, v))
                              for factor in factor_stored(q)))
        if sorted(n for poly, n in finite if poly == rp.X) != sorted(zt):
            raise AssertionError("Smith form and local ranks disagree on zt")
        return OracleReport(left, right, finite, tuple(sorted(tz)), None)
    finite = tuple(sorted([(rp.X, n) for n in zt] + [(rp.cyclotomic(d), n) for d, n in blocks]))
    return OracleReport(left, right, finite, tuple(sorted(tz)), tuple(blocks))


def _assemble_cycles(blocks: tuple[tuple[int, int], ...] | None) -> tuple[int, ...] | None:
    """Match a multiset of (d, exponent), one per divisor S(Phi_d^n),
    against full divisor sets of X^n - 1, largest n first; None when they
    do not assemble, or for None, which the Smith fallback reports."""
    if blocks is None or any(e != 1 for _, e in blocks):
        return None
    indices = Counter(d for d, _ in blocks)
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
    accounts for both matrix dimensions exactly.

    On the rank route both counts close by construction: the regular degree
    is v minus the other parts, and the normal rank fixes the numbers of t
    and ztz summands, which pins the edge count.  So the check below
    compares two independent computations only after the Smith fallback.
    On the rank route the checks are the cyclotomic scan's: a degree found
    beyond the regular degree raises AssertionError, and a shortfall
    takes the Smith route, where the check below then applies.  A regular
    degree that is too small (zt, tz or a minimal index overcounted) goes
    unseen when the blocks found first fill it: scanned with degree 4, the
    6-cycle gives the blocks at d = 1, 2, 3 and drops Phi_6."""
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
    cycles = _assemble_cycles(report.cyclotomic_blocks)
    if cycles is not None:
        rec = InvariantRecord(dict(zt), dict(tz), dict(t), dict(ztz), cycles)
    else:
        rec = InvariantRecord(dict(zt), dict(tz), dict(t), dict(ztz), (),
                              tuple(regular))
    rec.check_dimensions(p.edge_dim, p.vertex_dim)
    return rec


def _regular_multiset(rec: InvariantRecord) -> Counter:
    if rec.regular_divisors is not None:
        return Counter(rec.regular_divisors)
    out: Counter = Counter()
    for d, mult in cyclotomic_refine(rec.cycles):
        out[(rp.cyclotomic(d), 1)] += mult
    return out


def compare(combinatorial: InvariantRecord, oracle: InvariantRecord) -> list[str]:
    """Field-by-field differences, with both regular parts split over the
    rationals first; empty means the records agree.  Equal cycles, on two
    records that both carry cycles, are equal regular parts, so they need
    no split."""
    diffs = []
    for name in ("zt", "tz", "t", "ztz"):
        a, b = getattr(combinatorial, name), getattr(oracle, name)
        for n in sorted(set(a) | set(b)):
            if a.get(n, 0) != b.get(n, 0):
                diffs.append(f"{name}[{n}]: {a.get(n, 0)} != {b.get(n, 0)}")
    if combinatorial.regular_divisors is None is oracle.regular_divisors and (
            combinatorial.cycles == oracle.cycles):
        return diffs
    ra, rb = _regular_multiset(combinatorial), _regular_multiset(oracle)
    for key in sorted(set(ra) | set(rb)):
        if ra[key] != rb[key]:
            poly, e = key
            diffs.append(f"regular S(({rp.poly_str(poly)})^{e}): {ra[key]} != {rb[key]}")
    return diffs


# -- canonical single-summand pairs (used for calibration) --------------------


# each family's 1s in row i of its canonical pair: M's at column i + the
# first shift and N's at column i + the second, where that column exists
_SHIFTS = {"zt": (1, 0), "tz": (0, 1), "t": (0, 1), "ztz": (0, -1)}


def canonical_pair(family: str, n: int) -> PairMatrices:
    """The canonical matrices of the summand `family`[n], for family "zt",
    "tz", "t" or "ztz", sized by `InvariantRecord.dimensions`; building
    that record rejects an index below the family's least one."""
    if family not in _SHIFTS:
        raise ValueError(f"unknown family {family!r}")
    e, v = InvariantRecord(**{family: {n: 1}}).dimensions()
    m_shift, n_shift = _SHIFTS[family]
    return PairMatrices(e, v, tuple(({i + m_shift: 1} if 0 <= i + m_shift < v else {},
                                     {i + n_shift: 1} if 0 <= i + n_shift < v else {})
                                    for i in range(e)))


def regular_pair(poly: Poly, exponent: int = 1) -> PairMatrices:
    """The canonical pair of S(poly^exponent): multiplication by X on
    Q[X]/(poly^exponent) against the identity."""
    f = rp.ONE
    for _ in range(exponent):
        f = rp.mul(f, rp.monic(poly))
    k = rp.deg(f)
    return PairMatrices(k, k, tuple(
        integer_row({i + 1: 1} if i + 1 < k else {j: -c for j, c in enumerate(f[:k]) if c}, {i: 1})
        for i in range(k)))
