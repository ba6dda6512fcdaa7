"""Independent verification path: the same multiplicity record, computed from
the raw matrix pair by exact linear algebra.

No contractions are used anywhere here.  The pair (M, N) is analyzed as the
pencil M + X*N, and every count in the record is read off exact ranks of
sparse integer matrices built from M and N.  One routine, `_eliminations`,
grows a block matrix T_k a block per k in one elimination, and one reader,
`_multiset`, turns the saturated nullities of T_k into a multiset:

  * the minimal indices, from row solutions x(t)(M + tN) = 0 of degree
    < k: ztz, and t on the transposed pair;
  * the local Jordan type at s = 0 of A + s*B, from truncated block
    Toeplitz T_k: (A, B) = (M, N) gives zt, and (N, M) gives tz.

The normal rank r is one sample rank(M + 2N) that the ztz nullities
certify.  A stored divisor S(Phi_d^n) of the regular part is a Jordan
block of size n at each pencil eigenvalue X = -zeta, zeta a primitive d-th
root of unity: ranks of M - zeta*N, lifted to Q by the companion matrix of
Phi_d, count those blocks for d = 1, 2, ... until they fill the regular
degree (from d = 2 on, a rank modulo a prime rules most d out first), and
the lifted local type gives their sizes when needed.

Each rank comes from exact elimination on the pair's integer rows,
`PairMatrices.rows`, the pair's only stored form.  `analyze` reads them
once, in `_shape`: it decides whether the pair is unit-row (below) and
writes its rows, and its columns of M and of N, in the form the
eliminations read, and every stage takes them from there.  T_1 = [M N]
gives a row basis of at most 2v of the rows (`_row_basis`, as indices),
which the sample, the ztz nullities and the roots of unity read instead
of the e rows: each of their matrices has a row space that is a sum of
linear images of rowspace([M N]), so the basis spans it too, and only the
counts k*e of the nullities read e.  The column side feeds the v columns
to its nullities directly: on a graph pair they are nearly always
independent, so a basis would cost one more elimination and save none.
The local types read the columns too.

On a unit-row pair, where each row of M and of N holds at most one
nonzero entry, a 1 (graph pairs and `canonical_pair`), every T_k above is
totally unimodular, so its rank is the same over every field (README,
"Field independence").  `_shape` then writes each row and each column as
a pair of int bitmasks, in one pass over the rows, and T_1 and the
nullity sequences of ztz, t, zt and tz are eliminated over F_2 from those
ints, in a window of two column blocks (`echelon.bit_eliminations`); the
rows that become F_2 pivots of T_1 are independent over Q too.  The lift
at d = 1 is M - N itself, whose rows hold at most a 1 and a -1: a signed
incidence matrix, totally unimodular as well (Schrijver, ch. 19), so on a
unit-row pair it is ranked over F_2 too, each row the xor of a basis
row's two masks.  Any other pair keeps its dict rows and their sparse
transpose, and it, and the sample and the roots of unity from d = 2 on
for every pair, are eliminated over Q, fraction-free, or modulo a prime
for a screen.  Nothing touches floating point.

The regular part of a graph pair is cyclotomic, so graphs never go further.
Only a residue the cyclotomic scan leaves, possible on matrix input, falls
back to the Smith normal form of M + X*N over Q[X] and factors it.
Divisors are reported in the convention where a single loop edge yields
S(X - 1): a pencil factor q gives the stored polynomial monic(q(-X)).
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field

from . import ratpoly as rp
from .echelon import (BitEchelon, Echelon, SparseRow, bit_eliminations, prime_and_root,
                      rank_of_rows)
from .invariants import InvariantRecord, cyclotomic_refine
from .linearize import PairMatrices, integer_row
from .ratpoly import Poly
# OracleFactorError stays importable from here: callers catch it as part of the oracle
from .smith import OracleFactorError, factor_stored, invariant_factors, pencil_matrix


def _columns(rows: list[SparseRow], cols: int) -> list[SparseRow]:
    out: list[SparseRow] = [{} for _ in range(cols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = x
    return out


def _transpose(p: PairMatrices) -> tuple[list[SparseRow], list[SparseRow]]:
    """The columns of M and of N from `p.rows`: the transposed pair's rows
    times an invertible diagonal matrix on the right, which changes no rank."""
    return (_columns([m for m, _ in p.rows], p.vertex_dim),
            _columns([n for _, n in p.rows], p.vertex_dim))


def _pencil_rows(rows, c: int) -> list[SparseRow]:
    """The rows of M + c*N; entries that cancel stay as zeros."""
    return [{j: m.get(j, 0) + c * n.get(j, 0) for j in m.keys() | n.keys()} for m, n in rows]


def _unit_rows(rows) -> bool:
    """True when every row of M and of N holds at most one nonzero entry,
    a 1: then every T_k below, and M - N, are totally unimodular, so their
    ranks over F_2 are their ranks over Q."""
    return all(not row or list(row.values()) == [1] for pair in rows for row in pair)


def _shape(p: PairMatrices) -> tuple[list, list]:
    """The pair's rows (m, n) and its columns, (column of M, column of N)
    per vertex, as the eliminations below read them.  On a unit-row pair
    each is an int bitmask, bit j of a row for column j and bit i of a
    column for row i, all written in one pass over `p.rows`, and they are
    ranked over F_2; else they are the dict rows and the sparse transpose,
    ranked over Q."""
    if not _unit_rows(p.rows):
        return p.rows, list(zip(*_transpose(p)))
    rows, m_cols, n_cols = [], [0] * p.vertex_dim, [0] * p.vertex_dim
    for i, (m, n) in enumerate(p.rows):
        x = y = 0
        for j in m:
            x = 1 << j
            m_cols[j] |= 1 << i
        for j in n:
            y = 1 << j
            n_cols[j] |= 1 << i
        rows.append((x, y))
    return rows, list(zip(m_cols, n_cols))


def _bits(pairs) -> bool:
    """True for pairs of bitmasks from `_shape`, which are ranked over F_2."""
    return bool(pairs) and isinstance(pairs[0][0], int)


def _eliminations(pairs, width: int, shift: int) -> Iterator[Echelon | BitEchelon]:
    """One elimination of the block matrices T_1, T_2, ..., yielded after
    each block: row block j of T_k (j < k) holds one row per pair (x, y),
    x at column block j and y at column block j + shift (left out below
    block 0), in column blocks `width` wide.  T_k is T_(k-1) plus block
    k - 1, so every k reads the same elimination.  For bitmask pairs, and
    shift +1 or -1, it runs over F_2."""
    if _bits(pairs):
        yield from bit_eliminations(pairs, width, shift)
        return
    echelon = Echelon()
    for j in itertools.count():
        x_at, y_at, with_y = j * width, (j + shift) * width, j + shift >= 0
        for x, y in pairs:
            row = {x_at + c: a for c, a in x.items()} if j else dict(x)
            if with_y:
                for c, b in y.items():
                    row[y_at + c] = b
            if row:
                echelon.add(row)
        yield echelon


def _row_basis(pairs, v: int) -> list[int]:
    """The indices of a basis of R = rowspace([M N]) among the rows (m, n),
    in `_shape`'s form, of a pair with v columns: the rows that become
    pivots as T_1 = [M N] is eliminated, over F_2 for bitmasks (they are
    independent over Q too, and as many as the rank over Q, since [M N] is
    totally unimodular), else over Q.  At most 2v rows, however many rows
    come in."""
    bits = _bits(pairs)
    echelon = BitEchelon() if bits else Echelon()
    return [i for i, (m, n) in enumerate(pairs)
            if echelon.add(m | n << v if bits else {**m, **{v + j: x for j, x in n.items()}})]


def _solution_space_dims(basis, e: int, v: int, total: int) -> list[int]:
    """f(k) = dimension of row vectors x(t) of degree < k with x(t)(M + tN)
    = 0, for a pair of e rows and v columns whose [M N] has the row basis
    `basis`, and k = 0..; stops once an increment reaches `total`, or at
    k = min(e, v) + 2.

    f(k) = k*e - rank T_k, where row block j < k of T_k is [M N] at column
    blocks j and j + 1.  So rowspace(T_k) is the sum of the row spaces of
    [M N] shifted by j*v, and the basis shifted block by block spans it as
    the e rows do; only k*e counts the rows themselves."""
    f = [0]
    for k, echelon in zip(range(1, min(e, v) + 3), _eliminations(basis, v, 1)):
        f.append(k * e - echelon.rank)
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


def _left_indices(p: PairMatrices, rows, basis: list[int]) -> tuple[int, ...]:
    """`minimal_indices_left` from the pair's `rows` in `_shape`'s form and
    the indices of their row basis, which both stages read in place of the
    e rows: the sample reads the basis rows of `p.rows`, since the rows of
    M + 2N are their images under (x, y) -> x + 2y, and the nullities read
    them in `rows`; `_solution_space_dims` says why the basis stands in
    for the e rows there."""
    e = p.edge_dim
    sample = rank_of_rows(_pencil_rows([p.rows[i] for i in basis], 2))
    if sample == e:
        return ()
    f = _solution_space_dims([rows[i] for i in basis], e, p.vertex_dim, e - sample)
    last = f[-1] - f[-2]
    if last > e - sample or (last < e - sample and last != f[-2] - f[-3]):
        raise AssertionError("row solution dimensions failed to saturate")
    return _multiset(f)


def minimal_indices_left(p: PairMatrices) -> tuple[int, ...]:
    """Degrees of a minimal basis of polynomial row solutions of
    x(t)(M + tN) = 0; one ztz summand per index.  Their nullity sequence
    also certifies the normal rank; see `normal_rank`."""
    rows, _ = _shape(p)
    return _left_indices(p, rows, _row_basis(rows, p.vertex_dim))


def normal_rank(p: PairMatrices) -> int:
    """Rank r of M + t*N over the rational function field: e minus the
    number of left minimal indices.

    `minimal_indices_left` takes one sample s = rank(M + 2N) <= r, then the
    left nullity sequence f.  By the predictable-degree property of minimal
    bases, f(k) - f(k-1) counts the left minimal indices below k, so it is
    at most e - r, and an increment e - s proves r = s.  If 2 is an
    eigenvalue, f runs on to k = min(e, v) + 2, past every minimal index
    (their sum is at most r), where the increment is e - r.  A graph pencil
    has eigenvalues only at 0 and at -zeta, zeta a root of unity: never 2."""
    return p.edge_dim - len(minimal_indices_left(p))


def _right_indices(cols, e: int, v: int, rank: int) -> tuple[int, ...]:
    """`minimal_indices_right` from the pair's columns in `_shape`'s form,
    the v rows of the transposed pair, and its normal `rank`, which the
    transposed pair shares.  Those rows span their own row space, so they
    stand in for a basis in `_solution_space_dims`."""
    total = v - rank
    if total == 0:
        return ()
    f = _solution_space_dims(cols, v, e, total)
    if f[-1] - f[-2] != total:
        raise AssertionError("row solution dimensions failed to saturate")
    return _multiset(f)


def minimal_indices_right(p: PairMatrices) -> tuple[int, ...]:
    """Column-side analogue of `minimal_indices_left`; one t summand per
    index."""
    return _right_indices(_shape(p)[1], p.edge_dim, p.vertex_dim, normal_rank(p))


# -- local Jordan types ---------------------------------------------------------


def _local_type(cols, e: int, rank: int) -> tuple[int, ...]:
    """Sizes of the Jordan blocks of the e-row pencil A + s*B at s = 0, i.e.
    the exponents of its elementary divisors s^n, from its columns, one
    pair (column of A, column of B) each, dicts or `_shape`'s bitmasks;
    `rank` is its normal rank.

    T_k is the truncated block Toeplitz matrix whose row block j < k holds A
    in column block j and B in column block j + 1 (when j + 1 < k); its left
    kernel is the row solutions of x(s)(A + sB) = 0 modulo s^k.  So
    h(k) = (k*e - rank T_k) - k*(e - rank) = k*rank - rank T_k is the sum
    of min(n, k) over the blocks, and k*h(1) - h(k), the sum of
    max(0, k - n), is the shape `_multiset` reads.  Column block j of T_k
    touches only row blocks j - 1 and j, so T_k's columns are fed as rows
    to `_eliminations`, shift -1."""
    h = [0]
    for k, echelon in zip(range(1, len(cols) + 2), _eliminations(cols, e, -1)):
        h.append(k * rank - echelon.rank)
        if h[-1] == h[-2]:
            break
    else:
        raise AssertionError("local Jordan chains failed to saturate")
    return _multiset([k * h[1] - x for k, x in enumerate(h)])


# -- the regular part: roots of unity -------------------------------------------


def _screen_clears(rows, rank: int, d: int) -> bool:
    """True when M - zeta*N has rank `rank` over F_p, for p and zeta from
    `prime_and_root(d)`, read from integer rows (m, n) that span the same
    rational row space as those of [M N], such as its row basis.  Their
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


def _cyclotomic_blocks(rows, v: int, rank: int, degree: int,
                       pairs=()) -> list[tuple[int, int]] | None:
    """One (d, n) per Jordan block of size n at the pencil eigenvalues -zeta,
    zeta a primitive d-th root of unity; None when blocks at roots of unity
    leave part of the regular `degree` unaccounted for.

    `rows` are integer rows (m, n) that span rowspace([M N]): the pair's
    own, or its row basis, which `analyze` passes, with the same rows in
    `_shape`'s form as `pairs`.  Each lifted row is a fixed Q-linear map of
    one (m, n), and each row of a lifted T_k a fixed linear map of a lifted
    row, so every rank below is the same from any spanning rows, and the
    local type's h(k) = k*rank - rank T_k does not read their number.

    First, one lifted rank per d counts the blocks at d: phi(d) times their
    number is rank*phi(d) minus the rank of the lift of M - zeta_d*N.  For
    d >= 2 a rank modulo a prime screens d first.  At d = 1 the lift is
    M - N itself, so the screen would cost as much as the rank, and on a
    graph pair with a cycle X - 1 always divides, so it would never clear.
    For bitmask `pairs`, those of a unit-row pair, that rank is taken over
    F_2, each row the xor of a pair's two masks: each row of M - N holds at
    most a 1 and a -1, which cancel on a loop, so M - N is a signed
    incidence matrix, totally unimodular, and its rank is the same over
    every field.  M + N at d = 2 is not (an odd cycle gives determinant 2),
    and the lifts for d >= 3 are not incidence matrices, so they stay over
    Q.  The scan runs while phi(d) fits in the degree not yet counted, up
    to the bound 2*deg^2 + 6 past which phi(d) > deg.  If phi(d) times the
    counts fills the degree, every block has size 1, as it always does for
    graphs (X^k - 1 is squarefree).  Otherwise the lifted local type gives
    the sizes at each d found whose phi(d) fits in the degree still left,
    since a block of size n adds (n - 1)*phi(d) beyond its count.  The local type
    is this second pass, and not the scan itself, because its T_2 costs far
    more than one rank: 20 times as much on the 37-cycle at d = 37.
    Blocks beyond the regular degree are an error.  The scan stops once the
    degree is filled, so it cannot see blocks the degree leaves no room
    for."""
    found: dict[int, int] = {}
    left = degree
    d = 1
    while left > 0 and d <= 2 * left * left + 6:
        phi = rp.totient(d)
        if phi <= left and (d == 1 or not _screen_clears(rows, rank, d)):
            if d == 1 and _bits(pairs):
                echelon = BitEchelon()
                for m, n in pairs:
                    echelon.add(m ^ n)
                lifted = echelon.rank
            else:
                lifted = rank_of_rows(_lift(rows, d))
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
        else:
            lifted_n = [{j * phi + a: x for j, x in n.items()} for _, n in rows for a in range(phi)]
            cols = zip(_columns(_lift(rows, d), v * phi), _columns(lifted_n, v * phi))
            sizes = Counter(_local_type(list(cols), len(rows) * phi, rank * phi))
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
    rows, cols = _shape(p)
    basis = _row_basis(rows, v)
    left = _left_indices(p, rows, basis)
    rank = e - len(left)
    right = _right_indices(cols, e, v, rank)
    zt = _local_type(cols, e, rank)
    tz = _local_type([(n, m) for m, n in cols], e, rank)
    degree = v - sum(zt) - sum(tz) - sum(n + 1 for n in right) - sum(left)
    if degree < 0:
        raise AssertionError(f"regular degree: singular and nilpotent parts exceed {v} vertices")
    blocks = _cyclotomic_blocks([p.rows[i] for i in basis], v, rank, degree,
                                [rows[i] for i in basis])
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
