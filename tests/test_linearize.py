import pytest

from linequiv import converse
from linequiv.linearize import PairMatrices, linearize, parse_pair_file
from linequiv.parsing import ParseError

from conftest import dense, multidigraph, relation, transposed


def rows(mat):
    return [[int(x) for x in row] for row in mat]


def test_reference_graph_matrices(g1):
    # x*M = (x1+x2, x3, x4) and x*N = (0, x1+x4, x2+x3) in the v1, v2, v3
    # coordinates: edges 1 and 2 leave v1; edges 1 and 4 enter v2, 2 and 3
    # enter v3.
    p = linearize(g1)
    assert (p.edge_dim, p.vertex_dim) == (4, 3)
    m, n = dense(p)
    assert rows(m) == [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert rows(n) == [[0, 1, 0], [0, 0, 1], [0, 0, 1], [0, 1, 0]]
    assert p.rows == (({0: 1}, {1: 1}), ({0: 1}, {2: 1}), ({1: 1}, {2: 1}), ({2: 1}, {1: 1}))


def test_single_loop():
    p = linearize(multidigraph("v", [("v", "v")]))
    assert p.rows == (({0: 1}, {0: 1}),)


def test_edgeless_graph():
    p = linearize(multidigraph("abc", []))
    assert (p.edge_dim, p.vertex_dim) == (0, 3)
    assert p.rows == ()


def test_row_sums_are_one(g4):
    p = linearize(g4)
    for mat in dense(p):
        assert all(sum(row) == 1 for row in mat)


def test_converse_swaps_matrices(g3):
    r = relation(g3)
    p = linearize(r)
    q = linearize(converse(r))
    # up to edge reordering: compare the (M row, N row) multisets swapped
    assert sorted(zip(*dense(p))) == sorted(zip(*reversed(dense(q))))


def test_parallel_edges_repeat_rows():
    p = linearize(multidigraph("ab", [("a", "b"), ("a", "b")]))
    m, n = dense(p)
    assert rows(m) == [[1, 0], [1, 0]]
    assert rows(n) == [[0, 1], [0, 1]]


def serialize_pair(p: PairMatrices) -> str:
    """The pair file parse_pair_file reads back as p."""
    lines = [f"{p.edge_dim} {p.vertex_dim}"]
    if p.vertex_dim > 0:
        lines += [" ".join(map(str, row)) for mat in dense(p) for row in mat]
    return "\n".join(lines) + "\n"


def test_pair_file_round_trip():
    text = "2 3\n1 0 0\n0 1/2 0\n0 1 0\n-1 0 3/7\n"
    p = parse_pair_file(text)
    # row 2 of M and of N times 14, which clears both denominators
    assert p.rows == (({0: 1}, {1: 1}), ({1: 7}, {0: -14, 2: 6}))
    assert parse_pair_file(serialize_pair(p)) == p


def test_pair_file_zero_dimensions():
    p = parse_pair_file("2 0\n")
    assert (p.edge_dim, p.vertex_dim) == (2, 0)
    assert p.rows == (({}, {}), ({}, {}))
    q = parse_pair_file("0 3\n")
    assert (q.edge_dim, q.vertex_dim) == (0, 3)


@pytest.mark.parametrize("text, message", [
    ("", "empty"),
    ("2\n", "header"),
    ("1 2\n1 0\n", "expected 2 matrix rows"),
    ("1 2\n1 0 0\n0 1\n", "expected 2 entries"),
    ("1 1\nx\n1\n", "unreadable rational"),
    ("1 1\n1/0\n1\n", "unreadable rational"),
])
def test_pair_file_errors(text, message):
    with pytest.raises(ParseError, match=message):
        parse_pair_file(text)


def test_transposed():
    p = linearize(multidigraph("ab", [("a", "b")]))
    t = transposed(p)
    assert (t.edge_dim, t.vertex_dim) == (2, 1)
    m, n = dense(t)
    assert rows(m) == [[1], [0]]
    assert rows(n) == [[0], [1]]


@pytest.mark.parametrize("e, v, rows, message", [
    (2, 1, (({0: 1}, {}),), "row count"),
    (0, 1, (({}, {}),), "row count"),
    (1, 2, (({2: 1}, {}),), "column index"),
    (1, 2, (({0: 1}, {-1: 1}),), "column index"),
    (1, 0, (({0: 1}, {}),), "column index"),
])
def test_pair_rejects_rows_that_do_not_fit(e, v, rows, message):
    with pytest.raises(ValueError, match=message):
        PairMatrices(e, v, rows)
    assert PairMatrices(1, 2, (({0: 1}, {1: -3}),)).rows == (({0: 1}, {1: -3}),)
