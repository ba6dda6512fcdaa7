import pytest

from linequiv import BinaryRelation, ParseError, parse_graph, serialize
from linequiv.relation import reduce

from conftest import relation


def test_edge_list_basic():
    g = parse_graph("vertex v3\nv1 v2\nv2 v3\n")
    assert g.vertices == ("v3", "v1", "v2")  # first-appearance order
    assert g.edges == (("v1", "v2"), ("v2", "v3"))


def test_edge_list_comments_and_blanks():
    g = parse_graph("# a file\n\na b  # trailing\n   \nb c\n")
    assert g.edges == (("a", "b"), ("b", "c"))


def test_edge_list_keeps_parallel_edges_and_order():
    g = parse_graph("a b\na b\nb a\n")
    assert g.edges == (("a", "b"), ("a", "b"), ("b", "a"))


def test_empty_input_is_an_error():
    with pytest.raises(ParseError, match="no vertices"):
        parse_graph("")
    with pytest.raises(ParseError, match="no vertices"):
        parse_graph("# only a comment\n")


def test_duplicate_vertex_declaration():
    with pytest.raises(ParseError, match="duplicate vertex"):
        parse_graph("vertex a\nvertex a\n")


def test_strict_mode_rejects_undeclared():
    text = "vertex a\na b\n"
    assert parse_graph(text).vertex_count == 2
    with pytest.raises(ParseError, match="undeclared vertex 'b'"):
        parse_graph(text, strict=True)
    ok = parse_graph("vertex a\nvertex b\na b\n", strict=True)
    assert ok.edges == (("a", "b"),)


def test_edge_list_bad_statement_position():
    with pytest.raises(ParseError) as err:
        parse_graph("a b\na b c\n")
    assert err.value.line == 2


def test_dot_basic():
    g = parse_graph("digraph { 1 -> 2; 4 -> 2; 4 -> 3; 3 -> 4; 2 -> 3 }")
    assert g.vertices == ("1", "2", "4", "3")
    assert g.edges == (("1", "2"), ("4", "2"), ("4", "3"), ("3", "4"), ("2", "3"))


def test_dot_named_graph_isolated_nodes_quoted_ids():
    g = parse_graph('digraph demo {\n  x;\n  "y z w" -> x;\n}')
    assert g.vertices == ("x", "y z w")
    assert g.edges == (("y z w", "x"),)


def test_dot_node_label_attribute_is_ignored():
    g = parse_graph('digraph {\n  c0 [label="{a,b}"];\n  c1 [ label = c ]\n  c0 -> c1;\n}\n')
    assert g.vertices == ("c0", "c1")
    assert g.edges == (("c0", "c1"),)


@pytest.mark.parametrize("text, message", [
    ("digraph { a -> b [color=red]; }", "attributes"),
    ("digraph { a -> b [label=x]; }", "attributes"),
    ("digraph { a [color=red]; }", "attributes"),
    ("digraph { a [label=x, color=red]; }", "attributes"),
    ("digraph { a [label=x] [label=y]; }", "attributes"),
    ("digraph { a -- b; }", "undirected"),
    ("digraph { subgraph c { a -> b; } }", "subgraphs"),
    ("digraph { a -> b -> c; }", "chained"),
    ("graph { a -> b; }", "expected 'digraph'"),
    ("digraph { a -> b; ", "missing closing"),
])
def test_dot_rejects_unsupported(text, message):
    with pytest.raises(ParseError, match=message):
        parse_graph(text, format="dot")


@pytest.mark.parametrize("text, strict, message", [
    ("a b\n  a b c\n", False, "line 2, column 3: expected: <src> <dst> or vertex <label>"),
    ("vertex a\n  b   a\n", True, "line 2, column 3: undeclared vertex 'b'"),
    ("vertex a\na   zz\n", True, "line 2, column 5: undeclared vertex 'zz'"),
    ("vertex ab\n ab b\n", True, "line 2, column 5: undeclared vertex 'b'"),
    ("vertex a\n vertex a\n", False, "line 2, column 2: duplicate vertex declaration 'a'"),
    ("  vertex a b\n", False, "line 1, column 3: expected: vertex <label>"),
    ("digraph {\n  a -> b [color=red];\n}", False,
     "line 2, column 10: attributes are not supported"),
    ("digraph {\n c0 [label=x, color=red];\n}", False,
     "line 2, column 5: attributes are not supported"),
    ("digraph {\n  a;\n  a -> ;\n}", False, "line 3, column 5: expected a vertex after '->'"),
    ("digraph {\n a -> b -> c;\n}", False,
     "line 2, column 9: chained edges are not supported; one edge per statement"),
    ("digraph", False, "line 1, column 1: expected '{', got end of input"),
    ("digraph { a; } x", False, "line 1, column 16: trailing input 'x'"),
    ('digraph {\n  a -> "b\n}', False, "line 2, column 1: unreadable input"),
    ("digraph {\n  a;\n  a;\n}", False, "line 3, column 3: duplicate vertex declaration 'a'"),
    ("digraph {\n  vertex a;\n b -> c;\n}", True, "line 3, column 2: undeclared vertex 'b'"),
    ("digraph { ] }", False, "line 1, column 11: unexpected ']'"),
    ("digraph { }", False, "line 1, column 1: no vertices"),
])
def test_error_positions(text, strict, message):
    with pytest.raises(ParseError) as err:
        parse_graph(text, strict=strict)
    assert str(err.value) == message


def test_format_sniffing():
    assert parse_graph("digraph { a -> b; }").edge_count == 1
    assert parse_graph("a b\n").edge_count == 1
    assert parse_graph("digraph x", format="edge-list").vertices == ("digraph", "x")


def test_dot_sniffing_takes_the_whole_first_token():
    for text in ("digraphs x\n", "digraph_1 x\n", "# digraph\ndigraph.x y\n"):
        g = parse_graph(text)
        assert g.edge_count == 1 and g.vertices[0].startswith("digraph")
    for text in ("digraph{ a -> b; }", 'digraph"g"{ a -> b; }', "\n  digraph\n{ a -> b }"):
        assert parse_graph(text).edge_count == 1


@pytest.mark.parametrize("source", ["digraph", "digraph{", "digraph;x"])
def test_edge_list_rejects_a_source_that_reads_as_dot(source):
    r = BinaryRelation((source, "x"), frozenset({(source, "x")}))
    with pytest.raises(ValueError, match="edge-list"):
        serialize(r, "edge-list")


def test_edge_list_with_digraph_like_labels_reads_back_sniffed():
    r = BinaryRelation(("digraphs", "digraph", "x"),
                       frozenset({("digraphs", "digraph"), ("x", "digraph")}))
    back = reduce(parse_graph(serialize(r, "edge-list"))).reduced
    assert set(back.vertices) == set(r.vertices) and back.pairs == r.pairs


@pytest.mark.parametrize("format", ["edge-list", "dot"])
def test_round_trips(format, g1, g2, g3, g4):
    edgeless = BinaryRelation(("a", "b"), frozenset())
    for r in (relation(g1), relation(g2), relation(g3), relation(g4), edgeless):
        back = reduce(parse_graph(serialize(r, format), format=format)).reduced
        assert set(back.vertices) == set(r.vertices)
        assert back.pairs == r.pairs


@pytest.mark.parametrize("edges", [(("vertex", "x"),), (("a b", "c"),), (("", "x"),),
                                   (("a#b", "c"),), (("a", "b\tc"),)])
def test_edge_list_rejects_labels_it_cannot_write(edges):
    r = BinaryRelation(tuple(sorted({v for e in edges for v in e})), frozenset(edges))
    with pytest.raises(ValueError, match="edge-list"):
        serialize(r, "edge-list")


def test_edge_list_writes_the_keyword_where_it_reads_back():
    r = BinaryRelation(("x", "vertex", "y"), frozenset({("x", "vertex")}))
    back = reduce(parse_graph(serialize(r, "edge-list"), format="edge-list")).reduced
    assert set(back.vertices) == set(r.vertices) and back.pairs == r.pairs


@pytest.mark.parametrize("format", ["edge-list", "dot"])
def test_round_trip_class_labels(format):
    r = BinaryRelation(("{a,b}", "c"), frozenset({("{a,b}", "c"), ("c", "c")}))
    back = reduce(parse_graph(serialize(r, format), format=format)).reduced
    assert back.pairs == r.pairs
