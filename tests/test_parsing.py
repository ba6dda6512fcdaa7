import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from linequiv import (BinaryRelation, MultiDigraph, ParseError, iterated_contraction,
                      parse_graph, serialize)
from linequiv.parsing import dot_id
from linequiv.relation import class_label, reduce

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


def test_dot_node_label_attribute_is_rejected():
    # like every attribute; `contract --dot` names each node by its label
    for text, column in (('digraph {\n  c0 [label="{a,b}"];\n  c0 -> c1;\n}\n', 6),
                         ("digraph {\n  c1 [ label = c ]\n}\n", 6)):
        with pytest.raises(ParseError) as err:
            parse_graph(text)
        assert str(err.value) == f"line 2, column {column}: attributes are not supported"


def test_dot_bare_id_stops_at_an_edge_operator():
    # `-` joins a bare id unless it starts `->` or `--`
    assert parse_graph("digraph { a->b; }").edges == (("a", "b"),)
    assert parse_graph('digraph{a->"b"}').edges == (("a", "b"),)
    g = parse_graph("digraph { a-b -> -b; 1.5 -> -2; x- ->-; }")
    assert g.vertices == ("a-b", "-b", "1.5", "-2", "x-", "-")
    assert g.edges == (("a-b", "-b"), ("1.5", "-2"), ("x-", "-"))
    # `digraph` is the whole first token before `->`, so this is DOT
    with pytest.raises(ParseError, match="expected '{', got '->'"):
        parse_graph("digraph->x y\n")
    assert parse_graph("digraph-x y\n").vertices == ("digraph-x", "y")


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
    ("digraph { a -> subgraph; }", "subgraphs"),
    ("digraph { SUBGRAPH; }", "subgraphs"),
    ("digraph { node; }", "'node' is a keyword"),
    ("digraph { a -> GRAPH; }", "'GRAPH' is a keyword"),
    ("digraph Strict { a; }", "'Strict' is a keyword"),
    ("digraph { Digraph -> a; }", "'Digraph' is a keyword"),
    ("digraph { a [label=NODE]; }", "'NODE' is a keyword"),
    ("digraph { a->b->c; }", "chained"),
    ("digraph { a--b; }", "undirected"),
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
    ('digraph {\n "a" + "b";\n}', False, "line 2, column 6: string concatenation is not supported"),
    ("\n strict digraph { }", False, "line 2, column 2: strict graphs are not supported"),
    ("digraph {\n a -> Node;\n}", False,
     "line 2, column 7: 'Node' is a keyword; quote it to use it as an id"),
    ('digraph {\n "a\\"b";\n "c\\" -> d;\n}', False, "line 2, column 1: unreadable input"),
    ("digraph {\n a;\n b; /* c */ /* d\n}", False, "line 3, column 13: unterminated comment"),
    ("digraph {\n a; /*/ b; */\n c; /*/\n}", False, "line 3, column 5: unterminated comment"),
    ("digraph {\n a->b->c;\n}", False,
     "line 2, column 6: chained edges are not supported; one edge per statement"),
    ("digraph {\n a;\n b--c;\n}", False, "line 3, column 3: undirected edges are not supported"),
    ("digraph {\n a-->b;\n}", False, "line 2, column 3: undirected edges are not supported"),
    ("digraph{a->\n}", False, "line 1, column 10: expected a vertex after '->'"),
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


@pytest.mark.parametrize("text", ['digraph { "a" + "b" -> c; }', 'digraph { "a"+"b"; }',
                                  'digraph { a -> "b" +c; }', 'digraph { a+ "b"; }',
                                  'digraph "g" + "h" { a; }'])
def test_dot_rejects_string_concatenation(text):
    with pytest.raises(ParseError, match="string concatenation is not supported"):
        parse_graph(text)


def test_dot_reads_cxx_comments():
    g = parse_graph("digraph {\n  a -> b; // note\n  /* c */\n}")
    assert g.vertices == ("a", "b") and g.edges == (("a", "b"),)
    # a bare id stops where a comment starts; a lone '/' is part of it; in
    # quotes both openers are text, and in a comment a quote is
    g = parse_graph('digraph {\n a/b -> c// d;\n;/* "e\n */ f/*g*/; "//h" -> "/*i*/";\n /**/}')
    assert g.vertices == ("a/b", "c", "f", "//h", "/*i*/")
    assert g.edges == (("a/b", "c"), ("//h", "/*i*/"))


def test_dot_sniffing_skips_leading_comments():
    for text in ("// header\ndigraph { a -> b; }", "/* a\n b */digraph{ a -> b; }",
                 "# x\n/**/ // y\n  DiGraph { a -> b; }"):
        assert parse_graph(text).edges == (("a", "b"),)
    with pytest.raises(ParseError, match="strict graphs are not supported"):
        parse_graph("strict/* */digraph { a -> b; }")
    # no comment leads to `digraph` here: these are edge lists
    for text in ("//x y\n", "/*x */y\n", "/*x y\ndigraph z\n", "// digraph\n/x y\n"):
        assert parse_graph(text) == parse_graph(text, format="edge-list")


def test_edge_list_refuses_a_first_label_that_opens_a_dot_comment_before_digraph():
    # the text would sniff as DOT: a comment, then `digraph`
    for pairs in ((("//x", "y"), ("digraph", "z")), (("/*x", "y"), ("z", "*/digraph"))):
        r = BinaryRelation(tuple(v for e in pairs for v in e), frozenset(pairs))
        with pytest.raises(ValueError, match=re.escape(f"{pairs[0][0]!r} cannot be written first")):
            serialize(r, "edge-list")
    for pairs in ((("//x", "y"),), (("/*x", "y"), ("z", "*/w"))):
        r = BinaryRelation(tuple(v for e in pairs for v in e), frozenset(pairs))
        back = reduce(parse_graph(serialize(r, "edge-list"))).reduced
        assert back.vertices == r.vertices and back.pairs == r.pairs


def test_dot_plus_in_a_bare_id_is_part_of_the_label():
    g = parse_graph('digraph { a+b -> "c"; + -> d; }')
    assert g.edges == (("a+b", "c"), ("+", "d"))


def test_strict_digraph_is_sniffed_and_rejected():
    for text in ("strict digraph { a -> b; }", "STRICT\n digraph{}", "# c\nStrict digraph g {}"):
        with pytest.raises(ParseError, match="strict graphs are not supported"):
            parse_graph(text)
    assert parse_graph("strict x\n").edges == (("strict", "x"),)


@pytest.mark.parametrize("label", [";", "}", "{", "->", "=", "[", "subgraph", "Subgraph", "NODE",
                                   "digraph"])
def test_dot_round_trips_labels_that_read_as_syntax(label):
    for r in (BinaryRelation((label, "x"), frozenset({(label, "x"), ("x", label)})),
              BinaryRelation(("x", label), frozenset())):
        back = reduce(parse_graph(serialize(r, "dot"))).reduced
        assert back.vertices == r.vertices and back.pairs == r.pairs


def test_dot_keywords_are_quoted_in_any_case():
    for word in ("node", "Edge", "GRAPH", "digraph", "SubGraph", "strict"):
        assert dot_id(word) == f'"{word}"'
    assert dot_id("nodes") == "nodes"


def test_dot_keywords_are_matched_in_any_case():
    assert parse_graph("DIGRAPH { a -> b; }").edges == (("a", "b"),)
    assert parse_graph("DiGraph g {\n  a;\n}\n").vertices == ("a",)
    g = parse_graph('digraph { "node" -> "Edge"; "strict"; }')
    assert g.vertices == ("node", "Edge", "strict") and g.edges == (("node", "Edge"),)


def test_dot_reads_and_writes_the_quote_escape():
    g = parse_graph('digraph { "a\\"b" -> c; "p\\q"; "r\\\\s"; "x#y"; } # "z')
    assert g.vertices == ('a"b', "c", "p\\q", "r\\\\s", "x#y")
    assert g.edges == (('a"b', "c"),)
    # a backslash before the closing quote escapes it, so the id runs on
    with pytest.raises(ParseError, match="unreadable input"):
        parse_graph('digraph { "a\\" -> c; }')
    assert dot_id('a"b') == '"a\\"b"'
    assert dot_id('a\\"') == '"a\\\\""'
    assert dot_id("p\\q") == '"p\\q"'
    with pytest.raises(ValueError, match="DOT"):
        dot_id("a\\")


@pytest.mark.parametrize("source", ["digraph", "digraph{", "digraph;x", "DiGraph"])
def test_edge_list_rejects_a_source_that_reads_as_dot(source):
    r = BinaryRelation((source, "x"), frozenset({(source, "x")}))
    with pytest.raises(ValueError, match="edge-list"):
        serialize(r, "edge-list")


def test_edge_list_refuses_only_a_first_line_that_reads_as_dot():
    r = BinaryRelation(("Strict", "digraph"), frozenset({("Strict", "digraph")}))
    with pytest.raises(ValueError, match="edge-list"):
        serialize(r, "edge-list")
    r = BinaryRelation(("a", "strict", "digraph", "x"),
                       frozenset({("a", "strict"), ("strict", "digraph"), ("digraph", "x")}))
    back = reduce(parse_graph(serialize(r, "edge-list"))).reduced
    assert back.vertices == r.vertices and back.pairs == r.pairs


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


# -- the writers round-trip any label they accept -------------------------------

_LABEL_PARTS = ["node", "NoDe", "EDGE", "graph", "DiGraph", "subgraph", "STRICT", "strict digraph",
                "vertex", "label", "->", "--", ";", "{", "}", "[", "]", "=", ",", "+", '"', "\\",
                '\\"', "#", "/", "*", " ", "\t", "\n", "\r\n", "\u2028", "\ufeff", "\u00e9",
                "\u4e2d", "a", "1", "."]
_TEXT_LABELS = st.lists(st.sampled_from(_LABEL_PARTS), max_size=3).map("".join) | st.text(max_size=4)


@st.composite
def text_relations(draw, min_vertices: int = 0) -> BinaryRelation:
    vertices = draw(st.lists(_TEXT_LABELS, unique=True, min_size=min_vertices, max_size=6))
    ends = st.sampled_from(vertices) if vertices else st.nothing()
    pairs = draw(st.sets(st.tuples(ends, ends), max_size=8)) if vertices else set()
    return BinaryRelation(tuple(vertices), frozenset(pairs))


def writable(label: str, format: str, source: bool = False) -> bool:
    """The documented limits: an edge-list label is one whitespace-free
    field without '#', and an edge's first field is not the keyword
    `vertex`; a DOT label does not end in a backslash."""
    if format == "dot":
        return not label.endswith("\\")
    return label.split() == [label] and "#" not in label and not (source and label == "vertex")


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(text_relations(), st.sampled_from(["edge-list", "dot"]))
# a first edge-list line that would read as DOT, which random labels seldom give
@example(BinaryRelation(("DiGraph", "x"), frozenset({("DiGraph", "x")})), "edge-list")
@example(BinaryRelation(("STRICT", "digraph{"), frozenset({("STRICT", "digraph{")})), "edge-list")
@example(BinaryRelation(("/*", "*/DIGRAPH"), frozenset({("/*", "*/DIGRAPH")})), "edge-list")
def test_serialize_round_trips_or_refuses_for_a_documented_reason(r, format):
    accepted = (r.vertices and all(writable(v, format) for v in r.vertices)
                and all(writable(s, format, source=True) for s, _ in r.pairs))
    try:
        text = serialize(r, format)
    except ValueError as exc:
        if accepted:
            # the one rule left: an edge list that sniffs as DOT, so its
            # first line reads as the start of DOT or of a DOT comment
            first = "{} {}".format(*r.sorted_pairs()[0])
            assert format == "edge-list" and "written first" in str(exc)
            assert r.pairs and len(r.vertices) == len({v for e in r.pairs for v in e})
            assert re.match(r"(?i)(strict\s+)?digraph|//|/\*", first), first
        else:
            assert "cannot be written" in str(exc)
            assert r.vertices or "no vertices" in str(exc)
        return
    assert accepted
    back = reduce(parse_graph(text)).reduced
    assert set(back.vertices) == set(r.vertices) and back.pairs == r.pairs


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(text_relations(min_vertices=1), st.integers(0, 2), st.integers(0, 2))
# the class {a,b} beside a vertex named {a,b}, which random labels seldom give
@example(BinaryRelation(("a", "b", "c", "d", "{a,b}"), frozenset({("a", "c"), ("b", "c"),
                                                                  ("c", "d")})), 0, 1)
def test_contract_dot_output_reads_back(r, left, right):
    # `contract` reads its input with parse_graph, so it has a vertex;
    # `contract --dot` writes serialize(contracted, "dot")
    contracted, part = iterated_contraction(r, left, right)
    try:
        text = serialize(contracted, "dot")
    except ValueError as exc:
        # the two documented reasons: a singleton class keeps its label,
        # which may end in a backslash, and class labels may collide
        labels = [class_label(cls) for cls in part.classes]
        if "duplicate vertex label" in str(exc):
            assert len(set(labels)) < len(labels)
        else:
            assert "cannot be written in DOT output" in str(exc)
            assert any(label.endswith("\\") for label in labels)
        return
    back = reduce(parse_graph(text)).reduced
    assert set(back.vertices) == set(contracted.vertices)
    assert back.pairs == contracted.pairs


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


# -- the readers against line-by-line references -------------------------------
#
# _reference_edge_list strips each line's comment and splits it in the loop;
# _reference_dot finds one token per regex match, with its offset and kind,
# and reads a quoted id a character at a time.
# Both are the straightforward readers the parser's C-level passes replace,
# kept here so that every graph and every error message can be compared.


def _reference_column(line, fields, k):
    start = line.index(fields[0])
    return (line.index(fields[1], start + len(fields[0])) if k else start) + 1


def _reference_edge_list(text, strict):
    index, ids = {}, []
    lines = text.split("\n")
    for ln, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0]
        fields = line.split()
        if len(fields) == 2 and fields[0] != "vertex":
            if strict:
                for k, label in enumerate(fields):
                    if label not in index:
                        raise ParseError(f"undeclared vertex {label!r}", ln,
                                         _reference_column(line, fields, k))
            src, dst = fields
            ids.append((index.setdefault(src, len(index)), index.setdefault(dst, len(index))))
        elif len(fields) == 2:
            if fields[1] in index:
                raise ParseError(f"duplicate vertex declaration {fields[1]!r}", ln,
                                 _reference_column(line, fields, 0))
            index[fields[1]] = len(index)
        elif fields:
            message = ("expected: vertex <label>" if fields[0] == "vertex"
                       else "expected: <src> <dst> or vertex <label>")
            raise ParseError(message, ln, _reference_column(line, fields, 0))
    if not index:
        raise ParseError("no vertices", max(len(lines), 1))
    return MultiDigraph._of(len(index), tuple(ids), tuple(index))


_REFERENCE_TOKEN = re.compile(
    r"""\s*(?:
        (?P<punct>->|--|[{};=\[\],])     |
        (?P<comment>\#[^\n]*|//[^\n]*)  |
        (?P<open>/\*)                   |
        (?P<quote>")                    |
        (?P<bare>(?:[^\s{};=\[\],"\#/-]|/(?![/*])|-(?![->]))+)
    )""",
    re.VERBOSE,
)

_REFERENCE_KEYWORDS = ("node", "edge", "graph", "digraph", "subgraph", "strict")


def _reference_quoted(text, start):
    """(value, end) of the quoted id whose opening quote is at start, read a
    character at a time: \\" is a quote, anything else is itself.  None when
    no closing quote follows."""
    value, pos = [], start + 1
    while pos < len(text):
        if text.startswith('\\"', pos):
            value.append('"')
            pos += 2
        elif text[pos] == '"':
            return "".join(value), pos + 1
        else:
            value.append(text[pos])
            pos += 1
    return None


_REFERENCE_HINTS = {
    "[": "attributes are not supported",
    "=": "attributes are not supported",
    "--": "undirected edges are not supported",
    "{": "subgraphs are not supported",
}


def _reference_position(text, offset):
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _reference_dot(text, strict):
    toks, pos = [], 0
    while pos < len(text):
        m = _REFERENCE_TOKEN.match(text, pos)
        if m is None:
            break
        kind = m.lastgroup
        if kind == "open":  # a comment to the next */
            close = text.find("*/", m.end())
            if close < 0:
                raise ParseError("unterminated comment", *_reference_position(text, m.start(kind)))
            pos = close + 2
            continue
        if kind == "quote":
            quoted = _reference_quoted(text, m.start(kind))
            if quoted is None:
                break
            toks.append((quoted[0], m.start(kind), "quoted"))
            pos = quoted[1]
            continue
        if kind != "comment":
            toks.append((m.group(kind), m.start(kind), kind))
        pos = m.end()
    if text[pos:].strip():
        raise ParseError("unreadable input", _reference_position(text, pos)[0])
    if not toks:
        raise ParseError("no vertices", 1)
    n_lines = text.count("\n") + 1
    toks.append(("", len(text), "end"))
    index, ids = {}, []

    def fail(message, j):
        raise ParseError(message, *_reference_position(text, toks[j][1]))

    def is_id(j):
        return toks[j][2] in ("bare", "quoted")

    def punct(j, what):
        return toks[j][::2] == (what, "punct")

    def vertex(j):
        tok = toks[j][0]
        if tok not in index:
            if strict:
                fail(f"undeclared vertex {tok!r}", j)
            index[tok] = len(index)
        return index[tok]

    def bare(j, word):
        return toks[j][2] == "bare" and toks[j][0].lower() == word

    if bare(0, "strict"):
        fail("strict graphs are not supported", 0)
    if not bare(0, "digraph"):
        fail("expected 'digraph'", 0)
    for j in range(1, len(toks)):
        if toks[j][2] == "bare" and toks[j][0].lower() in _REFERENCE_KEYWORDS:
            fail("subgraphs are not supported" if bare(j, "subgraph")
                 else f"{toks[j][0]!r} is a keyword; quote it to use it as an id", j)
    for j in range(1, len(toks) - 1):
        tok, _, kind = toks[j]
        if kind == "bare" and (tok.startswith("+") and toks[j - 1][2] == "quoted"
                               or tok.endswith("+") and toks[j + 1][2] == "quoted"):
            fail("string concatenation is not supported", j)
    i = 2 if is_id(1) else 1
    if toks[i][2] == "end":
        raise ParseError("expected '{', got end of input",
                         _reference_position(text, toks[i - 1][1])[0])
    if not punct(i, "{"):
        fail(f"expected '{{', got {toks[i][0]!r}", i)
    i += 1
    while not punct(i, "}"):
        tok, _, kind = toks[i]
        if kind == "end":
            raise ParseError("missing closing '}'", n_lines)
        if punct(i, ";"):
            i += 1
            continue
        if kind == "punct":
            fail(_REFERENCE_HINTS.get(tok, f"unexpected {tok!r}"), i)
        if punct(i + 1, "->"):
            if not is_id(i + 2):
                fail("expected a vertex after '->'", i + 1)
            if punct(i + 3, "->"):
                fail("chained edges are not supported; one edge per statement", i + 3)
            ids.append((vertex(i), vertex(i + 2)))
            i += 3
        else:
            if tok in index:
                fail(f"duplicate vertex declaration {tok!r}", i)
            index[tok] = len(index)
            i += 1
        if punct(i, ";"):
            i += 1
    if toks[i + 1][2] != "end":
        fail(f"trailing input {toks[i + 1][0]!r}", i + 1)
    if not index:
        raise ParseError("no vertices", n_lines)
    return MultiDigraph._of(len(index), tuple(ids), tuple(index))


def _outcome(read, text, strict):
    """(ids, vertices) of the graph read, or the error message."""
    try:
        g = read(text, strict)
    except ParseError as exc:
        return str(exc)
    return g.ids, g.vertices


# characters str.split() splits on that split("\n") does not break lines at
_SPLITTING = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\t", "\r"]
_LABELS = ["a", "b", "c", "vertex", "v1", "\u00e9", "x#y", "digraph"]


def _random_edge_list(rng):
    def blank():
        return rng.choice(["", " ", "\t", *_SPLITTING])

    def label():
        return rng.choice(_LABELS)

    lines = []
    for _ in range(rng.randint(0, 8)):
        kind = rng.choices(range(7), weights=(3, 3, 1, 12, 1, 1, 2))[0]
        fields = [[], ["vertex", label()], [label(), "vertex"], [label(), label()], [label()],
                  [label(), label(), label()], ["#", label()]][kind]
        line = blank() + (blank() or " ").join(fields) + blank()
        if rng.random() < 0.25:
            line += rng.choice(["#", " # x y", "#\u2028 z", "\t#vertex a"])
        lines.append(line)
    return rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["", "\n", "\r\n"])


_DOT_WORDS = ["digraph", "{", "}", ";", "->", "--", "[", "]", "=", ",", "label", "subgraph",
              "a", "b", "c", "a->b", '"a b"', '"{"', '"}"', '";"', '"->"', '""', '"label"',
              '"x', '"p\\q"', "# note\n", "+", '"subgraph"', "SubGraph", '"digraph"', "STRICT",
              "node", "Edge", "GRAPH", '"node"', '"a\\"b"', '"q\\\\"', '"x#y"', '# "\n', "#",
              "// c\n", "/* c */", "/*", "*/", "/*/", "/**/", "a//b", "a/*b*/", "/x", '"//"',
              '"/*"', '/* "\n */', "a-b", "-b", "a--b", "x-", "-", "-2", "a-->b", "->b", "a->\"b\""]


def _random_dot(rng):
    toks = [rng.choice(["digraph", "DiGraph"]), *rng.choice([[], ["g"], ['"g h"']]), "{"]
    for _ in range(rng.randint(0, 6)):
        a, b = rng.choice(_LABELS[:5]), rng.choice(["a", "b", "c", '"a b"', "d"])
        toks += rng.choices([[a, "->", b], [a], [f"{a}->{b}"], [a, "[", "label", "=", b, "]"]],
                            weights=(6, 3, 3, 1))[0]
        if rng.random() < 0.7:
            toks.append(";")
    toks.append("}")
    if rng.random() < 0.1:  # cut the text short
        toks = toks[:rng.randrange(1, len(toks))]
    for _ in range(rng.choice([0, 0, 1, 2])):  # mutate: insert, drop or replace a token
        k = rng.randrange(len(toks) + 1)
        what = rng.randrange(3)
        if what == 0 or k == len(toks):
            toks.insert(k, rng.choice(_DOT_WORDS))
        elif what == 1:
            del toks[k]
        else:
            toks[k] = rng.choice(_DOT_WORDS)
    seps = ["", " ", "\n", "\t", "\r\n", " \x0b", "\u2028", "\x85"]
    return "".join(tok + rng.choice(seps if tok[-1:] in "{};[]=," else seps[1:])
                   for tok in toks)


@pytest.mark.parametrize("format, generate, reference", [
    ("edge-list", _random_edge_list, _reference_edge_list),
    ("dot", _random_dot, _reference_dot),
], ids=["edge-list", "dot"])
def test_readers_match_the_line_by_line_references(format, generate, reference):
    rng = random.Random(f"linequiv-test:readers:{format}")
    graphs = 0
    for _ in range(2000):
        text = generate(rng)
        for strict in (False, True):
            want = _outcome(reference, text, strict)
            got = _outcome(lambda t, s: parse_graph(t, format=format, strict=s), text, strict)
            assert got == want, (text, strict)
            graphs += not isinstance(want, str)
    assert 500 < graphs < 3500  # both graphs and errors are compared
