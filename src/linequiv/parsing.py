"""Text formats for graphs: a line-oriented edge list and a small DOT subset.

Edge-list grammar (UTF-8, one statement per line):

    # comment                  -- also allowed after a statement
    vertex <label>             -- declare a vertex (needed for isolated ones)
    <src> <dst>                -- an edge; labels are whitespace-free

DOT subset:

    digraph [name] { <id>; <id> -> <id>; ... }

Only node and edge statements are accepted; attributes, subgraphs and
undirected edges are rejected, except that a node statement may carry one
``[label=<id>]``, which is ignored (so ``contract --dot`` output reads
back).  Identifiers may be double-quoted, which is how class labels like
``{a,b}`` survive a round trip.

Parsing is lenient by default: a label first seen in an edge is declared on
the spot.  With ``strict=True`` an edge may only use previously declared
vertices.

The parser is where labels become vertex ids: each label gets the next id
when it is first declared, and edges are stored as id pairs, so the graph it
returns is checked here once and never again.  An error's line and column
are worked out only when it is raised.
"""

from __future__ import annotations

import re

from .relation import BinaryRelation, MultiDigraph


class ParseError(ValueError):
    """Syntax or structure error, with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def parse_graph(text: str, format: str = "auto", strict: bool = False) -> MultiDigraph:
    """Parse text into a MultiDigraph.

    format is "edge-list", "dot", or "auto" (sniff: DOT iff the first token
    is ``digraph``).
    """
    if format == "auto":
        format = "dot" if _DOT_START.match(text) else "edge-list"
    if format == "edge-list":
        return _parse_edge_list(text, strict)
    if format == "dot":
        return _parse_dot(text, strict)
    raise ValueError(f"unknown format {format!r}")


# `digraph` as a whole first DOT token, after blanks and whole comment lines:
# not followed by a bare-id character or a comment
_DOT_START = re.compile(r'(?:\s|#[^\n]*(?![^\n]))*digraph(?![^\s{};=\[\],"#])')


def _strip_comments(text: str) -> str:
    return "\n".join(line.split("#", 1)[0] for line in text.split("\n"))


def _column(line: str, fields: list[str], k: int) -> int:
    """1-based column of fields[k], k = 0 or 1, in line; worked out only to
    report an error."""
    start = line.index(fields[0])
    return (line.index(fields[1], start + len(fields[0])) if k else start) + 1


def _parse_edge_list(text: str, strict: bool) -> MultiDigraph:
    index: dict[str, int] = {}
    ids = []
    declare = index.setdefault
    lines = text.split("\n")
    for ln, line in enumerate(lines, start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        fields = line.split()
        if len(fields) == 2 and fields[0] != "vertex":
            if strict:
                for k, label in enumerate(fields):
                    if label not in index:
                        raise ParseError(f"undeclared vertex {label!r}", ln,
                                         _column(line, fields, k))
            src, dst = fields
            ids.append((declare(src, len(index)), declare(dst, len(index))))
        elif len(fields) == 2:
            if fields[1] in index:
                raise ParseError(f"duplicate vertex declaration {fields[1]!r}", ln,
                                 _column(line, fields, 0))
            index[fields[1]] = len(index)
        elif fields:
            message = ("expected: vertex <label>" if fields[0] == "vertex"
                       else "expected: <src> <dst> or vertex <label>")
            raise ParseError(message, ln, _column(line, fields, 0))
    if not index:
        raise ParseError("no vertices", max(len(lines), 1))
    return MultiDigraph._of(len(index), tuple(ids), tuple(index))


_DOT_TOKEN = re.compile(
    r"""\s*(?:
        (?P<punct>->|--|[{};=\[\],])   |
        (?P<quoted>"[^"\\]*")          |
        (?P<bare>[^\s{};=\[\],"]+)
    )""",
    re.VERBOSE,
)


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of an offset; called only to report an error."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _dot_tokens(text: str) -> list[tuple[str, int, str]]:
    """(token, offset, kind) across the whole text."""
    toks = []
    pos = 0
    while pos < len(text):
        m = _DOT_TOKEN.match(text, pos)
        if m is None:
            break
        kind = m.lastgroup
        tok = m.group(kind)
        toks.append((tok[1:-1] if kind == "quoted" else tok, m.start(kind), kind))
        pos = m.end()
    if text[pos:].strip():
        raise ParseError("unreadable input", _position(text, pos)[0])
    return toks


_DOT_HINTS = {
    "[": "attributes are not supported",
    "=": "attributes are not supported",
    "--": "undirected edges are not supported",
    "{": "subgraphs are not supported",
}


def _parse_dot(text: str, strict: bool) -> MultiDigraph:
    text = _strip_comments(text)
    toks = _dot_tokens(text)
    if not toks:
        raise ParseError("no vertices", 1)
    n_lines = text.count("\n") + 1
    toks.append(("", len(text), "end"))
    index: dict[str, int] = {}
    ids = []

    def fail(message: str, j: int):
        raise ParseError(message, *_position(text, toks[j][1]))

    def is_id(j: int) -> bool:
        return toks[j][2] in ("bare", "quoted")

    def punct(j: int, what: str) -> bool:
        return toks[j][::2] == (what, "punct")

    def vertex(j: int) -> int:
        tok = toks[j][0]
        if tok not in index:
            if strict:
                fail(f"undeclared vertex {tok!r}", j)
            index[tok] = len(index)
        return index[tok]

    if toks[0][0] != "digraph":
        fail("expected 'digraph'", 0)
    i = 2 if is_id(1) and toks[1][0] != "{" else 1  # an optional graph name
    if toks[i][2] == "end":
        raise ParseError("expected '{', got end of input", _position(text, toks[i - 1][1])[0])
    if toks[i][0] != "{":
        fail(f"expected '{{', got {toks[i][0]!r}", i)
    i += 1
    while toks[i][0] != "}":
        tok, _, kind = toks[i]
        if kind == "end":
            raise ParseError("missing closing '}'", n_lines)
        if tok == ";":
            i += 1
            continue
        if kind == "punct":
            fail(_DOT_HINTS.get(tok, f"unexpected {tok!r}"), i)
        if tok == "subgraph":
            fail("subgraphs are not supported", i)
        if toks[i + 1][0] == "->":  # an edge statement
            if not is_id(i + 2):
                fail("expected a vertex after '->'", i + 1)
            if toks[i + 3][0] == "->":
                fail("chained edges are not supported; one edge per statement", i + 3)
            ids.append((vertex(i), vertex(i + 2)))
            i += 3
        else:  # a node statement; a lone [label=<id>], as `contract --dot` writes it, is skipped
            if tok in index:
                fail(f"duplicate vertex declaration {tok!r}", i)
            index[tok] = len(index)
            i += 1
            if (punct(i, "[") and is_id(i + 1) and toks[i + 1][0] == "label"
                    and punct(i + 2, "=") and is_id(i + 3) and punct(i + 4, "]")):
                i += 5
        if toks[i][0] == ";":
            i += 1
    if toks[i + 1][2] != "end":
        fail(f"trailing input {toks[i + 1][0]!r}", i + 1)
    if not index:
        raise ParseError("no vertices", n_lines)
    return MultiDigraph._of(len(index), tuple(ids), tuple(index))


_BARE_ID = re.compile(r"[A-Za-z0-9_.]+\Z")


def dot_id(label: str) -> str:
    """The label as a DOT identifier, quoted unless bare; a label with a
    double quote or backslash raises ValueError."""
    if _BARE_ID.match(label):
        return label
    if '"' in label or "\\" in label:
        raise ValueError(f"label {label!r} cannot be written in DOT output")
    return f'"{label}"'


def _edge_list_id(label: str, source: bool = False) -> str:
    """The label as an edge-list field: one whitespace-free token without
    '#'; an edge's first field is neither the keyword nor a label that would
    make a first line read as DOT."""
    if (label.split() != [label] or "#" in label
            or (source and (label == "vertex" or _DOT_START.match(label)))):
        raise ValueError(f"label {label!r} cannot be written in edge-list output")
    return label


def serialize(r: BinaryRelation | MultiDigraph, format: str = "edge-list") -> str:
    """Render a graph in one of the two input formats.

    Round-trips with parse_graph up to vertex/edge ordering normalization;
    a label the format cannot carry raises ValueError.
    """
    if isinstance(r, BinaryRelation):
        vertices, edges = r.vertices, r.sorted_pairs()
    else:
        vertices, edges = r.vertices, r.edges
    touched = {v for e in edges for v in e}
    if format == "edge-list":
        lines = [f"vertex {_edge_list_id(v)}" for v in vertices if v not in touched]
        lines += [f"{_edge_list_id(s, source=True)} {_edge_list_id(t)}" for s, t in edges]
        return "\n".join(lines) + ("\n" if lines else "")
    if format == "dot":
        stmts = [f"  {dot_id(v)};" for v in vertices if v not in touched]
        stmts += [f"  {dot_id(s)} -> {dot_id(t)};" for s, t in edges]
        return "digraph {\n" + "\n".join(stmts) + ("\n" if stmts else "") + "}\n"
    raise ValueError(f"unknown format {format!r}")
