"""Text formats for graphs: a line-oriented edge list and a small DOT subset.

Edge-list grammar (UTF-8, one statement per line):

    # comment                  -- also allowed after a statement
    vertex <label>             -- declare a vertex (needed for isolated ones)
    <src> <dst>                -- an edge; labels are whitespace-free

DOT subset:

    digraph [name] { <id>; <id> -> <id>; ... }

Only node and edge statements are accepted; attributes, subgraphs and
undirected edges are rejected.  Identifiers may be double-quoted, which is
how class labels like ``{a,b}`` survive a round trip.

Parsing is lenient by default: a label first seen in an edge is declared on
the spot.  With ``strict=True`` an edge may only use previously declared
vertices.
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


FORMATS = ("edge-list", "dot")


def parse_graph(text: str, format: str = "auto", strict: bool = False) -> MultiDigraph:
    """Parse text into a MultiDigraph.

    format is "edge-list", "dot", or "auto" (sniff: DOT iff the first token
    is ``digraph``).
    """
    if format == "auto":
        stripped = _strip_comments(text).lstrip()
        format = "dot" if _DOT_START.match(stripped) else "edge-list"
    if format == "edge-list":
        return _parse_edge_list(text, strict)
    if format == "dot":
        return _parse_dot(text, strict)
    raise ValueError(f"unknown format {format!r}")


# `digraph` as a whole first DOT token: not followed by a bare-id character
_DOT_START = re.compile(r'digraph(?![^\s{};=\[\],"])')


def _strip_comments(text: str) -> str:
    return "\n".join(line.split("#", 1)[0] for line in text.split("\n"))


class _Builder:
    def __init__(self, strict: bool):
        self.strict = strict
        self.order: list[str] = []
        self.declared: set[str] = set()
        self.edges: list[tuple[str, str]] = []

    def declare(self, label: str, line: int, col: int, explicit: bool):
        if label in self.declared:
            if explicit:
                raise ParseError(f"duplicate vertex declaration {label!r}", line, col)
            return
        self.declared.add(label)
        self.order.append(label)

    def touch(self, label: str, line: int, col: int):
        if label not in self.declared:
            if self.strict:
                raise ParseError(f"undeclared vertex {label!r}", line, col)
            self.declare(label, line, col, explicit=False)

    def finish(self, n_lines: int) -> MultiDigraph:
        if not self.order:
            raise ParseError("no vertices", max(n_lines, 1))
        return MultiDigraph(tuple(self.order), tuple(self.edges))


def _parse_edge_list(text: str, strict: bool) -> MultiDigraph:
    b = _Builder(strict)
    lines = text.split("\n")
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0]
        fields = line.split()
        if not fields:
            continue
        col = line.index(fields[0]) + 1
        if fields[0] == "vertex":
            if len(fields) != 2:
                raise ParseError("expected: vertex <label>", ln, col)
            b.declare(fields[1], ln, col, explicit=True)
        elif len(fields) == 2:
            src, dst = fields
            b.touch(src, ln, col)
            b.touch(dst, ln, line.index(dst, col - 1 + len(src)) + 1)
            b.edges.append((src, dst))
        else:
            raise ParseError("expected: <src> <dst> or vertex <label>", ln, col)
    return b.finish(len(lines))


_DOT_TOKEN = re.compile(
    r"""\s*(?:
        (?P<punct>->|--|[{};=\[\],])   |
        (?P<quoted>"[^"\\]*")          |
        (?P<bare>[^\s{};=\[\],"]+)
    )""",
    re.VERBOSE,
)


def _dot_tokens(text: str):
    """Yield (token, line, column, kind) across the whole text."""
    pos = 0
    while pos < len(text):
        m = _DOT_TOKEN.match(text, pos)
        if m is None:
            break
        start = m.start(m.lastgroup)
        line = text.count("\n", 0, start) + 1
        col = start - (text.rfind("\n", 0, start) + 1) + 1
        tok = m.group(m.lastgroup)
        if m.lastgroup == "quoted":
            tok = tok[1:-1]
        yield tok, line, col, m.lastgroup
        pos = m.end()
    if text[pos:].strip():
        line = text.count("\n", 0, pos) + 1
        raise ParseError("unreadable input", line)


def _parse_dot(text: str, strict: bool) -> MultiDigraph:
    toks = list(_dot_tokens(_strip_comments(text)))
    if not toks:
        raise ParseError("no vertices", 1)
    i = 0

    def expect(what: str):
        nonlocal i
        if i >= len(toks):
            raise ParseError(f"expected {what!r}, got end of input", toks[-1][1])
        tok, ln, col, _kind = toks[i]
        if tok != what:
            raise ParseError(f"expected {what!r}, got {tok!r}", ln, col)
        i += 1

    tok, ln, col, kind = toks[i]
    if tok != "digraph":
        raise ParseError("expected 'digraph'", ln, col)
    i += 1
    if i < len(toks) and toks[i][0] != "{" and toks[i][3] in ("bare", "quoted"):
        i += 1  # optional graph name
    expect("{")

    b = _Builder(strict)
    n_lines = text.count("\n") + 1
    while True:
        if i >= len(toks):
            raise ParseError("missing closing '}'", n_lines)
        tok, ln, col, kind = toks[i]
        if tok == "}":
            i += 1
            break
        if tok == ";":
            i += 1
            continue
        if kind == "punct":
            hints = {
                "[": "attributes are not supported",
                "=": "attributes are not supported",
                "--": "undirected edges are not supported",
                "{": "subgraphs are not supported",
            }
            raise ParseError(hints.get(tok, f"unexpected {tok!r}"), ln, col)
        if tok == "subgraph":
            raise ParseError("subgraphs are not supported", ln, col)
        # node or edge statement
        first, fln, fcol = tok, ln, col
        i += 1
        if i < len(toks) and toks[i][0] == "->":
            i += 1
            if i >= len(toks) or toks[i][3] not in ("bare", "quoted"):
                raise ParseError("expected a vertex after '->'", toks[i - 1][1], toks[i - 1][2])
            second, sln, scol, _ = toks[i]
            i += 1
            if i < len(toks) and toks[i][0] == "->":
                raise ParseError("chained edges are not supported; one edge per statement", toks[i][1], toks[i][2])
            b.touch(first, fln, fcol)
            b.touch(second, sln, scol)
            b.edges.append((first, second))
        else:
            b.declare(first, fln, fcol, explicit=True)
        if i < len(toks) and toks[i][0] == ";":
            i += 1
    if i < len(toks):
        tok, ln, col, _ = toks[i]
        raise ParseError(f"trailing input {tok!r}", ln, col)
    return b.finish(n_lines)


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
