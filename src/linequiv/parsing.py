"""Text formats for graphs: a line-oriented edge list and a small DOT subset.

Edge-list grammar (UTF-8, one statement per line):

    # comment                  -- also allowed after a statement
    vertex <label>             -- declare a vertex (needed for isolated ones)
    <src> <dst>                -- an edge; labels are whitespace-free

DOT subset:

    digraph [name] { <id>; <id> -> <id>; ... }

Only node and edge statements are accepted; strict graphs, attributes,
subgraphs, undirected edges, chained edges and ``+`` concatenation are
rejected.  Outside quotes, ``#`` and ``//`` start a comment that runs to
the end of its line, and ``/*`` one that runs to the next ``*/``, as in
Graphviz; an unterminated ``/*`` is an error.  A bare id stops where a
comment, ``->`` or ``--`` starts, so ``a->b`` is an edge and ``a-b`` one
id.  Keywords are matched in any case, and a bare keyword is never an id.
Identifiers may be double-quoted, which is how class labels like ``{a,b}``
or ``subgraph`` survive a round trip: a quoted id is always an id, never
punctuation, a keyword or a comment.  Inside quotes ``\"`` stands for
``"`` and every other character, a backslash too, for itself (the Graphviz
rule), so the writer can carry every label except one that ends in a
backslash.

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
from itertools import filterfalse

from .relation import BinaryRelation, MultiDigraph


class ParseError(ValueError):
    """Syntax or structure error, with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def parse_graph(text: str, format: str = "auto", strict: bool = False) -> MultiDigraph:
    """Parse text into a MultiDigraph.

    format is "edge-list", "dot", or "auto" (sniff: DOT iff the first DOT
    token is ``digraph``, or ``strict`` in any case and then ``digraph``).
    """
    if format == "auto":
        format = "dot" if _DOT_START.match(text) else "edge-list"
    if format == "edge-list":
        return _parse_edge_list(text, strict)
    if format == "dot":
        return _parse_dot(text, strict)
    raise ValueError(f"unknown format {format!r}")


# `digraph`, in any case, as a whole first DOT token, after blanks, whole
# DOT comments and an optional `strict`: not followed by what a bare id takes
_DOT_GAP = r'(?:\s|(?:#|//)[^\n]*(?![^\n])|/\*(?:[^*]|\*(?!/))*\*/)'
_BARE_PART = r'[^\s{};=\[\],"#/-]+|/(?![/*])|-(?![->])'
_DOT_START = re.compile(rf'{_DOT_GAP}*(?:(?i:strict){_DOT_GAP}+)?(?i:digraph)(?!{_BARE_PART})')


_COMMENT = re.compile("#[^\n]*")


def _strip_comments(text: str) -> str:
    """The text without its comments, each line kept."""
    return _COMMENT.sub("", text) if "#" in text else text


def _column(line: str, fields: list[str], k: int) -> int:
    """1-based column of fields[k], k = 0 or 1, in line; worked out only to
    report an error."""
    start = line.index(fields[0])
    return (line.index(fields[1], start + len(fields[0])) if k else start) + 1


def _parse_edge_list(text: str, strict: bool) -> MultiDigraph:
    index: dict[str, int] = {}
    ids = []
    declare = index.setdefault
    lines = _strip_comments(text).split("\n")
    for ln, fields in enumerate(map(str.split, lines), start=1):
        if len(fields) == 2 and fields[0] != "vertex":
            if strict:
                for k, label in enumerate(fields):
                    if label not in index:
                        raise ParseError(f"undeclared vertex {label!r}", ln,
                                         _column(lines[ln - 1], fields, k))
            src, dst = fields
            ids.append((declare(src, len(index)), declare(dst, len(index))))
        elif len(fields) == 2:
            if fields[1] in index:
                raise ParseError(f"duplicate vertex declaration {fields[1]!r}", ln,
                                 _column(lines[ln - 1], fields, 0))
            index[fields[1]] = len(index)
        elif fields:
            message = ("expected: vertex <label>" if fields[0] == "vertex"
                       else "expected: <src> <dst> or vertex <label>")
            raise ParseError(message, ln, _column(lines[ln - 1], fields, 0))
    if not index:
        raise ParseError("no vertices", max(len(lines), 1))
    return MultiDigraph._of(len(index), tuple(ids), tuple(index))


# one DOT token: punctuation, a double-quoted id, a comment or a bare id;
# blanks between tokens are skipped.  Inside quotes \" is an escaped quote
# and any other backslash is itself.  A /* comment runs to the first */, or
# to the end of the text when there is none.  A bare id stops where a
# comment, -> or -- starts.
_DOT_TOKEN = re.compile(
    r'->|--|[{};=\[\],]|"[^"\\]*(?:\\(?:"|(?!"))[^"\\]*)*"|#[^\n]*|//[^\n]*'
    rf'|(?s:/\*.*?(?:\*/|\Z))|(?:{_BARE_PART})+')
_DOT_PUNCT = frozenset(("->", "--", "{", "}", ";", "=", "[", "]", ","))
_NOT_ID = _DOT_PUNCT | {""}  # "" is the end of input


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of an offset; called only to report an error."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _is_comment(tok: str) -> bool:
    return tok[0] == "#" or tok[:2] in ("//", "/*")


def _dot_tokens(text: str) -> list[str]:
    """The tokens of the whole text but its comments, a quoted id with its
    quotes, found in one C-level pass.  A '"' that starts no quoted id makes
    the input unreadable from there, and is the only non-blank character no
    token takes, so the quote counts tell whether the tokens cover the
    text.  An unterminated /* comment runs to the end, so it is the last
    token."""
    toks = _DOT_TOKEN.findall(text)
    if text.count('"') != "".join(toks).count('"'):
        pos = 0  # the end of the last token before the first gap
        for m in _DOT_TOKEN.finditer(text):
            if text[pos:m.start()].strip():
                break
            pos = m.end()
        raise ParseError("unreadable input", _position(text, pos)[0])
    if "#" not in text and "/" not in text:
        return toks
    last = toks[-1]
    if last[:2] == "/*" and (len(last) < 4 or last[-2:] != "*/"):
        raise ParseError("unterminated comment", *_position(text, len(text) - len(last)))
    return list(filterfalse(_is_comment, toks))


_DOT_HINTS = {
    "[": "attributes are not supported",
    "=": "attributes are not supported",
    "--": "undirected edges are not supported",
    "{": "subgraphs are not supported",
    "subgraph": "subgraphs are not supported",
}


def _parse_dot(text: str, strict: bool) -> MultiDigraph:
    raw = _dot_tokens(text)
    if not raw:
        raise ParseError("no vertices", 1)
    n_lines = text.count("\n") + 1
    # syntax is compared on the raw token, so a quoted id is never read as
    # punctuation or a keyword; an id's value drops its quotes and escapes;
    # raw "" is the end
    vals = [tok[1:-1].replace('\\"', '"') if tok[0] == '"' else tok for tok in raw] + [""]
    raw.append("")
    index: dict[str, int] = {}
    declare = index.setdefault
    ids = []

    def position(j: int) -> tuple[int, int]:
        """(line, column) of token j; only an error finds the offsets."""
        starts = [m.start() for m in _DOT_TOKEN.finditer(text) if not _is_comment(m[0])]
        return _position(text, starts[j])

    def fail(message: str, j: int):
        raise ParseError(message, *position(j))

    if raw[0].lower() == "strict":
        fail("strict graphs are not supported", 0)
    if raw[0].lower() != "digraph":
        fail("expected 'digraph'", 0)
    # past the first token this subset has no place for a keyword: every
    # other token is punctuation or an id
    if not _DOT_KEYWORDS.isdisjoint(map(str.lower, raw[1:])):
        j = next(j for j, tok in enumerate(raw) if j and tok.lower() in _DOT_KEYWORDS)
        hint = f"{raw[j]!r} is a keyword; quote it to use it as an id"
        fail(_DOT_HINTS.get(raw[j].lower(), hint), j)
    if "+" in text and '"' in text:  # a '+' next to a quoted id joins strings in DOT
        for j, tok in enumerate(raw[1:-1], start=1):
            if ((tok[0] == "+" and raw[j - 1][-1] == '"')
                    or (tok[-1] == "+" and raw[j + 1][:1] == '"')):
                fail("string concatenation is not supported", j)
    i = 2 if raw[1] not in _NOT_ID else 1  # an optional graph name
    if not raw[i]:
        raise ParseError("expected '{', got end of input", position(i - 1)[0])
    if raw[i] != "{":
        fail(f"expected '{{', got {vals[i]!r}", i)
    i += 1
    while raw[i] != "}":
        tok = raw[i]
        if not tok:
            raise ParseError("missing closing '}'", n_lines)
        if tok == ";":
            i += 1
            continue
        if tok in _DOT_PUNCT:
            fail(_DOT_HINTS.get(tok, f"unexpected {tok!r}"), i)
        if raw[i + 1] == "->":  # an edge statement
            if raw[i + 2] in _NOT_ID:
                fail("expected a vertex after '->'", i + 1)
            if raw[i + 3] == "->":
                fail("chained edges are not supported; one edge per statement", i + 3)
            if strict:
                for j in (i, i + 2):
                    if vals[j] not in index:
                        fail(f"undeclared vertex {vals[j]!r}", j)
            ids.append((declare(vals[i], len(index)), declare(vals[i + 2], len(index))))
            i += 3
        else:  # a node statement
            if vals[i] in index:
                fail(f"duplicate vertex declaration {vals[i]!r}", i)
            index[vals[i]] = len(index)
            i += 1
        if raw[i] == ";":
            i += 1
    if raw[i + 1]:
        fail(f"trailing input {vals[i + 1]!r}", i + 1)
    if not index:
        raise ParseError("no vertices", n_lines)
    return MultiDigraph._of(len(index), tuple(ids), tuple(index))


_BARE_ID = re.compile(r"[A-Za-z0-9_.]+\Z")
_DOT_KEYWORDS = frozenset(("node", "edge", "graph", "digraph", "subgraph", "strict"))


def dot_id(label: str) -> str:
    """The label as a DOT identifier, quoted unless bare and no keyword in
    any case, each '"' escaped; a label that ends in a backslash, which
    would escape the closing quote, raises ValueError."""
    if _BARE_ID.match(label) and label.lower() not in _DOT_KEYWORDS:
        return label
    if label.endswith("\\"):
        raise ValueError(f"label {label!r} cannot be written in DOT output")
    return '"' + label.replace('"', '\\"') + '"'


def _edge_list_id(label: str, source: bool = False) -> str:
    """The label as an edge-list field: one whitespace-free token without
    '#'; an edge's first field is not the keyword."""
    if label.split() != [label] or "#" in label or (source and label == "vertex"):
        raise ValueError(f"label {label!r} cannot be written in edge-list output")
    return label


def serialize(r: BinaryRelation | MultiDigraph, format: str = "edge-list") -> str:
    """Render a graph in one of the two input formats.

    Round-trips with parse_graph up to vertex/edge ordering normalization;
    a label the format cannot carry, or a graph with no vertices, which
    both readers reject, raises ValueError.
    """
    if not r.vertex_count:
        raise ValueError("a graph with no vertices cannot be written")
    if isinstance(r, BinaryRelation):
        vertices, edges = r.vertices, r.sorted_pairs()
    else:
        vertices, edges = r.vertices, r.edges
    touched = {v for e in edges for v in e}
    if format == "edge-list":
        lines = [f"vertex {_edge_list_id(v)}" for v in vertices if v not in touched]
        lines += [f"{_edge_list_id(s, source=True)} {_edge_list_id(t)}" for s, t in edges]
        text = "\n".join(lines) + "\n"
        # only a first edge line can start text that sniffs as DOT: its
        # source reads as `digraph`, `strict` or the start of a DOT comment
        if _DOT_START.match(text):
            raise ValueError(f"label {edges[0][0]!r} cannot be written first in edge-list output")
        return text
    if format == "dot":
        stmts = [f"  {dot_id(v)};" for v in vertices if v not in touched]
        stmts += [f"  {dot_id(s)} -> {dot_id(t)};" for s, t in edges]
        return "digraph {\n" + "\n".join(stmts) + ("\n" if stmts else "") + "}\n"
    raise ValueError(f"unknown format {format!r}")
