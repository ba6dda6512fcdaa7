"""Command-line front end.

Commands: reduce, contract, diagram, invariants, equiv, oracle, fuzz.
Exit codes: 0 success (or equivalent / all trials passed), 1 not equivalent
or a failed cross-check, 2 rejected input, 3 a failed self-check or out of
memory, 141 the reader closed the output pipe early (128 + SIGPIPE, as a
shell reports it).  Rejected input (a usage or parse error, or a matrix
pair the oracle cannot factor) raises a ValueError, and a failed self-check
an AssertionError, so `main` catches both by their base class without
loading the oracle.  With --json all output is a single JSON document with
sorted keys, byte-stable for a given input and version, written by
`json_text`.  A relation's pairs and gamma's nonstable points reach it as
text already (`_Written`): each label quoted once, the pairs written in one
pass over the canonical edge order, and the nonstable lines sorted as text.

Graph commands load only the contraction route.  The oracle side
(`linearize`, `oracle`, and through it `smith` and `echelon`) runs only for
`oracle` and `fuzz`: the package registers `linearize` and `oracle` in
`sys.modules` as lazy modules, which compile on first attribute access, and
this module calls them as `_linearize.<name>` and `_oracle.<name>`.  Only
`fuzz` draws random relations and reads a rational edge probability, so it
imports `random` and `fractions` itself.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from collections.abc import Iterator
from itertools import compress
from json.encoder import encode_basestring_ascii as _quote

from . import __version__, _lazy_submodule
from .contraction import FIRST_POINTS, ContractionDiagram, gamma_table, iterated_contraction
from .invariants import (_CELLS, analyze_graph, cell_contents, decide_equiv, full_invariants,
                         record_to_json)
from .parsing import parse_graph, serialize
from .relation import BinaryRelation, MultiDigraph, reduce as reduce_graph

_linearize = _lazy_submodule("linearize")
_oracle = _lazy_submodule("oracle")

_GOLDEN_RATIO_STEP = 0x9E3779B97F4A7C15  # odd, so trial seeds cover Z/2^64


class _Usage(ValueError):
    pass


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8-sig") as source:
            return source.read()
    except OSError as exc:
        raise _Usage(f"cannot read {path}: {exc.strerror or exc}") from exc


def _load_graph(path: str, args) -> MultiDigraph:
    return parse_graph(_read(path), format=args.format, strict=args.strict)


def _emit_json(doc) -> None:
    print(json_text(doc))


class _Written:
    """A list (brackets "[]") or map ("{}") whose items are JSON text
    already: items(inner) iterates over them, in order, for the line break
    and indent `inner` that precede each.  Only the documents this module
    writes hold one."""

    __slots__ = ("brackets", "items")

    def __init__(self, brackets: str, items):
        self.brackets, self.items = brackets, items


def json_text(doc, newline: str = "\n") -> str:
    """`json.dumps(doc, indent=2, sort_keys=True)`, byte for byte, for the
    values a document holds: str, int, bool, None, and lists, tuples and
    str-keyed dicts of them; anything else raises TypeError.  `newline` is
    the line break and indent that close the value.  With an indent,
    CPython's json runs its pure-Python encoder; this writer quotes strings
    with the same C function, joins a list of strings or ints and an
    int-valued map in one step, and writes the items of a `_Written` value
    as they are."""
    if isinstance(doc, str):
        return _quote(doc)
    if doc is None or doc is True or doc is False:
        return "null" if doc is None else "true" if doc else "false"
    if isinstance(doc, int):
        return int.__repr__(doc)
    inner = newline + "  "
    if type(doc) is _Written:
        brackets, items = doc.brackets, doc.items(inner)
    elif isinstance(doc, (list, tuple)):
        brackets = "[]"
        kinds = set(map(type, doc))
        if kinds == {str}:
            items = map(_quote, doc)
        elif kinds == {int}:  # bool is not int here
            items = map(int.__repr__, doc)
        else:
            items = (json_text(x, inner) for x in doc)
    elif isinstance(doc, dict):
        brackets = "{}"
        keys = sorted(doc)
        values = list(map(doc.__getitem__, keys))
        if set(map(type, values)) == {int}:  # bool is not int here
            items = map("{}: {}".format, map(_quote, keys), map(int.__repr__, values))
        else:
            items = (f"{_quote(key)}: {json_text(value, inner)}"
                     for key, value in zip(keys, values))
    else:
        raise TypeError(f"Object of type {type(doc).__name__} is not JSON serializable")
    body = ("," + inner).join(items)  # empty only when there are no items
    return f"{brackets[0]}{inner}{body}{newline}{brackets[1]}" if body else brackets


def _relation_json(r: BinaryRelation) -> dict:
    """A relation's "vertices" and "pairs": each label quoted once, and one
    pass over the canonical edge order writes every pair."""
    quoted = list(map(_quote, r.vertices))

    def pairs(inner: str):
        pair = "," + inner + "  "
        return (f"[{inner}  {quoted[s]}{pair}{quoted[t]}{inner}]" for s, t in r.sorted_ids())

    return {"vertices": _Written("[]", lambda inner: quoted), "pairs": _Written("[]", pairs)}


def _gamma_json(d: ContractionDiagram) -> dict:
    """The gamma table as stable value, horizon, and the "m,n" keyed values
    that differ from the stable one.  Each diagonal's lines are written in
    C-level passes and sorted as text, which sorts them by key: a key holds
    only digits and ',', and its closing '"' sorts below both."""
    stable, lines = d.stable_value, []
    for (m, n), diagonal in zip(FIRST_POINTS, d.diagonals):
        end = len(diagonal)
        lines += compress(map('"{},{}": {}'.format, range(m, m + end), range(n, n + end),
                              diagonal), map(stable.__ne__, diagonal))
    lines.sort()
    return {"stable_value": stable, "horizon": d.horizon,
            "nonstable": _Written("{}", lambda inner: lines)}


# -- commands -----------------------------------------------------------------


def _cmd_reduce(args) -> int:
    g = _load_graph(args.path, args)
    summary = reduce_graph(g)
    if args.json:
        _emit_json({
            **_relation_json(summary.reduced),
            "parallel_class_sizes": summary.parallel_class_sizes,
            "split_count": summary.split_count,
        })
    else:
        text = serialize(summary.reduced, "edge-list")
        print(f"# reduced: vertices={summary.reduced.vertex_count} "
              f"edges={summary.reduced.edge_count} split_count={summary.split_count}")
        sys.stdout.write(text)
    return 0


def _partition_str(p) -> str:
    return " ".join("{" + ",".join(cls) + "}" for cls in p.classes)


def _cmd_contract(args) -> int:
    g = _load_graph(args.path, args)
    rel = reduce_graph(g).reduced
    contracted, part = iterated_contraction(rel, args.left, args.right)
    if args.json:
        _emit_json({
            "left": args.left,
            "right": args.right,
            "partition": part.classes,
            **_relation_json(contracted),
        })
    elif args.dot:
        sys.stdout.write(serialize(contracted, "dot"))
    else:
        text = serialize(contracted, "edge-list")
        print(f"# contraction left={args.left} right={args.right} "
              f"classes={len(part.classes)}")
        print(f"# partition: {_partition_str(part)}")
        sys.stdout.write(text)
    return 0


def _diagram_lines(d: ContractionDiagram, extra_band: int) -> Iterator[str]:
    """The diagram's text lines, made one at a time, so a reader sees the
    first of them at once and a closed pipe ends the run at once."""
    s_max = 2 * (d.horizon + extra_band) + 2
    for s in range(s_max + 1):
        yield "  ".join(f"({m},{n}): {d.value(m, n)}"
                        for m, n in ContractionDiagram.antidiagonal(s))
    yield f"stable value {d.stable_value} from min(m,n) >= {d.horizon}"
    for k, contents in enumerate(cell_contents(d), 1):
        yield "  ".join(f"|{name.format(k)}| = {content} ({family}[{i * k + j}])"
                        for (name, family, (i, j), _), content in zip(_CELLS, contents))


def _cmd_diagram(args) -> int:
    if args.max_band < 0:
        raise _Usage("--max-band must be nonnegative")
    g = _load_graph(args.path, args)
    d = gamma_table(reduce_graph(g).reduced)
    if args.json:
        _emit_json(_gamma_json(d))
    else:
        sys.stdout.writelines(line + "\n" for line in _diagram_lines(d, args.max_band))
    return 0


def _cmd_invariants(args) -> int:
    g = _load_graph(args.path, args)
    analysis = analyze_graph(g)
    d, shape, rec = analysis.diagram, analysis.shape, analysis.record
    if args.json:
        _emit_json({
            "vertices": g.vertex_count,
            "edges": g.edge_count,
            "gamma": _gamma_json(d),
            "stable_shape": {"cycles": shape.cycles, "paths": shape.paths},
            "stabilization_depth": d.depth,
            "record": record_to_json(rec, g.edge_count, g.vertex_count),
        })
    else:
        print(f"vertices={g.vertex_count} edges={g.edge_count}")
        nonstable = " ".join(f"gamma[{m},{n}]={v}"
                             for (m, n), v in d.nonstable_points().items())
        print(f"gamma: stable={d.stable_value} horizon={d.horizon} {nonstable}".rstrip())
        print(f"stable shape: cycles={list(shape.cycles)} paths={list(shape.paths)} "
              f"(depth {d.depth})")
        print(f"record: {rec.describe()}")
        print("edge identity: ok")
        print("vertex identity: ok")
    return 0


def _cmd_equiv(args) -> int:
    va = _load_graph(args.path_a, args)
    vb = _load_graph(args.path_b, args)
    verdict = decide_equiv(va, vb)
    if args.json:
        _emit_json({"equivalent": verdict.equivalent, "reason": verdict.reason})
    else:
        print(str(verdict))
    return 0 if verdict.equivalent else 1


def _cmd_oracle(args) -> int:
    if args.matrix:
        pair = _linearize.parse_pair_file(_read(args.path))
        rec = _oracle.oracle_invariants(pair)
        if args.json:
            _emit_json({
                "record": record_to_json(rec, pair.edge_dim, pair.vertex_dim),
                "comparison": None,
            })
        else:
            print(f"oracle record: {rec.describe()}")
            print("comparison skipped: matrix input has no combinatorial side")
        return 0
    g = _load_graph(args.path, args)
    combinatorial = full_invariants(g)
    oracle_rec = _oracle.oracle_invariants(_linearize.linearize(g))
    diffs = _oracle.compare(combinatorial, oracle_rec)
    if args.json:
        _emit_json({
            "combinatorial": record_to_json(combinatorial, g.edge_count, g.vertex_count),
            "oracle": record_to_json(oracle_rec, g.edge_count, g.vertex_count),
            "diff": diffs,
            "pass": not diffs,
        })
    else:
        print(f"combinatorial: {combinatorial.describe()}")
        print(f"oracle:        {oracle_rec.describe()}")
        for line in diffs:
            print(f"diff: {line}")
        print("PASS" if not diffs else "FAIL")
    return 0 if not diffs else 1


def trial_seed(seed: int, trial: int) -> int:
    """Per-trial RNG seed; trial 0 of a seed reuses the seed itself, so a
    failure is reproducible with --seed <reported> --count 1."""
    return (seed + trial * _GOLDEN_RATIO_STEP) % 2**64


def random_relation(rng: random.Random, vertices: int, edge_prob: Fraction) -> BinaryRelation:
    """Each of the vertices^2 ordered pairs (loops included) is present
    independently with probability edge_prob; exact dyadic sampling keeps
    runs reproducible across platforms: u/2^53 < p/q iff u*q < p*2^53."""
    labels = tuple(f"v{i}" for i in range(vertices))
    den, threshold = edge_prob.denominator, edge_prob.numerator << 53
    pairs = frozenset((a, b) for a in labels for b in labels
                      if rng.getrandbits(53) * den < threshold)
    return BinaryRelation(labels, pairs)


def run_fuzz(seed: int, count: int, vertices: int, edge_prob: Fraction):
    """Cross-validate `count` random relations; returns (failures,
    first_failing_seed, diffs_of_first_failure)."""
    import random

    failures = 0
    first_seed = None
    first_diffs: list[str] = []
    for trial in range(count):
        child = trial_seed(seed, trial)
        rng = random.Random(child)
        rel = random_relation(rng, vertices, edge_prob)
        diffs = _oracle.compare(full_invariants(rel),
                               _oracle.oracle_invariants(_linearize.linearize(rel)))
        if diffs:
            failures += 1
            if first_seed is None:
                first_seed, first_diffs = child, diffs
    return failures, first_seed, first_diffs


def _cmd_fuzz(args) -> int:
    if args.count < 1:
        raise _Usage("--count must be at least 1")
    if args.vertices < 0:
        raise _Usage("--vertices must be nonnegative")
    prob = _parse_prob(args.edge_prob)
    failures, first_seed, first_diffs = run_fuzz(args.seed, args.count,
                                                 args.vertices, prob)
    if args.json:
        _emit_json({
            "trials": args.count,
            "failures": failures,
            "first_failing_seed": first_seed,
            "first_failure_diff": first_diffs,
            "seed": args.seed,
            "vertices": args.vertices,
            "edge_prob": str(prob),
        })
    else:
        print(f"trials={args.count} failures={failures}")
        if first_seed is not None:
            print(f"first failing seed: {first_seed}")
            for line in first_diffs:
                print(f"diff: {line}")
    return 0 if failures == 0 else 1


def _parse_prob(text: str) -> Fraction:
    from fractions import Fraction

    try:
        p = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _Usage(f"cannot parse probability {text!r}") from None
    if not 0 <= p <= 1:
        raise _Usage("edge probability must lie in [0, 1]")
    return p


def _parse_seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, not {text!r}") from None
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be a 64-bit unsigned integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linequiv",
        description="Linear-equivalence invariants of finite directed graphs.")
    parser.add_argument("--version", action="version", version=f"linequiv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON with sorted keys")
    graphish = argparse.ArgumentParser(add_help=False)
    graphish.add_argument("--format", choices=("auto", "edge-list", "dot"),
                          default="auto", help="input format (default: sniff)")
    graphish.add_argument("--strict", action="store_true",
                          help="reject edges that use undeclared vertices")

    p = sub.add_parser("reduce", parents=[common, graphish],
                       help="merge parallel edges and report the split count")
    p.add_argument("path")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("contract", parents=[common, graphish],
                       help="apply iterated left/right contractions")
    p.add_argument("path")
    p.add_argument("--left", type=int, default=0, metavar="M",
                   help="number of left contractions")
    p.add_argument("--right", type=int, default=0, metavar="N",
                   help="number of right contractions")
    p.add_argument("--dot", action="store_true",
                   help="emit the quotient as DOT with class labels")
    p.set_defaults(func=_cmd_contract)

    p = sub.add_parser("diagram", parents=[common, graphish],
                       help="print the contraction diagram with cell contents")
    p.add_argument("path")
    p.add_argument("--max-band", type=int, default=0, metavar="K",
                   help="render K extra antidiagonal bands beyond the horizon "
                        "(2K more lines, of at most three cells each)")
    p.set_defaults(func=_cmd_diagram)

    p = sub.add_parser("invariants", parents=[common, graphish],
                       help="full multiplicity record with both identity checks")
    p.add_argument("path")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("equiv", parents=[common, graphish],
                       help="decide linear equivalence of two graphs")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("oracle", parents=[common, graphish],
                       help="cross-check the record against exact linear algebra")
    p.add_argument("path")
    p.add_argument("--matrix", action="store_true",
                   help="input is a matrix pair file, not a graph")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("fuzz", parents=[common],
                       help="cross-validate random relations against the oracle")
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--vertices", type=int, default=4, metavar="N",
                   help="vertices per random relation; each trial draws N^2 edge coins")
    p.add_argument("--edge-prob", default="3/10",
                   help="rational in [0, 1], e.g. 0.3 or 3/10")
    p.set_defaults(func=_cmd_fuzz)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once per process: parse_args leaves a parser
    unchanged, so every call of main can share it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # Closing drops the output the reader will never take, so the flush at
        # interpreter exit cannot fail a second time.
        with contextlib.suppress(BrokenPipeError):
            sys.stdout.close()
        return 141


if __name__ == "__main__":
    sys.exit(main())
