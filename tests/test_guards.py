"""Structural guards: the oracle stays independent of the contraction route
and its rank route reads integer rows only, every module a graph command
compiles stays below the parser's token step and generates no code nor runs
`ratpoly`, only the oracle reaches the Smith fallback, every public name has
a reader besides the tests, and a failed self-check is an explicit
AssertionError that some test trips."""

import ast
import builtins
import re
import tokenize
from pathlib import Path

import linequiv

ROOT = Path(__file__).resolve().parents[1]


def _imports(path: Path) -> dict[str, set[str]]:
    """{linequiv module: names imported from it} for one source file."""
    out: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if not module.startswith("linequiv"):
                    continue
                module = module.removeprefix("linequiv").lstrip(".")
            if module:
                out.setdefault(module, set()).update(a.name for a in node.names)
            else:  # from . import x
                for alias in node.names:
                    out.setdefault(alias.name, set()).add("*")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("linequiv."):
                    out.setdefault(alias.name.removeprefix("linequiv."), set()).add("*")
    return out


def test_oracle_shares_no_code_with_the_contraction_route():
    package = ROOT / "src" / "linequiv"
    imports = _imports(package / "oracle.py")
    assert "contraction" not in imports
    assert imports.get("invariants", set()) <= {"InvariantRecord", "cyclotomic_refine"}
    assert set(imports) <= {"echelon", "invariants", "linearize", "ratpoly", "smith"}
    # the oracle's own helpers import no further linequiv code
    assert set(_imports(package / "echelon.py")) == set()
    assert set(_imports(package / "smith.py")) <= {"ratpoly"}


def test_only_the_oracle_reaches_the_smith_fallback():
    # so retiring the fallback deletes smith.py and one import in oracle.py;
    # a module name in a string counts too (`_lazy_submodule("smith")`)
    package = ROOT / "src" / "linequiv"
    importers = []
    for path in sorted(package.glob("*.py")):
        names = {node.value for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        if "smith" in _imports(path) or names & {"smith", "linequiv.smith"}:
            importers.append(path.name)
    assert importers == ["oracle.py"]


def _modules(path: Path) -> set[str]:
    """Every module an import statement in the file names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return ({alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
            | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)})


def test_the_rank_route_reads_integer_rows_only():
    # a pair is held as integer rows, so the rank route needs no rationals:
    # only the Smith fallback (smith.py, ratpoly.py) and the pair-file
    # reader import them
    package = ROOT / "src" / "linequiv"
    for name in ("oracle", "echelon"):
        assert "fractions" not in _modules(package / f"{name}.py"), name


# the modules a graph command compiles
GRAPH_ROUTE = ("__init__", "cli", "parsing", "relation", "contraction", "invariants")


def test_graph_route_imports_no_dataclasses_and_no_ratpoly():
    # `@dataclass` compiles and runs generated source for each class at
    # import; and an import statement of `ratpoly`, even `from . import
    # ratpoly`, can read the lazy module's `__spec__` and so run it: the
    # graph route reaches it only through `_lazy_submodule("ratpoly")`
    package = ROOT / "src" / "linequiv"
    for name in GRAPH_ROUTE:
        path = package / f"{name}.py"
        assert "dataclasses" not in _modules(path), name
        assert "ratpoly" not in _imports(path), name


def test_eager_modules_stay_under_the_parsers_token_step():
    # Python's parser holds ~0.3 KiB per token of the module it compiles and
    # steps its peak up by ~226 KiB at 4096 tokens; a graph command compiles
    # these modules on every cold start, so each stays below that step.
    package = ROOT / "src" / "linequiv"
    # The `oracle` and `fuzz` commands compile the oracle and its kernels too.
    for name in (*GRAPH_ROUTE, "oracle", "echelon"):
        with (package / f"{name}.py").open(encoding="utf-8") as source:
            tokens = sum(1 for _ in tokenize.generate_tokens(source.readline))
        assert tokens < 4096, (name, tokens)


def _names_read(paths) -> set[str]:
    """Every name the files read, import, or look up as an attribute."""
    out: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                out.update(alias.name for alias in node.names)
    return out


def test_every_public_name_has_a_reader_besides_the_tests():
    # a public name is read by the package outside its own definition, or is
    # library surface that README.md names in code or a demo uses
    package = ROOT / "src" / "linequiv"
    in_src = _names_read(p for p in package.glob("*.py") if p.name != "__init__.py")
    in_demos = _names_read((ROOT / "demos").glob("*.py"))
    readme = set(re.findall(r"`([A-Za-z_]\w*)", (ROOT / "README.md").read_text(encoding="utf-8")))
    unread = [name for name in linequiv.__all__ if name not in in_src | in_demos | readme]
    assert unread == []


def test_a_failed_self_check_is_an_assertion_error():
    # a self-check raises AssertionError where an assert statement would be
    # stripped by `python -O`, and rejected input raises a ValueError; the
    # only exception classes name kinds of rejected input
    package = ROOT / "src" / "linequiv"
    builtin_errors = {name for name, value in vars(builtins).items()
                      if isinstance(value, type) and issubclass(value, BaseException)}
    asserts, bases = [], {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                asserts.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ClassDef):
                bases[node.name] = {getattr(b, "id", getattr(b, "attr", None))
                                    for b in node.bases}
    errors: set[str] = set()
    while grown := {name for name, of in bases.items() if of & (builtin_errors | errors)} - errors:
        errors |= grown
    assert asserts == []
    assert errors == {"GraphError", "OracleFactorError", "ParseError", "_Usage"}


# the constant text of every `raise AssertionError(...)` message in the
# contraction route and the oracle, up to its first formatted value
SELF_CHECKS = {
    "contraction.py": [
        "stable shape: a branching component in the stable relation",
        "the left-first and right-first chains reach different fixpoints",
        "the left-first and right-first chains count different gamma(k, k)",
    ],
    "invariants.py": [
        "negative multiplicity: ",
        "edge and vertex identities fail: record accounts for ",
        "dual forms disagree: ",
        "negative multiplicity: ",
        "negative multiplicity: ztz[",
        "negative multiplicity: ztz[0] = ",
        "primitive invariants and records disagree",
    ],
    "oracle.py": [
        "nullity sequence starts at ",
        "nullity sequence is not concave",
        "row solution dimensions failed to saturate",
        "row solution dimensions failed to saturate",
        "local Jordan chains failed to saturate",
        "lifted rank at d=",
        "lifted Jordan type at d=",
        "regular degree: roots of unity carry more than ",
        "regular degree: singular and nilpotent parts exceed ",
        "Smith form and local ranks disagree on zt",
    ],
}


def _message_head(node: ast.expr) -> str:
    if isinstance(node, ast.Constant):
        return node.value
    head = ""
    for part in node.values:  # an f-string
        if not isinstance(part, ast.Constant):
            break
        head += part.value
    return head


def test_every_self_check_has_a_test_that_trips_it():
    # a pattern trips a check when it matches within the check's constant
    # text, or when its literal text starts with all of it
    package = ROOT / "src" / "linequiv"
    found = {}
    for name in SELF_CHECKS:
        raises = sorted((node.lineno, node.exc.args[0]) for node in
                        ast.walk(ast.parse((package / name).read_text(encoding="utf-8")))
                        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                        and getattr(node.exc.func, "id", None) == "AssertionError")
        found[name] = [_message_head(message) for _, message in raises]
    assert found == SELF_CHECKS
    patterns = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "raises"
                    and node.args and getattr(node.args[0], "id", None) == "AssertionError"):
                patterns += [k.value.value for k in node.keywords if k.arg == "match"]
    untripped = [head for heads in SELF_CHECKS.values() for head in heads
                 if not any(re.search(p, head) or re.sub(r"\\(.)", r"\1", p).startswith(head)
                            for p in patterns)]
    assert untripped == []
