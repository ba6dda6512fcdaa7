"""Structural guards: the oracle stays independent of the contraction route
and its rank route reads integer rows only, every module a graph command
compiles stays below the parser's token step, only the oracle reaches the
Smith fallback, and every public name has a reader besides the tests."""

import ast
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


def test_the_rank_route_reads_integer_rows_only():
    # a pair is held as integer rows, so the rank route needs no rationals:
    # only the Smith fallback (smith.py, ratpoly.py) and the pair-file
    # reader import them
    package = ROOT / "src" / "linequiv"
    for name in ("oracle", "echelon"):
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names}
        modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "fractions" not in modules, name


def test_eager_modules_stay_under_the_parsers_token_step():
    # Python's parser holds ~0.3 KiB per token of the module it compiles and
    # steps its peak up by ~226 KiB at 4096 tokens; a graph command compiles
    # these modules on every cold start, so each stays below that step.
    package = ROOT / "src" / "linequiv"
    for name in ("__init__", "cli", "parsing", "relation", "contraction", "invariants"):
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
