"""Structural guards: the oracle stays independent of the contraction route,
and every module a graph command compiles stays below the parser's token step."""

import ast
import tokenize
from pathlib import Path

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


def test_eager_modules_stay_under_the_parsers_token_step():
    # Python's parser holds ~0.3 KiB per token of the module it compiles and
    # steps its peak up by ~226 KiB at 4096 tokens; a graph command compiles
    # these modules on every cold start, so each stays below that step.
    package = ROOT / "src" / "linequiv"
    for name in ("__init__", "cli", "parsing", "relation", "contraction", "invariants"):
        with (package / f"{name}.py").open(encoding="utf-8") as source:
            tokens = sum(1 for _ in tokenize.generate_tokens(source.readline))
        assert tokens < 4096, (name, tokens)
