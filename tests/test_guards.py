"""Structural guard: the oracle stays independent of the contraction route."""

import ast
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
