"""The package exports no name that nothing uses and imports nothing
beyond the standard library."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "orbicover"


def _exports() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def _references(path: Path) -> set[str]:
    """Names a file reads: bare names, attributes and by-name imports.
    Definitions (def, class, assignment targets) are not reads."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_export_is_used():
    # uses in the package itself, the demos or the benchmark count; the
    # export list and the tests do not
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    used = set().union(*(_references(p) for p in files))
    exports = _exports()
    assert len(exports) > 50
    assert [name for name in exports if name not in used] == []


def test_package_imports_only_the_standard_library():
    imported = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert "fractions" in imported
    assert sorted(imported - set(sys.stdlib_module_names) - {"orbicover"}) == []
