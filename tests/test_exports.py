"""The package exports no name that nothing uses and imports nothing
beyond the standard library; its modules stay short, and the verifier
stays apart from the constructions it checks."""

import ast
import importlib
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


def test_no_module_is_longer_than_550_lines():
    # each process compiles src/ from source when no bytecode is current,
    # and CPython's compile peak grows with the length of a module: the
    # compile of the largest module set the peak RSS of the ladder-invariants
    # and demo-pipeline workloads, above what their computation needs
    lengths = {p.name: len(p.read_text().splitlines()) for p in PACKAGE.glob("*.py")}
    assert {name: n for name, n in lengths.items() if n > 550} == {}


def _definitions(path: Path) -> set[str]:
    """Names a module defines at its top level."""
    out = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update(t.id for t in targets if isinstance(t, ast.Name))
    return out


def _bench_names() -> set[tuple[str, str]]:
    """(module, name) for every covers.X and orbicore.X the benchmark reads,
    as attributes or as the ("module", "name", ...) tuples of its tracer."""
    out = set()
    for path in sorted((ROOT / "bench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                out.add((node.value.id, node.attr))
            elif isinstance(node, ast.Tuple) and len(node.elts) >= 2 and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts
            ):
                out.add((node.elts[0].value, node.elts[1].value))
    return {(mod, name) for mod, name in out if mod in ("covers", "orbicore")}


def test_benchmark_names_are_their_definitions():
    # covers and orbicore re-export what moved out of them; each name the
    # benchmark reads there is the object its defining module holds
    defined = {p.stem: _definitions(p) for p in PACKAGE.glob("*.py")}
    names = _bench_names()
    assert ("covers", "verify_covering") in names and ("orbicore", "Orbicomplex") in names
    for mod, name in sorted(names):
        homes = [home for home, names_there in defined.items() if name in names_there]
        assert len(homes) == 1, (mod, name, homes)
        obj = getattr(importlib.import_module(f"orbicover.{mod}"), name)
        assert obj is getattr(importlib.import_module(f"orbicover.{homes[0]}"), name), (mod, name)


def _package_imports(path: Path) -> set[str]:
    """The package modules a module imports."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.update([node.module] if node.module else [a.name for a in node.names])
    return out


def test_verifier_imports_no_builder():
    # the checker shares no code with the constructions it checks
    assert _package_imports(PACKAGE / "verify.py") == {"graphs", "orbicore"}


def test_package_imports_form_no_cycle():
    deps = {p.stem: _package_imports(p) for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    done: list[str] = []
    while len(done) < len(deps):
        ready = sorted(m for m in deps if m not in done and deps[m] <= set(done))
        assert ready, {m: deps[m] - set(done) for m in deps if m not in done}
        done += ready
