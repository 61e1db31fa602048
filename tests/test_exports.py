"""The package exports no name that nothing uses and imports nothing
beyond the standard library; its modules stay short, and the verifier
stays apart from the constructions it checks.  Every name is read from its
home, the module that defines it, and a module re-exports a name only
while the benchmark reads it there."""

import ast
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "orbicover"
MODULES = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}


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


def _bench_names() -> set[tuple[str, ...]]:
    """(module, name) for every package name the benchmark reads: as
    attributes, as by-name imports, or as the ("module", "name", ...) tuples
    of its tracer.  The tracer's ("module", "Class", "method") triples are
    kept whole."""
    out = set()
    for path in sorted((ROOT / "bench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                out.add((node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("orbicover."):
                out.update((node.module.split(".")[1], alias.name) for alias in node.names)
            elif isinstance(node, ast.Tuple) and len(node.elts) >= 2 and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts
            ):
                out.add(tuple(e.value for e in node.elts[:3]))
    return {key for key in out if key[0] in MODULES}


def test_benchmark_names_are_their_definitions():
    # the tracer wraps each function at every module attribute that holds
    # it, and ops.py calls through the modules it names: each name the
    # benchmark reads is the object its defining module holds, and each
    # counted method is where the tracer looks for it, in the class dict
    defined = {p.stem: _definitions(p) for p in PACKAGE.glob("*.py")}
    names = _bench_names()
    assert {"coxeter", "covers", "invariants", "orbicore", "pipeline", "serialize"} <= {
        key[0] for key in names
    }
    assert ("orbicore", "Orbicomplex", "piece") in names
    for key in sorted(names):
        mod, name = key[:2]
        homes = [home for home, names_there in defined.items() if name in names_there]
        assert len(homes) == 1, (key, homes)
        obj = getattr(importlib.import_module(f"orbicover.{mod}"), name)
        assert obj is getattr(importlib.import_module(f"orbicover.{homes[0]}"), name), key
        if len(key) == 3:
            assert callable(vars(obj).get(key[2])), key


def _reads_through_modules(path: Path) -> list[tuple[int, str, str]]:
    """(line, module, name) for every name a file takes from a package
    module M: `from .M import n` or `from orbicover.M import n`, and `M.n`
    where M was imported as a module."""
    tree = ast.parse(path.read_text())
    out, modules = [], set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if (node.level, node.module) in ((1, None), (0, "orbicover")):
            modules.update(alias.name for alias in node.names if alias.name in MODULES)
        elif node.level == 1 or node.module.startswith("orbicover."):
            mod = node.module.rpartition(".")[2]
            out.extend((node.lineno, mod, alias.name) for alias in node.names)
    out.extend(
        (node.lineno, node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    )
    return out


def test_every_name_is_read_from_its_home():
    # each name has one home, the module that defines it; the package root
    # and the re-exports that the benchmark reads serve other readers, not
    # the package, the tests or the demos
    defined = {p.stem: _definitions(p) for p in PACKAGE.glob("*.py")}
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    files += sorted((ROOT / "demos").glob("*.py"))
    reads = [(path, *read) for path in files for read in _reads_through_modules(path)]
    assert len(reads) > 200
    misread = [
        f"{path.relative_to(ROOT)}:{line} {mod}.{name}"
        for path, line, mod, name in reads
        if name not in defined[mod]
    ]
    assert misread == []


def _imports_and_reads(path: Path) -> tuple[set[str], set[str]]:
    """The names a module imports from the package, and the bare names it
    reads."""
    tree = ast.parse(path.read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    }
    return imported, {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_reexports_are_only_what_the_benchmark_reads():
    # orbicore and covers import a name they never read only because the
    # benchmark reads it there; the benchmark-contract change points the
    # harness at the defining modules and drops exactly these imports
    bench = _bench_names()
    unused, wanted = {}, {}
    for mod in ("orbicore", "covers"):
        path = PACKAGE / f"{mod}.py"
        imported, read = _imports_and_reads(path)
        unused[mod] = imported - read
        wanted[mod] = {key[1] for key in bench if key[0] == mod} - _definitions(path) - read
    assert unused == wanted
    assert sum(map(len, wanted.values())) == 6


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


def test_package_holds_no_assert_statement():
    # python -O strips asserts, so every internal check is an explicit raise
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
