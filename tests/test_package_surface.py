"""Every top-level definition of the package is reachable from a real caller.

The roots are the names the package namespace re-exports, ``cli.main``, the
names the benchmark's tracer wraps (``perfbench/tracer.py`` ``WRAPS``) and the
names ``perfbench/`` imports.  A definition that only tests reach belongs in
``tests/oracles.py``, not in ``src/``.  And no module of the package imports a
name it does not use.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "deepbnmf"
PERFBENCH = ROOT / "perfbench"


def _imported_names(tree, prefix):
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(prefix)
        for alias in node.names
    }


def _roots():
    roots = _imported_names(ast.parse((PACKAGE / "__init__.py").read_text()), "")
    roots.add("main")
    tracer = ast.parse((PERFBENCH / "tracer.py").read_text())
    wraps = next(
        node.value for node in tracer.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", "") == "WRAPS" for t in node.targets)
    )
    roots |= {name for _, name, _, _ in ast.literal_eval(wraps)}
    for path in PERFBENCH.glob("*.py"):
        roots |= _imported_names(ast.parse(path.read_text()), "deepbnmf")
    return roots


def _top_level_nodes():
    """Name of each top-level def, class or assignment, with the names its body uses."""
    uses, defs = {}, set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name}
                defs.add(node.name)
            elif isinstance(node, ast.Assign):
                names = {n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            else:
                continue
            used = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            used |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            for name in names:
                uses.setdefault(name, set()).update(used)
    return uses, defs


def test_every_definition_is_reachable():
    uses, defs = _top_level_nodes()
    reached, todo = set(), list(_roots())
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(uses.get(name, ()))
    unreached = sorted(defs - reached)
    assert not unreached, f"defined in src/ but reached only by tests: {unreached}"


def test_no_unused_imports():
    # __init__.py imports to re-export; elsewhere a name an import binds must
    # be used in its module, unless its line says "# noqa: F401" (the names
    # perfbench/tracer.py WRAPS patches on a module that does not call them).
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"
            ):
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, f"unused imports: {unused}"
