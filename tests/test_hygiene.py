"""Source hygiene: every module-level import of the package is used."""

import ast
import pathlib

import concentro

PACKAGE = pathlib.Path(concentro.__file__).parent


def _unused_imports(path):
    """`file:line name` of each module-level import whose name the module
    never reads; `__future__` imports and lines marked `# noqa` are exempt."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or "# noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                out.append(f"{path.name}:{node.lineno} {name}")
    return out


def test_every_module_level_import_is_used():
    # the package root imports only to re-export
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [u for path in modules for u in _unused_imports(path)] == []
