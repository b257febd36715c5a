"""``repro.transpile`` is the only pass framework inside the package.

``repro.core.transpiler`` survives as a re-export for callers outside
``src``; no library module may import it, so a second framework cannot
grow back behind it.
"""

import ast
import pathlib

import repro

_PACKAGE = pathlib.Path(repro.__file__).parent
_LEGACY = "repro.core.transpiler"
_ALLOWED = _PACKAGE / "core" / "transpiler" / "__init__.py"


def _imported_modules(tree: ast.AST, module: str):
    """Absolute names of every module one file's imports reach."""
    package = module.rsplit(".", 1)[0]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                parts = parts[: len(parts) - node.level + 1]
                base = ".".join(parts + ([base] if base else []))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_no_module_imports_the_legacy_transpiler():
    offenders = []
    for path in sorted(_PACKAGE.rglob("*.py")):
        if path == _ALLOWED:
            continue
        rel = path.relative_to(_PACKAGE.parent).with_suffix("")
        module = ".".join(rel.parts)
        tree = ast.parse(path.read_text(), filename=str(path))
        for name in _imported_modules(tree, module):
            if name == _LEGACY or name.startswith(_LEGACY + "."):
                offenders.append(f"{module} imports {name}")
    assert not offenders, offenders


def test_legacy_package_is_a_bare_re_export():
    tree = ast.parse(_ALLOWED.read_text())
    assert not [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
    ]
    assert [p.name for p in _ALLOWED.parent.glob("*.py")] == ["__init__.py"]
