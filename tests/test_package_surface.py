"""The package surface: what every ``repro.*`` ``__init__`` exports.

One check per package, the one a stale export after a deletion trips:
every ``__all__`` name resolves, comes from a module under ``src/repro``,
and the ``__init__`` imports nothing it does not export.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent
PACKAGES = sorted(
    ".".join(init.parent.relative_to(PACKAGE_ROOT.parent).parts) for init in PACKAGE_ROOT.rglob("__init__.py")
)


@pytest.mark.parametrize("package_name", PACKAGES)
def test_exports_resolve_and_imports_are_exported(package_name):
    package = importlib.import_module(package_name)
    exported = set(package.__all__)
    assert len(exported) == len(package.__all__), "duplicate name in __all__"

    for name in exported:
        public = getattr(package, name)  # AttributeError names the stale export
        if inspect.isclass(public) or inspect.isfunction(public):
            assert public.__module__.startswith("repro."), f"{package_name}.{name} is defined in {public.__module__}"

    imported = set()
    for node in ast.parse(Path(package.__file__).read_text(encoding="utf-8")).body:
        assert not isinstance(node, ast.Import), f"{package_name}/__init__.py: plain 'import' at line {node.lineno}"
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module.startswith("repro."), (
                f"{package_name}/__init__.py imports from {node.module!r}, which is outside src/repro"
            )
            imported.update(alias.asname or alias.name for alias in node.names)
    assert imported <= exported, f"imported but not exported: {sorted(imported - exported)}"
    # What is exported without being imported must be defined in the __init__ itself.
    assert all(name.startswith("__") for name in exported - imported), sorted(exported - imported)
