"""The package's public surface: every exported name resolves, every name
the package exports belongs to some module's ``__all__``, and ``spectral``
computes its kernels without the quadrature module."""

import ast
import types
from pathlib import Path

import oscbath
from oscbath import discrete, quadrature, specfun, spectral, thermo

MODULES = (discrete, quadrature, specfun, spectral, thermo)


def test_every_name_in_all_resolves():
    for module in MODULES:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_every_package_name_is_in_some_all():
    exported = {name for module in MODULES for name in module.__all__}
    public = {name for name, value in vars(oscbath).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public <= exported, sorted(public - exported)


def _imported(tree: ast.AST):
    """The dotted names that the import statements of ``tree`` read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from (f"{node.module or ''}.{alias.name}" for alias in node.names)


def test_spectral_does_not_import_quadrature():
    tree = ast.parse(Path(spectral.__file__).read_text())
    names = [name for name in _imported(tree) if "quadrature" in name.split(".")]
    assert not names, names
