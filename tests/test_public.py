"""The package's public surface: every exported name resolves, every name
the package exports belongs to some module's ``__all__``, the continuous
modules export only what the program or the benchmark calls, and
``spectral`` computes its kernels without the quadrature module."""

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


def test_continuous_modules_export_only_what_the_program_calls():
    # a helper that only the tests call belongs in tests/oracles.py
    assert sorted(spectral.__all__) == [
        "Drude", "Exponential", "ExtendedDrude", "ExtendedOhmic", "InvalidModel",
        "ModelStatus", "Ohmic", "SpectralModel", "StatusTag", "UnsupportedKernel",
        "boundary_kernel", "classify_model", "g_plus", "gamma_plus",
        "gamma_plus_derivative", "parse_model",
    ]
    assert sorted(thermo.__all__) == [
        "DrudeParams", "EnergyOrDivergent", "ThermoReport", "drude_params_from_physical",
        "drude_params_to_physical", "free_energy_0_cont", "k_cont", "k_drude_closed",
        "k_drude_lambda", "k_exponential", "k_extended_drude1", "k_extended_drude2_closed",
        "limit_checks", "system_energy_0_cont", "thermo_report",
    ]


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
