"""The benchmark's span tracer still finds every function it wraps.

The tracer patches program functions by name, so removing or renaming one
of them breaks the traced benchmark run; this test fails first.
"""

import importlib.util
from pathlib import Path

from oscbath import thermo

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_uninstall_restore_every_name():
    tracer = _load_tracer()
    original = thermo.k_exponential
    t = tracer.Tracer()
    try:
        t.install()
        assert thermo.k_exponential is not original
    finally:
        t.uninstall()
    assert thermo.k_exponential is original
