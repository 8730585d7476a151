"""The benchmark's workloads still run and pass their own checks.

Each workload calls the program by name and checks its outputs with the
bounds of ``oscbath check`` and the tests, so a change that breaks an item
fails here before it fails the benchmark run.
"""

import importlib.util
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _items(name: str, first: list) -> list:
    if name == "models":
        # one item per (family, member) pair
        return list({(inp[0], inp[1]): inp for inp in reversed(first)}.values())
    if name == "small_baths":
        return first[:3]
    return first


def test_first_cycle_items_pass_their_checks(tmp_path):
    workloads = _load_workloads()
    for name in workloads.WORKLOADS:
        w = workloads.make(name, 0, str(tmp_path / name))
        try:
            for inp in _items(name, w.first):
                try:
                    out = w.call(inp)
                except Exception as exc:
                    assert w.expected_error(inp, exc), (name, inp, exc)
                    continue
                assert w.check(inp, out, {}), (name, inp)
        finally:
            w.close()
