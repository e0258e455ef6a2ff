"""benchmarks/count_ops.py — the deterministic bytecode counter.

Op counts are the unit the fast-path audit is written in; they are only
worth recording if unchanged code counts the same on every run.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

from repro.core import FullMEB

from tests.conftest import make_mt_pipeline

ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "count_ops", ROOT / "benchmarks" / "count_ops.py"
)
count_ops = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_ops)


def _build_and_drive() -> int:
    sim, _src, sink, _mebs, _mons = make_mt_pipeline(
        FullMEB, threads=2, items=[list(range(20)), list(range(20, 40))],
        n_stages=2,
    )
    sim.run(until=lambda _s: sink.count == 40, max_cycles=400)
    return sim.cycle


def test_counting_one_design_twice_gives_identical_numbers():
    # One uncounted run first: lazy imports on the first build would
    # otherwise be counted once and not again.
    _build_and_drive()
    first = count_ops.count(_build_and_drive)
    second = count_ops.count(_build_and_drive)
    assert first == second
    cycles, ops, calls = first
    assert ops > calls > cycles > 0


def test_previous_tracer_is_restored():
    before = sys.gettrace()
    count_ops.count(lambda: None)
    assert sys.gettrace() is before


def test_fast_path_audit_lists_every_override():
    # A new hand-written step or plan must enter the audit's variant
    # list, or it would never be measured against the plain methods.
    import importlib
    import pkgutil

    import repro
    from repro.kernel.component import Component

    spec = importlib.util.spec_from_file_location(
        "audit_fast_paths", ROOT / "benchmarks" / "audit_fast_paths.py"
    )
    audit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(audit)

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    found = set()
    pending = [Component]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls is Component or not cls.__module__.startswith("repro."):
            continue
        for hook in ("compile_comb", "compile_seq"):
            if hook in vars(cls):
                found.add((cls.__module__, cls.__name__, hook))
    assert found == set(audit.OVERRIDES)
