"""Names that code outside the package reaches by attribute lookup.

The benchmark's tracer (`perfbench/tracer.py`) replaces charqa functions by
name with `getattr`/`setattr`, so a renamed or removed function breaks every
traced run; the public `__all__` lists promise names to importers.
"""

import importlib
import pkgutil
from pathlib import Path

import charqa

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_hooks_restore_and_exports_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    tracer.install()
    try:
        originals = {}
        for owner, attr, orig in tracer.patches:
            originals.setdefault((owner, attr), orig)
            assert getattr(owner, attr) is not orig, attr
        assert originals
    finally:
        tracer.uninstall()
    for (owner, attr), orig in originals.items():
        assert getattr(owner, attr) is orig, attr

    missing = [name for name in charqa.__all__ if not hasattr(charqa, name)]
    for info in pkgutil.iter_modules(charqa.__path__):
        module = importlib.import_module(f"charqa.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert not missing
