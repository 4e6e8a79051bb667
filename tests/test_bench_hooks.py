"""The benchmark tracer's per-class hooks name attributes the classes own.

bench/tracer.py wraps a class entry point by replacing `owner.__dict__[name]`
for the length of a traced pass, so a method a backend only inherits makes
a traced run fail with KeyError.  This test reads the tracer's target list
and changes nothing under bench/.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_class_target_is_in_its_owner_namespace(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer

    missing = [f"{owner.__name__}.{name}" for owner, name, _ in tracer._layer_targets()
               if isinstance(owner, type) and name not in owner.__dict__]
    assert not missing, missing
