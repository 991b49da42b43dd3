"""The benchmark tracer's lookup sites still exist in the package.

``perfbench/spans.py`` wraps entry points by module attribute or class
attribute name; a rename here would otherwise only surface when a traced
benchmark run fails.
"""

import importlib.util
import sys
from pathlib import Path

import heritage_catalog as hc
import heritage_catalog.cli  # noqa: F401  (makes hc.cli available)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_target_resolves():
    targets = load_spans()._targets(hc)
    assert targets
    for owner, attr, name, kind in targets:
        where = f"{getattr(owner, '__name__', owner)}.{attr} ({name})"
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr)
            assert raw is not None, f"{where} is not defined on the class"
            assert isinstance(raw, classmethod) == (kind == "classmethod"), where
        else:
            assert callable(getattr(owner, attr, None)), f"{where} does not resolve"
