"""The benchmark's span tracer wraps callables of ``scnls`` by name.

``perfbench/spans.py`` looks every target up with ``getattr`` when it
installs, so a renamed or deleted target breaks ``perfbench/run.py --trace
1``.  This test reads the target tables (without installing anything) and
fails on such a rename first.
"""

import importlib
import importlib.util
from pathlib import Path

import scnls  # noqa: F401  (the targets must resolve after a plain import)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    spans = _spans_module()
    assert spans._FUNCTION_TARGETS and spans._METHOD_TARGETS
    for _, module_name, attr, _ in spans._FUNCTION_TARGETS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
    for _, module_name, cls_name, attr in spans._METHOD_TARGETS:
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        assert cls is not None, f"{module_name}.{cls_name}"
        assert callable(vars(cls).get(attr)), f"{module_name}.{cls_name}.{attr}"
