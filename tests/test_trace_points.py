"""The benchmark's trace points (perfbench/spans.py) name functions the program still defines."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_trace_point_resolves():
    # spans.patched() replaces owner.__dict__[leaf], so each trace point must
    # be defined on its owner itself, not inherited or missing
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACE_POINTS
    for module_name, attr, _ in spans.TRACE_POINTS:
        owner, leaf = spans._resolve(module_name, attr)
        assert callable(owner.__dict__.get(leaf)), f"{module_name}.{attr}"
