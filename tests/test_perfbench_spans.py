"""Every span the benchmark tracer times must still name a function of ddlab.

The tracer (perfbench/tracer.py) rebinds a fixed list of functions by module
and attribute path; one that is renamed or deleted makes a traced benchmark
run fail.  This reads the list and changes nothing under perfbench/.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves():
    tracer = _load_tracer()
    assert tracer.SPANS
    missing = []
    for span in tracer.SPANS:
        try:
            _, _, fn = tracer.resolve(span)
        except (AttributeError, KeyError):
            missing.append(span)
            continue
        assert callable(fn), span
    assert not missing, f"spans that name no ddlab function: {missing}"
