"""Every span the benchmark tracer times must still name a function of ddlab,
and tracing must still work.

The tracer (perfbench/tracer.py) rebinds a fixed list of functions by module
and attribute path; one that is renamed or deleted makes a traced benchmark
run fail, and so does a counter that reads an attribute which is gone.
These tests load the tracer and change nothing under perfbench/.
"""

import importlib.util
import json
from pathlib import Path

import pytest

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


def test_a_traced_certificate_is_the_untraced_one_and_counts_its_layers():
    # the counters read results through the public API (`LaurentForm.coeffs`,
    # the witness polynomial), so a traced run must still fill them
    from ddlab import DDPresentation, cancellation

    tracer = _load_tracer().Tracer()
    pres = DDPresentation.make([], 1, 2, "Z^2 + 1", "Y^2 + Z")
    untraced = json.dumps(cancellation.cancellation_certificate(pres).to_json())
    tracer.install()
    try:
        tracer.active = True
        traced = json.dumps(cancellation.cancellation_certificate(pres).to_json())
        tracer.active = False
    finally:
        tracer.uninstall()
    assert traced == untraced
    snap = tracer.snapshot()
    assert snap["calls"]["laurent.eval"] > 0 and snap["calls"]["elements.membership"] > 0
    assert snap["counts"]["laurent.eval.out_terms"] > 0
    assert snap["counts"]["elements.membership.witness_terms"] > 0


def test_every_stage_is_a_direct_child_of_the_certificate():
    # perfbench/run.py's cert-family isolation check reads each stage's time
    # as the pair (cancellation.certificate, stage span); a stage called
    # through a helper would read 0 there, and the check would judge nothing
    from ddlab import DDPresentation, cancellation

    module = _load_tracer()
    tracer = module.Tracer()
    pres = DDPresentation.make([], 1, 2, "Z^2 - 1", "Y^2 + Z")
    tracer.install()
    try:
        tracer.active = True
        cert = cancellation.cancellation_certificate(pres)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert cert.certified
    snap = tracer.snapshot()
    children = {c for p, c, _ in snap["pairs"] if p == "cancellation.certificate"}
    missing = [span for span in module.STAGES.values() if span not in children]
    assert not missing, f"stage spans not called directly by the certificate: {missing}"
    assert all(t > 0 for t in module.stage_times(snap).values())


@pytest.mark.parametrize("cell", [(1, 2, "Z^2 - 1", "Y^2 + Z"), (2, 2, "Z^4 - 1", "Y^3 + Z")],
                         ids=["dd1", "2-2-4-3"])
def test_the_complement_stage_reuses_omega3_bases_and_the_map(cell):
    # omega3 solves the two unit ideals and the complement stage reads the
    # Bezout rows of those bases through reduce_to_gens, the call that
    # perfbench/tests/test_tracer.py::test_layers_on_cert_family requires;
    # the derivation is read off the map, not built a second time
    from ddlab import DDPresentation, cancellation

    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        tracer.active = True
        cert = cancellation.cancellation_certificate(DDPresentation.make([], *cell))
        tracer.active = False
    finally:
        tracer.uninstall()
    assert cert.certified
    snap = tracer.snapshot()
    assert snap["calls"]["groebner.buchberger"] == 4
    assert snap["calls"]["derivations.canonical_lnd"] == 1
    pairs = {(p, c) for p, c, _ in snap["pairs"]}
    assert ("cancellation.build_complement_variable", "groebner.reduce_to_gens") in pairs
