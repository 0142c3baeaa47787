"""Tests of the outside-in tracer.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from array import array

import pytest

import run
import tracer as tracing
import workloads
from ddlab import DDPresentation, cancellation


def _bindings():
    """Identity of every module attribute and class attribute in ddlab."""
    out = {}
    for module in tracing.ddlab_modules():
        for key, value in vars(module).items():
            out[(module.__name__, key)] = value
            if isinstance(value, type) and value.__module__.startswith("ddlab"):
                for attr, member in vars(value).items():
                    out[(module.__name__, key, attr)] = member
    return out


def test_install_rebinds_every_alias_and_uninstall_restores():
    before = _bindings()
    originals = {span: tracing.resolve(span)[2] for span in tracing.SPANS}
    t = tracing.Tracer()
    t.install()
    try:
        installed = _bindings()
        leftovers = [key for key, value in installed.items()
                     if any(value is fn for fn in originals.values())]
        assert not leftovers
        for span, fn in originals.items():
            owner, attr, current = tracing.resolve(span)
            assert current.__wrapped_original__ is fn, span
        # an alias imported into several modules: every copy is the same wrapper
        import ddlab
        from ddlab import derivations, elements, isomorphisms, laurent
        wrapped = laurent.eval_poly_at_laurent
        assert wrapped is not originals["laurent.eval"]
        for module in (ddlab, elements, derivations, isomorphisms):
            assert module.eval_poly_at_laurent is wrapped
    finally:
        t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_install_twice_is_refused():
    t = tracing.Tracer()
    t.install()
    try:
        with pytest.raises(RuntimeError):
            t.install()
    finally:
        t.uninstall()


def test_traced_certificate_json_is_byte_identical():
    p = DDPresentation.make([], 1, 2, "Z^2 - 1", "Y^2 + Z")
    plain = json.dumps(cancellation.cancellation_certificate(p).to_json())
    t = tracing.Tracer()
    t.install()
    try:
        t.active = True
        traced = json.dumps(cancellation.cancellation_certificate(p).to_json())
        t.active = False
    finally:
        t.uninstall()
    assert traced == plain
    snap = t.snapshot()
    assert snap["calls"]["cancellation.certificate"] == 1
    assert snap["calls"]["cancellation.to_json"] == 1


def test_fold_derives_self_time_and_counts_recursion_once():
    t = tracing.Tracer()
    a, b = t.names.index("poly.mul"), t.names.index("poly.add")
    # poly.mul [0, 10] -> poly.add [1, 4] -> poly.mul [2, 3]
    t._name = array("i", [a, b, a])
    t._parent = array("i", [-1, 0, 1])
    t._start = array("d", [0.0, 1.0, 2.0])
    t._end = array("d", [10.0, 4.0, 3.0])
    t.fold()
    assert t.calls["poly.mul"] == 2 and t.calls["poly.add"] == 1
    assert t.incl["poly.mul"] == 10.0
    assert t.self_time["poly.mul"] == pytest.approx(7.0 + 1.0)
    assert t.self_time["poly.add"] == pytest.approx(2.0)
    assert t.pair_incl[("poly.mul", "poly.add")] == 3.0
    assert t.pair_incl[("poly.add", "poly.mul")] == 1.0
    assert len(t._start) == 0


def _traced_snapshot(w, inputs):
    t = tracing.Tracer()
    t.install()
    tally = run.Tally()
    try:
        for pos, x in enumerate(inputs):
            run.attempt(w, x, pos, tally, t)
    finally:
        t.uninstall()
    assert tally.failed == 0
    return t.snapshot()


def _nonzero(snap, names):
    return [n for n in names if not snap["calls"].get(n)]


def test_layers_on_derivation_grid():
    w = workloads.DerivationGrid(3)
    snap = _traced_snapshot(w, w.passes[0])
    assert not _nonzero(snap, ["poly.mul", "poly.add", "laurent.eval", "laurent.mul",
                               "derivations.apply_expr", "derivations.exp_apply",
                               "derivations.exp_map", "derivations.check_exp_axioms",
                               "derivations.nilpotency_index"])
    assert snap["calls"].get("groebner.normal_form", 0) == 0
    assert snap["calls"].get("groebner.buchberger", 0) == 0


def test_layers_on_ideal_ops():
    w = workloads.IdealOps(3)
    snap = _traced_snapshot(w, w.passes[0] + w.passes[1])
    assert not _nonzero(snap, ["groebner.normal_form", "groebner.buchberger",
                               "groebner.reduce_to_gens", "groebner.elimination_ideal",
                               "presentations.omega3_check", "elements.membership"])
    assert snap["counts"]["elements.membership.nonmember"] == 1
    assert snap["counts"]["groebner.buchberger.basis_size"] > 0


def _smallest_cell(w):
    return min((x for p in w.passes for x in p), key=lambda x: x[1].r * x[1].s)


def test_layers_on_cert_family():
    w = workloads.CertFamily(3)
    snap = _traced_snapshot(w, [_smallest_cell(w)])
    pairs = {(p, c) for p, c, _ in snap["pairs"]}
    missing = [s for s, span in tracing.STAGES.items() if ("cancellation.certificate", span) not in pairs]
    assert not missing
    assert not _nonzero(snap, ["cancellation.to_json", "isomorphisms.apply_expr",
                               "isomorphisms.verify_hom", "elements.membership",
                               "elements.to_laurent", "elements.reduce_witness",
                               "groebner.reduce_to_gens", "groebner.normal_form", "laurent.eval"])
    metrics = tracing.layer_metrics(snap, 1)
    assert metrics["groebner.reduce_to_gens.backsub_s"][0] > 0
    assert metrics["cancellation.express_old_generators.incl_s"][0] > 0


def test_paired_rounds_trace_odd_rounds_only_and_restore_bindings():
    before = _bindings()
    w = workloads.DerivationGrid(3)
    w.passes = [w.passes[0][:2]]
    t = tracing.Tracer()
    plain, under = run.run_in_process(w, 0.001, t)
    assert _bindings() == before
    rounds = workloads.DerivationGrid.ROUNDS
    assert plain.attempted == (rounds + 1) // 2 * 2 and under.attempted == rounds // 2 * 2
    assert plain.failed == under.failed == 0
    assert plain.fingerprints == under.fingerprints
    assert t.snapshot()["calls"]["derivations.exp_map"] == under.attempted


def test_layers_on_cli_batch():
    """The CLI traced in its forked pool workers reports the pipeline layers."""
    workdir = run.WORK_BASE / f"test-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        w = workloads.CliBatch(3, workdir)
        files = [f for f in w.passes[0][0]][1:3]  # two small cells
        w.passes = [[files]]
        plain, under = run.run_cli(w, 0.01, workdir, paired=True)
        rounds = workloads.CliBatch.ROUNDS
        assert plain.attempted == under.attempted == rounds // 2 and plain.failed == under.failed == 0
        assert plain.fingerprints == under.fingerprints
        assert not plain.traces
        snap = tracing.merge(under.traces)
        assert snap["calls"]["cancellation.certificate"] == 2 * under.attempted
        assert snap["calls"]["cancellation.express_old_generators"] == 2 * under.attempted
        assert plain.cpu > 0 and under.cpu > 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_isolation_check_reports_a_workload_that_lost_its_layer():
    snap = {"calls": {"groebner.normal_form": 3}, "incl": {"laurent.eval": 0.5}, "pairs": []}
    assert run.isolation_problems("derivation-grid", snap, 1.0)
    assert run.isolation_problems("ideal-ops", snap, 1.0)
    assert not run.isolation_problems("ideal-ops", snap, 100.0)
    stages = [["cancellation.certificate", "presentations.omega3_check", 2.0],
              ["cancellation.certificate", "cancellation.express_old_generators", 1.0]]
    assert run.isolation_problems("cert-family", {**snap, "pairs": stages}, 1.0)
    stages[1][2] = 3.0
    assert not run.isolation_problems("cert-family", {**snap, "pairs": stages}, 1.0)


def test_refuses_to_run_without_sources():
    """In a directory holding only BENCHMARK.json and perfbench/ the command fails."""
    bare = run.WORK_BASE / f"bare-{os.getpid()}"
    try:
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ideal-ops", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_rounds_keep_the_median_run_and_flag_changed_outputs():
    tally = run.Tally()
    for pos, dt in ((0, 3.0), (1, 2.0), (0, 1.0), (1, 4.0), (0, 1.5)):
        tally.record(pos, dt, True, "same")
    assert tally.latencies() == [1.5, 3.0] and tally.failed == 0
    tally.record(1, 0.5, True, "other")
    assert tally.latencies() == [1.5, 2.0] and tally.bad == [False, True] and tally.failed == 1
    assert tally.ops_per_s == 1 / 3.5


def test_tail_leaves_ten_samples_beyond():
    lat = [i / 1000 for i in range(1, 101)]
    t = run.tail(lat)
    assert t["percentile"] == 90 and t["beyond"] == 10 and t["value_ms"] == pytest.approx(90.0)
    assert run.tail(lat[:5])["percentile"] == 100
