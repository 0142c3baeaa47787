"""Every workload's output check can fail.

One wrong result is injected per case; the operation must be counted as
failed, so it shows in the run's failure ratio.
"""

import json
import os
import shutil
from dataclasses import replace

import pytest

import run
import workloads
from ddlab import cancellation, derivations, elements, groebner, presentations
from ddlab.elements import MembershipResult


def _one(w, x):
    tally = run.Tally()
    run.attempt(w, x, 0, tally)
    return tally


def _first(w, kind):
    return next(x for p in w.passes for x in p if x[0] == kind)


def _assert_counted_as_failure(tally):
    assert tally.attempted == 1 and tally.failed == 1
    assert run.summary(tally)["ops_failed_ratio"] == 1.0


@pytest.fixture(scope="module")
def cert():
    w = workloads.CertFamily(5)
    x = min((x for p in w.passes for x in p), key=lambda x: x[1].r * x[1].s)
    assert _one(w, x).failed == 0
    return w, x


def test_cert_family_flipped_step(cert, monkeypatch):
    w, x = cert
    original = cancellation.cancellation_certificate

    def flipped(p, *args, **kwargs):
        c = original(p, *args, **kwargs)
        c.steps[2] = replace(c.steps[2], passed=False)
        return c

    monkeypatch.setattr(cancellation, "cancellation_certificate", flipped)
    _assert_counted_as_failure(_one(w, x))


def test_cert_family_wrong_f(cert, monkeypatch):
    w, x = cert
    original = cancellation.cancellation_certificate

    def wrong_f(p, *args, **kwargs):
        c = original(p, *args, **kwargs)
        c.f = c.g
        return c

    monkeypatch.setattr(cancellation, "cancellation_certificate", wrong_f)
    _assert_counted_as_failure(_one(w, x))


def test_cert_family_exception_is_a_failure(cert, monkeypatch):
    w, x = cert

    def budget(*args, **kwargs):
        raise groebner.BudgetExceeded("injected")

    monkeypatch.setattr(cancellation, "cancellation_certificate", budget)
    _assert_counted_as_failure(_one(w, x))


def test_derivation_grid_wrong_nilpotency_index(monkeypatch):
    w = workloads.DerivationGrid(5)
    x = w.passes[0][0]
    assert _one(w, x).failed == 0
    original = derivations.nilpotency_index
    monkeypatch.setattr(derivations, "nilpotency_index",
                        lambda d, a, cap=32: original(d, a, cap) + 1)
    _assert_counted_as_failure(_one(w, x))


def test_derivation_grid_failed_axiom(monkeypatch):
    w = workloads.DerivationGrid(5)
    x = w.passes[0][0]
    original = derivations.check_exp_axioms

    def broken(phi):
        report = original(phi)
        return replace(report, items=report.items[:-1] + (replace(report.items[-1], passed=False),))

    monkeypatch.setattr(derivations, "check_exp_axioms", broken)
    _assert_counted_as_failure(_one(w, x))


@pytest.fixture(scope="module")
def ideal():
    return workloads.IdealOps(5)


def test_ideal_ops_members_have_shift_two(ideal):
    members = [x for p in ideal.passes[1:] for x in p if x[0] == "member"]
    assert members and all(-form.min_exp() == workloads.MAX_SHIFT for _, (_, form), _ in members)


def test_ideal_ops_perturbed_membership_witness(ideal, monkeypatch):
    x = next(x for p in ideal.passes[1:] for x in p if x[0] == "member")
    assert _one(ideal, x).failed == 0
    original = elements.membership_with_witness

    def perturbed(form, actx, *args):
        result = original(form, actx, *args)
        return MembershipResult(True, result.witness + actx.gen_ctx.one(), [])

    monkeypatch.setattr(elements, "membership_with_witness", perturbed)
    _assert_counted_as_failure(_one(ideal, x))


def test_ideal_ops_accepted_non_member(ideal, monkeypatch):
    x = next(x for x in ideal.passes[0] if x[0] == "member")
    assert x[2] is True
    assert _one(ideal, x).failed == 0
    monkeypatch.setattr(elements, "membership_with_witness",
                        lambda form, actx, *args: MembershipResult(True, actx.gen_ctx.zero(), []))
    _assert_counted_as_failure(_one(ideal, x))


def test_ideal_ops_wrong_fiber_generator(ideal, monkeypatch):
    x = _first(ideal, "fiber")
    assert _one(ideal, x).failed == 0
    original = groebner.elimination_ideal
    monkeypatch.setattr(groebner, "elimination_ideal",
                        lambda gens, keep, *a: [g.scale(2) for g in original(gens, keep, *a)])
    _assert_counted_as_failure(_one(ideal, x))


def test_ideal_ops_flipped_omega3_verdict(ideal, monkeypatch):
    x = next(x for p in ideal.passes for x in p if x[0] == "omega3" and x[2])
    assert _one(ideal, x).failed == 0
    original = presentations.omega3_check

    def flipped(p, *args, **kwargs):
        report = original(p, *args, **kwargs)
        items = report.items[:-1] + (replace(report.items[-1], passed=not report.items[-1].passed),)
        return replace(report, items=items)

    monkeypatch.setattr(presentations, "omega3_check", flipped)
    _assert_counted_as_failure(_one(ideal, x))


def test_ideal_ops_truncated_groebner_basis(ideal, monkeypatch):
    x = next(x for p in ideal.passes for x in p
             if x[0] == "buchberger" and len(groebner.buchberger(x[1]).polys) > 1)
    assert _one(ideal, x).failed == 0
    original = groebner.buchberger

    def truncated(gens, *args, **kwargs):
        gb = original(gens, *args, **kwargs)
        return replace(gb, polys=gb.polys[:1], cofactors=gb.cofactors[:1])

    monkeypatch.setattr(groebner, "buchberger", truncated)
    _assert_counted_as_failure(_one(ideal, x))


def test_cli_report_check_rejects_wrong_verdict_and_exit_code():
    good = json.dumps([{"input": "a.json", "verdict": "non-cancellation pair certified"}])
    workloads.CliBatch.check_report(0, good, 1)
    bad = json.dumps([{"input": "a.json", "verdict": "failed at guards: requires e > 1"}])
    for code, report, n in ((0, bad, 1), (1, good, 1), (0, good, 2)):
        with pytest.raises(workloads.CheckFailed):
            workloads.CliBatch.check_report(code, report, n)


def test_cli_batch_with_a_failing_file_counts_as_failed():
    workdir = run.WORK_BASE / f"inject-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        w = workloads.CliBatch(5, workdir)
        files = w.passes[0][0][1:3]
        # e = 1 cannot be certified: the CLI exits 1 with a failed verdict
        files[1].write_text(json.dumps({"base_vars": [], "d": 1, "e": 1, "P": "Z^2 + 1",
                                        "Q": "Y^2 + Z"}), encoding="utf-8")
        w.passes = [[files]]
        tally, _ = run.run_cli(w, 0.01, workdir)
        assert tally.attempted == workloads.CliBatch.ROUNDS == tally.failed
        assert run.summary(tally)["ops_failed_ratio"] == 1.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
