"""The benchmark's in-process workloads still run on ddlab and pass their checks.

perfbench/workloads.py reads ddlab names such as `cert.small_presentation`,
`p_at_x0()` and the `budget=` keyword of `buchberger`; one that leaves the
library makes the benchmark fail.  This runs `op` and then `check` on one
small input of each kind, and changes nothing under perfbench/.  The
fingerprints of the first pass on seed 1 are pinned, so a change to the
certificates or the derivation results that the benchmark compares shows
here.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(workload, x):
    result = workload.op(x)
    workload.check(x, result)
    assert workload.fingerprint(result)


def test_cert_family_smallest_cell(workloads):
    family = workloads.CertFamily(1)
    cell = min(family.passes[0], key=lambda x: (x[1].r * x[1].s, x[1].d + x[1].e))
    _run(family, cell)


def test_derivation_grid_presentation(workloads):
    grid = workloads.DerivationGrid(1)
    _run(grid, grid.passes[0][0])


def test_ideal_ops_one_task_of_each_kind(workloads):
    ops = workloads.IdealOps(1)
    first = {}
    for tasks in ops.passes:
        for task in tasks:
            first.setdefault(task[0], task)
        if len(first) == 4:
            break
    assert sorted(first) == ["buchberger", "fiber", "member", "omega3"]
    for task in first.values():
        _run(ops, task)


@pytest.mark.parametrize("name, digest", [
    ("CertFamily", "d04487279b8205b1"),
    ("DerivationGrid", "f84f4f25fd5ba8f9"),
    # holds the known non-member, so the x-adic division's refusal is pinned too
    ("IdealOps", "58690057293eb7f5"),
])
def test_first_pass_fingerprints(workloads, name, digest):
    # sha256 of the space-joined fingerprints of the operations of the
    # first pass on seed 1, first 16 hex digits
    workload = getattr(workloads, name)(1)
    fingerprints = " ".join(workload.fingerprint(workload.op(x)) for x in workload.passes[0])
    assert hashlib.sha256(fingerprints.encode()).hexdigest()[:16] == digest
