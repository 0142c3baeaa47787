"""A certificate's JSON prints each element once.

Over the twelve golden cells of test_golden.py: no string of 40 or more
characters occurs twice in a certificate's JSON, whether as a whole value or
inside another value; no element is printed while the pipeline runs, only
by `to_json`; and the JSON of the reference cell (2,2,4,3) and of the larger
cell (2,2,6,4) stays within a fixed size.
"""

import json

import pytest

from ddlab.cancellation import cancellation_certificate
from ddlab.elements import BElement
from ddlab.presentations import DDPresentation

from test_golden import DENOMINATOR_CELLS, GENERAL_CELLS, GRID, REFERENCE_CELLS

CELLS = GRID + REFERENCE_CELLS + DENOMINATOR_CELLS + GENERAL_CELLS


@pytest.fixture(scope="module")
def certificates():
    """(cell, certificate, the number of elements printed while it was built)."""
    printed = []
    text = BElement.__str__

    def counted(self):
        printed.append(self)
        return text(self)

    built = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BElement, "__str__", counted)
        for d, e, p, q in CELLS:
            printed.clear()
            cert = cancellation_certificate(DDPresentation.make([], d, e, p, q))
            built.append(((d, e, p, q), cert, len(printed)))
    return built


def _strings(node):
    if isinstance(node, dict):
        for value in node.values():
            yield from _strings(value)
    elif isinstance(node, list):
        for value in node:
            yield from _strings(value)
    elif isinstance(node, str):
        yield node


def test_no_element_is_printed_before_to_json(certificates):
    assert len(certificates) == 12
    assert [(cell, n) for cell, _, n in certificates if n] == []


def test_no_long_string_is_printed_twice(certificates):
    for cell, cert, _ in certificates:
        assert cert.certified, cell
        values = list(_strings(cert.to_json()))
        repeated = [s[:60] for s in values if len(s) >= 40 and sum(v.count(s) for v in values) > 1]
        assert repeated == [], cell


def test_reference_cell_json_size(certificates):
    sizes = {cell: len(json.dumps(cert.to_json())) for cell, cert, _ in certificates}
    assert sizes[REFERENCE_CELLS[0]] <= 55_000


def test_larger_cell_json_size():
    cert = cancellation_certificate(DDPresentation.make([], 2, 2, "Z^6 - 1", "Y^4 + Z"))
    assert cert.certified
    assert len(json.dumps(cert.to_json())) <= 600_000
