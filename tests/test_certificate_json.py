"""The printing rule of result records, and a certificate's JSON prints
each element once.

`json_value` is the one rule: None, bools, ints and strings stay, a value
with a `to_json` prints by it, tuples and lists print as lists, dicts value
by value, and anything else as its text; a `Record` prints its fields, in
order, under that rule.

Over the twelve golden cells of test_golden.py: no string of 40 or more
characters occurs twice in a certificate's JSON, whether as a whole value or
inside another value; no element is printed while the pipeline runs, only
by `to_json`; and the JSON of the reference cell (2,2,4,3) and of the larger
cell (2,2,6,4) stays within a fixed size.
"""

import json
from dataclasses import fields
from fractions import Fraction

import pytest

from ddlab.cancellation import cancellation_certificate
from ddlab.derivations import ml_report
from ddlab.elements import BElement
from ddlab.isomorphisms import IsoData, transport_presentation
from ddlab.poly import parse_poly
from ddlab.presentations import CheckItem, DDPresentation, Record, json_value, reduce_to_danielewski

from test_golden import DENOMINATOR_CELLS, GENERAL_CELLS, GRID, REFERENCE_CELLS

CELLS = GRID + REFERENCE_CELLS + DENOMINATOR_CELLS + GENERAL_CELLS


@pytest.mark.parametrize("value", [None, True, False, 0, -7, "", "x^2"])
def test_plain_values_print_as_they_are(value):
    printed = json_value(value)
    assert printed == value and type(printed) is type(value)


def test_other_values_print_as_text(dd1):
    assert json_value(Fraction(-3, 4)) == "-3/4"
    assert json_value(dd1.P) == "Z^2 - 1"
    assert json_value(parse_poly("1/2*X*Y - Z", dd1.P.ctx)) == "1/2*X*Y - Z"


def test_containers_print_element_by_element(dd1):
    assert json_value((1, Fraction(1, 2), [None, dd1.Q])) == [1, "1/2", [None, "Y^2 + Z"]]
    assert json_value({"a": Fraction(2), "b": (True,)}) == {"a": "2", "b": [True]}


def test_a_nested_record_prints_by_its_own_to_json(dd1):
    item = CheckItem("c", False, "why")
    assert json_value(item) == {"name": "c", "passed": False, "detail": "why"}
    assert json_value([item, {"p": dd1}]) == [item.to_json(), {"p": dd1.to_json()}]
    assert json_value(dd1)["base_vars"] == []


def test_every_record_prints_its_fields_in_order(dd1):
    cert = cancellation_certificate(dd1)
    ctx = dd1.P.ctx
    zero = parse_poly("0", ctx)
    transport = transport_presentation(dd1, IsoData(*[Fraction(1)] * 4, zero, parse_poly("1", ctx), zero))
    reduction = reduce_to_danielewski(DDPresentation.make([], 1, 2, "Z^2 - 1", "Y + X*Z"))
    records = [cert.steps[0], cert.complement, cert.old_generators, cert.non_iso, ml_report(dd1),
               transport, transport.data, reduction]
    assert {type(r) for r in records} == set(Record.__subclasses__())
    for record in records:
        printed = record.to_json()
        assert list(printed) == [f.name for f in fields(record)]
        assert printed == {f.name: json_value(getattr(record, f.name)) for f in fields(record)}


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
