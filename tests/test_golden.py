"""Golden certificates: the JSON of a small fixed grid must not change.

The digest pins every byte of `json.dumps(cert.to_json())` over the grid, so a
change to the Groebner, Laurent or polynomial kernels that alters any
certificate, even only in how a coefficient is printed, fails here.  A second
digest pins the omega3 reports, verdicts and detail strings, over passing and
failing cells and two monomial orders.
"""

import hashlib
import json

from ddlab.cancellation import cancellation_certificate
from ddlab.groebner import MonomialOrder
from ddlab.presentations import DDPresentation, omega3_check

# (d, e, P, Q): r, s <= 3, and one cell with a rational constant
GRID = [
    (1, 2, "Z^2 - 1", "Y^2 + Z"),
    (2, 2, "Z^2 + 1", "Y^2 + Z"),
    (1, 3, "Z^3 - 1", "Y^2 + Z"),
    (1, 2, "Z^2 - 1", "Y^3 + Z"),
    (2, 3, "Z^2 + 1/2", "Y^2 + Z"),
]
DIGEST = "78c52ebcd89e9a117fd91628bac1030c4a1b86c6c824b2e435e52be8a6e2543e"


def test_golden_grid_certificates_are_byte_identical():
    h = hashlib.sha256()
    for d, e, p, q in GRID:
        cert = cancellation_certificate(DDPresentation.make([], d, e, p, q))
        assert cert.certified
        h.update(json.dumps(cert.to_json()).encode())
    assert h.hexdigest() == DIGEST


# (base_vars, d, e, P, Q): three passing cells, one failing cell per check
# after validity, and two cells over R = Q[u]
OMEGA3_GRID = [
    ([], 1, 2, "Z^2 - 1", "Y^2 + Z"),
    ([], 2, 3, "Z^3 - 1", "Y^3 + X*Z + 1/2"),
    ([], 1, 2, "Z^2 + 1/2", "Y^2 + Z*Y + Z"),
    ([], 1, 2, "Z^2", "Y^2 + Z"),
    ([], 1, 2, "Z^2 - 1", "Y^2"),
    ([], 1, 2, "Z^2 - 1", "Y^2 + Z^2 - 1"),
    ([], 1, 2, "Z - 1", "Y^2 + Z"),
    ([], 1, 2, "Z^2 - 1", "Y + Z"),
    (["u"], 1, 2, "Z^2 - 1", "Y^2 + u*Z"),
    (["u"], 2, 2, "Z^2 - 1 + u*X", "Y^2 + Z + u*X*Y"),
]
OMEGA3_DIGEST = "17b9f12ce80b0c7b3c234f27168d77819530c6fa6f31fa82c9cf12b6cca7a478"


def test_golden_omega3_reports_are_byte_identical():
    h = hashlib.sha256()
    verdicts = []
    for base, d, e, p, q in OMEGA3_GRID:
        for order in (MonomialOrder.grevlex(), MonomialOrder.lex()):
            report = omega3_check(DDPresentation.make(base, d, e, p, q), order=order)
            verdicts.append(report.passed)
            h.update(json.dumps(report.to_json()).encode())
    assert verdicts == [True] * 6 + [False] * 12 + [True] * 2
    assert h.hexdigest() == OMEGA3_DIGEST
