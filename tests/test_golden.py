"""Golden certificates: the JSON of a small fixed grid must not change.

The digest pins every byte of `json.dumps(cert.to_json())` over the grid, so a
change to the Groebner, Laurent or polynomial kernels that alters any
certificate, even only in how a coefficient is printed, fails here.
"""

import hashlib
import json

from ddlab.cancellation import cancellation_certificate
from ddlab.presentations import DDPresentation

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
