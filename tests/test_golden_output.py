"""Byte-identical JSON reports: one digest over a fixed box of characters.

Reports must not change when the code under them does.  Every character
with rank 0..6, first Chern class -8..8 and Euler characteristic -6..6 (all
five classification kinds) is rendered by ``report_to_dict`` with 30
approximate digits, one compact JSON line per report, and the SHA-256 of the
lines, in that nested order, is pinned.
"""

import hashlib
import json

from planecones import cli, cone
from planecones.chern import character_from_json

REPORTS_SHA256 = "83a757400d2a06531a9e734589f665a80546432a3c83f16d401deb0ead780517"


def test_report_digest():
    digest, kinds = hashlib.sha256(), set()
    for r in range(7):
        for c1 in range(-8, 9):
            for chi in range(-6, 7):
                report = cone.cone_report(character_from_json({"r": r, "c1": c1, "chi": chi}))
                kinds.add(report.classification.kind)
                digest.update((json.dumps(cli.report_to_dict(report, 30)) + "\n").encode())
    assert len(kinds) == len(cone.Kind)
    assert digest.hexdigest() == REPORTS_SHA256
