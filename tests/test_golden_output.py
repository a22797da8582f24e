"""Byte-identical output: one digest over reports, one over command-line runs.

Reports must not change when the code under them does.  Every character
with rank 0..6, first Chern class -8..8 and Euler characteristic -6..6 (all
five classification kinds) is rendered by ``report_to_dict`` with 30
approximate digits, one compact JSON line per report, and the SHA-256 of the
lines, in that nested order, is pinned.

The commands whose output no report covers are pinned the same way: the
exit code and standard output of ``main`` over a fixed list of ``argv``,
one JSON line ``[argv, code, stdout]`` each.  The list classifies a box of
characters, looks up every address of order at most 4 in [0, 1], expands
every left-right word of length at most 6 with its period, and samples the
boundary curve with and without a parabola and with one sample past its
order budget.
"""

import contextlib
import hashlib
import io
import json
from itertools import product

from planecones import cli, cone
from planecones.chern import character_from_json

REPORTS_SHA256 = "83a757400d2a06531a9e734589f665a80546432a3c83f16d401deb0ead780517"
COMMANDS_SHA256 = "3e79376577d74df4fd29d5f157c45dab98003c17739fd78ed25d983f1d2bb2b8"


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


def _commands() -> list[list[str]]:
    argvs = [["classify", "--chern", f"{r},{c1},{ch2}"]
             for r in range(4) for c1 in range(-2, 3) for ch2 in ("-2", "-1/2", "0", "3/2")]
    addresses = ["0/2^0", "1/2^0"] + [f"{p}/2^{q}" for q in range(1, 5)
                                      for p in range(1, 2 ** q, 2)]
    argvs += [["slope", "--dyadic", address] for address in addresses]
    words = ["".join(letters) for n in range(7) for letters in product("LR", repeat=n)]
    argvs += [["cfrac", "--lr", word, "--period"] for word in words]
    curve = ["curve", "--lo=-1/3", "--hi", "3/2", "--samples", "12"]
    argvs += [curve, curve + ["--chern", "3,2,-5"],
              ["curve", "--lo", "19760/51641", "--hi", "1", "--samples", "3", "--max-order", "3"]]
    return argvs


def test_command_digest():
    digest = hashlib.sha256()
    for argv in _commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        digest.update((json.dumps([argv, code, out.getvalue()]) + "\n").encode())
    assert digest.hexdigest() == COMMANDS_SHA256
