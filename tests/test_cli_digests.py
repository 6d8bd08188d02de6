"""The five non-verify commands print what the committed digests record.

cli_digests.json maps each command line below to the SHA-256 of its stdout
and its exit code, recorded before the command-line front end was rebuilt
around one result per subcommand.  The cases are the README examples, the
dense second-page points of the benchmark, the unit and zero edge cases,
single-weight queries, three survival queries whose source block is not
empty (so the element's terms seed the rows of its d1 matrix: one boundary
of a single term, one of two terms, and one that is not a boundary) and
three usage errors (exit code 2, empty stdout), each in text and machine
format.  The three survival queries were recorded later, with the engine
as it stood before d1_matrix took its seeds as a read-only sequence.  The
bases of two dense points, which list every monomial the search finds
there, were recorded later still, with the search as a plain depth-first
tree walk, before it shared the subtrees of equal states.
"""

import contextlib
import hashlib
import io
import json
import shlex
from pathlib import Path

from mayss.cli import main

DIGESTS = Path(__file__).resolve().parent / "cli_digests.json"
SURVIVOR = "a(2)^2 h(2,0) h(1,1) h(1,0) h(1,6) h(1,4)"
RUNS = (
    # the README examples
    ["profile", "--prime", "5", "--t", "137"],
    ["basis", "--prime", "5", "--s", "2", "--t", "49"],
    ["d1", "h(2,0)", "--prime", "5"],
    ["e2", "--prime", "5", "--s", "6", "--t", "130194"],
    ["survives", SURVIVOR, "--prime", "5"],
    # the dense-e2 benchmark points
    ["e2", "--prime", "5", "--s", "12", "--t", "3000"],
    ["e2", "--prime", "5", "--s", "8", "--t", "130194"],
    ["e2", "--prime", "5", "--s", "11", "--t", "2988"],
    ["e2", "--prime", "5", "--s", "12", "--t", "3012"],
    # the monomials of two dense-e2 points, in search-independent order
    ["basis", "--prime", "5", "--s", "12", "--t", "3000"],
    ["basis", "--prime", "5", "--s", "8", "--t", "130194"],
    # the unit, zero and a square of an exterior generator
    ["basis", "--prime", "5", "--s", "0", "--t", "0"],
    ["e2", "--prime", "5", "--s", "0", "--t", "0"],
    ["survives", "1", "--prime", "5"],
    ["d1", "0", "--prime", "5"],
    ["d1", "h(1,0) h(1,0)", "--prime", "5"],
    # one weight, and the empty profile
    ["basis", "--prime", "5", "--s", "2", "--t", "49", "--u", "4"],
    ["e2", "--prime", "5", "--s", "6", "--t", "130194", "--u", "50"],
    ["profile", "--prime", "5", "--t", "0"],
    # survival with a non-empty source block: d1 h(2,0), d1 a(2), no boundary
    ["survives", "h(1,0) h(1,1)", "--prime", "5"],
    ["survives", "a(0) h(2,0) + a(1) h(1,1)", "--prime", "5"],
    ["survives", "h(1,0) h(1,2) b(1,0)", "--prime", "5"],
    # usage errors
    ["d1", "h(2,0", "--prime", "5"],
    ["e2", "--prime", "5", "--s", "512", "--t", "0"],
    ["profile", "--prime", "4", "--t", "0"],
)


def _cases():
    for argv in RUNS:
        for fmt in ("text", "machine"):
            yield argv + ["--format", fmt]


def test_command_stdout_and_exit_codes_match_the_recorded_digests():
    want = json.loads(DIGESTS.read_text())
    got = {}
    for argv in _cases():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        got[shlex.join(argv)] = [hashlib.sha256(out.getvalue().encode()).hexdigest(), code]
    assert len(got) == 2 * len(RUNS)
    assert set(got) == set(want)
    differ = sorted(argv for argv in got if got[argv] != want[argv])
    assert not differ, "stdout or exit code changed: " + "; ".join(differ)
