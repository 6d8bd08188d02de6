"""Every verify scenario prints what the committed digests record.

verify_digests.json maps each command line below to the SHA-256 of its
stdout and its exit code, as printed before the scenario layer was rebuilt
on one scaffold.  Any change to a check's text, order or verdict, to a
report's params or notes, or to an exit code shows up here.  The eq34
scenario is left out of the permissive cases: below m = 4 its report
changed on purpose (it used to end in a usage error, exit code 2).  The
eq34 runs with --scase other than p - 1 were re-recorded as usage errors
(exit code 2, empty stdout) when eq34 stopped ignoring --scase.

The `main` runs at p = 5, m = 4, s = 4 and n = 40 and 80 (LARGE_N) are the
first pinned outputs past n = 20.  They were recorded by the code just
before the search began to share one generator universe, with its search
tables, across the searches of a scenario, so that change and any later
one is held to the same output at large n.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from helpers import SCENARIOS
from mayss.cli import main

DIGESTS = Path(__file__).resolve().parent / "verify_digests.json"
NAMES = ("lemma31", "eq34", "thm32", "thm33", "reps", "main")
STRICT = SCENARIOS + ((5, 4, 6, 2), (5, 4, 6, 3), (5, 4, 7, 3))
PERMISSIVE = ((5, 3, 5, 2), (5, 3, 5, 3), (7, 3, 5, 4), (5, 2, 4, 2), (5, 2, 5, 3))
LARGE_N = ((5, 4, 40, 4), (5, 4, 80, 4))


def _cases():
    runs = [(name, point, []) for point in STRICT for name in NAMES]
    runs += [(name, point, ["--permissive"]) for point in PERMISSIVE
             for name in NAMES if name != "eq34"]
    runs += [("main", point, []) for point in LARGE_N]
    for name, (p, m, n, s), extra in runs:
        for fmt in ("text", "machine"):
            yield ["verify", name, "--prime", str(p), "--m", str(m), "--n", str(n),
                   "--scase", str(s), "--format", fmt] + extra


def test_verify_stdout_and_exit_codes_match_the_recorded_digests():
    want = json.loads(DIGESTS.read_text())
    got = {}
    for argv in _cases():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        got[" ".join(argv)] = [hashlib.sha256(out.getvalue().encode()).hexdigest(), code]
    assert len(got) == 186
    assert set(got) == set(want)
    differ = sorted(argv for argv in got if got[argv] != want[argv])
    assert not differ, "stdout or exit code changed: " + "; ".join(differ)
