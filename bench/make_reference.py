"""Regenerate reference.json: the engine's answer to every query in every pool.

    python3 bench/make_reference.py

Answers are exact, so they only change when the engine's results change;
the benchmark counts any answer that differs from this file as failed.
"""

from __future__ import annotations

import json
import sys

from run import HERE, import_engine
from workloads import WORKLOADS, answer, reference_key


def main() -> int:
    mayss = import_engine()
    if mayss is None:
        print("error: no mayss package in this checkout", file=sys.stderr)
        return 2
    queries = {reference_key(q): q for w in WORKLOADS.values() for q in w.pool()}
    reference = {}
    for key in sorted(queries):
        mayss.enumeration.clear_memo()
        reference[key] = answer(mayss, queries[key], None)
        print(key, file=sys.stderr)
    lines = ("%s: %s" % (json.dumps(k), json.dumps(v)) for k, v in reference.items())
    (HERE / "reference.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
