"""Command-line front end.

Subcommands: profile | basis | d1 | e2 | survives | verify.  Every
subcommand takes --prime and --format {text,machine}.  Each run computes in
process and writes no files.  A subcommand computes its answer once, as
params, results and text; main prints either the text or a single JSON
document with the fields {command, engine_version, params, results},
serialized with sorted keys.  The document carries no timing, so repeated
runs are byte-identical.  Progress, timing and warnings go to stderr only.
The eq34 scenario runs at s = p-1: --scase may be left out, and any other
value is a parameter error.

Exit codes: 0 success / verification passed, 1 verification failed,
2 usage or parameter error (an internal degree above 10^4000 included),
3 internal error (an engine invariant failed).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings

from . import verify as scenarios
from .algebra import parse_element, render_element
from .cache import ENGINE_VERSION
from .differential import d1
from .enumeration import _check, enumerate_basis
from .errors import MayssError, ParameterError, ParseError
from .grading import make_context, padic_profile
from .pages import e2_dimension, survives_to_e2

#: Schema of the machine-format document (draft-07 vocabulary).
MACHINE_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "additionalProperties": False,
    "required": ["command", "engine_version", "params", "results"],
    "properties": {
        "command": {
            "type": "string",
            "enum": ["profile", "basis", "d1", "e2", "survives", "verify"],
        },
        "engine_version": {"type": "string"},
        "params": {"type": "object"},
        "results": {"type": "object"},
    },
}

_PROGRESS_T = 200000  # above this internal degree, say what is being computed
_DIMS = ("e1_dim", "cycle_dim", "boundary_dim", "e2_dim")


def _scenarios() -> dict:
    """Each verify scenario and the function that runs it, read from the
    verify module at call time, so a wrapped function is the one that runs."""
    return {"lemma31": scenarios.verify_window,
            "eq34": scenarios.verify_critical_differential,
            "thm32": scenarios.verify_survival,
            "thm33": scenarios.verify_upper_window_vanishing,
            "reps": scenarios.verify_representatives,
            "main": scenarios.verify_main}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prime", type=int, required=True, metavar="P",
                        help="odd prime p >= 5")
    common.add_argument("--format", choices=("text", "machine"), default="text",
                        help="result stream format (default: text)")
    position = argparse.ArgumentParser(add_help=False)
    position.add_argument("--s", type=int, required=True)
    position.add_argument("--t", type=int, required=True)
    position.add_argument("--u", type=int, default=None, help="restrict to one weight")

    parser = argparse.ArgumentParser(
        prog="mayss",
        description="Exact first-page/second-page computations for the "
                    "mod-p spectral sequence algebra (p >= 5).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", parents=[common],
                       help="p-adic digit profile of an internal degree")
    p.add_argument("--t", type=int, required=True)

    sub.add_parser("basis", parents=[common, position],
                   help="monomial basis of one (filtration, degree) position")

    p = sub.add_parser("d1", parents=[common],
                       help="first differential of an element")
    p.add_argument("element", help="element text, e.g. 'h(2,0)' or '2*a(1) h(1,1) + a(0) h(2,0)'")

    sub.add_parser("e2", parents=[common, position],
                   help="second-page dimension of one position")

    p = sub.add_parser("survives", parents=[common],
                       help="cycle / boundary verdict for a homogeneous element")
    p.add_argument("element")

    p = sub.add_parser("verify", parents=[common],
                       help="run one named verification scenario")
    p.add_argument("scenario", choices=tuple(_scenarios()))
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--scase", type=int, default=None,
                   help="the family index s of the scenario")
    p.add_argument("--permissive", action="store_true",
                   help="relax the parameter gate to n >= m+2 >= 4 (with a warning)")
    return parser


def _machine(command: str, params: dict, results: dict) -> str:
    doc = {"command": command, "engine_version": ENGINE_VERSION,
           "params": params, "results": results}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# Each _cmd_* computes its answer once and returns (params, results, text,
# exit code); main prints the machine document or the text.

def _cmd_profile(args, ctx) -> tuple[dict, dict, str, int]:
    prof = padic_profile(args.t, ctx)
    parts = ["c[-1]=%d" % prof.c_minus1] if prof.c_minus1 else []
    parts.extend("c%d=%d" % (j, c) for j, c in enumerate(prof.digits) if c)
    rendered = " ".join(parts) or "0"
    results = {"c_minus1": prof.c_minus1, "digits": list(prof.digits), "rendered": rendered}
    return {"p": ctx.p, "t": args.t}, results, rendered + "\n", 0


def _cmd_basis(args, ctx) -> tuple[dict, dict, str, int]:
    _check(args.s, args.t)   # a rejected query prints its error line alone
    if args.t >= _PROGRESS_T:
        print("enumerating basis at (s=%d, t=%d)..." % (args.s, args.t), file=sys.stderr)
    basis = enumerate_basis(ctx, args.s, args.t, args.u)
    monomials = [{"monomial": mon.render() or "1",
                  "tridegree": [mon.tridegree.s, mon.tridegree.t, mon.tridegree.u]}
                 for mon in basis.monomials]
    text = "".join("%s  (%d, %d, %d)\n" % (mon["monomial"], *mon["tridegree"])
                   for mon in monomials)
    params = {"p": ctx.p, "s": args.s, "t": args.t, "u": args.u}
    return params, {"dimension": basis.dimension, "monomials": monomials}, text, 0


def _cmd_d1(args, ctx) -> tuple[dict, dict, str, int]:
    image = render_element(d1(parse_element(args.element, ctx), ctx), ctx)
    return {"p": ctx.p, "element": args.element}, {"image": image}, image + "\n", 0


def _cmd_e2(args, ctx) -> tuple[dict, dict, str, int]:
    for s in (args.s, args.s + 1):   # the checks e2_dimension runs, before the progress line
        _check(s, args.t)
    if args.t >= _PROGRESS_T:
        print("computing second page at (s=%d, t=%d)..." % (args.s, args.t), file=sys.stderr)
    page = e2_dimension(ctx, args.s, args.t, args.u)
    blocks = [dict(u=bl.u, **{k: getattr(bl, k) for k in _DIMS}) for bl in page.blocks]
    results = dict(blocks=blocks, **{k: getattr(page, k) for k in _DIMS})
    lines = []
    if len(blocks) > 1:
        lines.extend("u=%d: %s" % (bl["u"], " ".join("%s=%d" % (k, bl[k]) for k in _DIMS))
                     for bl in blocks)
    lines.extend("%s=%d" % (k, results[k]) for k in _DIMS)
    params = {"p": ctx.p, "s": args.s, "t": args.t, "u": args.u}
    return params, results, "".join(line + "\n" for line in lines), 0


def _cmd_survives(args, ctx) -> tuple[dict, dict, str, int]:
    verdict = survives_to_e2(parse_element(args.element, ctx), ctx)
    pos = verdict.position
    results = {"position": [pos.s, pos.t, pos.u], "d1_cycle": verdict.is_cycle,
               "d1_boundary": verdict.is_boundary, "e2_nonzero": verdict.e2_nonzero}
    text = ("position: (%d, %d, %d)\n" % (pos.s, pos.t, pos.u)
            + "d1_cycle: %s\n" % ("yes" if verdict.is_cycle else "no")
            + "d1_boundary: %s\n" % ("yes" if verdict.is_boundary else "no")
            + "e2_class: %s\n" % ("nonzero" if verdict.e2_nonzero else "zero"))
    return {"p": ctx.p, "element": args.element}, results, text, 0


def _cmd_verify(args, ctx) -> tuple[dict, dict, str, int]:
    needed = ("m", "n") if args.scenario == "eq34" else ("m", "n", "scase")
    missing = ["--" + name for name in needed if getattr(args, name) is None]
    if missing:
        raise ParameterError("scenario %r needs %s" % (args.scenario, ", ".join(missing)))
    print("running scenario %s (p=%d)..." % (args.scenario, ctx.p), file=sys.stderr)
    t0 = time.perf_counter()
    run = _scenarios()[args.scenario]
    if args.scenario == "reps":
        report = run(ctx, args.m, args.n, args.scase)
    else:
        report = run(ctx, args.m, args.n, args.scase, strict_range=not args.permissive)
    print("scenario %s finished in %.1fs" % (args.scenario, time.perf_counter() - t0),
          file=sys.stderr)
    lines = ["scenario: %s" % report.scenario,
             "params: %s" % " ".join("%s=%s" % (k, report.params[k])
                                     for k in sorted(report.params))]
    for c in report.checks:
        lines.append("[%s] %s" % ("pass" if c.passed else "FAIL", c.description))
        lines.append("    expected: %s" % c.expected)
        lines.append("    observed: %s" % c.observed)
    lines.extend("note: %s" % note for note in report.notes)
    lines.append("result: %s (%d checks)" % ("PASS" if report.passed else "FAIL",
                                             len(report.checks)))
    params = dict(report.params, scenario=args.scenario, permissive=args.permissive)
    return (params, report.to_dict(), "".join(line + "\n" for line in lines),
            0 if report.passed else 1)


_COMMANDS = {
    "profile": _cmd_profile,
    "basis": _cmd_basis,
    "d1": _cmd_d1,
    "e2": _cmd_e2,
    "survives": _cmd_survives,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always", UserWarning)
            # one line per warning, without the source location Python would add
            warnings.showwarning = lambda msg, *_: print("warning: %s" % msg, file=sys.stderr)
            ctx = make_context(args.prime)
            params, results, text, code = _COMMANDS[args.command](args, ctx)
    except (ParseError, ParameterError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MayssError as exc:
        print("error: internal: %s" % exc, file=sys.stderr)
        return 3
    sys.stdout.write(_machine(args.command, params, results) if args.format == "machine"
                     else text)
    return code


if __name__ == "__main__":
    sys.exit(main())
