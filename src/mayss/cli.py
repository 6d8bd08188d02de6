"""Command-line front end.

Subcommands: profile | basis | d1 | e2 | survives | verify.  Every
subcommand takes --prime and --format {text,machine}.  Each run computes in
process and writes no files.  Machine format emits a single JSON document
with the fields {command, engine_version, params, results}, serialized with
sorted keys; it carries no timing, so repeated runs are byte-identical.
Progress, timing and warnings go to stderr only.

Exit codes: 0 success / verification passed, 1 verification failed,
2 usage or parameter error, 3 internal error (an engine invariant failed).
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
from .enumeration import enumerate_basis
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


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prime", type=int, required=True, metavar="P",
                        help="odd prime p >= 5")
    common.add_argument("--format", choices=("text", "machine"), default="text",
                        help="result stream format (default: text)")

    parser = argparse.ArgumentParser(
        prog="mayss",
        description="Exact first-page/second-page computations for the "
                    "mod-p spectral sequence algebra (p >= 5).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", parents=[common],
                       help="p-adic digit profile of an internal degree")
    p.add_argument("--t", type=int, required=True)

    p = sub.add_parser("basis", parents=[common],
                       help="monomial basis of one (filtration, degree) position")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--u", type=int, default=None, help="restrict to one weight")

    p = sub.add_parser("d1", parents=[common],
                       help="first differential of an element")
    p.add_argument("element", help="element text, e.g. 'h(2,0)' or '2*a(1) h(1,1) + a(0) h(2,0)'")

    p = sub.add_parser("e2", parents=[common],
                       help="second-page dimension of one position")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--u", type=int, default=None, help="restrict to one weight")

    p = sub.add_parser("survives", parents=[common],
                       help="cycle / boundary verdict for a homogeneous element")
    p.add_argument("element")

    p = sub.add_parser("verify", parents=[common],
                       help="run one named verification scenario")
    p.add_argument("scenario",
                   choices=("lemma31", "eq34", "thm32", "thm33", "reps", "main"))
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


def _progress(message: str) -> None:
    print(message, file=sys.stderr)
    sys.stderr.flush()


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    # one line per warning, without the source location Python would add
    print("warning: %s" % message, file=sys.stderr)


def _render_profile(prof) -> str:
    parts = []
    if prof.c_minus1:
        parts.append("c[-1]=%d" % prof.c_minus1)
    parts.extend("c%d=%d" % (j, c) for j, c in enumerate(prof.digits) if c)
    return " ".join(parts) if parts else "0"


def _cmd_profile(args, ctx) -> tuple[str, int]:
    prof = padic_profile(args.t, ctx)
    params = {"p": ctx.p, "t": args.t}
    if args.format == "machine":
        results = {"c_minus1": prof.c_minus1, "digits": list(prof.digits),
                   "rendered": _render_profile(prof)}
        return _machine("profile", params, results), 0
    return _render_profile(prof) + "\n", 0


def _cmd_basis(args, ctx) -> tuple[str, int]:
    if args.t >= _PROGRESS_T:
        _progress("enumerating basis at (s=%d, t=%d)..." % (args.s, args.t))
    basis = enumerate_basis(ctx, args.s, args.t, args.u)
    params = {"p": ctx.p, "s": args.s, "t": args.t, "u": args.u}
    if args.format == "machine":
        results = {"dimension": basis.dimension,
                   "monomials": [{"monomial": mon.render() or "1",
                                  "tridegree": [mon.tridegree.s, mon.tridegree.t,
                                                mon.tridegree.u]}
                                 for mon in basis.monomials]}
        return _machine("basis", params, results), 0
    lines = ["%s  (%d, %d, %d)" % (mon.render() or "1", mon.tridegree.s,
                                   mon.tridegree.t, mon.tridegree.u)
             for mon in basis.monomials]
    return "".join(line + "\n" for line in lines), 0


def _cmd_d1(args, ctx) -> tuple[str, int]:
    x = parse_element(args.element, ctx)
    image = render_element(d1(x, ctx), ctx)
    params = {"p": ctx.p, "element": args.element}
    if args.format == "machine":
        return _machine("d1", params, {"image": image}), 0
    return image + "\n", 0


def _cmd_e2(args, ctx) -> tuple[str, int]:
    if args.t >= _PROGRESS_T:
        _progress("computing second page at (s=%d, t=%d)..." % (args.s, args.t))
    page = e2_dimension(ctx, args.s, args.t, args.u)
    params = {"p": ctx.p, "s": args.s, "t": args.t, "u": args.u}
    blocks = [{"u": bl.u, "e1_dim": bl.e1_dim, "cycle_dim": bl.cycle_dim,
               "boundary_dim": bl.boundary_dim, "e2_dim": bl.e2_dim}
              for bl in page.blocks]
    if args.format == "machine":
        results = {"e1_dim": page.e1_dim, "cycle_dim": page.cycle_dim,
                   "boundary_dim": page.boundary_dim, "e2_dim": page.e2_dim,
                   "blocks": blocks}
        return _machine("e2", params, results), 0
    lines = []
    if len(blocks) > 1:
        lines.extend("u=%(u)d: e1_dim=%(e1_dim)d cycle_dim=%(cycle_dim)d "
                     "boundary_dim=%(boundary_dim)d e2_dim=%(e2_dim)d" % bl
                     for bl in blocks)
    lines.append("e1_dim=%d" % page.e1_dim)
    lines.append("cycle_dim=%d" % page.cycle_dim)
    lines.append("boundary_dim=%d" % page.boundary_dim)
    lines.append("e2_dim=%d" % page.e2_dim)
    return "".join(line + "\n" for line in lines), 0


def _cmd_survives(args, ctx) -> tuple[str, int]:
    x = parse_element(args.element, ctx)
    verdict = survives_to_e2(x, ctx)
    pos = verdict.position
    params = {"p": ctx.p, "element": args.element}
    if args.format == "machine":
        results = {"position": [pos.s, pos.t, pos.u],
                   "d1_cycle": verdict.is_cycle,
                   "d1_boundary": verdict.is_boundary,
                   "e2_nonzero": verdict.e2_nonzero}
        return _machine("survives", params, results), 0
    lines = ["position: (%d, %d, %d)" % (pos.s, pos.t, pos.u),
             "d1_cycle: %s" % ("yes" if verdict.is_cycle else "no"),
             "d1_boundary: %s" % ("yes" if verdict.is_boundary else "no"),
             "e2_class: %s" % ("nonzero" if verdict.e2_nonzero else "zero")]
    return "".join(line + "\n" for line in lines), 0


def _require_scenario_args(args, names) -> None:
    missing = ["--" + name for name in names if getattr(args, name) is None]
    if missing:
        raise ParameterError("scenario %r needs %s" % (args.scenario, ", ".join(missing)))


def _run_scenario(args, ctx):
    if args.scenario == "reps":
        return scenarios.verify_representatives(ctx, args.m, args.n, args.scase)
    strict = not args.permissive
    if args.scenario == "eq34":
        return scenarios.verify_critical_differential(ctx, args.m, args.n,
                                                      strict_range=strict)
    run = {"lemma31": scenarios.verify_window, "thm32": scenarios.verify_survival,
           "thm33": scenarios.verify_upper_window_vanishing,
           "main": scenarios.verify_main}[args.scenario]
    return run(ctx, args.m, args.n, args.scase, strict_range=strict)


def _render_report_text(report) -> str:
    lines = ["scenario: %s" % report.scenario,
             "params: %s" % " ".join("%s=%s" % (k, report.params[k])
                                     for k in sorted(report.params))]
    for c in report.checks:
        lines.append("[%s] %s" % ("pass" if c.passed else "FAIL", c.description))
        lines.append("    expected: %s" % c.expected)
        lines.append("    observed: %s" % c.observed)
    for note in report.notes:
        lines.append("note: %s" % note)
    lines.append("result: %s (%d checks)" % ("PASS" if report.passed else "FAIL",
                                             len(report.checks)))
    return "".join(line + "\n" for line in lines)


def _cmd_verify(args, ctx) -> tuple[str, int]:
    needed = ("m", "n") if args.scenario == "eq34" else ("m", "n", "scase")
    _require_scenario_args(args, needed)
    _progress("running scenario %s (p=%d)..." % (args.scenario, ctx.p))
    t0 = time.perf_counter()
    report = _run_scenario(args, ctx)
    code = 0 if report.passed else 1
    params = {"p": ctx.p, "scenario": args.scenario, "m": args.m, "n": args.n,
              "s": args.scase if args.scenario != "eq34" else ctx.p - 1,
              "permissive": bool(args.permissive)}
    if args.format == "machine":
        return _machine("verify", params, report.to_dict()), code
    _progress("scenario %s finished in %.1fs" % (args.scenario, time.perf_counter() - t0))
    return _render_report_text(report), code


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
            warnings.showwarning = _print_warning
            ctx = make_context(args.prime)
            out, code = _COMMANDS[args.command](args, ctx)
    except (ParseError, ParameterError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MayssError as exc:
        print("error: internal: %s" % exc, file=sys.stderr)
        return 3
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
