"""Per-layer tracing of src/mayss, applied from outside the package.

A Tracer replaces public functions of the mayss modules with wrappers for
the length of a `with` block and restores them afterwards; nothing inside
src/mayss changes.  Because the modules import names from one another
(`pages` holds its own reference to `linalg.rank`, for example), a wrapper
is installed under every name in every loaded mayss module that refers to
the original object, so internal calls are traced as well as the
benchmark's own.

Two kinds of wrapper:

* span: records (name, start, end, parent span) in memory and feeds the
  call's arguments and result to an observer that derives counts (nonzeros,
  cells, ranks, basis sizes, cache hits).  Observer time is subtracted from
  every enclosing span, so derived counts do not inflate layer times.
* count: increments a call counter only.  Used for algebra.canonicalize,
  which runs about 10^5 times per cycle of dense-e2; a span per call would
  cost more than the work it measures.

A target whose module or attribute no longer exists, or whose result no
longer has the shape its observer reads, is recorded in `absent`, and every
metric derived from it is left out of the result.  A matrix without a
public to_rows() leaves out only the cell and nonzero counts.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

PKG = "mayss"


def _bound(fn, args, kwargs) -> dict:
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments
    except (TypeError, ValueError):
        return {}


def _cells_nnz(tr, matrix, *metrics) -> tuple[int, int] | None:
    """(cells, nonzeros) of a matrix through its public to_rows(); None, with
    the named metrics marked missing, when it has none."""
    to_rows = getattr(matrix, "to_rows", None)
    if to_rows is None:
        tr.missing.update(metrics)
        return None
    rows = to_rows()
    return (sum(len(r) for r in rows), sum(1 for r in rows for v in r if v))


# -- observers: (tracer, bound arguments, result) -> None --------------------

def _obs_enumerate(tr, args, out):
    tr.add("enumeration.monomials", len(out.monomials))
    ctx = args.get("ctx")
    tr.keys.add((getattr(ctx, "p", None), args.get("s"), args.get("t")))


def _obs_d1_matrix(tr, args, out):
    cn = _cells_nnz(tr, out, "differential.d1_matrix.cells", "differential.d1_matrix.nnz",
                    "differential.d1_matrix.density")
    if cn is not None:
        tr.add("differential.d1_matrix.cells", cn[0])
        tr.add("differential.d1_matrix.nnz", cn[1])


def _obs_d1(tr, args, out):
    tr.add("differential.d1.terms_out", len(out.terms))


def _obs_rank(tr, args, out):
    cn = _cells_nnz(tr, args.get("m"), "linalg.rank.cells")
    if cn is not None:
        tr.add("linalg.rank.cells", cn[0])
    tr.add("linalg.rank.rank_sum", out)


def _obs_e2(tr, args, out):
    tr.add("pages.blocks", len(out.blocks))
    biggest = max((bl.e1_dim for bl in out.blocks), default=0)
    tr.values["pages.block_max_dim"] = max(tr.values.get("pages.block_max_dim", 0), biggest)


def _obs_load(kind):
    def observe(tr, args, out):
        tr.add("cache.%s.%s" % (kind, "misses" if out is None else "hits"), 1)
    return observe


def _obs_main(tr, args, out):
    tr.add("verify.checks", len(out.checks))


@dataclass(frozen=True)
class Target:
    module: str          # module under mayss
    attr: str            # attribute path inside it, e.g. "ResultCache.load_basis"
    name: str            # span name
    counting: bool = False
    observe: Callable | None = None


#: Every wrapped public name, by layer.  `grading` and `errors` are left out
#: (microseconds, called only inside enumeration); `cli` is covered by the
#: setup_s end-to-end metric, since the workloads make the calls it makes.
TARGETS = (
    Target("enumeration", "enumerate_basis", "enumeration", observe=_obs_enumerate),
    Target("differential", "d1_matrix", "differential.d1_matrix", observe=_obs_d1_matrix),
    Target("differential", "d1", "differential.d1", observe=_obs_d1),
    Target("algebra", "canonicalize", "algebra.canonicalize", counting=True),
    Target("algebra", "parse_element", "algebra.parse_element"),
    Target("linalg", "rank", "linalg.rank", observe=_obs_rank),
    Target("linalg", "in_span", "linalg.in_span"),
    Target("pages", "e2_dimension", "pages.e2_dimension", observe=_obs_e2),
    Target("pages", "survives_to_e2", "pages.survives_to_e2"),
    Target("cache", "ResultCache.load_basis", "cache.load_basis", observe=_obs_load("load_basis")),
    Target("cache", "ResultCache.load_matrix", "cache.load_matrix", observe=_obs_load("load_matrix")),
    Target("cache", "ResultCache.store_basis", "cache.store_basis"),
    Target("cache", "ResultCache.store_matrix", "cache.store_matrix"),
    Target("verify", "verify_window", "verify.window"),
    Target("verify", "verify_critical_differential", "verify.critical-differential"),
    Target("verify", "verify_survival", "verify.survival"),
    Target("verify", "verify_upper_window_vanishing", "verify.upper-vanishing"),
    Target("verify", "verify_representatives", "verify.representatives"),
    Target("verify", "verify_main", "verify.main", observe=_obs_main),
)

# Per-layer metrics: (metric, unit, better, target span names it needs).
# "s" is busy time (outermost spans of that name), "self_s" is busy time
# minus the time of child spans.
METRICS = (
    ("enumeration.calls", "count", "lower", ("enumeration",)),
    ("enumeration.s", "s", "lower", ("enumeration",)),
    ("enumeration.self_s", "s", "lower", ("enumeration",)),
    ("enumeration.monomials", "count", "lower", ("enumeration",)),
    ("enumeration.reuse_ratio", "ratio", "higher", ("enumeration",)),
    ("differential.d1_matrix.calls", "count", "lower", ("differential.d1_matrix",)),
    ("differential.d1_matrix.s", "s", "lower", ("differential.d1_matrix",)),
    ("differential.d1_matrix.nnz", "count", "lower", ("differential.d1_matrix",)),
    ("differential.d1_matrix.cells", "count", "lower", ("differential.d1_matrix",)),
    ("differential.d1_matrix.density", "ratio", "higher", ("differential.d1_matrix",)),
    ("differential.d1.calls", "count", "lower", ("differential.d1",)),
    ("differential.d1.s", "s", "lower", ("differential.d1",)),
    ("differential.d1.terms_out", "count", "lower", ("differential.d1",)),
    ("algebra.canonicalize.calls", "count", "lower", ("algebra.canonicalize",)),
    ("algebra.parse_element.s", "s", "lower", ("algebra.parse_element",)),
    ("linalg.rank.calls", "count", "lower", ("linalg.rank",)),
    ("linalg.rank.s", "s", "lower", ("linalg.rank",)),
    ("linalg.rank.cells", "count", "lower", ("linalg.rank",)),
    ("linalg.rank.rank_sum", "count", "lower", ("linalg.rank",)),
    ("linalg.in_span.calls", "count", "lower", ("linalg.in_span",)),
    ("linalg.in_span.s", "s", "lower", ("linalg.in_span",)),
    ("pages.e2_dimension.calls", "count", "lower", ("pages.e2_dimension",)),
    ("pages.e2_dimension.s", "s", "lower", ("pages.e2_dimension",)),
    ("pages.e2_dimension.self_s", "s", "lower", ("pages.e2_dimension",)),
    ("pages.blocks", "count", "lower", ("pages.e2_dimension",)),
    ("pages.block_max_dim", "count", "lower", ("pages.e2_dimension",)),
    ("pages.survives_to_e2.s", "s", "lower", ("pages.survives_to_e2",)),
    ("cache.load_basis.hits", "count", "higher", ("cache.load_basis",)),
    ("cache.load_basis.misses", "count", "lower", ("cache.load_basis",)),
    ("cache.load_basis.s", "s", "lower", ("cache.load_basis",)),
    ("cache.load_matrix.hits", "count", "higher", ("cache.load_matrix",)),
    ("cache.load_matrix.misses", "count", "lower", ("cache.load_matrix",)),
    ("cache.load_matrix.s", "s", "lower", ("cache.load_matrix",)),
    ("cache.store_basis.s", "s", "lower", ("cache.store_basis",)),
    ("cache.store_matrix.s", "s", "lower", ("cache.store_matrix",)),
    ("cache.bytes", "B", "lower", ("cache.store_basis", "cache.store_matrix")),
    ("verify.window.s", "s", "lower", ("verify.window",)),
    ("verify.critical-differential.s", "s", "lower", ("verify.critical-differential",)),
    ("verify.survival.s", "s", "lower", ("verify.survival",)),
    ("verify.upper-vanishing.s", "s", "lower", ("verify.upper-vanishing",)),
    ("verify.representatives.s", "s", "lower", ("verify.representatives",)),
    ("verify.checks", "count", "higher", ("verify.main",)),
    ("trace.overhead_s", "s", "lower", ()),
    ("trace.spans", "count", "lower", ()),
)

UNITS = {name: unit for name, unit, _, _ in METRICS}


def _resolve(target: Target):
    """(owner object, attribute name, original) or None when the name is gone."""
    try:
        owner = importlib.import_module("%s.%s" % (PKG, target.module))
    except ImportError:
        return None
    *path, last = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = vars(owner).get(last)
    if original is None or not callable(original):
        return None
    return owner, last, original


class Tracer:
    """Install wrappers with `with Tracer():`; read `derive()` afterwards."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, observer_s at start, at end]
        self.calls: Counter = Counter()
        self.values: dict[str, float] = {}
        self.keys: set = set()
        self.absent: list[str] = []
        self.missing: set[str] = set()   # metrics an observer could not derive
        self._stack: list[int] = []
        self._observer_s = 0.0
        self._undo: list[tuple[object, str, object]] = []

    def add(self, key: str, amount) -> None:
        self.values[key] = self.values.get(key, 0) + amount

    # -- installation ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PKG or n.startswith(PKG + "."))]
        for target in TARGETS:
            found = _resolve(target)
            if found is None:
                self.absent.append(target.name)
                continue
            owner, attr, original = found
            wrapper = (self._count_wrapper if target.counting else self._span_wrapper)(
                target, original)
            self._patch(owner, attr, wrapper)
            if not isinstance(owner, type):
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original and not (mod is owner and key == attr):
                            self._patch(mod, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _count_wrapper(self, target: Target, fn):
        calls = self.calls
        name = target.name

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span_wrapper(self, target: Target, fn):
        name = target.name
        observe = target.observe
        spans, stack, calls = self.spans, self._stack, self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._observer_s, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                rec[5] = self._observer_s
            calls[name] += 1
            if observe is not None and name not in self.absent:
                try:
                    observe(self, _bound(fn, args, kwargs), out)
                except (AttributeError, TypeError):
                    self.absent.append(name)  # result no longer has the shape read here
                self._observer_s += clock() - rec[2]
            return out
        return wrapper

    # -- derivation -----------------------------------------------------------

    def derive(self) -> dict[str, float]:
        """Counts and times of this tracer's spans, keyed by metric name."""
        # span durations with observer time inside them removed
        dur = [(end - start) - (ov1 - ov0) for _, start, end, _, ov0, ov1 in self.spans]
        busy: Counter = Counter()
        self_s: Counter = Counter()
        child_sum = [0.0] * len(self.spans)
        for k, (name, _, _, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                child_sum[parent] += dur[k]
        for k, (name, _, _, parent, _, _) in enumerate(self.spans):
            self_s[name] += dur[k] - child_sum[k]
            anc = parent
            while anc >= 0 and self.spans[anc][0] != name:
                anc = self.spans[anc][3]
            if anc < 0:
                busy[name] += dur[k]
        out: dict[str, float] = dict(self.values)
        for target in TARGETS:
            if target.name in self.absent:
                continue
            out["%s.calls" % target.name] = self.calls[target.name]
            if not target.counting:
                out["%s.s" % target.name] = busy[target.name]
                out["%s.self_s" % target.name] = self_s[target.name]
        enum_calls = self.calls["enumeration"]
        out["enumeration.reuse_ratio"] = 1 - len(self.keys) / enum_calls if enum_calls else 0.0
        cells = out.get("differential.d1_matrix.cells", 0)
        out["differential.d1_matrix.density"] = (
            out.get("differential.d1_matrix.nnz", 0) / cells if cells else 0.0)
        out["trace.spans"] = len(self.spans)
        return out

    def span_records(self) -> list[list]:
        """Spans as [name, start, end, parent] with start/end relative to the first."""
        if not self.spans:
            return []
        t0 = self.spans[0][1]
        return [[n, s - t0, e - t0, parent] for n, s, e, parent, _, _ in self.spans]


def layer_metrics(runs: list[dict], absent: set[str], missing: set[str],
                  extra: dict[str, float]) -> dict[str, float]:
    """The per-layer metric set from the derived metrics of several traced cycles.

    Times are medians over the cycles; counts are identical in every cycle
    and are taken from the first.  Metrics needing an absent target, and
    missing ones, are omitted.
    """
    out: dict[str, float] = {}
    for name, unit, _, needs in METRICS:
        if name in missing or any(n in absent for n in needs):
            continue
        if name in extra:
            out[name] = extra[name]
            continue
        values = [run.get(name, 0) for run in runs]
        out[name] = statistics.median(values) if unit == "s" else values[0]
    return out
