"""Benchmark of the mayss engine: one workload, one seed, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Passes, cycles, the host-speed normalization and every metric are
described in bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import Tracer, UNITS, layer_metrics
from workloads import WORKLOADS, answer, reference_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_CYCLES = 3
HARD_STOP_S = 140.0     # no new cycle after this, whatever MIN_CYCLES says
SETUP_PER_CYCLE = 8
# Seconds the host-speed kernel takes on the reference host when it is not
# slowed (Intel Xeon, 2 vCPUs, Python 3.11.7); the scale of every reported time.
KERNEL_ITEMS = 1600
KERNEL_NOMINAL_S = 0.0018
BRACKET_KERNELS = 10     # kernel runs just before and just after each query
START_BRACKET_KERNELS = 4  # the same around each set-up start, which is short
SAMPLE_EVERY_S = 0.05    # kernel runs during a job
BARE_CODE = "import sys; sys.path.insert(0, sys.argv[1])"
SETUP_CODE = BARE_CODE + "; import mayss.cli; mayss.make_context(5)"

END_TO_END_UNITS = {"wall_s": "s", "cold_s": "s", "warm_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def fail(message: str) -> int:
    print("error: %s" % message, file=sys.stderr)
    return 2


def import_engine():
    """The mayss package of this checkout, or None when src/ does not hold it."""
    if not (SRC / "mayss" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import mayss
    if Path(mayss.__file__).resolve().parent != (SRC / "mayss").resolve():
        return None
    return mayss


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment() -> dict:
    """Host facts recorded beside every result, taken before the run."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "commit": _git_commit(), "loadavg": list(os.getloadavg())}


def kernel_s() -> float:
    """Seconds for a small fixed pure-Python job that never touches the
    engine.  The cyclic collector is off while it runs, so collections whose
    cost depends on the engine's heap stay out of its time; it frees what it
    allocates, leaving the collector's counters as it found them."""
    rng = random.Random(0)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        items = [(rng.randrange(50), rng.randrange(50), rng.randrange(30))
                 for _ in range(KERNEL_ITEMS)]
        counts: dict = {}
        for it in items:
            counts[it] = counts.get(it, 0) + 1
        items.sort()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def _bracket_s(n: int) -> float:
    return statistics.mean(kernel_s() for _ in range(n))


class Timed:
    """A job's result and its time: raw seconds, the host-speed factor, and
    their product, the time in nominal-speed seconds."""

    def __init__(self, out, raw: float, factor: float):
        self.out, self.raw, self.factor = out, raw, factor
        self.s = raw * factor


def normalized(job, sample: bool = True, brackets: int = BRACKET_KERNELS) -> Timed:
    """Run job() between kernel brackets and, with `sample`, with the kernel
    also run from SIGALRM during it; the handler's time is taken out of the
    job's.  `sample` must be off for a job that waits on a child process,
    which runs on while the handler does."""
    during: list[float] = []
    spent = 0.0

    def on_alarm(signum, frame):
        nonlocal spent
        t0 = time.perf_counter()
        during.append(kernel_s())
        spent += time.perf_counter() - t0

    before = _bracket_s(brackets)
    if sample:
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        t0 = time.perf_counter()
        out = job()
        dt = time.perf_counter() - t0
    finally:
        if sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    after = _bracket_s(brackets)
    speed = statistics.mean([before, *during, after])
    return Timed(out, dt - spent, KERNEL_NOMINAL_S / speed)


def _start(code: str) -> Timed:
    t = normalized(lambda: subprocess.run(
        [sys.executable, "-c", code, str(SRC)], cwd=ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60),
        sample=False, brackets=START_BRACKET_KERNELS)
    if t.out.returncode != 0:
        raise RuntimeError("set-up start failed: %s" % t.out.stderr.decode(errors="replace"))
    return t


def setup_time() -> float:
    """Seconds a fresh interpreter spends importing the CLI and building a
    context, over a bare interpreter start timed just before it."""
    bare, full = _start(BARE_CODE), _start(SETUP_CODE)
    return (full.raw - bare.raw) * full.factor


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


class Tally:
    """Attempted and failed queries, checked against the reference answers."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, queries, answers, cold_answers=None) -> None:
        for k, (q, got) in enumerate(zip(queries, answers)):
            self.attempted += 1
            key = reference_key(q)
            want = self.reference.get(key)
            ok = want is not None and got == want
            if cold_answers is not None and got != cold_answers[k]:
                ok = False
            if not ok:
                self.failed += 1
                if len(self.messages) < 5:
                    self.messages.append("%s: got %s, want %s" % (
                        key, json.dumps(got)[:200], json.dumps(want)[:200]))


def guarded_answer(mayss, query, cache):
    try:
        return answer(mayss, query, cache)
    except Exception as exc:  # a raising query is a failed query, not a crash
        return {"error": "%s: %s" % (type(exc).__name__, exc)}


def run_pass(mayss, queries, cache, sample: bool) -> tuple[list, list[Timed]]:
    """Answers and per-query times of one pass over the list."""
    answers, times = [], []
    for q in queries:
        t = normalized(lambda: guarded_answer(mayss, q, cache), sample)
        answers.append(t.out)
        times.append(t)
    return answers, times


def cycle(mayss, workload, queries, tally: Tally,
          sample: bool = True) -> tuple[list[Timed], list[Timed], int]:
    """A cold pass and, on a disk-cache workload only, a warm pass; returns
    their per-query times (the warm list empty without a disk cache) and the
    cache directory's size after the cold pass.  Traced cycles run without
    the in-query sampler, so spans hold only engine time."""
    clear_memo = mayss.enumeration.clear_memo
    clear_memo()
    tmp = tempfile.mkdtemp(prefix="cache-", dir=OUT) if workload.disk_cache else None
    cache = mayss.ResultCache(tmp) if tmp else None
    size = 0
    warm, warm_t = [], []
    try:
        cold, cold_t = run_pass(mayss, queries, cache, sample)
        if tmp:
            size = dir_bytes(tmp)
            clear_memo()
            warm, warm_t = run_pass(mayss, queries, cache, sample)
    finally:
        if tmp:
            shutil.rmtree(tmp, ignore_errors=True)
    tally.check(queries, cold)
    if tmp:
        tally.check(queries, warm, cold)
    return cold_t, warm_t, size


def list_seconds(cycles: list[list[Timed]]) -> float:
    """Time for the query list: the sum over queries of each query's median
    over cycles, which drops a slow sample of one query without dropping
    the rest of its cycle."""
    return sum(statistics.median(t.s for t in ts) for ts in zip(*cycles))


def _keep_going(done: int, started: float, last: float, seconds: float) -> bool:
    """Whether another cycle fits, `last` being the raw wall time of the
    cycle just finished, set-up starts and kernels included."""
    elapsed = time.perf_counter() - started
    if elapsed > HARD_STOP_S:
        return False
    return done < MIN_CYCLES or elapsed + last <= seconds


def _columns(cycles: list[list[Timed]]) -> list[list[list[float]]]:
    return [[[t.s, t.raw, t.factor] for t in ts] for ts in cycles]


def timed_run(mayss, workload, queries, seconds, tally) -> dict:
    setup_time()  # unmeasured: compiles byte code on a fresh checkout
    setup, cold, warm = [], [], []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        # set-up starts are spread between cycles so no single slow spell
        # of the host covers all of them
        setup.extend(setup_time() for _ in range(SETUP_PER_CYCLE))
        c, w, _ = cycle(mayss, workload, queries, tally)
        cold.append(c)
        warm.append(w)
        if not _keep_going(len(cold), started, time.perf_counter() - t0, seconds):
            break
    print("cycles %s" % json.dumps({"columns": ["s", "raw_s", "factor"],
                                    "cold": _columns(cold), "warm": _columns(warm),
                                    "setup": setup}))
    cold_s = list_seconds(cold)
    # without a disk cache there is nothing to warm: the one pass is all
    warm_s = list_seconds(warm) if workload.disk_cache else cold_s
    return {
        "wall_s": cold_s + warm_s if workload.disk_cache else cold_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(mayss, workload, queries, seconds, tally) -> tuple[dict, list]:
    """Per-layer metrics and the span records of the first traced cycle."""
    untraced, traced, runs = [], [], []
    absent: set[str] = set()
    missing: set[str] = set()
    first = None
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        c, w, _ = cycle(mayss, workload, queries, tally, sample=False)
        untraced.append(c + w)
        with Tracer() as tracer:
            c, w, size = cycle(mayss, workload, queries, tally, sample=False)
        traced.append(c + w)
        run = tracer.derive()
        run["cache.bytes"] = size
        runs.append(run)
        absent.update(tracer.absent)
        missing.update(tracer.missing)
        first = first or tracer
        if not _keep_going(len(traced), started, time.perf_counter() - t0, seconds):
            break
    for name, unit in UNITS.items():
        seen = {run.get(name) for run in runs}
        if unit != "s" and len(seen) > 1:
            print("warning: count %s differs between traced cycles: %s"
                  % (name, sorted(seen, key=str)), file=sys.stderr)
    extra = {"trace.overhead_s": list_seconds(traced) - list_seconds(untraced)}
    if absent or missing:
        print("absent (metrics left out): %s" % ", ".join(sorted(absent | missing)))
    return layer_metrics(runs, absent, missing, extra), first.span_records()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    mayss = import_engine()
    if mayss is None:
        return fail("no mayss package under %s; run inside a checkout of the repository" % SRC)
    try:
        reference = json.loads((HERE / "reference.json").read_text())
    except (OSError, ValueError) as exc:
        return fail("cannot read reference answers: %s" % exc)

    workload = WORKLOADS[args.workload]
    queries = workload.draw(args.seed)
    env = environment()
    print("env %s" % json.dumps(env, sort_keys=True))
    print("queries %s" % json.dumps(queries))
    OUT.mkdir(exist_ok=True)
    tally = Tally(reference)
    if args.trace:
        metrics, spans = traced_run(mayss, workload, queries, args.seconds, tally)
        units = UNITS
        (OUT / ("trace-%s-seed%d.json" % (workload.name, args.seed))).write_text(json.dumps({
            "env": env, "workload": workload.name, "seed": args.seed, "queries": queries,
            "metrics": metrics, "columns": ["name", "start_s", "end_s", "parent"],
            "spans": spans}) + "\n")
    else:
        metrics = timed_run(mayss, workload, queries, args.seconds, tally)
        units = END_TO_END_UNITS

    for msg in tally.messages:
        print("mismatch: %s" % msg, file=sys.stderr)
    for name, value in metrics.items():
        print("%-34s %s %s" % (name, value, units[name]))
    print("%-34s %s ratio (%d of %d queries failed)"
          % ("error_rate", tally.failed / tally.attempted, tally.failed, tally.attempted))
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
