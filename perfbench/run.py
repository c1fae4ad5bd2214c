"""Benchmark of the quandles library and CLI.

    python3 perfbench/run.py --workload classify --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  It imports the package from `src/`, builds
the workload's inputs from the seed, runs ops back to back in one process for
`--seconds` seconds (a closed loop with one caller and no threads), checks
every answer, and prints a table followed by one JSON line.  With
`--trace 0` the JSON holds the end-to-end metrics listed in BENCHMARK.json,
every time scaled to a fixed machine speed (see Speed); with `--trace 1` it
holds the per-layer metrics of a traced run.

Exit codes: 0 after a run, even one with failed ops; 2 when the package or
BENCHMARK.json cannot be found or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
from bisect import bisect_left, bisect_right
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / "perfbench" / "_work" / str(os.getpid())
SETUP_EVERY_S = 1.0
DEFAULT_SEED = 0
HELD_OUT_SEED = 1009
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
# The reference loop's time when the machine runs at full speed: about
# 1.1 ms on a 2-core VM with Python 3.11.7.  End-to-end times are reported
# at this speed (see Speed).
REF_S = 0.0011
SPEED_EVERY_S = 0.05  # the reference loop runs between ops this often
SPEED_WINDOW_S = 0.25  # reference samples this near an op set its speed


class Deadline(BaseException):
    """Raised inside the program when an op runs past its latency limit.

    A BaseException, so no `except Exception` in the program can swallow it.
    """


_armed = False


def _on_alarm(signum, frame):
    if _armed:
        raise Deadline


class Record(NamedTuple):
    id: str
    start: float  # perf_counter() when the op began
    elapsed: float  # seconds
    status: str  # "ok" | "wrong" | "deadline" | "error"
    detail: str  # aborted-in span, or the error


def import_package():
    """Import `quandles` afresh from src/ and return it.

    Raises ImportError when the package is missing or would come from
    anywhere but this checkout.
    """
    for name in tracing.package_modules():
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    q = importlib.import_module("quandles")
    importlib.import_module("quandles.cli")
    if not Path(q.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"quandles was imported from {q.__file__}, not from src/")
    return q


def make_workload(name: str, q, seed: int):
    if name == "cli":
        return workloads.Cli(q, seed, WORKDIR, SRC)
    return {"roundtrip": workloads.Roundtrip, "classify": workloads.Classify,
            "analyze": workloads.Analyze}[name](q, seed)


def set_up(name: str, seed: int):
    """Import the package afresh and build the workload's inputs; (workload, seconds)."""
    start = perf_counter()
    wl = make_workload(name, import_package(), seed)
    wl.setup()
    return wl, perf_counter() - start


def time_set_up(name: str, seed: int) -> float:
    """Seconds to set up once more, leaving the running workload's modules in place."""
    saved = tracing.package_modules()
    try:
        return set_up(name, seed)[1]
    finally:
        for k in tracing.package_modules():
            del sys.modules[k]
        sys.modules.update(saved)


def run_op(op, limit_s, tracer=None) -> Record:
    """Time one op's call under the latency limit, then check its answer."""
    global _armed
    status, detail, result = "ok", "", None
    start = perf_counter()
    try:
        try:
            if limit_s:
                _armed = True
                signal.setitimer(signal.ITIMER_REAL, limit_s)
            result = tracer.call(tracing.ROOT_SPAN, op.run) if tracer else op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            _armed = False
    except Deadline as e:
        status, detail = "deadline", tracing.aborted_in(e)
    except Exception as e:  # a raising op is a failed op, never the end of the run
        status, detail = "error", f"{type(e).__name__}: {e}"[:200]
    elapsed = perf_counter() - start
    if status == "ok":
        try:
            if not op.check(result):
                status, detail = "wrong", "answer failed its check"
        except Exception as e:
            status, detail = "wrong", f"check raised {type(e).__name__}: {e}"[:200]
    return Record(op.id, start, elapsed, status, detail)


REF_GENERATORS = [tuple(random.Random(k).sample(range(64), 64)) for k in range(4)]


def reference_loop() -> int:
    """Fixed work of the program's own kind: compose permutations, hash the results.

    A plain arithmetic loop slows less than the program does when the host is
    busy; this one slows alike.
    """
    seen = set()
    x = tuple(range(64))
    for k in range(400):
        x = tuple(x[i] for i in REF_GENERATORS[k % 4])
        seen.add(x)
    return len(seen)


class Speed:
    """The machine's speed through a run, from a fixed loop timed between ops.

    On a shared host the same code runs for seconds at a time up to half as
    slow again as at other times, in the program and in this loop alike, so
    a run's raw times depend on how much of it fell in slow stretches.
    `scaled` turns a time measured at one moment into the time it would
    have taken at the speed where the loop takes REF_S, using the loop's
    samples nearest that moment.
    """

    def __init__(self):
        self.times: list[float] = []
        self.refs: list[float] = []

    def sample(self) -> None:
        # With the collector off, the loop's time does not depend on how
        # many objects the program left on the heap.
        gc.disable()
        try:
            start = perf_counter()
            reference_loop()
            end = perf_counter()
        finally:
            gc.enable()
        self.times.append(end)
        self.refs.append(end - start)

    def sample_if_due(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= SPEED_EVERY_S:
            self.sample()

    def scaled(self, start: float, seconds: float) -> float:
        """`seconds`, measured from `start`, at the reference speed."""
        t = self.times
        before = bisect_left(t, start)
        after = bisect_right(t, start + seconds)
        lo = min(bisect_left(t, start - SPEED_WINDOW_S), max(before - 1, 0))
        hi = max(bisect_right(t, start + seconds + SPEED_WINDOW_S), min(after + 1, len(t)))
        return seconds * REF_S / statistics.median(self.refs[lo:hi])


def run_loop(wl, memos, seconds=None, max_ops=None, tracer=None, after_op=None) -> list[Record]:
    """Run whole passes until `seconds` have gone by, or stop after `max_ops` ops.

    Metrics over whole passes weigh every input of a pass alike, however far
    into a pass the time runs out.  The memos are cleared at the start of each
    pass; within a pass every input table is distinct, so no op is answered
    from an earlier op's memo.
    """
    records: list[Record] = []
    start = perf_counter()
    for ops in wl.passes():
        memos.clear()
        for op in ops:
            records.append(run_op(op, wl.limit_s, tracer))
            if after_op is not None:
                after_op()
            if max_ops is not None and len(records) >= max_ops:
                return records
        if seconds is not None and perf_counter() - start >= seconds:
            return records


def tail(latencies: list[float], tail_pct: float) -> tuple[float, float]:
    """(value, percentile) at tail_pct, or lower if fewer than TAIL_BEYOND
    samples lie beyond it.

    A fixed percentile, rather than the highest one the sample count allows,
    keeps the figure comparable between runs that hold different numbers of
    passes.
    """
    s = sorted(latencies)
    pct = min(tail_pct, 100.0 * (len(s) - TAIL_BEYOND - 1) / len(s))
    if pct <= 0:
        return s[-1], 100.0
    return statistics.quantiles(s, n=1000, method="inclusive")[round(10 * pct) - 1], pct


def end_to_end(wl, records, setups, speed) -> tuple[dict, list[str]]:
    """The end-to-end metrics; every time is scaled to the reference speed.

    `setups` holds (start, seconds) of each timed set-up.
    """
    limit = wl.limit_s or 0.0
    lat_ms = []
    for r in records:
        s = speed.scaled(r.start, r.elapsed)
        lat_ms.append(1000 * (s if r.status == "ok" else max(s, limit)))
    ok = sum(r.status == "ok" for r in records)
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    tail_ms, tail_pct = tail(lat_ms, wl.tail_pct)
    values = {
        "setup_s": statistics.median(speed.scaled(*s) for s in setups),
        "ops_per_s": 1000 * ok / sum(lat_ms),
        "p50_ms": statistics.median(lat_ms),
        "tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    raw_ms = [1000 * r.elapsed for r in records]
    notes = [
        f"tail_ms is p{tail_pct:.1f} of {len(records)} ops in whole passes",
        f"fail_share = {len(records) - ok}/{len(records)} = {1 - ok / len(records):.4f}"
        + (f" (latency limit {limit} s)" if limit else ""),
        f"setup_s is the median of {len(setups)} set-ups spread over the run",
        f"times are at the reference speed, where the reference loop takes {1000 * REF_S} ms; "
        f"it took {1000 * min(speed.refs):.3f} to {1000 * max(speed.refs):.3f} ms "
        f"(median {1000 * statistics.median(speed.refs):.3f}) over {len(speed.refs)} samples",
        f"as measured: ops_per_s {1000 * ok / sum(raw_ms):.6g}, p50_ms {statistics.median(raw_ms):.6g}",
    ]
    return values, notes


def call_main(argv) -> tuple[int, str]:
    """The CLI's main() in this process, with its output captured."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = sys.modules["quandles.cli"].main(list(argv))
    return code, out.getvalue()


def trace_cli_pass(cli, memos, tracer, records, starts, inproc) -> None:
    """Each CLI command once as a subprocess and twice in this process,
    untraced and then traced; memos are cleared before each in-process call,
    as a new process would start without them."""
    plain = []
    for i, c in enumerate(cli.commands):
        op = workloads.Op(f"cli#{i}", lambda c=c: cli.run_subprocess(c.argv), lambda r, c=c: c.check(*r))
        records.append(run_op(op, None))
        memos.clear()
        start = perf_counter()
        call_main(c.argv)
        plain.append(perf_counter() - start)
        starts.append(records[-1].elapsed - plain[-1])
    tracer.install()
    memos.start()
    for c, untraced in zip(cli.commands, plain):
        memos.clear()
        start = perf_counter()
        tracer.call(tracing.ROOT_SPAN, call_main, c.argv)
        inproc.append((untraced, perf_counter() - start))
    memos.stop()
    tracer.close()


def run_probes(wl, memos) -> list[Record]:
    """The workload's known-defect probes, each once, untraced, under PROBE_LIMIT_S."""
    records = []
    for op in wl.probes():
        memos.clear()
        records.append(run_op(op, workloads.PROBE_LIMIT_S))
    return records


def traced_run(name: str, seed: int, seconds: float) -> tuple[dict, list[str], list[Record]]:
    """Per-layer metrics: spans and counters over the workload's ops.

    An in-process workload runs untraced for half the time, then the same ops
    again traced; the ratio of the two, each at the reference speed, is
    trace.overhead.  Its known-defect
    probes run next, and `deadline.aborted_in.<span>` counts where the latency
    limit stopped them and any failed op.  Every traced run ends with one pass
    of the CLI commands, which gives the cli.* metrics and reaches every
    layer, so no per-layer time reads zero.
    """
    wl, _ = set_up(name, seed)
    memos, tracer = tracing.Memos(), tracing.Tracer()
    cli = wl if name == "cli" else make_workload("cli", wl.q, seed)
    if name != "cli":
        cli.setup()
    records, probes, starts, inproc = [], [], [], []
    if wl.in_process:
        speed = Speed()
        speed.sample()
        records = run_loop(wl, memos, seconds=seconds / 2, after_op=speed.sample_if_due)
        again = make_workload(name, wl.q, seed)
        again.setup()
        tracer.install()
        memos.start()
        traced = run_loop(again, memos, max_ops=len(records), tracer=tracer,
                          after_op=speed.sample_if_due)
        memos.stop()
        tracer.close()
        speed.sample()
        overhead = (sum(speed.scaled(r.start, r.elapsed) for r in traced)
                    / sum(speed.scaled(r.start, r.elapsed) for r in records))
        probes = run_probes(again, memos)
        trace_cli_pass(cli, memos, tracer, [], starts, inproc)
    else:
        start = perf_counter()
        while perf_counter() - start < seconds / 2:
            trace_cli_pass(cli, memos, tracer, records, starts, inproc)
        overhead = sum(t for _, t in inproc) / sum(u for u, _ in inproc)

    calls, self_s = tracer.totals()
    values = {}
    for span in tracing.SPANS:
        values[f"{span}.calls"] = calls[span]
        values[f"{span}.self_s"] = self_s[span]
    for counted in tracing.COUNTED:
        values[f"{counted}.calls"] = tracer.calls[counted]
    for extra in tracing.EXTRAS:
        values[extra] = tracer.extra[extra]
    for memo in tracing.MEMOS:
        for stat in ("memo_hits", "memo_misses"):
            values[f"{memo}.{stat}"] = memos.totals[f"{memo}.{stat}"]
    values["isomorphism.memo_entries"] = memos.max_invariant_entries
    values["cli.start_s"] = statistics.median(starts)
    for span in (tracing.ROOT_SPAN,) + tracing.SPANS:
        values[f"deadline.aborted_in.{span}"] = 0
    for r in records + probes:
        if r.status == "deadline":
            values[f"deadline.aborted_in.{r.detail}"] += 1
    values["trace.overhead"] = overhead
    notes = [f"{len(records)} ops untraced; cli.start_s is the median over "
             f"{len(starts)} commands of subprocess latency minus in-process main()"]
    notes += [f"probe {r.id}: {r.status} {r.detail} after {r.elapsed:.3f} s" for r in probes]
    return values, notes, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["roundtrip", "classify", "analyze", "cli"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        import_package()
    except (OSError, ValueError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        if args.trace:
            values, notes, records = traced_run(args.workload, args.seed, args.seconds)
            wanted = spec["per_layer"]
        else:
            start = perf_counter()
            wl, first = set_up(args.workload, args.seed)
            setups = [(start, first)]
            speed = Speed()
            speed.sample()
            last = perf_counter()

            def between_ops():
                # Set-up is timed again every SETUP_EVERY_S seconds, between
                # ops and outside their timing, so that its median spans the
                # same stretch of machine time as the other metrics.
                nonlocal last
                speed.sample_if_due()
                if perf_counter() - last >= SETUP_EVERY_S:
                    start = perf_counter()
                    setups.append((start, time_set_up(args.workload, args.seed)))
                    last = perf_counter()

            records = run_loop(wl, tracing.Memos(), seconds=args.seconds, after_op=between_ops)
            speed.sample()
            values, notes = end_to_end(wl, records, setups, speed)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        try:
            WORKDIR.parent.rmdir()
        except OSError:
            pass

    failed = [r for r in records if r.status != "ok"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for m in wanted:
        target = tracing.TARGETS.get(m["name"], "")
        print(f"  {m['name']:<48} {values[m['name']]:>14.6g} {m['unit']:<6} {target}")
    for note in notes:
        print(f"  {note}")
    for r in failed:
        print(f"  failed {r.id}: {r.status} {r.detail}")
    result = {
        "correct": not any(r.status in ("wrong", "error") for r in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
