"""Spans and counters recorded from outside the library, by wrapping its functions.

A span wraps one public function: each call records its name, start, end and
parent span.  A counter wraps a function too small to time without distorting
it and counts its calls.  A wrapper replaces the function in every
`quandles.*` module that holds it, so calls made through any import are seen.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

PACKAGE = "quandles"

SPANS = (
    "core.validate_quandle",
    "core.load_quandle",
    "perms.closure",
    "analysis.inner_group",
    "analysis.displacement_group",
    "analysis.is_connected",
    "analysis.is_flat",
    "analysis.is_homogeneous",
    "isomorphism.find_isomorphism",
    "isomorphism.automorphism_group",
    "triplets.triplet_from_quandle",
    "triplets.quandle_from_triplet",
    "triplets.FiniteGroup.from_permutations",
    "classify.classify_flat_connected",
    "classify.abelian_invariants",
    "classify.build_representatives",
    "cli.main",
)
COUNTED = ("perms.compose", "perms.orbit")
EXTRAS = (
    "perms.closure.elements",
    "isomorphism.automorphism_group.elements",
    "isomorphism.find_isomorphism.none",
)
ROOT_SPAN = "op"  # the benchmark's call into the program

MEMOS = ("analysis.inner_group", "analysis.displacement_group")
INVARIANT_MEMOS = ("isomorphism._point_profiles", "isomorphism._displacement_order_multiset")

# Per-layer metric -> (end-to-end metric it should move, on which workload).
TARGETS = {
    "core.validate_quandle.calls": "roundtrip.ops_per_s, cli.p50_ms",
    "core.validate_quandle.self_s": "roundtrip.ops_per_s, cli.p50_ms",
    "core.load_quandle.self_s": "roundtrip.ops_per_s, cli.p50_ms",
    "perms.closure.calls": "roundtrip.ops_per_s, analyze.p50_ms; classify flat",
    "perms.closure.self_s": "roundtrip.ops_per_s, analyze.p50_ms; classify flat",
    "perms.closure.elements": "roundtrip.ops_per_s, analyze.p50_ms; classify flat",
    "perms.compose.calls": "roundtrip.ops_per_s, analyze.p50_ms; classify flat",
    "perms.orbit.calls": "roundtrip.ops_per_s, analyze.p50_ms; classify flat",
    "analysis.inner_group.self_s": "roundtrip, analyze",
    "analysis.displacement_group.self_s": "roundtrip, analyze",
    "analysis.is_connected.self_s": "roundtrip, analyze",
    "analysis.is_flat.self_s": "roundtrip, analyze",
    "analysis.is_homogeneous.self_s": "roundtrip, analyze",
    "analysis.inner_group.memo_hits": "peak_rss_mb",
    "analysis.inner_group.memo_misses": "peak_rss_mb",
    "analysis.displacement_group.memo_hits": "peak_rss_mb",
    "analysis.displacement_group.memo_misses": "peak_rss_mb",
    "isomorphism.find_isomorphism.calls": "classify, analyze: p50_ms, tail_ms; roundtrip flat",
    "isomorphism.find_isomorphism.self_s": "classify, analyze: p50_ms, tail_ms; roundtrip flat",
    "isomorphism.find_isomorphism.none": "classify, analyze: p50_ms, tail_ms; roundtrip flat",
    "isomorphism.automorphism_group.self_s": "classify, analyze: p50_ms, tail_ms; roundtrip flat",
    "isomorphism.automorphism_group.elements": "classify, analyze: p50_ms, tail_ms; roundtrip flat",
    "isomorphism.memo_entries": "peak_rss_mb",
    "triplets.triplet_from_quandle.self_s": "roundtrip.ops_per_s; under 5% of classify",
    "triplets.quandle_from_triplet.self_s": "roundtrip.ops_per_s; under 5% of classify",
    "triplets.FiniteGroup.from_permutations.self_s": "roundtrip.ops_per_s; under 5% of classify",
    "classify.classify_flat_connected.self_s": "roundtrip.ops_per_s; under 5% of classify",
    "classify.abelian_invariants.self_s": "roundtrip.ops_per_s; under 5% of classify",
    "classify.build_representatives.self_s": "roundtrip.ops_per_s; under 5% of classify",
    "cli.main.self_s": "cli.p50_ms",
    "cli.start_s": "cli.p50_ms",
}


def package_modules() -> dict:
    """The loaded `quandles` modules, by name."""
    return {name: m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}


def _resolve(name: str):
    """(owner, attribute) for 'module.func' or 'module.Class.method'."""
    parts = name.split(".")
    owner = sys.modules[f"{PACKAGE}.{parts[0]}"]
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def lookup(name: str):
    """The library function behind `name`, unwrapped from any tracer; None if absent."""
    try:
        owner, attr = _resolve(name)
    except (KeyError, AttributeError):
        return None
    fn = getattr(owner, attr, None)
    while getattr(fn, "__perfbench__", False):
        fn = fn.__wrapped__
    return fn


def aborted_in(exc: BaseException) -> str:
    """The innermost span that was running where `exc` was raised."""
    found = ROOT_SPAN
    tb = exc.__traceback__
    while tb is not None:
        frame = tb.tb_frame
        module = frame.f_globals.get("__name__", "")
        if module.startswith(PACKAGE + "."):
            code = frame.f_code
            key = module[len(PACKAGE) + 1:] + "." + getattr(code, "co_qualname", code.co_name)
            if key in SPANS:
                found = key
        tb = tb.tb_next
    return found


class Memos:
    """Clears the library's memo caches; between `start` and `stop` it also
    keeps their hit and miss counts and the largest invariant-cache size."""

    def __init__(self):
        self.totals = Counter()
        self.max_invariant_entries = 0
        self.counting = False

    def _caches(self, names):
        for name in names:
            fn = lookup(name)
            if fn is not None and hasattr(fn, "cache_info"):
                yield name, fn

    def clear(self) -> None:
        """Forget every memo, so the next op sees a process that never met its tables."""
        if self.counting:
            for name, fn in self._caches(MEMOS):
                info = fn.cache_info()
                self.totals[f"{name}.memo_hits"] += info.hits
                self.totals[f"{name}.memo_misses"] += info.misses
            entries = sum(fn.cache_info().currsize for _, fn in self._caches(INVARIANT_MEMOS))
            self.max_invariant_entries = max(self.max_invariant_entries, entries)
        for _, fn in self._caches(MEMOS + INVARIANT_MEMOS):
            fn.cache_clear()

    def start(self) -> None:
        self.clear()
        self.counting = True

    def stop(self) -> None:
        self.clear()
        self.counting = False


class Tracer:
    """Installs span and counter wrappers; `close` restores the originals."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.calls = Counter()
        self.extra = Counter()
        self._restore: list[tuple] = []

    def _replace(self, name: str, make):
        try:
            owner, attr = _resolve(name)
        except (KeyError, AttributeError):
            return
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
        if isinstance(raw, classmethod):
            wrapper = classmethod(make(raw.__func__))
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapper)
            return
        original = getattr(owner, attr, None)
        if original is None:
            return
        wrapper = make(original)
        for module in package_modules().values():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapper)

    def install(self) -> "Tracer":
        for name in SPANS:
            self._replace(name, lambda fn, name=name: self._span_wrapper(name, fn))
        for name in COUNTED:
            self._replace(name, lambda fn, name=name: self._count_wrapper(name, fn))
        return self

    def close(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def _count_wrapper(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        counted.__perfbench__ = True
        return counted

    def _span_wrapper(self, name, fn):
        def span(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if name == "perms.closure":
                self.extra["perms.closure.elements"] += len(result)
            elif name == "isomorphism.automorphism_group":
                self.extra["isomorphism.automorphism_group.elements"] += len(result)
            elif name == "isomorphism.find_isomorphism" and result is None:
                self.extra["isomorphism.find_isomorphism.none"] += 1
            return result

        span.__wrapped__ = fn
        span.__perfbench__ = True
        return span

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        spans, stack = self.spans, self.stack
        index = len(spans)
        record = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
        spans.append(record)
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            record[2] = perf_counter()

    def totals(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), Counter()
        for (name, start, end, _), inner in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += end - start - inner
        return calls, self_s
