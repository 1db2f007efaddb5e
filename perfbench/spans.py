"""Spans around the calls into each latticebound module, for the traced run.

The benchmark wraps the module-level functions it names here; the package
itself is not changed.  A span records a name, a start, an end and the
span that caused it.  Spans stay in memory and are written out when the
run ends.  Hot cached calls get counts instead of spans: the moment cache
answers about 1.6 M lookups per full-plane sweep, so its hits are read
from ``cache_info()`` and only the uncached evaluations are timed.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from latticebound import atlas, cli, core, determinants, integrals, oracle, spectrum

# span name -> (owner, attribute).  Every latticebound module that imported
# the same function object by name gets the wrapper too.
TARGETS = {
    "core.band_edges": (core, "band_edges"),
    "integrals.calibrate": (integrals, "calibrate_edge_constants"),
    "integrals.moment_miss": (integrals, "_reduced_integrals"),
    "determinants.secular_entries": (determinants, "secular_entries"),
    "spectrum.threshold_count": (spectrum, "_threshold_count"),
    "spectrum.count_jump_scan": (spectrum, "count_jump_scan"),
    "spectrum.k0": (spectrum, "spectrum_k0"),
    "spectrum.general": (spectrum, "spectrum_general"),
    "oracle.grid_build": (oracle.GridModel, "build"),
    "oracle.grid_secular": (oracle.GridModel, "secular"),
    "oracle.counts": (oracle, "oracle_counts"),
    "atlas.sweep": (atlas, "sweep"),
    "atlas.classify": (atlas, "classify"),
    "cli.emit_csv": (cli, "emit_csv"),
}


def _moment_cache_info() -> tuple[int, int]:
    """(hits, misses) of the moment cache; (0, 0) if it has no lru_cache."""
    info = getattr(integrals.watson_integrals_at, "cache_info", None)
    if info is None:
        return 0, 0
    c = info()
    return c.hits, c.misses


class Tracer:
    """In-memory span recorder with per-name totals."""

    def __init__(self) -> None:
        self.spans: list[list] = []          # [name, start, end, parent]
        self._stack: list[int] = []
        self.jump_scan_evals = 0
        self.csv_bytes = 0
        self.moment_hits = 0
        self.moment_misses = 0
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, inner=None):
        """Wrap ``fn``; inside an operation call ``inner`` (default fn) in a span."""
        inner = inner or fn

        def traced(*args, **kwargs):
            if not self._stack:      # outside an operation, e.g. in a check
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1]])
            self._stack.append(idx)
            try:
                return inner(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
        return traced

    def _jump_scan(self, fn):
        # count every evaluation of the integer curve count
        def counted(nfun, *args, **kwargs):
            def nfun_counted(d):
                self.jump_scan_evals += 1
                return nfun(d)
            return fn(nfun_counted, *args, **kwargs)
        return counted

    def _emit_csv(self, fn):
        # count the characters written (the CSV is ASCII, so also bytes)
        def counted(rows, out):
            start = out.tell()
            fn(rows, out)
            self.csv_bytes += out.tell() - start
        return counted

    def install(self) -> list[str]:
        """Wrap every target; returns the names that could not be found."""
        missing = []
        for name, (owner, attr) in TARGETS.items():
            raw = owner.__dict__.get(attr)
            if raw is None:
                missing.append(name)
                continue
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            counter = {"spectrum.count_jump_scan": self._jump_scan,
                       "cli.emit_csv": self._emit_csv}.get(name)
            wrapped = self.span(name, fn, counter(fn) if counter else None)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            self._replace(owner, attr, raw, wrapped)
            if isinstance(owner, type):
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("latticebound") and mod is not owner:
                    for key, val in list(vars(mod).items()):
                        if val is raw:
                            self._replace(mod, key, raw, wrapped)
        return missing

    def _replace(self, owner, attr: str, old, new) -> None:
        setattr(owner, attr, new)
        self._patched.append((owner, attr, old))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()

    @contextmanager
    def root(self, name: str):
        """One operation: a root span, plus the moment-cache counts it added.

        The counts are read around each operation because a full-plane
        sweep starts by clearing the cache, which also resets its counters.
        """
        before = _moment_cache_info()
        self.spans.append([name, time.perf_counter(), 0.0, -1])
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            idx = self._stack.pop()
            self.spans[idx][2] = time.perf_counter()
            after = _moment_cache_info()
            self.moment_hits += after[0] - before[0]
            self.moment_misses += after[1] - before[1]

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for idx, (name, start, end, _parent) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_time[idx]
        return out

    def write(self, path: Path, t0: float) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fields": ["name", "start_s", "end_s", "parent"], "spans": [\n')
            for i, (name, start, end, parent) in enumerate(self.spans):
                sep = "," if i + 1 < len(self.spans) else ""
                fh.write(json.dumps([name, round(start - t0, 7),
                                     round(end - t0, 7), parent]) + sep + "\n")
            fh.write("]}\n")
