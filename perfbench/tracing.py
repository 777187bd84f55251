"""Spans around calls into the program's layers, recorded from outside it.

A wrapper replaces a public function in every module namespace where a
caller looks it up (``subseqstats.simulation.batch_letters`` and so on)
and records one span per call: name, start, end, parent and a few
counts.  Spans stay in memory until the run writes them out.  A span
opened in a pool thread with nothing open in that thread is parented to
the innermost span open in the thread that installed the tracer, which
is the call that is waiting on the pool.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

from subseqstats import channel, counting, moments, presets, simulation, source_model

_MODULES = (source_model, counting, moments, simulation, presets, channel)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


def _letters(args, kwargs, result):
    return {"letters": int(result.size)}


def _cells(args, kwargs, result):
    texts, word = args[0], args[1]
    return {"cells": int(texts.shape[0]) * int(texts.shape[1]) * len(tuple(word))}


def _trials(args, kwargs, result):
    return {"trials": int(result.trials)}


# (module holding the original, attribute, span name, counter)
LAYERS = (
    (source_model, "batch_letters", "source_model.batch_letters", _letters),
    (counting, "batched_ln_counts", "counting.batched_ln_counts", _cells),
    (counting, "count_subsequences", "counting.count_subsequences", None),
    (simulation, "collect_ln_counts", "simulation.collect_ln_counts", None),
    (simulation, "summarize_normal", "simulation.summarize", None),
    (simulation, "summarize_lognormal", "simulation.summarize", None),
    (simulation, "ks_statistic", "simulation.ks_statistic", None),
    (moments, "sigma1_sq_normalized", "moments.sigma1_sq_normalized", None),
    (presets, "run_preset", "presets.run_preset", None),
    (channel, "mc_mutual_information", "channel.mc_mutual_information", _trials),
)


class Tracer:
    """Records spans; ``installed()`` patches the layers for the length of a with block."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack: list[int] = []
        self._t0 = time.perf_counter()

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, counter):
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            sid = next(self._ids)
            misses = cache_info().misses if cache_info else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            counts = counter(args, kwargs, result) if counter else {}
            if cache_info:
                counts["cold"] = cache_info().misses - misses
                # a cold sigma_1^2 evaluates one occupancy row per text position
                counts["rows"] = int(args[2]) * counts["cold"]
            with self._lock:
                self.spans.append(Span(sid, name, start - self._t0, end - self._t0, parent, counts))
            return result

        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for home, attr, name, counter in LAYERS:
                original = getattr(home, attr)
                wrapper = self._wrap(name, original, counter)
                for module in _MODULES:
                    if getattr(module, attr, None) is original:
                        saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n")


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that its child spans cover."""
    return span.duration - covered([(c.start, c.end) for c in children], span.start, span.end)


def layer_metrics(spans: list[Span], wall: float, cpu: float) -> dict[str, float]:
    """Per-layer figures of one round from its spans."""
    by_name: dict[str, list[Span]] = {}
    kids: dict[int, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)

    def busy(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in by_name.get(name, ()))

    def own(name):
        return sum(self_time(s, kids.get(s.id, [])) for s in by_name.get(name, ()))

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    letters_s = busy("source_model.batch_letters")
    letters = total("source_model.batch_letters", "letters")
    kernel_s = busy("counting.batched_ln_counts")
    cells = total("counting.batched_ln_counts", "cells")
    collect_s = busy("simulation.collect_ln_counts")
    collect_kids = sum(
        c.duration for s in by_name.get("simulation.collect_ln_counts", ()) for c in kids.get(s.id, ())
    )
    cold = [s for s in by_name.get("moments.sigma1_sq_normalized", ()) if s.counts["cold"]]
    sigma1_s = sum(s.duration for s in cold)
    rows = sum(s.counts["rows"] for s in cold)
    channel_s = busy("channel.mc_mutual_information")
    channel_trials = total("channel.mc_mutual_information", "trials")
    return {
        "source_model.busy_s": letters_s,
        "source_model.letters": letters,
        "source_model.mletters_per_s": rate(letters, letters_s) / 1e6,
        "counting.busy_s": kernel_s,
        "counting.cells": cells,
        "counting.mcells_per_s": rate(cells, kernel_s) / 1e6,
        "counting.scalar_calls": len(by_name.get("counting.count_subsequences", ())),
        "counting.scalar_busy_s": busy("counting.count_subsequences"),
        "simulation.collect_s": collect_s,
        "simulation.collect_self_s": own("simulation.collect_ln_counts"),
        "simulation.concurrency": rate(collect_kids, collect_s),
        "simulation.summarize_s": busy("simulation.summarize"),
        "simulation.ks_s": busy("simulation.ks_statistic"),
        "moments.sigma1_s": sigma1_s,
        "moments.sigma1_calls": len(cold),
        "moments.rows": rows,
        "moments.krows_per_s": rate(rows, sigma1_s) / 1e3,
        "presets.self_s": own("presets.run_preset"),
        "channel.busy_s": channel_s,
        "channel.self_s": own("channel.mc_mutual_information"),
        "channel.ms_per_trial": 1e3 * rate(channel_s, channel_trials),
        "process.cpu_s": cpu,
        "process.cpu_per_wall": rate(cpu, wall),
    }
