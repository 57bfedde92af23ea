"""Spans around drsort's public functions, recorded from outside the package.

`patched` replaces each target function with a timing wrapper on every
module namespace that binds it (``training`` and ``bandit`` import several
``valuenet`` and ``bandit`` names directly) and on the class for methods,
then restores every original when the block exits. Spans are kept in
memory as parallel lists and reduced to per-name and per-layer figures
after the run.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

PACKAGE = "drsort"


@dataclass(frozen=True)
class Target:
    """One traced function, named "<drsort module>.<function>"; the module is its layer."""

    name: str
    method: str | None = None  # "Class.method" when the target is a method of that module
    units: Callable | None = None  # (args, kwargs, result) -> work units to add up


class Tracer:
    """Single-threaded span recorder: name, start, end and parent per span.

    With a `probe` (a function returning a reference time), each outermost
    span is bracketed by one probe before its clock starts and one after it
    stops; `references` keeps what the probes returned, `probed_at` when
    they started, and `probe_s` the wall time they took.
    """

    def __init__(self, clock=time.perf_counter, probe=None):
        self.clock = clock
        self.probe = probe
        self.references: list[float] = []
        self.probed_at: list[float] = []
        self.probe_s = 0.0
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.units: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name: str, fn, units=None):
        names, starts, ends, parents, open_ = (
            self.names, self.starts, self.ends, self.parents, self._open
        )
        clock = self.clock
        probe = self._probe if self.probe is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = probe is not None and not open_
            if outermost:
                probe()
            idx = len(names)
            names.append(name)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_.pop()
            if outermost:
                probe()
            if units is not None:
                self.units[name] += units(args, kwargs, result)
            return result

        return traced

    def _probe(self) -> None:
        start = self.clock()
        self.probed_at.append(start)
        self.references.append(self.probe())
        self.probe_s += self.clock() - start

    def durations(self, name: str) -> list[float]:
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("span", "name", "start_s", "end_s", "parent"))
            origin = self.starts[0] if self.starts else 0.0
            for i, (n, s, e, p) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents)
            ):
                writer.writerow((i, n, repr(s - origin), repr(e - origin), p))


def _owners(target: Target):
    """(namespace, attribute, original) for every binding of the target's function."""
    module_name, label = target.name.split(".", 1)
    module = sys.modules[f"{PACKAGE}.{module_name}"]
    if target.method is not None:
        cls_name, attr = target.method.split(".")
        owner = getattr(module, cls_name)
        return [(owner, attr, owner.__dict__[attr])]
    original = getattr(module, label)
    return [
        (mod, label, original)
        for mod_name, mod in list(sys.modules.items())
        if (mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."))
        and getattr(mod, label, None) is original
    ]


@contextlib.contextmanager
def patched(tracer: Tracer, targets):
    """Wrap every binding of each target for the duration of the block.

    Yields the list of (namespace, attribute, original) patches; all of them
    are restored in `finally`, also when the block raises.
    """
    patches = []
    try:
        for target in targets:
            for owner, attr, original in _owners(target):
                wrapper = tracer.wrap(target.name, original, target.units)
                patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        yield patches
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def self_times(starts, ends, parents) -> list[float]:
    """Span duration minus the part of its interval that its children cover."""
    children: dict[int, list[int]] = {}
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(idx)
    out = []
    for idx, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(
            (max(starts[c], start), min(ends[c], end)) for c in children.get(idx, ())
        ):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


@dataclass(frozen=True)
class SpanStats:
    calls: int
    total_s: float
    self_s: float


def per_name(tracer: Tracer) -> dict[str, SpanStats]:
    """Calls, total time and self time for each span name."""
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    calls: Counter = Counter()
    total: Counter = Counter()
    own: Counter = Counter()
    for idx, name in enumerate(tracer.names):
        calls[name] += 1
        total[name] += tracer.ends[idx] - tracer.starts[idx]
        own[name] += selfs[idx]
    return {n: SpanStats(calls[n], total[n], own[n]) for n in calls}


def per_layer_self(stats: dict[str, SpanStats]) -> dict[str, float]:
    """Self seconds summed over the span names of each layer."""
    layers: Counter = Counter()
    for name, s in stats.items():
        layers[name.split(".", 1)[0]] += s.self_s
    return dict(layers)


def count_under(tracer: Tracer, name: str, ancestor: str) -> tuple[int, int]:
    """(spans named `name` whose parent is `ancestor`, those with `ancestor` anywhere above)."""
    inside = [False] * len(tracer.names)
    direct = deep = 0
    for idx, span in enumerate(tracer.names):
        parent = tracer.parents[idx]
        if parent >= 0:
            inside[idx] = tracer.names[parent] == ancestor or inside[parent]
        if span == name and inside[idx]:
            deep += 1
            direct += tracer.names[parent] == ancestor
    return direct, deep
