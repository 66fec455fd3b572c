"""Spans around honeyflow's public functions, recorded from outside the package.

A :class:`Tracer` replaces each traced function with a wrapper in *every*
``honeyflow`` module that holds it. That covers the package re-exports and
the names consumers imported for themselves (``honeyflow.cli.load_trace``,
``honeyflow.sweep.assemble``, ``honeyflow.completeness.match_baseline``, ...),
so nested calls are traced too. Module objects come from ``sys.modules``:
``honeyflow.sweep`` as an attribute is the re-exported *function* ``sweep``.

Spans are kept in memory as (name, start, end, parent, counts); a span's
self time is its duration minus its children's. Counts are measured where
the work happens, from each call's arguments and result.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


def _n(value) -> int:
    return len(value) if hasattr(value, "__len__") else 0


# layer -> function -> counts(bound arguments, result). Layer names are the
# honeyflow module names; evasion is left out (closed-form, microseconds).
TARGETS = {
    "events": {
        "load_trace": lambda a, r: {"events": len(r)},
        "load_baseline": lambda a, r: {"records": len(r)},
        "load_scanner_list": lambda a, r: {"sources": len(r.sources)},
    },
    "flows": {
        "assemble": lambda a, r: {"events": _n(a["events"]), "flows": len(r)},
    },
    "detection": {
        "detect": lambda a, r: {"flows": len(a["flows"]), "attacks": len(r)},
        "detect_carpet_bombing": lambda a, r: {"attacks": len(a["attacks"]), "carpets": len(r)},
    },
    "sweep": {
        "sweep": lambda a, r: {"cells": r.attack_flows.size},
    },
    "convergence": {
        "greedy_order": lambda a, r: {"sensors": len(r.sensors)},
        "permutation_ensemble": lambda a, r: {"permutations": r.n_permutations},
        "stability_trace": lambda a, r: {"permutations": r[-1].n_permutations},
    },
    "completeness": {
        "overlap_report": lambda a, r: {},
        "match_baseline": lambda a, r: {
            "pairs": len(a["attacks"]) * len(a["baseline"]),
            "records": r.baseline_with_ports,
            "confirmed": r.matched_with_ports,
        },
        "upper_bound": lambda a, r: {},
        "classify_sources": lambda a, r: {"sources": len(r.classes)},
    },
    "synth": {
        "synth": lambda a, r: {"events": len(r.events)},
        "write_corpus": lambda a, r: {},
    },
    "cli": {
        "main": lambda a, r: {"exit": r},
    },
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, counts):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent >= 0:
                    self.spans[span.parent].child_s += span.duration
            span.counts = counts(signature.bind(*args, **kwargs).arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding of every target for the duration of the block."""
        modules = [m for n, m in sys.modules.items() if n == "honeyflow" or n.startswith("honeyflow.")]
        patched = []
        try:
            for layer, functions in TARGETS.items():
                home = sys.modules[f"honeyflow.{layer}"]
                for fname, counts in functions.items():
                    original = getattr(home, fname)
                    wrapper = self._wrap(f"{layer}.{fname}", original, counts)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapper)
                                patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = {
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "self_s": span.self_s,
                    "counts": span.counts,
                }
                handle.write(json.dumps(record, sort_keys=True) + "\n")
