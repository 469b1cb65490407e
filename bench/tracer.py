"""Spans around calls into trithermal, recorded from outside the package.

Every trithermal module binds the functions it calls by name (``from .rates
import transition_rates``), so a call site is a module attribute. The
tracer replaces each binding of a traced function with a wrapper, in every
loaded trithermal module and in ``numpy.linalg``, and restores them on
``close``. A span is (id, parent id, request, name, start, end); self time
is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from collections import Counter, defaultdict

import numpy.linalg

#: (defining module, attribute, span name); the span name is layer.function
TRACED = (
    ("trithermal.model", "validate", "model.validate"),
    ("trithermal.rates", "transition_rates", "rates.transition_rates"),
    ("trithermal.generator", "build_partial_secular",
     "generator.build_partial_secular"),
    ("trithermal.solver", "steady_state", "solver.steady_state"),
    ("trithermal.observables", "steady_state_report",
     "observables.steady_state_report"),
    ("trithermal.analysis", "currents_at", "analysis.currents_at"),
    ("trithermal.analysis", "find_current_zero", "analysis.find_current_zero"),
    ("trithermal.analysis", "amplification_factor",
     "analysis.amplification_factor"),
    ("trithermal.analysis", "measure_temperature",
     "analysis.measure_temperature"),
    ("trithermal.analysis", "phase_map", "analysis.phase_map"),
    ("trithermal.cli", "load_config", "cli.load_config"),
    ("trithermal.analysis", "phase_map_csv", "cli.csv"),
)


class Tracer:
    """Records spans while ``enabled``; counts calls only while ``counting``.

    Self time accumulates over every traced request. Calls, errors and the
    span list cover only the requests made while ``counting`` is set, so
    they depend on the inputs alone and repeat exactly for one seed.
    """

    def __init__(self):
        self.enabled = False
        self.counting = False
        self.request = 0
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every binding of the traced functions."""
        from trithermal.observables import CurrentReport

        for module_name, attribute, span_name in TRACED:
            original = getattr(sys.modules.get(module_name), attribute, None)
            if original is None:  # renamed or removed: its counts read 0
                continue
            wrapper = self._wrap(span_name, original)
            for name, module in list(sys.modules.items()):
                if name == "trithermal" or name.startswith("trithermal."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
        self._patch(CurrentReport, "csv_row",
                    self._wrap("cli.csv", CurrentReport.csv_row))
        for name in ("svd", "solve"):
            self._patch(numpy.linalg, name,
                        self._wrap(f"linalg.{name}",
                                   getattr(numpy.linalg, name)))

    def close(self) -> None:
        """Restore every binding ``install`` replaced."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _patch(self, owner, key, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            return tracer._call(name, fn, args, kwargs)
        return traced

    def _call(self, name, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            if self.counting:
                self.errors[name] += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[2]
            self.self_time[name] += duration - frame[3]
            if self._stack:
                self._stack[-1][3] += duration
            if self.counting:
                self.calls[name] += 1
                self.spans.append((span_id, parent, self.request, name,
                                   frame[2], end))

    def root(self, name, fn, *args):
        """Run ``fn`` as the root span of one request."""
        if not self.enabled:
            return fn(*args)
        return self._call(name, fn, args, {})

    def write_spans(self, path) -> None:
        """One CSV row per counted span; a root span has an empty parent."""
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["id", "parent", "request", "name", "start", "end"])
            writer.writerows(self.spans)
