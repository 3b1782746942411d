"""Item bookkeeping and in-memory spans for one timed round.

Workloads report every unit of work through a probe: ``with probe.item():``
times one closed-loop instance, ``probe.call(name, fn, *args)`` marks a call
into one layer of flamingo, ``probe.expect(ok)`` records a wrong output and
``probe.count(name, k)`` adds to a work counter.  Between instances the
probe runs the reference loop of ``pace`` now and then, and ``finish()``
turns the latencies into reference nanoseconds.  The plain ``Probe`` only
keeps latencies and counts; ``TracedProbe`` also records a span for every
item and layer call, so the end-to-end numbers come from untraced rounds
and the per-layer numbers from a separate traced round.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter_ns

import pace

# Span fields, stored flat in one array: name id, parent span index (-1 for
# a root), item id, start ns, end ns.
_FIELDS = 5


class Probe:
    def __init__(self) -> None:
        self.latencies: list[float] = []
        # Per latency, how many calibrations came before it; None for a
        # latency already in reference ns.
        self.segments: list[int | None] = []
        self.references: list[int] = []
        # Reference ns of the round that belong to no instance.
        self.rest_ns = 0.0
        self.attempted = 0
        self.failed = 0
        self.counts: dict[str, int] = {}
        self.first_error: str | None = None
        self._ok = True
        self._t0 = 0
        self._calibrated_at = -pace.CALIBRATE_EVERY_NS

    def call(self, name: str, fn, *args):
        return fn(*args)

    def item(self) -> "Probe":
        """One instance."""
        return self

    def _calibrate(self) -> None:
        start, ns = pace.calibrate()
        self.references.append(ns)
        self._calibrated_at = start + ns

    def __enter__(self) -> "Probe":
        self._ok = True
        now = perf_counter_ns()
        if now - self._calibrated_at >= pace.CALIBRATE_EVERY_NS:
            self._calibrate()
            now = perf_counter_ns()
        self._t0 = now
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.latencies.append(perf_counter_ns() - self._t0)
        self.segments.append(len(self.references))
        self.attempted += 1
        if exc_type is not None or not self._ok:
            self.failed += 1
        if exc_type is None or not issubclass(exc_type, Exception):
            return False
        # An exception is one failed instance; the run goes on.
        if self.first_error is None:
            self.first_error = f"{exc_type.__name__}: {exc}"
            print(f"item failed: {self.first_error}", file=sys.stderr)
        return True

    def expect(self, ok: bool) -> None:
        if not ok:
            self._ok = False

    def fail(self) -> None:
        """A wrong output found by a check made after the round."""
        self.failed += 1

    def record_item(self, reference_ns: float, ok: bool) -> None:
        """An instance timed elsewhere, such as one check of a child
        process, already in reference ns."""
        self.latencies.append(reference_ns)
        self.segments.append(None)
        self.attempted += 1
        if not ok:
            self.failed += 1

    def record_rest(self, reference_ns: float) -> None:
        """Time of the round outside its instances, such as a child
        process's start-up, already in reference ns: part of the round's
        total but no instance."""
        self.rest_ns += reference_ns

    def finish(self) -> list[float]:
        """The round's latencies in reference ns, each scaled by the
        calibrations just before and just after it."""
        self._calibrate()
        refs = self.references
        return [
            ns if j is None else pace.scale(ns, refs[j - 1], refs[j])
            for ns, j in zip(self.latencies, self.segments)
        ]

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def sub_spans(self, parts: list[tuple[str, float]]) -> None:
        """Attach consecutive child spans, durations in seconds, to the span
        closed last.  Only the traced probe keeps them."""


class TracedProbe(Probe):
    def __init__(self) -> None:
        super().__init__()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans = array("q")
        self._stack: list[int] = []
        self._item = -1
        self._last_closed = -1

    def _open(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans) // _FIELDS)
        self.spans.extend((nid, parent, self._item, perf_counter_ns(), 0))

    def _close(self) -> None:
        index = self._stack.pop()
        self.spans[index * _FIELDS + 4] = perf_counter_ns()
        self._last_closed = index

    def call(self, name: str, fn, *args):
        self._open(name)
        try:
            return fn(*args)
        finally:
            self._close()

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def __enter__(self) -> "Probe":
        self._item += 1
        super().__enter__()  # calibrates, if due, outside the item's span
        self._open("bench.item")
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        suppress = super().__exit__(exc_type, exc, tb)
        self._close()
        return suppress

    def sub_spans(self, parts: list[tuple[str, float]]) -> None:
        parent = self._last_closed
        base = parent * _FIELDS
        start = self.spans[base + 3]
        for name, seconds in parts:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            end = start + int(seconds * 1e9)
            self.spans.extend((nid, parent, self.spans[base + 2], start, end))
            start = end

    def totals(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Per span name: total seconds and number of spans; per layer (the
        name up to its first dot): self seconds, that is span time not
        covered by child spans."""
        count = len(self.spans) // _FIELDS
        covered = [0] * count
        spans = self.spans
        for i in range(count):
            parent = spans[i * _FIELDS + 1]
            if parent >= 0:
                covered[parent] += spans[i * _FIELDS + 4] - spans[i * _FIELDS + 3]
        total_ns = [0] * len(self.names)
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(count):
            nid = spans[i * _FIELDS]
            duration = spans[i * _FIELDS + 4] - spans[i * _FIELDS + 3]
            total_ns[nid] += duration
            calls[nid] += 1
            self_ns[nid] += duration - covered[i]
        layer_self: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + self_ns[nid] / 1e9
        return (
            {name: total_ns[nid] / 1e9 for nid, name in enumerate(self.names)},
            {name: calls[nid] for nid, name in enumerate(self.names)},
            layer_self,
        )

    def write(self, path) -> None:
        """All spans as CSV, times in ns from the first span's start."""
        spans = self.spans
        origin = spans[3] if spans else 0
        with open(path, "w") as out:
            out.write("span,parent,item,name,start_ns,end_ns\n")
            for i in range(len(spans) // _FIELDS):
                nid, parent, item, start, end = spans[i * _FIELDS : (i + 1) * _FIELDS]
                out.write(f"{i},{parent},{item},{self.names[nid]},{start - origin},{end - origin}\n")


class _Span:
    """A span around benchmark code that is not a single call."""

    def __init__(self, probe: TracedProbe, name: str) -> None:
        self.probe = probe
        self.name = name

    def __enter__(self) -> None:
        self.probe._open(self.name)

    def __exit__(self, *exc) -> bool:
        self.probe._close()
        return False
