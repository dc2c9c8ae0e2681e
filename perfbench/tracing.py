"""In-memory spans for the traced benchmark run.

A span records one call into a layer's public function: its name, start and
end (``time.perf_counter`` seconds), the span it is nested in, and the op
(sample or validation) it belongs to. A span may also name the span it
*replays*: the benchmark re-runs the stages of an opaque call such as
``classify_orbit`` through the same public functions, and those replayed
spans are charged against the span they replay when self time is computed.

Spans stay in memory while the run measures and are written out once, at
the end, one JSON object per line with its self time.
"""

import json
import statistics
import time
from contextlib import contextmanager


def _noop(*args, **kwargs):
    return None


class Tracer:
    """Spans in memory, with timer overhead measured once and subtracted.

    ``overhead`` is the median duration of a span around a call that does
    nothing, passed arguments the way the replayed calls pass them: the
    part of every recorded duration that the instrumentation itself adds.
    Durations below are corrected by it.
    """

    def __init__(self, calibration_calls=2000):
        self.spans = []
        self.op = None
        self._open = []
        self.overhead = 0.0
        for _ in range(calibration_calls):
            self.call("calibrate", _noop, None, None, iteration=0)
        self.overhead = statistics.median(self.durations("calibrate"))
        self.spans.clear()

    def _begin(self, name, replay_of):
        rec = {
            "id": len(self.spans),
            "name": name,
            "op": self.op,
            "parent": self._open[-1]["id"] if self._open else None,
            "replay_of": replay_of,
            "start": None,
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec)
        return rec

    def call(self, name, fn, *args, replay_of=None, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span named ``name``."""
        rec = self._begin(name, replay_of)
        rec["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    @contextmanager
    def span(self, name, replay_of=None):
        rec = self._begin(name, replay_of)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def _duration(self, span):
        return span["end"] - span["start"] - self.overhead

    def durations(self, name):
        return [self._duration(s) for s in self.spans if s["name"] == name]

    def count(self, name):
        return sum(1 for s in self.spans if s["name"] == name)

    def self_times(self):
        """Span id -> duration minus the durations of its children.

        Children are the spans nested in it and the spans that replay it.
        """
        own = {s["id"]: self._duration(s) for s in self.spans}
        out = dict(own)
        for s in self.spans:
            for owner in (s["parent"], s["replay_of"]):
                if owner is not None:
                    out[owner] -= own[s["id"]]
        return out

    def self_durations(self, name):
        selfs = self.self_times()
        return [selfs[s["id"]] for s in self.spans if s["name"] == name]

    def write(self, path):
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(s, self=selfs[s["id"]], overhead=self.overhead))
                         + "\n")


def p50(values):
    """Median, or 0.0 for a layer the workload never called."""
    return statistics.median(values) if values else 0.0


def p90(values):
    if len(values) < 2:
        return p50(values)
    return statistics.quantiles(values, n=10, method="inclusive")[-1]
