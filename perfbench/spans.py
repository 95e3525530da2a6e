"""Spans recorded by the benchmark around its calls into petripoly.

A span has a name, a start and an end (``time.perf_counter`` seconds),
the span that was open when it began, the item it belongs to and a few
numeric attributes.  Spans stay in memory until :meth:`Tracer.dump`.
While tracing is off, :meth:`Tracer.span` hands out one shared no-op
span, so the untraced run executes the same code with no bookkeeping.
"""

import json
from time import perf_counter


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs):
        pass


_NULL = _NullSpan()


class _Span:
    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer, name, attrs):
        self._tracer = tracer
        self._record = {"name": name, "attrs": attrs}

    def __enter__(self):
        tracer, record = self._tracer, self._record
        parent = tracer._open[-1] if tracer._open else None
        record["id"] = len(tracer.spans)
        record["parent"] = parent["id"] if parent else None
        record["root"] = parent["root"] if parent else record["name"]
        record["item"] = tracer.item
        record["timing"] = tracer.timing
        tracer.spans.append(record)
        tracer._open.append(record)
        record["start"] = perf_counter()
        return self

    def __exit__(self, *exc):
        self._record["end"] = perf_counter()
        self._tracer._open.pop()
        return False

    def set(self, **attrs):
        self._record["attrs"].update(attrs)


class Tracer:
    """Collects spans while ``on`` is true; ``item`` and ``timing`` (the
    index of the item's timed run) tag the spans opened."""

    def __init__(self):
        self.on = False
        self.item = None
        self.timing = None
        self.spans = []
        self._open = []

    def span(self, name, **attrs):
        return _Span(self, name, attrs) if self.on else _NULL

    def self_times(self):
        """Seconds of each span not covered by its children, by span id.

        Children of one span run one after another, so their durations
        add up without overlap.
        """
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def dump(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))
