"""In-memory span recorder for the traced benchmark pass.

The program under test is not edited: :meth:`Tracer.install` replaces
the layers' public callables *where they are looked up* (class
attributes, and every ``repro.*`` module global bound to a wrapped
function) and :meth:`Tracer.remove` puts the original objects back, by
identity.

A span is ``(name, start, end, parent, request id)``.  Every span is
folded into per-name totals as it closes (calls, self time, weight);
the full records are kept only for the first ``KEEP_REQUESTS`` root
spans, and ``MAX_SPANS`` spans at most, so the Chrome trace stays
small.  A span's self time is its duration minus the durations of its
direct children, so the self times of all spans under a root sum
exactly to the root's duration.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter_ns

KEEP_REQUESTS = 32
MAX_SPANS = 20_000


class Tracer:
    def __init__(self):
        #: open spans, innermost last: [child_ns, index in self.spans or -1]
        self._stack: list[list[int]] = []
        #: phase -> name -> [calls, self_ns, weight]
        self.totals: dict[str, dict[str, list[int]]] = {}
        self._cur: dict[str, list[int]] = {}
        #: sampled spans: [name, start_ns, dur_ns, parent index, request id]
        self.spans: list[list] = []
        self._request = -1
        self._sampling = False
        #: (owner, attribute, original object) for every patch in place
        self._patched: list[tuple[object, str, object]] = []

    def phase(self, name) -> None:
        """Route the totals of spans that close from now on to ``name``."""
        self._cur = self.totals.setdefault(name, {})

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def wrap(self, fn, name: str, weigh=None, root: bool = False):
        """``fn`` recorded as span ``name``; ``weigh(args)`` adds to the
        span's weight (bytes processed).  A ``root`` span starts a new
        request."""
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            if root:
                self._request += 1
                self._sampling = (
                    self._request < KEEP_REQUESTS and len(spans) < MAX_SPANS
                )
            frame = [0, -1]
            if self._sampling:
                frame[1] = len(spans)
                spans.append([name, 0, 0, stack[-1][1] if stack else -1,
                              self._request])
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                total = self._cur.get(name)
                if total is None:
                    total = self._cur[name] = [0, 0, 0]
                total[0] += 1
                total[1] += dur - frame[0]
                if weigh is not None:
                    total[2] += weigh(args)
                if frame[1] >= 0:
                    span = spans[frame[1]]
                    span[1] = start
                    span[2] = dur
                if root:
                    self._sampling = False

        return traced

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _replace(self, owner, attr: str, make) -> None:
        original = vars(owner)[attr]
        if isinstance(original, (classmethod, staticmethod)):
            patched = type(original)(make(original.__func__))
        else:
            patched = make(original)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, patched)

    def install(self, targets) -> None:
        """Patch every ``(name, owner, attribute, weigh)`` target.

        ``owner`` is a class, or a module whose function ``attribute``
        is then replaced in every loaded ``repro`` module that imported
        it by name (the use sites).
        """
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [
            mod for modname, mod in list(sys.modules.items())
            if mod is not None and modname.split(".")[0] == "repro"
        ]
        for name, owner, attr, weigh in targets:
            def make(fn, name=name, weigh=weigh):
                return self.wrap(fn, name, weigh)

            if isinstance(owner, type):
                self._replace(owner, attr, make)
                continue
            original = getattr(owner, attr)
            shared = make(original)
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, alias, original))
                        setattr(mod, alias, shared)

    def remove(self) -> None:
        """Restore every patched attribute to the object it held."""
        if self._stack:
            raise RuntimeError("cannot remove the tracer inside a span")
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def write_chrome_trace(self, path, process_name: str) -> None:
        """Sampled spans as Chrome trace-event JSON (``chrome://tracing``,
        Perfetto).  ``args`` carry the layer, the parent span's index
        and the request id."""
        events = [{
            "name": "process_name", "ph": "M", "pid": 1, "tid": 1,
            "args": {"name": process_name},
        }]
        origin = min((s[1] for s in self.spans), default=0)
        for index, (name, start, dur, parent, request) in enumerate(self.spans):
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "pid": 1, "tid": 1,
                "ts": (start - origin) / 1000.0, "dur": dur / 1000.0,
                "args": {"span": index, "parent": parent, "request": request},
            })
        with open(path, "w") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, out)
