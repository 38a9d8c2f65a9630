"""In-memory span tracer installed around cmstruct's public functions.

The tracer lives in the benchmark, not in the library: it replaces each
listed function by a wrapper that records one span (name, start, end,
parent, job) per call while tracing is on. ``from .x import f`` copies the
binding ``f`` into the importing module, so a wrapper is installed in every
cmstruct module namespace that holds the original object; methods are
patched on their class.
"""

from __future__ import annotations

import functools
import sys
from array import array

_FIELDS = 5  # name id, start ns, end ns, parent span index, job index


class Tracer:
    def __init__(self, clock) -> None:
        self.clock = clock  # nanoseconds
        self.on = False
        self.job = -1
        self.names: list[str] = []
        self.hits: list[int] = []  # per name: traced calls returning non-None
        self.spans = array("q")
        self._stack: list[int] = []

    @property
    def span_count(self) -> int:
        return len(self.spans) // _FIELDS

    def _wrap(self, nid: int, fn):
        tracer, spans, stack = self, self.spans, self._stack
        hits, clock = self.hits, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = len(spans) // _FIELDS
            parent = stack[-1] if stack else -1
            spans.extend((nid, clock(), 0, parent, tracer.job))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx * _FIELDS + 2] = clock()
            if result is not None:
                hits[nid] += 1
            return result

        return traced

    def install(self, targets, package: str) -> None:
        """Wrap each ``(name, owner, attribute)``; owner is a module or class.

        Raises if a module target is bound nowhere inside ``package``.
        """
        modules = [
            m for key, m in sys.modules.items()
            if key == package or key.startswith(package + ".")
        ]
        for name, owner, attr in targets:
            nid = len(self.names)
            self.names.append(name)
            self.hits.append(0)
            original = getattr(owner, attr)
            wrapped = self._wrap(nid, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            bound = [
                (module, key)
                for module in modules
                for key, value in vars(module).items()
                if value is original
            ]
            if not bound:
                raise RuntimeError(f"{name} is not bound in any {package} module")
            for module, key in bound:
                setattr(module, key, wrapped)

    def summary(self, start: int, stop: int) -> dict[str, list[int]]:
        """Per name: [calls, self ns, ns in top-level spans] over spans
        ``start..stop-1``, which must begin and end with an empty stack.

        Self time is a span's duration minus the durations of its direct
        children; calls are single-threaded, so children never overlap.
        """
        s = self.spans
        child_ns = [0] * (stop - start)
        for i in range(start, stop):
            parent = s[i * _FIELDS + 3]
            if parent >= start:
                base = i * _FIELDS
                child_ns[parent - start] += s[base + 2] - s[base + 1]
        out = {name: [0, 0, 0] for name in self.names}
        for i in range(start, stop):
            base = i * _FIELDS
            row = out[self.names[s[base]]]
            duration = s[base + 2] - s[base + 1]
            row[0] += 1
            row[1] += duration - child_ns[i - start]
            if s[base + 3] == -1:
                row[2] += duration
        return out

    def write(self, path) -> None:
        """Write every span as ``name start_ns end_ns parent job``, one per line."""
        s = self.spans
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tjob\n")
            for i in range(0, len(s), _FIELDS):
                fh.write(
                    f"{self.names[s[i]]}\t{s[i + 1]}\t{s[i + 2]}\t{s[i + 3]}\t{s[i + 4]}\n"
                )
