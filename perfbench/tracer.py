"""In-memory spans around wrapped functions, with self time.

A wrapped call opens a span, runs the function, closes the span and then
runs its hook, if any.  A span records ``[name, start, end, stop, parent]``:
``end`` is when the function returned and ``stop`` is when the hook finished.
A span's self time is ``end - start`` minus ``stop - start`` of each direct
child, so the hooks of children are not charged to their parent.
"""

from __future__ import annotations

import functools
import time

import numpy as np

NAME, START, END, STOP, PARENT = range(5)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, fn, name, on_return=None):
        """Return ``fn`` recording a span per call; ``on_return(args, kwargs, result)``."""
        clock, spans, open_ = self._clock, self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = span[STOP] = clock()
                open_.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
                span[STOP] = clock()
            return result

        return traced

    def patch(self, owner, attr, name, modules, on_return=None) -> bool:
        """Replace ``owner.attr`` by its traced form wherever ``modules`` bind it.

        Returns False, patching nothing, when ``owner`` has no such function.
        """
        original = getattr(owner, attr, None)
        if not callable(original):
            return False
        traced = self.wrap(original, name, on_return)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
                    self._patches.append((module, key, original))
        return True

    def restore(self):
        """Put back every function ``patch`` replaced."""
        while self._patches:
            module, key, original = self._patches.pop()
            setattr(module, key, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def durations(self, name) -> np.ndarray:
        return np.array([s[END] - s[START] for s in self.spans if s[NAME] == name])

    def self_times(self, name) -> np.ndarray:
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[STOP] - s[START]
        return np.array([t for t, s in zip(own, self.spans) if s[NAME] == name])
