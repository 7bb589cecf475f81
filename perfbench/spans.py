"""Span recording for the traced benchmark run.

:class:`SpanRecorder` replaces chosen methods and functions of the simulator
with timing wrappers.  Spans nest: each wrapper charges its elapsed time to its
own layer and subtracts it from the enclosing span, so a layer's *self* time
is its span minus its child spans, and the self times of all layers add up
to the time spent inside the outermost spans.

The simulator binds several of these methods once, when a ``System`` (or a
scheme, or a ``BatchRunner``) is constructed, so the wrappers must be
installed before any system is built and removed only after the last traced
run.  Wrappers only observe: every argument and return value passes through
unchanged, so traced results equal untraced ones.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Callable, DefaultDict, List, Optional, Tuple


class SpanRecorder:
    """Per-layer self time and per-span call counts, kept in memory."""

    def __init__(self) -> None:
        #: layer -> seconds spent in that layer's spans minus child spans.
        self.self_s: DefaultDict[str, float] = defaultdict(float)
        #: span name -> completed calls.
        self.calls: Counter = Counter()
        #: counter name -> events observed on span results.
        self.events: Counter = Counter()
        # stack[i] accumulates the child time of the i-th open span; index 0
        # collects the outermost spans' durations.
        self._stack: List[float] = [0.0]
        self._installed: List[Tuple[object, str, object]] = []

    @property
    def top_level_s(self) -> float:
        """Total duration of the outermost spans (equals the sum of self times)."""
        return self._stack[0]

    def wrap(self, owner: object, attr: str, layer: str, span: Optional[str] = None,
             on_result: Optional[Callable[[object], Optional[str]]] = None) -> None:
        """Record a span around every call of ``owner.attr`` (a class or a module).

        ``on_result`` may name an event to count for a call's result
        (``None`` counts nothing), so ratios are measured at the boundary.
        """
        original = owner.__dict__.get(attr)
        if not callable(original):
            raise TypeError(f"{owner!r} defines no function {attr!r}")
        name = span or f"{owner.__name__}.{attr}"  # type: ignore[attr-defined]
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        events = self.events
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                stack[-1] += elapsed
                calls[name] += 1
            if on_result is not None:
                event = on_result(result)
                if event is not None:
                    events[event] += 1
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped method back."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()
