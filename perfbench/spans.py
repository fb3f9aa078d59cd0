"""Span recording around the program's public calls, and the profile split.

Spans are recorded from outside the program: :meth:`SpanRecorder.patch`
replaces a module or class attribute with a wrapper that times each call,
and :meth:`SpanRecorder.restore` puts every original back.  Only totals per
span name are kept (total time and self time = total minus the time of
the spans nested directly inside), which is all the per-layer metrics need.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class SpanRecorder:
    """Per-name total and self time of nested spans."""

    def __init__(self) -> None:
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        # Child time accumulated by each open span, innermost last.
        self._open: List[float] = []
        self._patched: List[Tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self._open.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            children = self._open.pop()
            if self._open:
                self._open[-1] += dur
            self.total[name] = self.total.get(name, 0.0) + dur
            self.self_time[name] = self.self_time.get(name, 0.0) + dur - children

    def patch(self, owner: object, attr: str, name: str, on_result: Optional[Callable] = None) -> None:
        """Wrap ``owner.attr`` so each call is a span called ``name``;
        ``on_result(result)`` sees every value the call returns."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def get_total(self, name: str) -> float:
        return self.total.get(name, 0.0)

    def get_self(self, name: str) -> float:
        return self.self_time.get(name, 0.0)


#: ``repro`` packages reported by the profile split; anything else
#: (numpy, scipy, the standard library, builtins, this benchmark) is "other".
PROFILE_PACKAGES = (
    "matrices", "symbolic", "mapping", "scheduling", "simcore",
    "mechanisms", "solver", "faults", "obs", "experiments", "topology",
)


def package_of(filename: str) -> str:
    parts = filename.replace(os.sep, "/").split("/")
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro" and parts[i + 1] in PROFILE_PACKAGES:
            return parts[i + 1]
    return "other"


def profile_self_time(fn: Callable[[], object]) -> Dict[str, float]:
    """Run ``fn`` under cProfile; return self time per package."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        fn()
    finally:
        prof.disable()
    split = {pkg: 0.0 for pkg in PROFILE_PACKAGES + ("other",)}
    for (filename, _line, _func), row in pstats.Stats(prof).stats.items():
        split[package_of(filename)] += row[2]  # tottime: self time
    return split
