"""In-memory span tracing of spflag, installed from outside the program.

`Tracer.install` replaces each named library function by a wrapper in every
spflag module namespace that holds it (so `graded_character` is traced both
as `polytope.graded_character` and as the name `fixedpoints` imported), and in
the class for methods.  A wrapper records a span only while `active` is set,
so the benchmark's own checks between operations leave no spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 for a root


class Target(NamedTuple):
    name: str  # "module.function" or "module.Class.method", relative to spflag
    count: Callable | None = None  # return value -> work count, summed per name


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = Span(name, start, end, parent)
            if count is not None:
                counts[name] += count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "spflag"]
        for target in self.targets:
            mod_name, *path = target.name.split(".")
            owner = sys.modules.get(f"spflag.{mod_name}")
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            original = getattr(owner, path[-1], None)
            if original is None:
                self.missing.append(target.name)
                continue
            wrapper = self._wrap(target.name, original, target.count)
            if len(path) > 1:
                self._patch(owner, path[-1], original, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for a, b in sorted(children.get(idx, ())):
            a, b = max(a, reach, s.start), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per name: inclusive time `s` (outermost spans of that name only), `self_s`
    and `calls`."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
    for idx, s in enumerate(spans):
        agg = out[s.name]
        agg["calls"] += 1
        agg["self_s"] += own[idx]
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            agg["s"] += s.end - s.start
    return dict(out)
