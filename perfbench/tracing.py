"""In-memory spans around the public names each layer exposes.

The tracer replaces a module or class attribute with a wrapper that records
(name, start, end, parent, tag) and restores the original on close.  It only
sees calls made in its own process, so traced mining runs at jobs 1.  Spans
nest strictly (one thread), so a span's self time is its duration minus the
durations of its direct children.
"""
from __future__ import annotations

import gzip
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []    # (name, start, end, parent, tag)
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, tag=None, on_result=None,
             on_error=None) -> None:
        """Record a span per call of owner.attr.

        tag(args) labels the span; on_result(args, result) and
        on_error(args, exc) run after the span has ended.
        """
        orig = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
            except BaseException as e:
                spans[idx] = (name, t0, perf_counter(), parent,
                              tag(args) if tag else None)
                stack.pop()
                if on_error:
                    on_error(args, e)
                raise
            spans[idx] = (name, t0, perf_counter(), parent,
                          tag(args) if tag else None)
            stack.pop()
            if on_result:
                on_result(args, result)
            return result

        self._patched.append((owner, attr, orig))
        setattr(owner, attr, traced)

    def hook(self, owner, attr: str, around) -> None:
        """Replace owner.attr with around(orig); for counts without spans."""
        orig = getattr(owner, attr)
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, around(orig))

    def close(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def mark(self) -> int:
        return len(self.spans)

    def durations(self, name: str, since: int = 0) -> list[float]:
        return [s[2] - s[1] for s in self.spans[since:] if s[0] == name]

    def total(self, name: str, since: int = 0) -> float:
        return sum(self.durations(name, since))

    def self_time(self, name: str, since: int = 0) -> float:
        """Summed duration of `name` spans minus their direct children."""
        children: dict[int, float] = defaultdict(float)
        for s in self.spans[since:]:
            if s[3] >= since:
                children[s[3]] += s[2] - s[1]
        return sum(s[2] - s[1] - children[since + i]
                   for i, s in enumerate(self.spans[since:]) if s[0] == name)

    def by_tag(self, name: str, since: int = 0) -> dict:
        out: dict = defaultdict(float)
        for s in self.spans[since:]:
            if s[0] == name:
                out[s[4]] += s[2] - s[1]
        return out

    def write(self, path: Path) -> None:
        """Gzipped, one JSON list per line: [id, name, start, end, parent id, tag]."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps([i, *span]) + "\n")
