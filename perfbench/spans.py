"""In-memory spans recorded around calls into the repro layers.

A :class:`Tracer` replaces a callable at the module or class where its
callers look it up with a wrapper that records one span per call, and
puts every original back in :meth:`Tracer.remove`.  Nothing inside
``repro`` knows about it, and an untraced run installs no wrapper.

A span is ``[id, name, start, end, parent, rid]``: ``start``/``end`` are
``time.perf_counter()`` seconds, ``parent`` is the id of the span that
was open on the same thread when the call began (or an explicit id for
spans whose cause lives on another thread), and ``rid`` is the id of the
end-to-end request the span belongs to.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

ID, NAME, START, END, PARENT, RID = range(6)


class Tracer:
    """Records spans in memory; wraps and restores layer callables."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name, start=None, parent=None, rid=None) -> list:
        """Open a span; the caller sets its end (``finish``)."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1][ID]
            if rid is None:
                rid = stack[-1][RID]
        span = [
            next(self._ids),
            name,
            time.perf_counter() if start is None else start,
            None,
            parent,
            rid,
        ]
        self.spans.append(span)
        return span

    @staticmethod
    def finish(span: list, end=None) -> None:
        """Close a span at ``end`` (now by default)."""
        span[END] = time.perf_counter() if end is None else end

    def record(self, name, start, end, parent=None, rid=None) -> list:
        """A span whose interval the caller measured itself."""
        span = self.begin(name, start, parent, rid)
        span[END] = end
        return span

    @contextmanager
    def active(self, span: list):
        """Make ``span`` the parent of spans opened on this thread."""
        stack = self._stack()
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()

    @contextmanager
    def span(self, name, parent=None, rid=None):
        """Record one span around the ``with`` body."""
        opened = self.begin(name, parent=parent, rid=rid)
        try:
            with self.active(opened):
                yield opened
        finally:
            opened[END] = time.perf_counter()

    # -- wrapping -----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, before=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(args, kwargs)`` may return ``(parent, rid)`` for calls
        whose cause was recorded on another thread; it runs inside the
        wrapper, before the original.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else (
            getattr(owner, attr)
        )
        tracer = self

        def wrapper(*args, **kwargs):
            parent = rid = None
            if before is not None:
                parent, rid = before(args, kwargs)
            with tracer.span(name, parent, rid):
                return original(*args, **kwargs)

        functools.update_wrapper(wrapper, original, updated=())
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def remove(self) -> None:
        """Put every wrapped callable back (last wrapped, first restored)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its children cover."""
        children: dict[int, list[list]] = defaultdict(list)
        for span in self.spans:
            if span[PARENT] is not None:
                children[span[PARENT]].append(span)
        result = {}
        for span in self.spans:
            start, end = span[START], span[END]
            covered = 0.0
            cursor = start
            for child in sorted(children.get(span[ID], ()), key=lambda s: s[START]):
                lo = max(child[START], cursor)
                hi = min(child[END], end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[span[ID]] = (end - start) - covered
        return result

    def by_name(self, name: str) -> list[list]:
        """Closed spans with this name."""
        return [s for s in self.spans if s[NAME] == name and s[END] is not None]

    def mean_self(self, name: str, selfs: dict[int, float]) -> float:
        """Mean self time per call of ``name`` (seconds; 0 when absent)."""
        spans = self.by_name(name)
        if not spans:
            return 0.0
        return sum(selfs[s[ID]] for s in spans) / len(spans)

    def stage_table(self, roots: list[list], selfs: dict[int, float]):
        """Per-root mean self time of every descendant name, plus the rest.

        Returns ``(rows, total)``: ``rows`` is ``[(name, seconds), ...]``
        largest first, ending with the roots' own ``unattributed`` self
        time, and the rows sum to ``total``, the mean root duration.
        """
        if not roots:
            return [], 0.0
        children: dict[int, list[list]] = defaultdict(list)
        for span in self.spans:
            if span[PARENT] is not None and span[END] is not None:
                children[span[PARENT]].append(span)
        sums: dict[str, float] = defaultdict(float)
        for root in roots:
            pending = list(children.get(root[ID], ()))
            while pending:
                span = pending.pop()
                sums[span[NAME]] += selfs[span[ID]]
                pending.extend(children.get(span[ID], ()))
        count = len(roots)
        rows = sorted(
            ((name, total / count) for name, total in sums.items()),
            key=lambda row: -row[1],
        )
        unattributed = sum(selfs[r[ID]] for r in roots) / count
        rows.append((f"{roots[0][NAME]}.unattributed", unattributed))
        total = sum(r[END] - r[START] for r in roots) / count
        return rows, total


def format_stage_table(title: str, rows, total: float, count: int) -> str:
    """A plain-text stage table; the share column sums to 100%."""
    lines = [f"{title}: mean {total * 1e3:.3f} ms over {count} ops"]
    lines.append(f"  {'stage (self time)':<36} {'ms/op':>10} {'share':>7}")
    for name, seconds in rows:
        share = seconds / total if total > 0 else 0.0
        lines.append(f"  {name:<36} {seconds * 1e3:>10.4f} {share:>7.1%}")
    covered = sum(seconds for _, seconds in rows)
    lines.append(f"  {'sum of rows':<36} {covered * 1e3:>10.4f}")
    return "\n".join(lines)
