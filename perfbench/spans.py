"""Span recording from outside the program.

A :class:`Tracer` replaces public methods on the objects a platform owns
with thin wrappers (instance attributes shadowing the class methods), so
``src/`` is never edited.  Each call records one span: name, start, end,
parent span and the id of the benchmark operation (tick, batch or
request) it ran under.  Spans stay in memory until :meth:`Tracer.dump`.

Untraced runs never construct a tracer, so they run the program's own
methods with no wrapper in between.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Span", "Tracer", "layer_times", "install_platform_spans"]

#: (name, start_ns, end_ns, parent index or -1, operation id)
Span = Tuple[str, int, int, int, int]


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counts: Dict[str, int] = {}
        #: Set by the workload loop before each tick, batch or request.
        self.op_id = -1
        self._stack: List[int] = []
        self._installed: List[Tuple[Any, str]] = []

    def count(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        observe: Optional[Callable[["Tracer", tuple, dict, Any], None]] = None,
    ) -> None:
        """Record a span named ``name`` around every ``owner.attr(...)`` call.

        ``observe(tracer, args, kwargs, result)`` runs after a call returns,
        outside the span, to count work done (e.g. replies that were not None).
        """
        inner = getattr(owner, attr)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = inner(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr))

    def uninstall(self) -> None:
        """Remove every wrapper, restoring the class methods."""
        for owner, attr in reversed(self._installed):
            delattr(owner, attr)
        self._installed.clear()

    def finished(self) -> List[Span]:
        return [span for span in self.spans if span is not None]

    def dump(self, path: str) -> int:
        """Write the spans as JSON lines; returns the number written."""
        spans = self.finished()
        with open(path, "w") as handle:
            for index, (name, start, end, parent, op) in enumerate(spans):
                handle.write(json.dumps([index, parent, name, start, end, op]))
                handle.write("\n")
        return len(spans)


def layer_times(spans: Iterable[Optional[Span]]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``busy_ns`` and ``self_ns``.

    ``busy_ns`` sums the durations of the outermost spans of a name (a
    name nested in itself is counted once); ``self_ns`` is each span's
    duration minus the time its direct child spans cover, summed.  Spans
    are single-threaded here, so children never overlap one another and
    lie inside their parent.
    """
    spans = list(spans)
    child_ns = [0] * len(spans)
    for span in spans:
        if span is not None and span[3] >= 0:
            child_ns[span[3]] += span[2] - span[1]
    out: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        if span is None:
            continue
        name, start, end, parent, _op = span
        row = out.setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0})
        row["calls"] += 1
        duration = end - start
        row["self_ns"] += duration - child_ns[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row["busy_ns"] += duration
    return out


def _count_replies(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    if result is not None:
        tracer.count("simnet.connect.replies")


def _count_observations(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("stages.ingest.submit_many.obs", len(result))


def install_platform_spans(tracer: Tracer, platform: Any) -> None:
    """Wrap the public methods of the objects one ``CensysPlatform`` owns.

    Span names are ``<module layer>.<method>``; the layers follow the
    repository's packages (``core.stages``, ``simnet``, ``scan``,
    ``protocols``, ``pipeline``, ``search``, ``certs``).
    """
    wrap = tracer.wrap
    wrap(platform, "tick", "stages.tick")
    wrap(platform.discovery, "advance", "stages.discovery.advance")
    for tier in platform.discovery.tiers:
        wrap(tier, "advance", "scan.tiers.advance")
    wrap(platform.interrogation, "advance", "stages.interrogation.advance")
    wrap(platform.interrogation, "scan_web_properties", "stages.interrogation.scan_web_properties")
    wrap(platform.internet, "connect", "simnet.connect", observe=_count_replies)
    wrap(platform.internet, "connect_v6", "simnet.connect_v6")
    wrap(platform.interrogator, "interrogate", "protocols.interrogate")
    wrap(platform.interrogator, "refresh", "protocols.refresh")
    wrap(platform.queue, "pop_ready", "scan.queue.pop_ready")
    wrap(platform.ingest, "submit", "stages.ingest.submit")
    wrap(platform.ingest, "submit_many", "stages.ingest.submit_many", observe=_count_observations)
    wrap(platform.ingest, "pump", "stages.ingest.pump")
    wrap(platform.ingest, "evict_due", "stages.ingest.evict_due")
    wrap(platform.write_side, "submit_many", "pipeline.write_side.submit_many")
    wrap(platform.write_side, "process", "pipeline.write_side.process")
    wrap(platform.journal, "flush_commit_windows", "pipeline.journal.flush_commit_windows")
    if platform.compactor is not None:
        wrap(platform.compactor, "run_once", "pipeline.compaction.run_once")
    wrap(platform.derivation, "advance", "stages.derivation.advance")
    wrap(platform.derivation, "daily", "certs.daily")
    wrap(platform.read_side, "lookup", "pipeline.read_side.lookup")
    wrap(platform.index, "put_many", "search.put_many")
    wrap(platform.index, "search", "search.sharded.search")
    wrap(platform.index, "aggregate", "search.sharded.aggregate")
    wrap(platform.serving, "lookup_host", "stages.serving.lookup_host")
    wrap(platform.serving, "host_history", "stages.serving.host_history")
    wrap(platform.serving, "search", "stages.serving.search")
