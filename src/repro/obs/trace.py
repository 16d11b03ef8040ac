"""Span-based tracing with wall-clock *and* modelled-cycle ledgers.

A :class:`Tracer` records **spans** — named, nested intervals of host
wall time measured on the monotonic clock (``time.perf_counter_ns``).
Each span additionally carries the modelled accelerator cycles charged
while it was open (:meth:`Span.add_cycles`), so one record answers both
halves of the ROADMAP's wall-clock question: how long the host *took*
and how long the modelled hardware *would have taken*.

Usage mirrors the fastnet ``distbase.util`` timer shape — a context
manager for blocks and a decorator for functions::

    tracer = Tracer()
    with tracer.span("phase:rollout", round=0) as sp:
        ...
        sp.add_cycles(cost.total_cycles)

    @tracer.wrap("load")
    def load(): ...

Spans nest per thread (a thread-local stack supplies parent/depth), the
finished-span list is guarded by a lock, and the whole record exports
as Chrome ``chrome://tracing`` / Perfetto trace-event JSON
(:meth:`Tracer.export_chrome`): complete events (``ph="X"``) whose
``args`` carry the cycle ledger next to the wall duration.

A *disabled* tracer is a no-op: :meth:`Tracer.span` returns the shared
:data:`NULL_SPAN` singleton after a single attribute check, so
instrumentation left in hot paths costs one branch when tracing is off.
Zero dependencies beyond the standard library.
"""

from __future__ import annotations

import functools
import json
import threading
import time

__all__ = ["Span", "Tracer", "NULL_SPAN"]


class _NullSpan:
    """Shared no-op span a disabled tracer hands out.

    Supports the full :class:`Span` surface (context manager,
    :meth:`add_cycles`, :meth:`annotate`) so instrumented code never
    branches on tracer state beyond the one check inside
    :meth:`Tracer.span`.
    """

    __slots__ = ()

    cycles = 0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def add_cycles(self, cycles: int) -> None:
        pass

    def annotate(self, **args) -> None:
        pass

    @property
    def duration_s(self) -> float:
        return 0.0


#: The no-op span singleton (identity-testable: ``span is NULL_SPAN``).
NULL_SPAN = _NullSpan()


class Span:
    """One named wall-clock interval with an attached cycle ledger."""

    __slots__ = (
        "name", "category", "args", "cycles",
        "start_ns", "end_ns", "thread_id", "parent_name", "depth",
        "_tracer",
    )

    def __init__(self, tracer: "Tracer", name: str, category: str, args: dict):
        self.name = name
        self.category = category
        self.args = args
        self.cycles = 0
        self.start_ns = 0
        self.end_ns = 0
        self.thread_id = 0
        self.parent_name: str | None = None
        self.depth = 0
        self._tracer = tracer

    def __enter__(self) -> "Span":
        self._tracer._enter(self)
        return self

    def __exit__(self, *exc) -> bool:
        self._tracer._exit(self)
        return False

    def add_cycles(self, cycles: int) -> None:
        """Attach modelled accelerator cycles to this span."""
        self.cycles += int(cycles)

    def annotate(self, **args) -> None:
        """Merge extra key/value context into the span's args."""
        self.args.update(args)

    @property
    def duration_ns(self) -> int:
        """Wall time between enter and exit (0 while still open)."""
        return self.end_ns - self.start_ns if self.end_ns else 0

    @property
    def duration_s(self) -> float:
        """Wall time in seconds."""
        return self.duration_ns / 1e9

    @property
    def duration_ms(self) -> float:
        """Wall time in milliseconds."""
        return self.duration_ns / 1e6

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.duration_ms:.3f} ms, "
            f"cycles={self.cycles}, depth={self.depth})"
        )


class Tracer:
    """Thread-safe span recorder with Chrome trace-event export.

    Parameters
    ----------
    enabled:
        When False every :meth:`span` call returns :data:`NULL_SPAN`
        and nothing is recorded.  The flag may be flipped at runtime;
        spans already open keep recording.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._local = threading.local()
        self._spans: list[Span] = []
        self._origin_ns = time.perf_counter_ns()

    # ------------------------------------------------------------------
    def span(self, name: str, category: str = "", **args):
        """Open a span; use as a context manager.

        Disabled tracers return the shared no-op singleton after one
        attribute check — the whole off-path cost of an instrumented
        block.
        """
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, category, args)

    def wrap(self, name: str | None = None, category: str = ""):
        """Decorator form: trace every call of the wrapped function."""

        def decorator(fn):
            span_name = name or fn.__qualname__

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(span_name, category=category):
                    return fn(*args, **kwargs)

            return wrapper

        return decorator

    def record(
        self,
        name: str,
        duration_ns: int,
        cycles: int = 0,
        category: str = "",
        **args,
    ) -> None:
        """Append an already-measured span ending now.

        For work the caller timed itself: the interval is appended
        here so :meth:`summary` aggregates it under the same name as
        live spans.
        """
        if not self.enabled:
            return
        span = Span(self, name, category, args)
        now = time.perf_counter_ns()
        span.start_ns = now - max(int(duration_ns), 0)
        span.end_ns = now
        span.cycles = int(cycles)
        span.thread_id = threading.get_ident()
        parent = self.current()
        if parent is not None:
            span.parent_name = parent.name
            span.depth = parent.depth + 1
        with self._lock:
            self._spans.append(span)

    def current(self) -> Span | None:
        """The calling thread's innermost open span, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def add_cycles(self, cycles: int) -> None:
        """Attach cycles to the calling thread's innermost open span."""
        current = self.current()
        if current is not None:
            current.add_cycles(cycles)

    # ------------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, span: Span) -> None:
        stack = self._stack()
        span.thread_id = threading.get_ident()
        span.depth = len(stack)
        span.parent_name = stack[-1].name if stack else None
        stack.append(span)
        span.start_ns = time.perf_counter_ns()

    def _exit(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # mis-nested exit: drop through to it
            while stack and stack[-1] is not span:
                stack.pop()
            stack.pop()
        with self._lock:
            self._spans.append(span)

    # ------------------------------------------------------------------
    @property
    def spans(self) -> list[Span]:
        """Finished spans in completion order (children before parents)."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        """Drop all finished spans (open spans keep recording)."""
        with self._lock:
            self._spans.clear()

    def summary(self, prefix: str = "") -> dict[str, dict[str, float]]:
        """Aggregate finished spans by name.

        Returns ``{name: {"count", "wall_s", "cycles"}}`` for spans whose
        name starts with ``prefix``, insertion-ordered by first
        completion — the per-phase wall-vs-modelled table the fleet
        report renders.
        """
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            if prefix and not span.name.startswith(prefix):
                continue
            row = out.setdefault(
                span.name, {"count": 0, "wall_s": 0.0, "cycles": 0}
            )
            row["count"] += 1
            row["wall_s"] += span.duration_s
            row["cycles"] += span.cycles
        return out

    # ------------------------------------------------------------------
    def to_chrome(self, deterministic: bool = False) -> dict:
        """The trace as a Chrome trace-event JSON object.

        Complete events (``ph="X"``) with microsecond timestamps
        relative to tracer construction; thread idents map to small
        integers in order of first appearance so lanes are stable
        across runs.  Load the written file in ``chrome://tracing`` or
        https://ui.perfetto.dev.

        With ``deterministic=True`` the wall-clock measurements leave
        the export entirely: timestamps become *virtual* integer
        ``ts``/``dur`` derived from the recorded structure alone
        (completion order + nesting depth, never the clock — so timing
        jitter that reorders real span boundaries between otherwise
        identical runs cannot perturb the bytes) and the ``wall_ms``
        arg is dropped.  Re-running the same single-threaded workload
        rewrites the file with an empty diff — the committed
        sample-trace artifact stays reviewable.
        """
        if deterministic:
            times = self._deterministic_times()
            spans = sorted(self.spans, key=lambda s: times[id(s)][0])
        else:
            spans = sorted(
                self.spans,
                key=lambda s: (s.start_ns, s.end_ns, s.depth, s.name),
            )
        events = []
        tids: dict[int, int] = {}
        for span in spans:
            tid = tids.setdefault(span.thread_id, len(tids))
            args = dict(span.args)
            args["cycles"] = span.cycles
            if deterministic:
                ts: float | int
                dur: float | int
                ts, dur = times[id(span)]
            else:
                args["wall_ms"] = round(span.duration_ms, 6)
                ts = (span.start_ns - self._origin_ns) / 1e3
                dur = span.duration_ns / 1e3
            events.append(
                {
                    "name": span.name,
                    "cat": span.category or "repro",
                    "ph": "X",
                    "ts": ts,
                    "dur": dur,
                    "pid": 1,
                    "tid": tid,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def _deterministic_times(self) -> dict[int, tuple[int, int]]:
        """Virtual ``(ts, dur)`` per span id — no wall clock involved.

        The finished-span list is a per-thread postorder walk (children
        complete before parents; :meth:`record` appends at call time),
        so completion order + depth reconstructs each thread's span
        forest exactly.  A DFS over that forest then hands out integer
        enter/exit ticks from one global counter: siblings keep their
        execution (completion) order, nesting is preserved, and none of
        it depends on measured durations — identical serial workloads
        map to identical times even when real timing jitter would have
        reordered back-dated :meth:`record` span boundaries.
        """
        by_thread: dict[int, list[Span]] = {}
        for span in self.spans:
            by_thread.setdefault(span.thread_id, []).append(span)
        times: dict[int, tuple[int, int]] = {}
        counter = 0

        def assign(span: Span, children: list) -> None:
            nonlocal counter
            start = counter
            counter += 1
            for child, grandchildren in children:
                assign(child, grandchildren)
            counter += 1
            times[id(span)] = (start, counter - start)

        for thread_spans in by_thread.values():
            # Postorder rebuild: when a span at depth d completes, the
            # pending spans one level deeper are exactly its children,
            # already in execution order.
            pending: dict[int, list] = {}
            for span in thread_spans:
                children = pending.pop(span.depth + 1, [])
                pending.setdefault(span.depth, []).append((span, children))
            for depth in sorted(pending):
                for span, children in pending[depth]:
                    assign(span, children)
        return times

    def export_chrome(self, path: str, deterministic: bool = False) -> str:
        """Write the Chrome trace-event JSON to ``path``; returns it.

        ``deterministic=True`` additionally sorts the JSON keys — with
        the rank timestamps of :meth:`to_chrome` the written bytes are
        then a pure function of the recorded workload.
        """
        with open(path, "w") as fh:
            json.dump(
                self.to_chrome(deterministic=deterministic),
                fh,
                indent=1,
                sort_keys=deterministic,
            )
        return path
