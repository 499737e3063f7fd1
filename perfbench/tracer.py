"""Out-of-tree tracer: wraps the library's functions without editing them.

``Tracer.install()`` replaces each traced function in every module namespace
that holds a reference to it (``counting.kloosterman_closed`` as well as
``charsums.kloosterman_closed``), and ``uninstall()`` puts the originals back.

Every traced call adds to a per-function aggregate: calls, inclusive seconds
and self seconds (inclusive minus the time of traced calls made inside it on
the same thread).  Calls to functions that are not hot also record a span
(id, name, parent span, thread, start, end, counters); hot scalar functions,
called millions of times, are only aggregated so the trace stays small.
Spans stay in memory until ``write_spans`` appends them as JSON lines.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import threading
import time

LAYERS = (
    "modmath",
    "charsums",
    "densities",
    "counting",
    "sqrt_expsums",
    "representations",
    "errors",
    "cli",
)

# Private functions traced because a per-layer metric is about them.
PRIVATE_TARGETS = {
    "counting": ("_bump_tables", "_weight_eval_vec", "_weight_fourier_vec"),
}

# Public methods traced in addition to module-level functions.
METHOD_TARGETS = {
    "charsums": (("ExactCharSum", "to_complex"), ("KloostermanClosedForm", "to_complex")),
}

# Aggregated only, never spanned: scalar functions on the per-call hot path.
HOT = frozenset(
    {
        "charsums.gauss_sum_closed",
        "charsums.kloosterman_closed",
        "charsums.salie_closed",
        "charsums.gauss_difference",
        "charsums.cochrane_vanishes",
        "charsums.ExactCharSum.to_complex",
        "charsums.KloostermanClosedForm.to_complex",
        "counting.weight_eval",
        "counting.weight_fourier",
        "counting.fourier_at_zero",
        "counting.weight_support_cutoff",
        "counting.fourier_tail_cutoff",
        "counting._weight_eval_vec",
        "counting._weight_fourier_vec",
        "densities.square_value_histogram",
        "densities.cyclic_convolution_exact",
    }
)
HOT_LAYERS = ("modmath", "errors")


class _ThreadState:
    __slots__ = ("tid", "stack", "aggs", "counters")

    def __init__(self, tid: int):
        self.tid = tid
        self.stack: list[list] = []  # frames: [child seconds, span dict or None]
        self.aggs: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counters: dict[str, float] = {}


class Tracer:
    """Per-function aggregates, counters and spans for one process."""

    def __init__(self, spans_path: str | None = None) -> None:
        self.spans_path = spans_path  # where this process's spans go
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[dict] = []
        self.t0 = time.perf_counter()

    # -- state ------------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self._states))
                self._states.append(st)
            self._local.st = st
        return st

    @staticmethod
    def _enclosing_span(st: _ThreadState) -> dict | None:
        for frame in reversed(st.stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def add(self, name: str, value: float) -> None:
        """Add to a process-wide counter (kept per thread, merged on read)."""
        counters = self._state().counters
        counters[name] = counters.get(name, 0) + value

    def add_to_span(self, name: str, value: float) -> None:
        """Add to a counter of the innermost open span on this thread."""
        span = self._enclosing_span(self._state())
        if span is not None:
            counters = span.setdefault("counters", {})
            counters[name] = counters.get(name, 0) + value

    # -- spans and wrappers -----------------------------------------------

    def _open(self, name: str, spanned: bool) -> tuple[_ThreadState, list]:
        st = self._state()
        span = None
        if spanned:
            parent = self._enclosing_span(st)
            span = {
                "id": next(self._ids),
                "name": name,
                "parent": parent["id"] if parent is not None else None,
                "thread": st.tid,
            }
        frame = [0.0, span]
        st.stack.append(frame)
        return st, frame

    def _close(self, st: _ThreadState, frame: list, name: str, t0: float, t1: float, keep_span: bool = True) -> None:
        st.stack.pop()
        dt = t1 - t0
        agg = st.aggs.get(name)
        if agg is None:
            agg = st.aggs[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dt
        agg[2] += dt - frame[0]
        if st.stack:
            st.stack[-1][0] += dt
        span = frame[1]
        if span is not None and keep_span:
            span["start"] = t0 - self.t0
            span["end"] = t1 - self.t0
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the benchmark's own code."""
        st, frame = self._open(name, True)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(st, frame, name, t0, time.perf_counter())

    def wrap(self, name: str, fn, pre=None, post=None):
        """A traced stand-in for ``fn``; ``pre(args)`` and ``post(args, result)``
        may add counters.

        Calls of an ``lru_cache`` function that hit the cache are aggregated
        under ``<name>.hit`` and leave no span, so ``<name>`` times real work.
        """
        spanned = name not in HOT and name.split(".", 1)[0] not in HOT_LAYERS
        cache_info = getattr(fn, "cache_info", None)
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st, frame = tracer._open(name, spanned)
            if pre is not None:
                pre(tracer, args, kwargs)
            misses = cache_info().misses if cache_info is not None else 0
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                hit = cache_info is not None and cache_info().misses == misses
                tracer._close(st, frame, name + ".hit" if hit else name, t0, t1, keep_span=not hit)
            if post is not None:
                post(tracer, args, kwargs, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self, package, hooks: dict | None = None) -> None:
        """Wrap every public function of the layer modules of ``package``.

        ``hooks`` maps a traced name such as ``"errors.charge"`` to a
        ``(pre, post)`` pair.  Every module attribute, in the layer modules
        and the package itself, that refers to a wrapped function is patched.
        """
        hooks = hooks or {}
        modules = [package] + [getattr(package, layer) for layer in LAYERS if hasattr(package, layer)]
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            mod = getattr(package, layer, None)
            if mod is None:
                continue
            for attr in _module_targets(mod, layer):
                fn = getattr(mod, attr)
                name = f"{layer}.{attr}"
                pre, post = hooks.get(name, (None, None))
                replacements[id(fn)] = self.wrap(name, fn, pre, post)
            for cls_name, meth in METHOD_TARGETS.get(layer, ()):
                cls = getattr(mod, cls_name, None)
                fn = getattr(cls, meth, None) if cls is not None else None
                if fn is not None:
                    self._patch(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def aggregates(self) -> dict[str, list]:
        merged: dict[str, list] = {}
        for st in self._states:
            for name, (calls, total, self_s) in st.aggs.items():
                agg = merged.setdefault(name, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += total
                agg[2] += self_s
        return merged

    def absorb(self, aggs: dict[str, list], counters: dict[str, float]) -> None:
        """Fold in the aggregates and counters of a traced child process."""
        with self._lock:
            st = _ThreadState(len(self._states))
            self._states.append(st)
        st.aggs = {name: list(v) for name, v in aggs.items()}
        st.counters = dict(counters)

    def counters(self) -> dict[str, float]:
        merged: dict[str, float] = {}
        for st in self._states:
            for name, value in st.counters.items():
                merged[name] = merged.get(name, 0) + value
        return merged

    def write_spans(self, path: str, **fields) -> None:
        """Append one JSON line per recorded span, tagged with ``fields``."""
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps({**fields, **span}, sort_keys=True) + "\n")


class NullTracer:
    """Stand-in used for untraced passes: spans cost nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()


def _module_targets(mod, layer: str) -> list[str]:
    """Public functions defined in ``mod`` (lru-cached ones included), plus
    the private ones listed in PRIVATE_TARGETS that still exist."""
    if layer == "cli":
        return ["main"] if callable(getattr(mod, "main", None)) else []
    names = []
    for attr, value in vars(mod).items():
        if attr.startswith("_") or inspect.isclass(value):
            continue
        target = getattr(value, "__wrapped__", value)
        if inspect.isfunction(target) and target.__module__ == mod.__name__:
            names.append(attr)
    names.extend(a for a in PRIVATE_TARGETS.get(layer, ()) if callable(getattr(mod, a, None)))
    return names
