"""Span recording for the traced run, and the probes that feed it.

Every probe times a call into a public function of one layer of the
system from outside: a :class:`TracedEvaluator` handed to
``layer.forward``, a :class:`TracedBackend` selected as the active FHE
kernel backend, per-instance wrappers around ``layer.forward`` and
module-attribute interposition for functions the program calls on its
own (``repro.core.framework.explore``).  The untimed untraced path never
installs any of them.

Spans stay in memory as ``(id, name, start, end, parent, session,
attrs)`` tuples and are written out once, when the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

import numpy as np

from repro.fhe import kernels
from repro.fhe.kernels import KernelBackend
from repro.fhe.ops import Evaluator

@dataclass
class SpanRecorder:
    """In-memory span store with an explicit parent stack (one thread)."""

    spans: list[tuple] = field(default_factory=list)
    session: str | None = None
    _stack: list[int] = field(default_factory=list)
    _next: int = 0

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """Context-manager form; the yielded dict becomes the span's attrs."""
        sid = self._next
        self._next = sid + 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        attrs: dict[str, Any] = {}
        start = perf_counter()
        try:
            yield attrs
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append(
                (sid, name, start, end, parent, self.session, attrs or None)
            )

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span for an interval timed elsewhere (no parent)."""
        self.spans.append(
            (self._next, name, start, end, None, self.session, None)
        )
        self._next += 1

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``; return its result."""
        with self.span(name):
            return fn(*args, **kwargs)

    def write(self, path: Path) -> None:
        """Dump every span as columnar JSON (names interned)."""
        names: dict[str, int] = {}
        rows = []
        for sid, name, start, end, parent, session, attrs in self.spans:
            idx = names.setdefault(name, len(names))
            rows.append([sid, idx, round(start * 1e9), round(end * 1e9),
                         parent, session, attrs])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "columns": ["id", "name", "start_ns", "end_ns", "parent",
                        "session", "attrs"],
            "names": list(names),
            "spans": rows,
        }))


def call(spans: SpanRecorder | None, name: str, fn: Callable, *args,
         **kwargs):
    """``fn(*args, **kwargs)``, inside a span when ``spans`` is given."""
    if spans is None:
        return fn(*args, **kwargs)
    return spans.call(name, fn, *args, **kwargs)


def layer_of(name: str) -> str:
    """The layer a span belongs to: its first two name components
    (``hecnn.layers``, ``fhe.ops``, ``fhe.kernels``, ...)."""
    return ".".join(name.split(".")[:2])


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> seconds not covered by its direct child spans *of the
    same layer*.

    A layer's self time therefore still includes the calls it makes into
    lower layers: ``hecnn.layers.Fc1`` keeps the evaluator and kernel
    work it drives, while ``fhe.ops.multiply_values_rescale`` loses the
    ``fhe.ops.rescale`` it calls through ``self``.
    """
    layer = {sid: layer_of(name) for sid, name, *_ in spans}
    child: dict[int, float] = {}
    for sid, _name, start, end, parent, _session, _attrs in spans:
        if parent is not None and layer.get(parent) == layer[sid]:
            child[parent] = child.get(parent, 0.0) + (end - start)
    return {
        sid: (end - start) - child.get(sid, 0.0)
        for sid, _name, start, end, _parent, _session, _attrs in spans
    }


def by_name(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``, and
    summed numeric attrs."""

    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for sid, name, start, end, _parent, _session, attrs in spans:
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own[sid]
        if attrs:
            for key, value in attrs.items():
                row[key] = row.get(key, 0) + value
    return out


# -- FHE evaluator -------------------------------------------------------------


class TracedEvaluator(Evaluator):
    """An :class:`Evaluator` whose every public method records a span.

    Overrides delegate to the base implementation, so results are
    bit-identical; composite methods reach their parts through ``self``
    and therefore nest as child spans (self time excludes them).
    """

    def __init__(self, context, spans: SpanRecorder, recorder=None) -> None:
        super().__init__(context, recorder=recorder)
        self._spans = spans


def _traced_method(name: str, fn: Callable) -> Callable:
    span_name = f"fhe.ops.{name}"

    def method(self, *args, **kwargs):
        return self._spans.call(span_name, fn, self, *args, **kwargs)

    method.__name__ = name
    method.__doc__ = fn.__doc__
    return method


for _name, _value in list(vars(Evaluator).items()):
    if not _name.startswith("_") and callable(_value) \
            and not isinstance(_value, (staticmethod, classmethod)):
        setattr(TracedEvaluator, _name, _traced_method(_name, _value))
del _name, _value


# -- kernel backend --------------------------------------------------------------


class TracedBackend(KernelBackend):
    """Delegating kernel backend: times each call, counts residue rows and
    the bytes its input and output arrays span (computed, not measured)."""

    name = "perfbench-traced"

    def __init__(self, inner: KernelBackend, spans: SpanRecorder) -> None:
        self.inner = inner
        self._spans = spans

    def _timed(self, call: str, n: int, arrays: tuple, *args):
        with self._spans.span(f"fhe.kernels.{call}") as attrs:
            out = getattr(self.inner, call)(n, *args)
            first = np.asarray(arrays[0])
            attrs["rows"] = first.size // n
            attrs["bytes"] = out.nbytes + sum(
                np.asarray(a).nbytes for a in arrays
            )
        return out

    def forward(self, n, primes, values):
        return self._timed("forward", n, (values,), primes, values)

    def inverse(self, n, primes, values):
        return self._timed("inverse", n, (values,), primes, values)

    def negacyclic_multiply(self, n, primes, a, b):
        return self._timed("negacyclic_multiply", n, (a, b), primes, a, b)

    def apply_galois(self, n, primes, values, galois_element):
        return self._timed("apply_galois", n, (values,), primes, values,
                           galois_element)

    def modmul(self, n, primes, a, b):
        return self._timed("modmul", n, (a, b), primes, a, b)

    def modmul_const(self, n, primes, rows, values, values_shoup):
        return self._timed("modmul_const", n, (rows, values, values_shoup),
                           primes, rows, values, values_shoup)

    def modadd(self, n, primes, a, b):
        return self._timed("modadd", n, (a, b), primes, a, b)

    def modsub(self, n, primes, a, b):
        return self._timed("modsub", n, (a, b), primes, a, b)

    def modneg(self, n, primes, a):
        return self._timed("modneg", n, (a,), primes, a)


@contextmanager
def traced_kernels(spans: SpanRecorder) -> Iterator[TracedBackend]:
    """Register a :class:`TracedBackend` over the active backend and select
    it for the duration of the block."""
    backend = TracedBackend(kernels.active_backend(), spans)
    kernels.register_backend(backend, replace=True)
    with kernels.using_backend(backend.name):
        yield backend


# -- interposition -------------------------------------------------------------


@contextmanager
def interposed(owner: Any, attr: str, spans: SpanRecorder, name: str,
               on_result: Callable[[Any, dict], None] | None = None):
    """Replace ``owner.attr`` by a span-recording wrapper for the block.

    ``on_result(result, attrs)`` may add numeric attrs to the span.
    """
    original = getattr(owner, attr)
    own = attr in vars(owner)

    def wrapper(*args, **kwargs):
        with spans.span(name) as attrs:
            result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result, attrs)
        return result

    setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        if own:
            setattr(owner, attr, original)
        else:
            # The wrapper shadowed a class attribute (a bound method).
            delattr(owner, attr)
