"""In-memory span recorder that wraps a program's public functions.

The benchmark traces the program from the outside: :meth:`Tracer.patch`
replaces a function or method with a timing wrapper (everywhere the
original object is bound, so ``from x import f`` call sites are caught
too), and :meth:`Tracer.restore` puts the originals back. No program
code changes.

Each call becomes one span: name, start, end, parent span and request
id. The parent is the span open in the calling context (a
``ContextVar``, so asyncio tasks and threads nest independently); the
request id is whatever :attr:`Tracer.request_id` holds. Spans are packed
into one ``bytearray`` (32 bytes each, appended atomically under the
GIL, so wrapped code may run on several threads) and analysed or
written out only when the run ends.

A layer's self time is its span's duration minus its child spans'
(:func:`self_times`).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import struct
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: span id, name id, parent span id (-1 = root), request id (-1 = none),
#: start, end (``time.perf_counter`` seconds).
_RECORD = struct.Struct("<IIiidd")
SPAN_DTYPE = np.dtype(
    [
        ("sid", "<u4"),
        ("nid", "<u4"),
        ("parent", "<i4"),
        ("rid", "<i4"),
        ("start", "<f8"),
        ("end", "<f8"),
    ]
)
assert SPAN_DTYPE.itemsize == _RECORD.size

#: Hook run after a wrapped call returns:
#: (tracer, args, kwargs, result, span start, span end).
ResultHook = Callable[["Tracer", tuple, dict, object, float, float], None]


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self) -> None:
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._buf = bytearray()
        self._ids = itertools.count()
        self._current = contextvars.ContextVar("perfbench_span", default=-1)
        #: Request id stamped on every span opened while it is set.
        self.request_id = contextvars.ContextVar("perfbench_request", default=-1)
        self.counters: Counter = Counter()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------
    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def add(self, counter: str, amount: float = 1) -> None:
        """Bump a named counter (thread-safe)."""
        with self._lock:
            self.counters[counter] += amount

    def wrap(self, fn, name: str, on_result: Optional[ResultHook] = None):
        """A span-recording wrapper around ``fn`` (sync, async or generator).

        For a generator function the call itself is one span named
        ``name`` and each resumption is a span named ``name + ".next"``,
        so the time spent producing items is charged to the generator
        and not to whoever consumes it.
        """
        nid = self.name_id(name)
        current = self._current
        request_id = self.request_id
        ids = self._ids
        clock = time.perf_counter
        pack = _RECORD.pack
        buf = self._buf
        tracer = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                sid = next(ids)
                parent = current.get()
                token = current.set(sid)
                start = clock()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    end = clock()
                    current.reset(token)
                    buf.extend(pack(sid, nid, parent, request_id.get(), start, end))
                if on_result is not None:
                    on_result(tracer, args, kwargs, result, start, end)
                return result

            return async_wrapper

        if inspect.isgeneratorfunction(fn):
            next_nid = self.name_id(name + ".next")

            def timed(gen):
                while True:
                    sid = next(ids)
                    parent = current.get()
                    token = current.set(sid)
                    start = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        end = clock()
                        current.reset(token)
                        buf.extend(
                            pack(sid, next_nid, parent, request_id.get(), start, end)
                        )
                    yield item

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                sid = next(ids)
                start = clock()
                gen = fn(*args, **kwargs)
                buf.extend(
                    pack(sid, nid, current.get(), request_id.get(), start, clock())
                )
                return timed(gen)

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = current.get()
            token = current.set(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                current.reset(token)
                buf.extend(pack(sid, nid, parent, request_id.get(), start, end))
            if on_result is not None:
                on_result(tracer, args, kwargs, result, start, end)
            return result

        return wrapper

    def patch(
        self,
        owner: object,
        attr: str,
        name: str,
        on_result: Optional[ResultHook] = None,
    ) -> None:
        """Replace ``owner.attr`` with a traced wrapper.

        For a module-level function every module that bound the same
        object by name is patched as well.
        """
        original = inspect.getattr_static(owner, attr)
        wrapped = self.wrap(original, name, on_result)
        self.replace(owner, attr, original, wrapped)
        if inspect.ismodule(owner):
            for module in list(sys.modules.values()):
                if module is owner or module is None:
                    continue
                if getattr(module, attr, None) is original:
                    self.replace(module, attr, original, wrapped)

    def replace(self, owner, attr, original, replacement) -> None:
        """Set ``owner.attr`` to ``replacement``; :meth:`restore` undoes it."""
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------
    @property
    def names(self) -> List[str]:
        return list(self._names)

    def spans(self) -> np.ndarray:
        """Every closed span, ordered by span id."""
        spans = np.frombuffer(bytes(self._buf), dtype=SPAN_DTYPE).copy()
        spans.sort(order="sid")
        return spans

    def write(self, path: Path) -> None:
        """Write the spans (``.npy``) and their names (``.json``) out."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.save(path.with_suffix(".npy"), self.spans())
        path.with_suffix(".json").write_text(
            json.dumps({"names": self._names, "counters": dict(self.counters)})
        )


def self_times(sids, parents, starts, ends) -> np.ndarray:
    """Each span's duration minus its children's, each child clipped to
    its parent's interval. A child whose parent never closed (absent from
    ``sids``) counts as a root.
    """
    sids = np.asarray(sids, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    n = len(sids)
    if n == 0:
        return np.zeros(0)
    position = np.full(int(sids.max()) + 1, -1, dtype=np.int64)
    position[sids] = np.arange(n)
    known = (parents >= 0) & (parents < len(position))
    parent_pos = np.full(n, -1, dtype=np.int64)
    parent_pos[known] = position[parents[known]]
    child = np.nonzero(parent_pos >= 0)[0]
    owner = parent_pos[child]
    lo = np.maximum(starts[child], starts[owner])
    hi = np.minimum(ends[child], ends[owner])
    covered = np.bincount(owner, weights=np.clip(hi - lo, 0.0, None), minlength=n)
    return (ends - starts) - covered


def summarize(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``self_s`` and ``total_s``."""
    spans = tracer.spans()
    names = tracer.names
    own = self_times(spans["sid"], spans["parent"], spans["start"], spans["end"])
    nid = spans["nid"].astype(np.int64)
    calls = np.bincount(nid, minlength=len(names))
    self_s = np.bincount(nid, weights=own, minlength=len(names))
    total_s = np.bincount(nid, weights=spans["end"] - spans["start"], minlength=len(names))
    return {
        name: {
            "calls": int(calls[i]),
            "self_s": float(self_s[i]),
            "total_s": float(total_s[i]),
        }
        for i, name in enumerate(names)
    }
