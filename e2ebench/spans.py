"""Host-side span recorder for the traced benchmark run.

Spans are recorded around the public calls of each layer, from outside
the program: :func:`instrument` replaces a module or class attribute with
a timing wrapper for the duration of a ``with`` block and restores the
original afterwards.  Nothing under ``src/`` is edited, and the untraced
run installs no wrapper at all, so it executes the program unchanged.

Each span records its name, start, end and parent span; every span of
one run carries the run's id.  Spans stay in memory until
:meth:`SpanRecorder.write` saves them at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from pathlib import Path


class SpanRecorder:
    """In-memory spans of one run, with a parent stack for nesting."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: [name, start_s, end_s, parent index or -1, attrs dict]
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: layer names whose spans come from re-executing a call that the
        #: program makes where no wrapper can reach (e.g. a worker process)
        self.reexecuted: set[str] = set()

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(index)
        return index

    def end(self, index: int, attrs: dict | None = None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = attrs
        popped = self._stack.pop()
        if popped != index:  # pragma: no cover - wrappers always nest
            raise RuntimeError(f"span stack out of order at {span[0]}")

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    # --- aggregation --------------------------------------------------------
    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds.

        A span's self time is its duration minus the durations of its
        direct children (children of one span never overlap: the
        benchmark and the program are single-threaded where traced).
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return out

    def attrs(self, name: str) -> list[dict]:
        return [s[4] or {} for s in self.spans if s[0] == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as fh:
            json.dump({
                "run_id": self.run_id,
                "reexecuted": sorted(self.reexecuted),
                "totals": self.totals(),
            }, fh)
            fh.write("\n")
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id,
                    "name": name,
                    "start_us": round((start - origin) * 1e6, 1),
                    "end_us": round((end - origin) * 1e6, 1),
                    "parent": parent,
                    **({"attrs": attrs} if attrs else {}),
                }) + "\n")


def _resolve(path: str):
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name), or
    ``None`` when the module, class or attribute does not exist — layers
    a later refactor may delete (e.g. the fast simulator) are optional."""
    module_name, _, attr_path = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = attr_path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


@contextlib.contextmanager
def instrument(recorder: SpanRecorder, targets: dict):
    """Wrap every resolvable ``targets`` entry for the ``with`` block.

    ``targets`` maps ``"module:attr"`` or ``"module:Class.method"`` to
    ``(span name, summarise)``, where ``summarise(args, result)``
    returns the span's attributes (or ``None``).
    """
    installed: list[tuple[object, str, object]] = []
    try:
        for path, (span_name, summarise) in targets.items():
            found = _resolve(path)
            if found is None:
                continue
            owner, attr = found
            original = inspect.getattr_static(owner, attr)
            setattr(owner, attr, _wrap(recorder, span_name, summarise,
                                       getattr(owner, attr)))
            installed.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)


def _wrap(recorder: SpanRecorder, name: str, summarise, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        index = recorder.begin(name)
        attrs = None
        try:
            result = original(*args, **kwargs)
            if summarise is not None:
                attrs = summarise(args, result)
            return result
        finally:
            recorder.end(index, attrs)

    return wrapper
