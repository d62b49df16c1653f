"""In-memory span recorder wrapped around the public calls into each layer.

Only ``traced_cli.py`` imports this module, in the program's own
processes (the server and its spawned shard workers).  A span is one
tuple ``(name, start_ns, end_ns, span_id, parent_id, request_id, tid,
attrs)``; starts and ends are ``time.monotonic_ns()``, which is
CLOCK_MONOTONIC and therefore comparable across the processes of one
machine.  Spans stay in a list until :func:`flush` writes them as JSON
lines to ``$PERFBENCH_SPANS/spans-<pid>-<k>.jsonl``.

A request id is opened by the HTTP handler span and inherited by every
span below it on the same thread.  Router fan-out crosses threads and
the worker pipe, so the router side stamps ``frame["_trace"] = [request
id, parent span id]`` into each frame and the receiving side adopts it.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time

_spans: list = []
_ids = itertools.count(1)
_flushes = itertools.count()
_local = threading.local()
_PID = os.getpid()


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _context() -> tuple:
    """``(request id, parent span id)`` of the innermost open span."""
    stack = _stack()
    if stack:
        return stack[-1]
    return getattr(_local, "adopted", (None, None))


def adopt(trace) -> None:
    """Continue a trace handed across a thread or process boundary."""
    _local.adopted = (trace[0], trace[1]) if trace else (None, None)


def _new_id() -> str:
    return f"{_PID}.{next(_ids)}"


def wrap(owner, attr: str, name: str, *, root=False, attrs=None, before=None):
    """Replace ``owner.attr`` with a span-recording wrapper.

    ``root`` opens a new request id; ``attrs(args, kwargs, result)``
    returns a dict stored on the span; ``before(args, kwargs, span_id,
    request_id)`` runs inside the span before the call (frame stamping).
    Static and class methods are unwrapped and rewrapped in kind.
    """
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
    kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
    fn = raw.__func__ if kind else getattr(owner, attr)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rid, parent = _context()
        span_id = _new_id()
        if root:
            rid = span_id
        stack = _stack()
        stack.append((rid, span_id))
        result = None
        start = time.monotonic_ns()
        try:
            if before is not None:
                before(args, kwargs, span_id, rid)
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.monotonic_ns()
            stack.pop()
            extra = attrs(args, kwargs, result) if attrs is not None else None
            _spans.append(
                (name, start, end, span_id, parent, rid,
                 threading.get_ident(), extra)
            )

    setattr(owner, attr, kind(traced) if kind else traced)
    return traced


def flush() -> None:
    """Write and forget every span recorded so far (no-op when unset)."""
    out_dir = os.environ.get("PERFBENCH_SPANS")
    if not out_dir or not _spans:
        return
    batch = _spans[: len(_spans)]
    del _spans[: len(batch)]
    path = os.path.join(out_dir, f"spans-{_PID}-{next(_flushes)}.jsonl")
    with open(path + ".tmp", "w") as fh:
        for span in batch:
            fh.write(json.dumps(span) + "\n")
    os.replace(path + ".tmp", path)
