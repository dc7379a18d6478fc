"""In-memory span tracing around the public functions of scorelm's modules.

`instrument` rebinds chosen module-level functions, in every loaded
``scorelm`` module namespace that refers to them, to wrappers that record a
span per call: name, start, end, parent span and run id (the index of the
root span the call sits under).  Generator functions get one span per
yielded item, so lazy batch assembly is timed where the consumer pulls it.
Nothing under ``src/`` changes; the originals are restored on exit.
"""

import contextlib
import functools
import inspect
import json
import sys
import time

NAME, START, END, PARENT, RUN, COUNTS = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        run = self.spans[self._stack[0]][RUN] if self._stack else idx
        self.spans.append([name, time.perf_counter(), 0.0, parent, run, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def _count(self, idx, count, args, kwargs, result):
        """Attach counts to span idx; the counting gets its own `trace.count`
        span so that it is not charged to the caller's self time."""
        if count is None:
            return
        cidx = self._open("trace.count")
        try:
            counts = count(args, kwargs, result)
        finally:
            self._close(cidx)
        self.spans[idx][COUNTS] = counts

    def wrap(self, name, fn, count=None):
        """Wrapper recording a span per call (per yielded item for generator
        functions).  `name` may be a function of (args, kwargs);
        `count(args, kwargs, result)` returns a dict of counts for the span
        and runs after the span has closed."""
        naming = name if callable(name) else (lambda args, kwargs: name)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    idx = self._open(naming(args, kwargs))
                    try:
                        item = next(inner)
                    except StopIteration:
                        self._close(idx)
                        if idx == len(self.spans) - 1:
                            self.spans.pop()  # exhaustion is not a yielded item
                        return
                    self._close(idx)
                    self._count(idx, count, args, kwargs, item)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(naming(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._count(idx, count, args, kwargs, result)
            return result
        return wrapper

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "run": run, "counts": counts}) + "\n")


@contextlib.contextmanager
def instrument(tracer, targets):
    """Trace calls to the given functions while the context is open.

    targets: iterable of (module, function name, span name, count fn or None).
    """
    rebound = []
    modules = [m for n, m in list(sys.modules.items()) if n == "scorelm" or n.startswith("scorelm.")]
    try:
        for module, fname, span_name, count in targets:
            original = getattr(module, fname)
            wrapped = tracer.wrap(span_name, original, count)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)
                        rebound.append((m, attr, original))
        yield tracer
    finally:
        for m, attr, original in reversed(rebound):
            setattr(m, attr, original)


def span_stats(spans, offset=0):
    """Aggregate spans[offset:] by name; the slice must start while no span
    is open.  Returns ({name: {"durations", "self_s", "counts"}}, root time),
    where self time is duration minus the time covered by child spans."""
    part = spans[offset:]
    child = [0.0] * len(part)
    for s in part:
        if s[PARENT] >= 0:
            child[s[PARENT] - offset] += s[END] - s[START]
    stats, root_s = {}, 0.0
    for s, covered in zip(part, child):
        dur = s[END] - s[START]
        st = stats.setdefault(s[NAME], {"durations": [], "self_s": 0.0, "counts": {}})
        st["durations"].append(dur)
        st["self_s"] += dur - covered
        if s[PARENT] < 0:
            root_s += dur
        for k, v in (s[COUNTS] or {}).items():
            st["counts"][k] = st["counts"].get(k, 0) + v
    return stats, root_s
