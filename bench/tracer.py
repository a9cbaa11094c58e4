"""Spans recorded from outside the program.

A Tracer swaps timing wrappers onto module attributes that the package
resolves at call time (``optimizers.draw``, ``cli.load_dataset``, ...), so
the package itself is not edited.  Each span holds its name, start, end,
parent span and one extra value; spans stay in memory until the run ends.
"""

from __future__ import annotations

import os
import sys
import time

# extra value recorded per span, by how the wrapped function is called
SIZE_OF_RESULT = "size_of_result"   # len(return value): realised |S| of a draw
SIZE_OF_LAST_ARG = "size_of_last"   # len(last positional arg): subset / refresh set
CALLER = "caller"                   # name of the calling function
FILE_BYTES = "file_bytes"           # size of the file named by the first arg

CHECKPOINT_CALLER = "record"        # _Recorder.record: the per-epoch checkpoint


class Tracer:
    """Install with ``with tracer:``; the wrappers are removed on exit."""

    def __init__(self, targets):
        # targets: (module, attribute, span name, extra kind or None)
        self.targets = targets
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent, extra]
        self._stack: list[int] = []
        self._saved: list = []

    def __enter__(self):
        for module, attr, name, extra in self.targets:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, extra))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def _wrap(self, fn, name, extra):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            if extra == CALLER:
                span[4] = sys._getframe(1).f_code.co_name
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra == SIZE_OF_RESULT:
                span[4] = len(out)
            elif extra == SIZE_OF_LAST_ARG:
                span[4] = len(args[-1])
            elif extra == FILE_BYTES:
                span[4] = os.path.getsize(args[0])
            return out

        return wrapper

    def top_level_seconds(self, names) -> float:
        """Total time of spans with no parent whose name is in ``names``."""
        return sum(
            (s[2] - s[1]) for s in self.spans if s[3] == -1 and s[0] in names
        ) / 1e9

    def write(self, path) -> None:
        """One span per line: index,name,start_ns,end_ns,parent,extra."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("index,name,start_ns,end_ns,parent,extra\n")
            for i, (name, t0, t1, parent, extra) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0},{t1},{parent},{'' if extra is None else extra}\n")
