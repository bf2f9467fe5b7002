"""In-memory spans around calls into workfdr's modules.

A span records a name, a start and end time (``time.perf_counter``), the span
that was open on the same thread when it started, and, for the MC batch
kernel, the call's positional arguments. Spans are kept in a list and read when
the traced run ends; nothing is written while the program runs.

``Tracer.install`` wraps every public module-level function of the modules in
``MODULES`` and replaces each name that refers to it in any loaded
``workfdr`` module, so calls made through ``from .x import f`` bindings are
traced too. ``Tracer.uninstall`` puts the original functions back. The program's
own files are not changed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from contextlib import contextmanager

PACKAGE = "workfdr"
MODULES = ("model", "linalg", "work_stats", "entanglement", "sampler", "cli", "verify")
# The MC batch kernel is private, but one call is one batch: it is the boundary
# at which batch and draw counts are taken.
KERNEL = "sampler._simulate_batch"


class Span:
    __slots__ = ("name", "parent", "args", "start", "end")

    def __init__(self, name: str, parent: "Span | None", args: tuple | None):
        self.name = name
        self.parent = parent
        self.args = args
        self.start = 0.0
        self.end = 0.0

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        stack = self._stack()
        record = Span(name, stack[-1] if stack else None, None)
        stack.append(record)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def _wrap(self, name: str, fn, keep_args: bool):
        # span() inlined: this runs on every traced call (80k on exact_sweep)
        stack_of = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            record = Span(name, stack[-1] if stack else None, args if keep_args else None)
            stack.append(record)
            record.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record.end = time.perf_counter()
                stack.pop()
                spans.append(record)

        return traced

    def install(self) -> None:
        """Trace every public function of MODULES, plus the MC batch kernel."""
        wrappers = {}
        names = set()
        for short in MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, value in vars(module).items():
                public = not attr.startswith("_") and inspect.isfunction(value)
                name = f"{short}.{attr}"
                if (public and value.__module__ == module.__name__) or name == KERNEL:
                    wrappers[value] = self._wrap(name, value, keep_args=name == KERNEL)
                    names.add(name)
        if KERNEL not in names:
            raise RuntimeError(f"{KERNEL} not found: the batch counts cannot be taken")
        for module_name, module in list(sys.modules.items()):
            if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_seconds(self, module: str, root: str) -> float:
        """Time inside the ``root`` spans not covered by spans of other modules they call.

        A covering span is one of another module whose parent is a span of
        ``module``; the spans below it are inside it and are not subtracted again.
        """
        total = sum(s.seconds for s in self.named(root))
        covered = sum(
            s.seconds
            for s in self.spans
            if s.module != module and s.parent is not None and s.parent.module == module
        )
        return total - covered
