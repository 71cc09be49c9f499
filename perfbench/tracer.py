"""In-process span tracer installed from outside the program.

`Tracer.install` wraps every public function defined in each loaded `norden.*`
module, rebinding it in every norden module that holds it (some modules import
names directly), plus the numpy entry points in NUMPY_ENTRY_POINTS.  Each call
records a span: name, parent span, start and end.  Spans stay in compact
in-memory arrays until the run ends.  A span's self time is its duration
minus the durations of its direct children; calls are single-threaded, so
child intervals never overlap.  `rescale` multiplies the durations of a run
of spans by a factor (the benchmark's conversion to the reference speed).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

NUMPY_ENTRY_POINTS = ("einsum", "linalg.inv", "linalg.lstsq", "linalg.svd")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.enabled = True
        self._patches: list[tuple[object, str, object]] = []
        self.clear()

    def clear(self) -> None:
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._rescaled: list[tuple[int, int, float]] = []

    def __len__(self) -> int:
        return len(self.start)

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn):
        """Return a wrapper of `fn` that records one span per call."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.start)
            tracer.name_of.append(nid)
            tracer.parent.append(stack[-1])
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the public norden functions and the numpy entry points."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import numpy as np

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "norden" or n.startswith("norden.")]
        wrappers: dict[int, object] = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        for path in NUMPY_ENTRY_POINTS:
            owner_path, _, attr = ("numpy." + path).rpartition(".")
            owner = np if owner_path == "numpy" else np.linalg
            self._patch(owner, attr, self.wrap(f"numpy.{path}", getattr(owner, attr)))

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- aggregation -------------------------------------------------------

    def rescale(self, first: int, last: int, factor: float) -> None:
        """Multiply the durations of spans first..last-1 by `factor`."""
        self._rescaled.append((first, last, factor))

    def factors(self) -> list[float]:
        out = [1.0] * len(self)
        for first, last, factor in self._rescaled:
            out[first:last] = [factor] * (last - first)
        return out

    def durations(self) -> list[float]:
        return [(e - s) * f for s, e, f in zip(self.start, self.end, self.factors())]

    def self_times(self) -> list[float]:
        dur = self.durations()
        own = list(dur)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= dur[idx]
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for nid, d, own in zip(self.name_of, self.durations(), self.self_times()):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["total_s"] += d
            row["self_s"] += own
        return dict(out)

    def dump(self, path: Path) -> None:
        """Write every span to a compressed .npz (names, name id, parent,
        start, end, and the factor of `rescale`)."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            factor=np.array(self.factors()),
        )
