"""Outside-in layer tracer for nlsqp.

Wraps every public function of the nlsqp modules, in every namespace that
binds it (`from .linop import assemble` makes `nlsqp.newton.assemble` a
second binding), plus `scipy.sparse.linalg.splu` (LU factorisation), the
`solve` method of the factor it returns (LU solves) and `numpy.linalg.det`
(dense block determinants).  Each call records a span (name, start, end,
parent span) in memory; the program itself is not changed.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types
from typing import Callable, Dict, List, Optional

import numpy as np
import scipy.sparse.linalg as spla

LAYER_MODULES = ("lattice", "characteristics", "conditions", "linop", "newton",
                 "verify", "cli")


def _bound(fn, args, kwargs) -> Dict[str, object]:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _dio_candidates(fn, args, kwargs, result) -> int:
    # Canonical representatives of the nonzero vectors in the scan box.
    a = _bound(fn, args, kwargs)
    return ((2 * a["n_radius"] + 1) ** len(a["omega"]) - 1) // 2


def _drift_steps(fn, args, kwargs, result) -> int:
    a = _bound(fn, args, kwargs)
    return int(round(a["T"] / a["dt"]))


# Work counters recorded at a span's end: span name -> f(fn, args, kwargs, result).
WORK = {
    "linop.block_decompose": lambda fn, a, k, r: len(r.sizes),
    "linop.assemble": lambda fn, a, k, r: r.matrix.nnz,
    # SuperLU's own count of stored L and U entries (supernodal padding
    # included); free, unlike building lu.L and lu.U.
    "linop.lu_factor": lambda fn, a, k, r: r.nnz,
    "characteristics.resonance_graph": lambda fn, a, k, r: len(r.vertices),
    "newton.diophantine_check": _dio_candidates,
    "verify.evolve_drift": _drift_steps,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "work")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.work: Optional[int] = None


class Tracer:
    """Installs wrappers with `install()`, removes them with `uninstall()`;
    spans accumulate in `self.spans` until `clear()`."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        work = WORK.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = time.perf_counter()
            if work is not None:
                span.work = work(fn, args, kwargs, result)
            return result

        return traced

    def _splu(self, splu: Callable) -> Callable:
        factor = self._wrap("linop.lu_factor", splu)
        wrap = self._wrap

        @functools.wraps(splu)
        def traced_splu(*args, **kwargs):
            lu = factor(*args, **kwargs)
            return _TracedLU(lu, wrap("linop.lu_solve", lu.solve))

        return traced_splu

    # -- patching ----------------------------------------------------------

    def install(self):
        replace: Dict[int, Callable] = {}
        for short in LAYER_MODULES:
            mod = sys.modules[f"nlsqp.{short}"]
            for attr, value in vars(mod).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    replace[id(value)] = self._wrap(f"{short}.{attr}", value)
        for name, mod in list(sys.modules.items()):
            if name != "nlsqp" and not name.startswith("nlsqp."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in replace:
                    self._patch(mod, attr, replace[id(value)])
        self._patch(spla, "splu", self._splu(spla.splu))
        self._patch(np.linalg, "det", self._wrap("linop.block_det", np.linalg.det))

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def clear(self):
        self.spans.clear()


def dump(cycles: List[List[Span]], path):
    """JSON lines, one per span; `id` and `parent` index the spans of the
    same traced cycle."""
    with open(path, "w", encoding="utf-8") as fh:
        for k, spans in enumerate(cycles):
            for i, s in enumerate(spans):
                fh.write(json.dumps({"cycle": k, "id": i, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "parent": s.parent, "work": s.work}) + "\n")


class _TracedLU:
    """Stands in for a SuperLU factor, recording a span per `solve`."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced cycle


def layer_stats(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """calls, self time and summed work per span name.  Self time is the
    span's duration minus the durations of its direct children, which nest
    inside it on this single thread."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out: Dict[str, Dict[str, float]] = {}
    for s, covered in zip(spans, child_time):
        st = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "work": 0,
                                     "work_max": 0})
        st["calls"] += 1
        st["self_s"] += (s.end - s.start) - covered
        if s.work is not None:
            st["work"] += s.work
            st["work_max"] = max(st["work_max"], s.work)
    return out


def count_under(spans: List[Span], name: str, ancestor: str,
                nearest: bool = False) -> int:
    """Spans called `name` with an `ancestor` span above them (or, with
    nearest=True, directly as their parent)."""
    n = 0
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p >= 0:
            if spans[p].name == ancestor:
                n += 1
                break
            if nearest:
                break
            p = spans[p].parent
    return n
