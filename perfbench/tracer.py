"""Span tracing from outside the program.

The benchmark replaces module attributes of ``detrep`` (and the numpy /
scipy kernels it calls) with timing wrappers for the duration of a traced
pass and puts the originals back afterwards, so ``src/`` stays untouched.
A name is patched in every module that looks it up at call time: a
function imported with ``from .x import f`` is a separate binding in the
importing module, which is why ``normalized_residual`` is patched in both
``twopareig`` and ``oracle``.

Spans (name, start, end, parent span, system id, raised) are kept in
flat arrays in memory and written out once, when the run ends.
"""

from __future__ import annotations

import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _n3_square(a, *_args, **_kwargs) -> int:
    n = np.shape(a)[-1]
    return n * n * n


def _n3_svd(a, *_args, **_kwargs) -> int:
    m, n = np.shape(a)[-2:]
    return m * n * min(m, n)


# (module, attribute, span name, work counter).  The work counter turns the
# input shape into a computed operation count (sum of n^3); it is derived
# from shapes, not measured.
TARGETS = [
    # the solver, and the names it imported from other modules
    ("detrep.twopareig", "solve", "twopareig.solve", None),
    ("detrep.twopareig", "to_two_param", "twopareig.to_two_param", None),
    ("detrep.twopareig", "specialize", "biaffine.specialize", None),
    ("detrep.twopareig", "build_deltas", "twopareig.build_deltas", None),
    ("detrep.twopareig", "staircase", "twopareig.staircase", None),
    ("detrep.twopareig", "commutator_defect", "twopareig.commutator_defect", None),
    ("detrep.twopareig", "solve_commuting", "twopareig.solve_commuting", None),
    ("detrep.twopareig", "refine", "twopareig.refine", None),
    ("detrep.twopareig", "normalized_residual", "roots.normalized_residual", None),
    # the oracle
    ("detrep.oracle", "oracle_roots", "oracle.oracle_roots", None),
    ("detrep.oracle", "resultant_values", "oracle.resultant_values", None),
    ("detrep.oracle", "normalized_residual", "roots.normalized_residual", None),
    # the exact path
    ("detrep.construct", "construct", "construct.construct", None),
    ("detrep.biaffine", "specialize", "biaffine.specialize", None),
    ("detrep.biaffine", "verify", None, None),  # named by mode, see _verify_name
    ("detrep.biaffine", "rep_det_bigring", "biaffine.rep_det_bigring", None),
    ("detrep._linalg", "exact_det", "linalg.exact_det", None),
    ("detrep.symmetry", "act", "symmetry.act", None),
    # shared evaluation and the dense kernels
    ("detrep.poly", "MultiPoly.evaluate", "poly.MultiPoly.evaluate", None),
    ("numpy.linalg", "svd", "kernel.svd", _n3_svd),
    ("scipy.linalg", "eig", "kernel.eig", _n3_square),
    ("scipy.linalg", "schur", "kernel.schur", _n3_square),
]

#: every layer name the tracer can report, in reporting order
LAYERS = list(dict.fromkeys(
    name for _, _, name, _ in TARGETS if name is not None
)) + ["biaffine.verify_random", "biaffine.verify_symbolic"]
KERNELS = [name for _, _, name, work in TARGETS if work is not None]


def _verify_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "symbolic")
    return "biaffine.verify_symbolic" if mode == "symbolic" else "biaffine.verify_random"


class Tracer:
    """Records nested spans of the patched calls made during a traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.system = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.work = array("q")
        self.current_system = -1
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int, work: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.system.append(self.current_system)
        self.start.append(0.0)
        self.end.append(0.0)
        self.raised.append(0)
        self.work.append(work)
        self._stack.append(idx)
        return idx

    def wrap(self, fn, name: str | None, work_of=None):
        fixed_id = self._id(name) if name is not None else None

        def traced(*args, **kwargs):
            name_id = fixed_id if fixed_id is not None else self._id(_verify_name(args, kwargs))
            idx = self._open(name_id, work_of(*args, **kwargs) if work_of else 0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = 1
                raise
            finally:
                self.end[idx] = perf_counter()
                self.start[idx] = t0
                self._stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self):
        """Install the wrappers; the originals are restored on exit."""
        saved = []
        try:
            for module_name, attr, name, work_of in TARGETS:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self.wrap(original, name, work_of))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    # -- aggregation ------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Span duration minus the durations of its direct children."""
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        own = dur.copy()
        has_parent = parent >= 0
        np.subtract.at(own, parent[has_parent], dur[has_parent])
        return own

    def roots(self) -> np.ndarray:
        """Index of each span's top-level ancestor, by pointer jumping."""
        parent = np.frombuffer(self.parent, dtype=np.int64)
        root = np.where(parent >= 0, parent, np.arange(len(parent)))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                return root
            root = up

    def layer_table(self) -> dict:
        """Per layer: calls, self seconds, raised calls and computed work."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        own = self.self_times()
        raised = np.frombuffer(self.raised, dtype=np.int8)
        work = np.frombuffer(self.work, dtype=np.int64)
        table = {}
        for i, name in enumerate(self.names):
            mask = ids == i
            table[name] = {
                "calls": int(mask.sum()),
                "self_s": float(own[mask].sum()),
                "raised": int(raised[mask].sum()),
                "n3": int(work[mask].sum()),
            }
        return table

    def tree_check(self, root_name: str) -> dict:
        """Self times of every span under ``root_name`` spans versus their total.

        The two agree by construction when every child lies inside its
        parent; a mismatch means a span escaped the stack discipline.
        """
        if root_name not in self._ids:
            return {"span_s": 0.0, "self_sum_s": 0.0, "by_layer": {}}
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        own = self.self_times()
        root = self.roots()
        top = (parent < 0) & (ids == self._ids[root_name])
        inside = np.isin(root, np.nonzero(top)[0])
        by_layer = {
            name: float(own[inside & (ids == i)].sum())
            for i, name in enumerate(self.names)
            if np.any(inside & (ids == i))
        }
        return {"span_s": float(dur[top].sum()), "self_sum_s": float(own[inside].sum()), "by_layer": by_layer}

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            system=np.frombuffer(self.system, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            raised=np.frombuffer(self.raised, dtype=np.int8),
            work=np.frombuffer(self.work, dtype=np.int64),
        )
