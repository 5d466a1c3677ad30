"""Runtime span tracer for fuscat, installed from outside the package.

``Tracer.install()`` wraps every public module-level function of each
``fuscat`` module, plus ``BlockStructure.expand``, and rebinds each wrapper
in every ``fuscat`` namespace that imported the function, so calls made
through a ``from .x import f`` binding are traced too.  ``FiniteGroup.mul``,
properties and dataclass machinery stay unwrapped: wrapping them would cost
more than the work they do.

Each call records one span (function, parent span, op, start, end) in flat
arrays kept in memory; ``save`` writes them out and ``layer_metrics`` folds
them into per-module counts, inclusive times and self times.  A layer's self
time is its spans' time minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
import types
from array import array

import numpy as np

# Functions whose result the tracer also inspects: enumerate_subcategories
# gives the number of distinct subcategories of the op's ring, the base of
# the wasted-work ratios.
_SUBCATS = "fusion_ring.enumerate_subcategories"


def fuscat_modules() -> list[types.ModuleType]:
    """The ``fuscat`` package and every submodule, imported."""
    import fuscat

    mods = [fuscat]
    for info in pkgutil.iter_modules(fuscat.__path__):
        mods.append(importlib.import_module(f"fuscat.{info.name}"))
    return mods


class Tracer:
    """Records one span per call of a wrapped ``fuscat`` function."""

    def __init__(self) -> None:
        self.names: list[str] = []  # "module.function", indexed by fid
        self.fid = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outermost = array("b")  # 1 if no enclosing span has the same fid
        self.subcats: dict[int, int] = {}  # op id -> subcategories found
        self.current_op = -1
        self._stack: list[int] = []
        self._depth: list[int] = []

    # -- recording -----------------------------------------------------

    def _register(self, name: str) -> int:
        self.names.append(name)
        self._depth.append(0)
        return len(self.names) - 1

    def _wrap(self, func, name: str):
        fid = self._register(name)
        fids, parents, ops = self.fid, self.parent, self.op
        starts, ends, outer = self.start, self.end, self.outermost
        stack, depth = self._stack, self._depth
        clock = time.perf_counter
        observe = name == _SUBCATS
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.current_op)
            outer.append(depth[fid] == 0)
            starts.append(0.0)
            ends.append(0.0)
            depth[fid] += 1
            stack.append(sid)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                stack.pop()
                depth[fid] -= 1
            if observe:
                op = tracer.current_op
                tracer.subcats[op] = max(tracer.subcats.get(op, 0), len(result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function and rebind the wrappers."""
        mods = fuscat_modules()
        wrapped: dict[int, object] = {}
        for mod in mods[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and not name.startswith("_")
                    and obj.__module__ == mod.__name__
                    and obj.__name__ == name
                ):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{name}")
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, name, wrapped[id(obj)])
        from fuscat.wedderburn import BlockStructure

        BlockStructure.expand = self._wrap(BlockStructure.expand, "wedderburn.expand")

    # -- reading -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "fid": np.frombuffer(self.fid, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "outermost": np.frombuffer(self.outermost, dtype=np.int8),
        }

    def save(self, path: str) -> None:
        """Write every span; ``names[fid]`` is the span's ``module.function``."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def counts(self, op: int) -> dict[str, int]:
        """Calls per wrapped function within one op."""
        a = self.arrays()
        per = np.bincount(a["fid"][a["op"] == op], minlength=len(self.names))
        return {self.names[i]: int(n) for i, n in enumerate(per) if n}

    def layer_metrics(self) -> dict[str, float]:
        """Per-module ``calls``/``self_s`` and per-function ``calls``/``s``.

        ``<layer>.<function>.s`` is inclusive time summed over outermost
        calls, so recursion is not counted twice.
        """
        a = self.arrays()
        nf = len(self.names)
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = np.bincount(a["fid"], weights=dur - child, minlength=nf)
        calls = np.bincount(a["fid"], minlength=nf)
        outer = a["outermost"] == 1
        incl = np.bincount(a["fid"][outer], weights=dur[outer], minlength=nf)
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.s"] = float(incl[i])
            out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0) + int(calls[i])
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + float(self_time[i])
        out["subcategories"] = sum(self.subcats.values())
        out["spans"] = int(len(dur))
        return out
