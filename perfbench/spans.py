"""Layer attribution from outside the program: wrappers, spans, self time.

The benchmark measures each layer without touching the program's
source.  :func:`install` replaces the attributes that callers actually
look up (``scipy.linalg.lu_factor``, ``repro.mpde.mpde_core.robust_gmres``,
``MNASystem.f`` on the class, ...) with thin wrappers that record one
in-memory span per call, and :meth:`Patches.remove` puts every original
back.  Spans carry ``(layer, start, end, parent, op)``; at the end of
each op they are folded into per-layer *self time* (span time minus the
time its child spans cover) and the span list is dropped, so memory
stays bounded by one op.

Process-backend sweep workers are forked from the parent while the
wrappers are installed, so they inherit both the wrappers and the
recorder; a worker resets the recorder at the start of each task and
ships the folded totals back with the result.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Name of the span that encloses one whole op; its self time is the
#: part of the op no wrapped layer accounts for.
OP = "bench.op"


def _gmres_iters(out) -> int:
    rep = getattr(out, "report", None)
    return rep.total_iterations if rep is not None else out.iterations


#: (layer, "module:attr[.attr]", counters).  ``layer=None`` means the
#: wrapper only counts and opens no span.  A counter is
#: ``(metric, fn(result) -> number)`` or ``(metric, None)`` for one per call.
TARGETS: Tuple[Tuple[Optional[str], str, tuple], ...] = (
    ("linalg.dense_factor", "scipy.linalg:lu_factor", ()),
    ("linalg.dense_solve", "scipy.linalg:lu_solve", ()),
    ("mpde.fft", "repro.mpde.grid:MPDEGrid.apply_derivative", ()),
    ("mpde.fft", "numpy.fft:fftn", ()),
    ("mpde.fft", "numpy.fft:ifftn", ()),
    ("linalg.gmres", "repro.mpde.mpde_core:robust_gmres",
     (("linalg.gmres_iters", _gmres_iters),)),
    ("linalg.gmres", "repro.robust.krylov:gmres", ()),
    ("netlist.eval", "repro.netlist.mna:MNASystem.f", ()),
    ("netlist.eval", "repro.netlist.mna:MNASystem.q", ()),
    ("netlist.eval", "repro.netlist.mna:MNASystem.G", ()),
    ("netlist.eval", "repro.netlist.mna:MNASystem.C", ()),
    ("netlist.eval", "repro.netlist.mna:MNASystem.batch_fq", ()),
    ("netlist.eval", "repro.netlist.mna:MNASystem.batch_jacobians", ()),
    ("linalg.newton", "repro.analysis.transient:newton_solve",
     (("linalg.newton_iters", lambda r: r.iterations),)),
    ("linalg.newton", "repro.analysis.dc:newton_solve",
     (("linalg.newton_iters", lambda r: r.iterations),)),
    ("linalg.sparse_factor", "scipy.sparse.linalg:splu", ()),
    ("linalg.sparse_factor", "scipy.sparse.linalg:spsolve", ()),
    ("linalg.sparse_factor", "repro.perf.factorcache:make_factor_solver", ()),
    ("serve.wal_replay", "repro.serve.wal:WriteAheadLog.replay",
     (("serve.wal_lines_replayed", lambda r: len(r[0])),)),
    ("serve.wal_append", "repro.serve.wal:WriteAheadLog.append", ()),
    ("serve.store_put", "repro.serve.store:ResultStore.put", ()),
    ("serve.store_get", "repro.serve.store:ResultStore.get", ()),
    ("serve.store_get", "repro.serve.store:ResultStore.has", ()),
    ("serve.submit", "repro.serve.service:SimulationService.submit", ()),
    ("serve.drain", "repro.serve.service:SimulationService.drain", ()),
    ("serve.result", "repro.serve.service:SimulationService.result", ()),
    (None, "repro.serve.worker:run_job", (("serve.solves", None),)),
    ("validate.lint", "repro.validate:lint_text", ()),
    ("validate.lint", "repro.validate:preflight", ()),
    ("validate.lint", "repro.analysis.dc:preflight", ()),
    ("validate.lint", "repro.analysis.transient:preflight", ()),
    ("validate.lint", "repro.mpde.mpde_core:preflight", ()),
    ("netlist.parse", "repro.serve.runner:parse_netlist", ()),
    ("netlist.parse", "repro.validate:parse_netlist", ()),
    ("netlist.compile", "repro.netlist.circuit:Circuit.compile", ()),
)

#: Every layer a span can be attributed to, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS if t[0]))


def self_times(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Per-layer self time of a span list.

    Each span is ``(layer, start, end, parent, op)`` with ``parent`` the
    index of the enclosing span in the same list (``-1`` for a root).
    A span's self time is its duration minus the summed durations of
    its direct children; summing self times over all spans gives back
    the roots' total duration.
    """
    child = [0.0] * len(spans)
    for layer, start, end, parent, _op in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Dict[str, float] = {}
    for i, (layer, start, end, _parent, _op) in enumerate(spans):
        out[layer] = out.get(layer, 0.0) + (end - start) - child[i]
    return out


class Recorder:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self._depth: Dict[str, int] = {}
        self.op_id = -1
        #: folded totals: layer self seconds, outermost calls per layer,
        #: counter sums, and how often each wrapper target fired
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        self.fired: Dict[str, int] = {}
        self.op_wall = 0.0
        self.ops = 0

    # -- spans ---------------------------------------------------------
    def open(self, layer: str) -> int:
        depth = self._depth.get(layer, 0)
        if depth == 0:
            self.calls[layer] = self.calls.get(layer, 0) + 1
        self._depth[layer] = depth + 1
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([layer, time.perf_counter(), 0.0, parent, self.op_id])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self.stack.pop()
        self._depth[span[0]] -= 1

    def count(self, metric: str, n) -> None:
        self.counts[metric] = self.counts.get(metric, 0) + n

    def begin_op(self, op_id: int) -> int:
        if self.stack:
            raise RuntimeError("op started inside an open span")
        self.op_id = op_id
        return self.open(OP)

    def end_op(self, idx: int) -> None:
        self.close(idx)
        span = self.spans[idx]
        self.op_wall += span[2] - span[1]
        self.ops += 1
        for layer, s in self_times(self.spans).items():
            self.self_s[layer] = self.self_s.get(layer, 0.0) + s
        self.spans = []

    # -- shipping totals across processes ------------------------------
    def totals(self) -> dict:
        return {
            "self_s": dict(self.self_s), "calls": dict(self.calls),
            "counts": dict(self.counts), "fired": dict(self.fired),
            "op_wall": self.op_wall, "ops": self.ops,
        }

    def absorb(self, totals: dict) -> None:
        for key in ("self_s", "calls", "counts", "fired"):
            mine = getattr(self, key)
            for k, v in totals[key].items():
                mine[k] = mine.get(k, 0) + v
        self.op_wall += totals["op_wall"]
        self.ops += totals["ops"]


def _wrap(rec: Recorder, layer: Optional[str], target: str,
          counters: tuple, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.stack:  # outside an op: neither timed nor counted
            return fn(*args, **kwargs)
        rec.fired[target] = rec.fired.get(target, 0) + 1
        if layer is None:
            out = fn(*args, **kwargs)
        else:
            idx = rec.open(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(idx)
        for metric, value in counters:
            rec.count(metric, 1 if value is None else value(out))
        return out

    return wrapper


def _resolve(target: str):
    """(owner object, attribute name) that ``target`` names."""
    mod_name, _, path = target.partition(":")
    owner = importlib.import_module(mod_name)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class Patches:
    """Installed wrappers; :meth:`remove` restores every original."""

    def __init__(self, saved: list) -> None:
        self._saved = saved

    def remove(self) -> None:
        global _current
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []
        _current = None


#: The recorder whose wrappers are installed in this process (forked
#: sweep workers inherit it), or None.
_current: Optional[Recorder] = None


def install(recorder: Recorder) -> Patches:
    """Wrap every target in :data:`TARGETS`, recording into ``recorder``."""
    global _current
    if _current is not None:
        raise RuntimeError("layer wrappers are already installed")
    saved = []
    try:
        for layer, target, counters in TARGETS:
            owner, attr = _resolve(target)
            # a class attribute is read from the class's own dict, so a
            # method that moved to a base class fails loudly here
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, _wrap(recorder, layer, target, counters, original))
            saved.append((owner, attr, original))
    except BaseException:
        Patches(saved).remove()
        raise
    _current = recorder
    return Patches(saved)


def current() -> Optional[Recorder]:
    """The installed recorder in this process, or None."""
    return _current
