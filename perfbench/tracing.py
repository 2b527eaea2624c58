"""In-memory span tracer installed from outside the program.

`install(tracer)` replaces public functions of the `earring` modules (and two
methods of `earring.curves` classes) by wrappers that record one span per
call: name, start, end, parent span, leading batch size and whether the call
raised.  Because the wrappers replace module and class attributes, calls the
program makes through its own module globals (`qt.mul`, `md.eval_H`, ...) are
recorded too.  Spans stay in flat arrays until `aggregate` turns them into
per-layer statistics and `save` writes them out.

Statistics per traced function:
  calls    spans recorded
  items    elements in the leading batch shape, summed (batched layers only)
  total_s  time inside the outermost call of the function (recursion-safe)
  self_s   span time minus the time covered by child spans
  failed   calls that raised
  ok_frac  useful outcomes / attempts (converged points / points for
           newton_fiber, clean returns / calls elsewhere); 0 when never called
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array

import numpy as np


def _batch_of_quats(out):
    return out.size // 4, 0


def _batch_of_pair(out):
    return np.size(out[0]), 0


def _newton_batch(out):
    _, res, ok = out
    return res.size, int(np.count_nonzero(ok))


# (module, attribute path, item counter or None).  The layers are modules.
TRACED = [
    ("quaternion", "mul", _batch_of_quats),
    ("quaternion", "exp_im", _batch_of_quats),
    ("pillowcase", "corner_dist_chordal", None),
    ("pillowcase", "dist_raw", None),
    ("moduli", "eval_H", _batch_of_pair),
    ("moduli", "eval_F", _batch_of_pair),
    ("moduli", "sample_grid", None),
    ("moduli", "solve_fiber_grid", None),
    ("moduli", "newton_fiber", _newton_batch),
    ("moduli", "corner_margin", None),
    ("moduli", "inner_invariants", None),
    ("curves", "PolylineProjector.project", None),
    ("curves", "Curve.resampled", None),
    ("curves", "to_canonical", None),
    ("correspondence", "count_generalized_points", None),
    ("correspondence", "compose_curve", None),
    ("correspondence", "trace_component", None),
    ("topology", "intersection_number", None),
    ("topology", "classify_homology_fig8", None),
    ("topology", "count_bigons", None),
    ("algebra", "functor_II", None),
    ("algebra", "reduce", None),
    ("algebra", "complex_to_curve", None),
    ("algebra", "curve_to_complex", None),
    ("cli", "main", None),
    ("cli", "counting_matrix", None),
]

# Functions whose `items` are reported; the rest take one object per call.
BATCHED = {f"{m}.{a}" for m, a, count in TRACED if count is not None}
# For these, ok_frac is useful items / items instead of clean calls / calls.
OK_BY_ITEMS = {"moduli.newton_fiber"}


class Tracer:
    """Flat, append-only span store for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.items = array("q")
        self.useful = array("q")
        self.raised = array("b")
        self.outer = array("b")
        self._stack = [-1]
        self._depth = []

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.items.append(0)
        self.useful.append(0)
        self.raised.append(0)
        self.outer.append(self._depth[nid] == 0)
        self.end.append(0.0)
        self._depth[nid] += 1
        self._stack.append(idx)
        self.start.append(self._clock())
        return idx

    def _close(self, idx, nid):
        self.end[idx] = self._clock()
        self._stack.pop()
        self._depth[nid] -= 1

    def wrap(self, fn, name, count=None):
        """Return `fn` wrapped so that each call records one span."""
        nid = self._intern(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[idx] = 1
                raise
            finally:
                tracer._close(idx, nid)
            if count is not None:
                tracer.items[idx], tracer.useful[idx] = count(out)
            return out

        return functools.wraps(fn)(traced)

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around a block (one job)."""
        nid = self._intern(name)
        idx = self._open(nid)
        try:
            yield
        except BaseException:
            self.raised[idx] = 1
            raise
        finally:
            self._close(idx, nid)

    def arrays(self):
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "items": np.array(self.items, dtype=np.int64),
            "useful": np.array(self.useful, dtype=np.int64),
            "raised": np.array(self.raised, dtype=np.int8),
            "outer": np.array(self.outer, dtype=np.int8),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(parent, dur):
    """Span duration minus the summed duration of its direct children."""
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    return dur - covered


def aggregate(tracer):
    """Per-name statistics: {name: {calls, items, total_s, self_s, failed, ok_frac}}."""
    a = tracer.arrays()
    n_names = len(tracer.names)
    nid = a["name_id"]
    dur = a["end"] - a["start"]
    own = self_times(a["parent"], dur)

    def per_name(weights=None):
        return np.bincount(nid, weights=weights, minlength=n_names)

    calls = per_name()
    total = per_name(np.where(a["outer"] == 1, dur, 0.0))
    self_s = per_name(own)
    failed = per_name(a["raised"].astype(float))
    items = per_name(a["items"].astype(float))
    useful = per_name(a["useful"].astype(float))
    stats = {}
    for k, name in enumerate(tracer.names):
        if name in OK_BY_ITEMS:
            ok_frac = useful[k] / items[k] if items[k] else 0.0
        else:
            ok_frac = (calls[k] - failed[k]) / calls[k] if calls[k] else 0.0
        stats[name] = {"calls": int(calls[k]), "items": int(items[k]),
                       "total_s": float(total[k]), "self_s": float(self_s[k]),
                       "failed": int(failed[k]), "ok_frac": float(ok_frac)}
    return stats


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer):
    """Replace every function in TRACED by its traced wrapper."""
    for mod_name, path, count in TRACED:
        owner, attr = _resolve(importlib.import_module(f"earring.{mod_name}"), path)
        wrapped = tracer.wrap(owner.__dict__[attr], f"{mod_name}.{path}", count)
        setattr(owner, attr, wrapped)
