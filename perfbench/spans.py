"""Span recording around the calls between mkrf modules, from outside.

``Tracer.install`` replaces module-level names with timing wrappers and
``Tracer.uninstall`` puts every original object back, so no file of the
program changes.  A wrapped name is one of:

* a function a module of mkrf imported from another one (for example
  ``mkrf.flow.hessian_components`` or ``mkrf.cli.run_flow``); the span is
  named ``<importer>.<function>``, which splits time by caller;
* a public function of ``mkrf.monitors``, which ``flow`` and ``cli`` call
  through the module object (span ``monitors.<function>``);
* ``scipy.sparse.linalg.lgmres``, the Krylov solver ``elliptic`` calls
  (span ``elliptic.lgmres``);
* the few functions named in ``INTERNAL`` that a module calls by its own
  global name, where a count at that boundary is the layer's unit of work.

Spans live in memory as ``[name index, start, end, parent index, extra]``
and are written out once, when the traced process ends.
"""

from __future__ import annotations

import functools
import importlib
import time

LAYERS = ("grid", "geometry", "flow", "monitors", "elliptic", "scenario", "report", "cli")

# module -> functions it calls through its own globals whose count is a unit
# of work: RHS evaluations, Newton line-search trials and solves
INTERNAL = {
    "flow": ("_eval_flow",),
    "elliptic": ("_frame_state", "solve_cy"),
}


def _hessian_bytes(args, result):
    """Computed traffic of one spectral Hessian: input coefficients, the
    stencil product (written, then read by the inverse FFT), output stack."""
    coeffs = args[1]
    k = result.shape[0]
    return coeffs.nbytes * (1 + 2 * k) + result.nbytes


def _newton_iterations(args, result):
    return result[1].iterations


# function name -> hook(args, result) giving the span's "extra" number
EXTRA = {
    "hessian_components": _hessian_bytes,
    "solve_cy": _newton_iterations,
}


def targets(only=None):
    """(owner object, attribute, span name, callee layer) for every name to wrap.

    ``only`` restricts the result to the given span names.
    """
    mods = {m: importlib.import_module(f"mkrf.{m}") for m in LAYERS}
    out = []
    for layer, mod in mods.items():
        for attr, obj in sorted(vars(mod).items()):
            if isinstance(obj, type) or not callable(obj):
                continue
            origin = getattr(obj, "__module__", "") or ""
            if origin.startswith("mkrf.") and origin != mod.__name__:
                out.append((mod, attr, f"{layer}.{attr}", origin[len("mkrf."):]))
        for attr in INTERNAL.get(layer, ()):
            out.append((mod, attr, f"{layer}.{attr}", layer))
    monitors = mods["monitors"]
    for attr, obj in sorted(vars(monitors).items()):
        if (not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
                and obj.__module__ == monitors.__name__):
            out.append((monitors, attr, f"monitors.{attr}", "monitors"))
    spla = importlib.import_module("scipy.sparse.linalg")
    out.append((spla, "lgmres", "elliptic.lgmres", "scipy"))
    if only is not None:
        out = [t for t in out if t[2] in only]
    return out


class Tracer:
    """Wraps names in place and records one span per call."""

    def __init__(self):
        self.names = []     # [span name, callee layer]
        self.spans = []     # [name index, start, end, parent index, extra]
        self._stack = []
        self._saved = []    # (owner, attribute, original object)

    def install(self, only=None):
        for owner, attr, name, callee in targets(only):
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            self.names.append([name, callee])
            setattr(owner, attr, self._wrap(original, len(self.names) - 1,
                                            EXTRA.get(attr)))
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name_idx, extra_hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name_idx, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if extra_hook is not None:
                    span[4] = extra_hook(args, result)
                return result
            finally:
                stack.pop()
                span[2] = clock()

        return functools.wraps(fn)(traced)

    def record(self):
        return {"names": self.names, "spans": self.spans}
