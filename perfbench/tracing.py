"""Span tracing and FFT accounting, installed from outside the program.

A ``Tracer`` wraps the public functions of each layer module of casimir_lab
and rebinds every name that refers to them in every loaded casimir_lab
module (``from .fluid import euler_evolve`` in verify, ``from .forms3 import
d`` in fluid, ``SUITES`` in verify, ...), so each call opens a span no matter
how the caller reached the function.  Leaving the ``with`` block restores
the original bindings.

Each span records name, start, end, parent span and run id (the index of
the workload unit it belongs to), whether it raised, an optional work count
(time steps) and the FFT calls and points made while it was the innermost
open span.

FFTs are counted at the public entry points of ``numpy.fft`` and
``scipy.fft`` (one count per ``rfftn``/``irfft``/... call, not per internal
1-D pocketfft pass).  Points computed are input elements times axes
transformed; they are a computed operation count, not measured traffic.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time

# Layer name -> module under casimir_lab.  A layer's spans are named
# "<layer>.<function>".
LAYERS = {
    "forms3.grid": "casimir_lab.forms3.grid",
    "forms3.calculus": "casimir_lab.forms3.calculus",
    "forms3.transport": "casimir_lab.forms3.transport",
    "forms3.sampling": "casimir_lab.forms3.sampling",
    "forms3.randfields": "casimir_lab.forms3.randfields",
    "fluid": "casimir_lab.fluid",
    "foliation": "casimir_lab.foliation",
    "rattleback": "casimir_lab.rattleback",
    "kernels": "casimir_lab.kernels",
    "verify": "casimir_lab.verify",
}

# Layers whose public names are aliases of each other (kernels exports the
# same loop as rk4_loop and rk4_loop_py); these list the names to span.
EXPLICIT = {
    "kernels": {"rk4_loop": "rk4_loop", "rk45_loop": "rk45_loop", "trig_eval": "trig_eval"},
}

# Private functions that mark a boundary worth a span of its own: one RK4
# step of 1-form transport.
PRIVATE = {
    "forms3.transport": {"_rk4_step": "step"},
}

FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
             "fft2", "ifft2", "rfft2", "irfft2",
             "fftn", "ifftn", "rfftn", "irfftn")


def _n_steps(t_final, dt):
    return int(math.ceil(t_final / dt - 1e-12))


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


# Time steps taken by one call, read from the public arguments.
def _euler_steps(fn, args, kwargs):
    a = _bound(fn, args, kwargs)
    return _n_steps(a["t_final"], a["dt"])


def _transport_steps(fn, args, kwargs):
    a = _bound(fn, args, kwargs)
    if not float(abs(a["u"].data).max()) > 0.0:
        return 0
    return _n_steps(a["t_final"], a["dt"])


def _rk4_loop_steps(fn, args, kwargs):
    return int(args[5])


WORK = {
    "fluid.euler_evolve": _euler_steps,
    "forms3.transport.transport": _transport_steps,
    "kernels.rk4_loop": _rk4_loop_steps,
}

# span fields
NAME, START, END, PARENT, RUN, ERR, WORKCOUNT, FFT_CALLS, FFT_POINTS = range(9)


def layer_functions(layer, module):
    """(span name, attribute name) pairs for one layer module."""
    if layer in EXPLICIT:
        return [(f"{layer}.{span}", attr) for attr, span in EXPLICIT[layer].items()]
    out = [(f"{layer}.{name}", name) for name, obj in vars(module).items()
           if not name.startswith("_") and inspect.isfunction(obj)
           and obj.__module__ == module.__name__]
    out += [(f"{layer}.{span}", attr) for attr, span in PRIVATE.get(layer, {}).items()
            if hasattr(module, attr)]
    return out


def _fft_points(name, args, kwargs):
    """Input elements times axes transformed."""
    import numpy as np
    a = np.asarray(args[0] if args else kwargs.get("a", kwargs.get("x")))
    if not name.endswith(("2", "n")):
        return a.size
    axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
    shape = kwargs.get("s", args[1] if len(args) > 1 else None)
    if axes is not None:
        return a.size * len(axes)
    if shape is not None:
        return a.size * len(shape)
    return a.size * (2 if name.endswith("2") else a.ndim)


class Patch:
    """Rebinds names and undoes every rebinding on exit."""

    def __init__(self):
        self._undo = []

    def set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def rebind_everywhere(self, orig, replacement):
        """Point every casimir_lab module attribute (and module-level dict
        value) that is ``orig`` at ``replacement``."""
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == "casimir_lab" or mname.startswith("casimir_lab.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self.set(mod, key, replacement)
                elif type(val) is dict:
                    for dkey, dval in list(val.items()):
                        if dval is orig:
                            self.set(val, dkey, replacement)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        return False


class Tracer(Patch):
    """Installs span and FFT wrappers on entry; removes them on exit."""

    def __init__(self):
        super().__init__()
        self.spans = []
        self.stack = []
        self.run_id = 0
        self.fft_calls = 0
        self.fft_points = 0

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        work = WORK.get(name)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, False,
                   work(fn, args, kwargs) if work else 0, 0, 0]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[ERR] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _fft_wrapper(self, name, fn):
        spans, stack = self.spans, self.stack

        def counted(*args, **kwargs):
            points = _fft_points(name, args, kwargs)
            self.fft_calls += 1
            self.fft_points += points
            if stack:
                rec = spans[stack[-1]]
                rec[FFT_CALLS] += 1
                rec[FFT_POINTS] += points
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def __enter__(self):
        for layer, modname in LAYERS.items():
            module = importlib.import_module(modname)
            for span, attr in layer_functions(layer, module):
                orig = getattr(module, attr)
                self.rebind_everywhere(orig, self._span_wrapper(span, orig))
        from casimir_lab.foliation import FoliatedState
        cm = vars(FoliatedState)["from_alpha"]
        self.set(FoliatedState, "from_alpha",
                 classmethod(self._span_wrapper("foliation.from_alpha", cm.__func__)))
        for fftmod in _fft_modules():
            for name in FFT_NAMES:
                if hasattr(fftmod, name):
                    self.set(fftmod, name, self._fft_wrapper(name, getattr(fftmod, name)))
        return self


class AllocPeak(Patch):
    """Peak bytes tracemalloc sees inside each call of one function.

    tracemalloc runs only inside the wrapped calls, and slows them a lot
    (the interpreted rk45 loop by about 50x): never use it in a timed pass.
    """

    def __init__(self, module, attr):
        super().__init__()
        self.module, self.attr = module, attr
        self.peak_bytes = 0

    def __enter__(self):
        import tracemalloc
        orig = getattr(self.module, self.attr)

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return orig(*args, **kwargs)
            finally:
                self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        self.rebind_everywhere(orig, measured)
        return self


def _fft_modules():
    import numpy.fft
    mods = [numpy.fft]
    try:
        import scipy.fft
    except ImportError:
        return mods
    return mods + [scipy.fft]


# ---------------------------------------------------------------------------
# Deriving per-layer numbers from the spans
# ---------------------------------------------------------------------------

def summarize(spans):
    """Per span name: calls, total_s (outermost calls only), self_s, errors,
    work count and FFT calls/points made directly inside it."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    by_name = {}
    for idx, rec in enumerate(spans):
        s = by_name.setdefault(rec[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                           "errors": 0, "work": 0, "fft_calls": 0,
                                           "fft_points": 0, "durations": []})
        dur = rec[END] - rec[START]
        s["calls"] += 1
        s["self_s"] += dur - child_time[idx]
        s["errors"] += rec[ERR]
        s["work"] += rec[WORKCOUNT]
        s["fft_calls"] += rec[FFT_CALLS]
        s["fft_points"] += rec[FFT_POINTS]
        s["durations"].append(dur)
        if not _has_ancestor(spans, idx, lambda r: r[NAME] == rec[NAME]):
            s["total_s"] += dur
    return by_name


def layer_totals(spans):
    """Per layer: time inside its outermost spans (nested same-layer calls
    are not counted twice)."""
    totals = {}
    for idx, rec in enumerate(spans):
        layer = span_layer(rec[NAME])
        if not _has_ancestor(spans, idx, lambda r: span_layer(r[NAME]) == layer):
            totals[layer] = totals.get(layer, 0.0) + rec[END] - rec[START]
    return totals


def layer_self_times(summary):
    """Per layer: the sum of its spans' self times, from ``summarize``."""
    out = {}
    for name, s in summary.items():
        layer = span_layer(name)
        out[layer] = out.get(layer, 0.0) + s["self_s"]
    return out


def span_layer(name):
    return next(layer for layer in LAYERS if name.startswith(layer + "."))


def _has_ancestor(spans, idx, pred):
    parent = spans[idx][PARENT]
    while parent >= 0:
        if pred(spans[parent]):
            return True
        parent = spans[parent][PARENT]
    return False


def percentile(values, q):
    """Linear-interpolated percentile (0 for no values)."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
