"""Layer spans for the traced benchmark run.

Every call that crosses from one symfreq module into another is wrapped in
the caller's namespace, so each layer's internal calls stay untouched and
unmeasured.  A name imported with ``from .x import f`` is replaced in the
caller module; a module used as ``x.f`` (``from . import x``) is replaced in
the caller by a namespace whose functions are wrapped.  Spans are kept in
memory as (layer, name, start, end, parent, op, extra) records and written
out when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
import types

#: The symfreq modules measured as layers, in the order they are reported.
LAYERS = ("balls", "frequencies", "cli", "cyclotomic", "lll", "linalg", "relations", "solver")

# Record fields.
LAYER, NAME, START, END, PARENT, OP, EXTRA = range(7)


def _layer_functions(module) -> dict:
    """Functions and cached functions defined in a module (no classes)."""
    return {
        name: value
        for name, value in vars(module).items()
        if callable(value)
        and not isinstance(value, type)
        and getattr(value, "__module__", None) == module.__name__
    }


def _observe_verify(args, kwargs, result):
    # the exponent mass is computed from the form after the run
    return (bool(result), args[1])


def _observe_lll(args, kwargs, result):
    return len(args[0])


def _observe_discovery(args, kwargs, report):
    heavy = sum("coefficient mass" in w for w in report.warnings)
    return (report.evidence["passes"], heavy)


#: Extra data recorded for some spans, keyed by (layer, function name).
OBSERVERS = {
    ("cyclotomic", "verify_u_relation"): _observe_verify,
    ("lll", "lll_reduce"): _observe_lll,
    ("solver", "discover_relations"): _observe_discovery,
}


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = self.clock
        observe = OBSERVERS.get((layer, name))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if observe is not None:
                rec[EXTRA] = observe(args, kwargs, result)
            return result

        return traced

    def _set(self, obj, name: str, value):
        self._patches.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def _proxy(self, layer: str, module):
        ns = types.SimpleNamespace(**vars(module))
        for name, fn in _layer_functions(module).items():
            setattr(ns, name, self.wrap(layer, name, fn))
        return ns

    def install(self, modules: dict):
        """Patch every cross-layer name in the given {layer: module} map."""
        by_name = {mod.__name__: layer for layer, mod in modules.items()}
        for caller, mod in modules.items():
            for name, value in list(vars(mod).items()):
                if isinstance(value, types.ModuleType):
                    layer = by_name.get(value.__name__)
                    if layer is not None and value is not mod:
                        self._set(mod, name, self._proxy(layer, value))
                    continue
                if isinstance(value, type) or not callable(value):
                    continue
                layer = by_name.get(getattr(value, "__module__", None))
                if layer is not None and layer != caller:
                    self._set(mod, name, self.wrap(layer, name, value))
        # the scan calls discovery inside the solver; its report carries the
        # pass count and the skipped-candidate warnings
        solver = modules["solver"]
        self._set(solver, "discover_relations",
                  self.wrap("solver", "discover_relations", solver.discover_relations))

    def uninstall(self):
        while self._patches:
            obj, name, old = self._patches.pop()
            setattr(obj, name, old)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                extra = rec[EXTRA]
                if (rec[LAYER], rec[NAME]) == ("cyclotomic", "verify_u_relation"):
                    extra = extra[0]  # the verdict; the form is not written
                fh.write(json.dumps(rec[:EXTRA] + [extra]) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= rec[END] - rec[START]
    return out


def layer_metrics(spans, exponent_mass) -> dict[str, float]:
    """Per-layer counts and self times; exponent_mass(form) -> sum |e_k|."""
    selfs = self_times(spans)
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    by_name: dict[tuple[str, str], float] = {}
    accept_s = reject_s = 0.0
    verifies = accepted = mass = dims = rrefs = 0
    candidates = candidates_ok = passes = heavy = 0
    for rec, own in zip(spans, selfs):
        layer, name = rec[LAYER], rec[NAME]
        calls[layer] += 1
        self_s[layer] += own
        by_name[layer, name] = by_name.get((layer, name), 0.0) + own
        if layer == "cyclotomic" and name == "verify_u_relation":
            ok, form = rec[EXTRA]
            verifies += 1
            mass += exponent_mass(form)
            accepted += ok
            if ok:
                accept_s += own
            else:
                reject_s += own
            if rec[PARENT] >= 0 and spans[rec[PARENT]][LAYER] == "solver":
                candidates += 1
                candidates_ok += ok
        elif layer == "lll" and name == "lll_reduce":
            dims += rec[EXTRA]
        elif layer == "linalg" and name == "rref":
            rrefs += 1
        elif layer == "solver" and name == "discover_relations":
            passes += rec[EXTRA][0]
            heavy += rec[EXTRA][1]
    out = {}
    for layer in LAYERS:
        if layer == "linalg":
            out["linalg.rref_calls"] = rrefs
        else:
            out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    out["balls.sin_self_s"] = by_name.get(("balls", "sin_pi_rational"), 0.0)
    out["balls.log_self_s"] = by_name.get(("balls", "ln_ball"), 0.0) + by_name.get(("balls", "log2_ball"), 0.0)
    out["balls.lgamma_self_s"] = by_name.get(("balls", "lgamma_ball"), 0.0)
    out["cyclotomic.accept_self_s"] = accept_s
    out["cyclotomic.reject_self_s"] = reject_s
    out["cyclotomic.exponent_mass"] = mass
    out["cyclotomic.accept_ratio"] = accepted / verifies if verifies else 0.0
    out["lll.dim_sum"] = dims
    out["solver.candidates"] = candidates
    out["solver.certify_yield"] = candidates_ok / candidates if candidates else 0.0
    out["solver.skipped_heavy"] = heavy
    out["solver.passes"] = passes
    return out
