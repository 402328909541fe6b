"""Per-layer tracing of newtcomm, installed from outside the package.

``install()`` wraps the public functions and ring operators of each layer
(the modules of ``src/newtcomm``).  Every wrapped call records a span --
name, start, end, parent span and job id -- in flat arrays that stay in
memory until the pass ends.  ``Tracer.report()`` then turns them into
per-layer self times (a span's duration minus the time its child spans
cover), call counts and size counters.

A name the package no longer has is skipped, so its metrics read zero
calls.  Each function object is wrapped once and rebound wherever the
package refers to it: a name re-exported from another module,
``__radd__ = __add__``, or one class bound to two names is counted once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from array import array
from typing import Any, Callable

PACKAGE = "newtcomm"

# (span name, module, function name, counter hook or None)
FUNCTIONS = (
    ("linsolve.rref", "linsolve", "rref", "rref"),
    ("linsolve.nullspace", "linsolve", "nullspace", None),
    ("commutant.solve_commutant", "commutant", "solve_commutant", None),
    ("commutant.expand_level", "commutant", "expand_level", None),
    ("commutant.decompose_in_H", "commutant", "decompose_in_H", None),
    ("parity.solve_system", "parity", "solve_system", None),
    ("parity.check_lemma_suite", "parity", "check_lemma_suite", None),
    ("obstruction.build_obstruction", "obstruction", "build_obstruction", None),
    ("obstruction.rational_roots", "obstruction", "rational_roots", "roots"),
    ("family.build_family", "family", "build_family", None),
    ("family.pm_witness", "family", "pm_witness", None),
    ("flows.companion_for_linear", "flows", "companion_for_linear", None),
    ("flows.rk4_flow", "flows", "rk4_flow", "rk4"),
    ("flows.adaptive_simpson", "flows", "adaptive_simpson", "quad"),
    ("flows.rectification_defect", "flows", "rectification_defect", None),
    ("parsing", "parsing", "parse_bipoly", None),
    ("parsing", "parsing", "parse_unipoly", None),
    ("parsing", "parsing", "parse_laurent", None),
    ("parsing", "parsing", "parse_laurent_bipoly", None),
)

# (layer, module, classes, {operation: method names})
RING_OPS = {"mul": ("__mul__", "__rmul__"),
            "add": ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"),
            "pow": ("__pow__",)}
CLASSES = (
    ("poly", "poly", ("UniPoly", "BiPoly"), RING_OPS),
    ("laurentpoly", "laurentpoly", ("LaurentPoly", "LaurentBiPoly"), RING_OPS),
    ("derivations", "derivations", ("PlanarDerivation", "LaurentDerivation"),
     {"bracket": ("bracket",), "apply": ("apply",)}),
)

SPANS = tuple(dict.fromkeys(
    [name for name, *_ in FUNCTIONS]
    + [f"{layer}.{op}" for layer, _, _, ops in CLASSES for op in ops]))

COUNTERS = ("linsolve.rows", "linsolve.cols", "linsolve.nnz_in", "linsolve.nnz_out",
            "linsolve.rank", "obstruction.candidates", "obstruction.roots_found",
            "poly.call.calls", "flows.rk4_steps", "flows.quad_evals")
MAXIMA = ("linsolve.max_coeff_bits", "obstruction.a0_bits", "obstruction.content_bits",
          "poly.max_coeff_bits")

HOOK_SPAN = "trace.hooks"  # counter bookkeeping, kept out of every layer's self time


def rebind(original: Any, replacement: Any) -> None:
    """Point every name in the loaded package that is `original` at `replacement`."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _poly_bits(p) -> int:
    """Largest coefficient bit length of a UniPoly or BiPoly value."""
    rows = getattr(p, "ycoeffs", None)
    best = 0
    for u in (rows if rows is not None else (p,)):
        for c in getattr(u, "coeffs", ()):
            b = _bits(c)
            if b > best:
                best = b
    return best


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.top = -1
        self.job_id = -1
        self.active = False
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.maxima = dict.fromkeys(MAXIMA, 0)
        self._hook_id = self._intern(HOOK_SPAN)

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, ix: int) -> int:
        i = len(self.start)
        self.name_of.append(ix)
        self.parent.append(self.top)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.top = i
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.top = self.parent[i]

    def span(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        """Wrap fn in a span.  `before(args, kwargs)` may rewrite the
        arguments and `after(args, kwargs, result, span)` records counters;
        both run inside a hook span so their cost is nobody's self time."""
        ix = self._intern(name)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            if before is not None:
                h = tr._open(tr._hook_id)
                args, kwargs = before(args, kwargs)
                tr._close(h)
            i = tr._open(ix)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr._close(i)
            if after is not None:
                h = tr._open(tr._hook_id)
                after(args, kwargs, result, i)
                tr._close(h)
            return result
        return traced

    def add(self, name: str, n: int) -> None:
        self.counts[name] += n

    def at_least(self, name: str, v: int) -> None:
        if v > self.maxima[name]:
            self.maxima[name] = v

    def report(self) -> dict[str, float]:
        n = len(self.start)
        covered = array("d", bytes(8 * n))
        start, end, parent, name_of = self.start, self.end, self.parent, self.name_of
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for i in range(n):
            k = name_of[i]
            self_s[k] += end[i] - start[i] - covered[i]
            calls[k] += 1
        out: dict[str, float] = {"trace.spans": n}
        for name in SPANS:
            k = self._ids.get(name)
            out[f"{name}.self_s"] = self_s[k] if k is not None else 0.0
            out[f"{name}.calls"] = calls[k] if k is not None else 0
        out.update(self.counts)
        out.update(self.maxima)
        nnz_in = self.counts["linsolve.nnz_in"]
        out["linsolve.fill_in"] = self.counts["linsolve.nnz_out"] / nnz_in if nnz_in else 0.0
        return out


def _arguments(fn: Callable) -> Callable[[tuple, dict], dict]:
    """Map a call's (args, kwargs) to {parameter: value}; {} if it no longer binds."""
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        return lambda args, kwargs: {}

    def bind(args, kwargs):
        try:
            return sig.bind(*args, **kwargs).arguments
        except TypeError:
            return {}
    return bind


def _hooks(tr: Tracer, kind: str, fn: Callable):
    """(before, after) counter hooks for one wrapped function."""
    arguments = _arguments(fn)

    if kind == "rref":
        def after(args, kwargs, result, _span):
            a = arguments(args, kwargs)
            rows, ncols = a.get("rows"), a.get("ncols")
            if rows is None or ncols is None:
                return
            pivot_rows, pivot_cols = result
            tr.add("linsolve.rows", len(rows))
            tr.add("linsolve.cols", ncols)
            tr.add("linsolve.nnz_in", sum(len(r) for r in rows))
            tr.add("linsolve.nnz_out", sum(len(r) for r in pivot_rows))
            tr.add("linsolve.rank", len(pivot_cols))
            tr.at_least("linsolve.max_coeff_bits",
                        max((_bits(v) for r in pivot_rows for v in r.values()), default=0))
        return None, after

    if kind == "roots":
        def after(args, kwargs, result, _span):
            tr.add("obstruction.roots_found", len(result))
            coeffs = list(getattr(arguments(args, kwargs).get("p"), "coeffs", ()))
            while coeffs and coeffs[0] == 0:
                coeffs.pop(0)
            if not coeffs:
                return
            den = math.lcm(*(c.denominator for c in coeffs))
            ints = [c.numerator * (den // c.denominator) for c in coeffs]
            tr.at_least("obstruction.a0_bits", ints[0].bit_length())
            tr.at_least("obstruction.content_bits", math.gcd(*ints).bit_length())
        return None, after

    if kind == "rk4":
        def after(args, kwargs, result, _span):
            steps = arguments(args, kwargs).get("steps")
            if isinstance(steps, int):
                tr.add("flows.rk4_steps", steps)
        return None, after

    if kind == "quad":
        def before(args, kwargs):
            a = arguments(args, kwargs)
            integrand = a.get("fn")
            if integrand is None:
                return args, kwargs

            def counted(v):
                tr.counts["flows.quad_evals"] += 1
                return integrand(v)
            a["fn"] = counted
            return (), dict(a)
        return before, None

    raise ValueError(f"unknown counter hook {kind!r}")


def install() -> Tracer:
    """Wrap every layer of the imported package; returns the inactive tracer."""
    tr = Tracer()
    done: dict[int, Callable] = {}

    def module(name: str):
        try:
            return importlib.import_module(f"{PACKAGE}.{name}")
        except ModuleNotFoundError:
            return None

    for span_name, modname, attr, hook in FUNCTIONS:
        fn = getattr(module(modname), attr, None)
        if not callable(fn) or id(fn) in done:
            continue
        before, after = _hooks(tr, hook, fn) if hook else (None, None)
        done[id(fn)] = tr.span(span_name, fn, before, after)
        rebind(fn, done[id(fn)])

    seen_classes: set[int] = set()
    for layer, modname, classnames, ops in CLASSES:
        mod = module(modname)
        for cname in classnames:
            cls = getattr(mod, cname, None)
            if not isinstance(cls, type) or id(cls) in seen_classes:
                continue
            seen_classes.add(id(cls))
            for op, attrs in ops.items():
                for attr in attrs:
                    fn = cls.__dict__.get(attr)
                    if fn is None:
                        continue
                    if id(fn) not in done:
                        after = _ring_bits_hook(tr, layer) if layer == "poly" and op != "add" else None
                        done[id(fn)] = tr.span(f"{layer}.{op}", fn, None, after)
                    setattr(cls, attr, done[id(fn)])
            if layer == "poly" and "__call__" in cls.__dict__:
                _count_calls(tr, cls)
    return tr


def _ring_bits_hook(tr: Tracer, layer: str):
    """poly.max_coeff_bits over results of outermost products and powers."""
    prefix = layer + "."

    def after(args, kwargs, result, span):
        p = tr.parent[span]
        if p < 0 or not tr.names[tr.name_of[p]].startswith(prefix):
            tr.at_least("poly.max_coeff_bits", _poly_bits(result))
    return after


def _count_calls(tr: Tracer, cls: type) -> None:
    """Count evaluations p(v); those made by rational_roots itself are its
    candidates."""
    fn = cls.__dict__["__call__"]
    roots = tr._intern("obstruction.rational_roots")

    @functools.wraps(fn)
    def counted(self, v):
        if tr.active:
            tr.counts["poly.call.calls"] += 1
            if tr.top >= 0 and tr.name_of[tr.top] == roots:
                tr.counts["obstruction.candidates"] += 1
        return fn(self, v)
    cls.__call__ = counted
