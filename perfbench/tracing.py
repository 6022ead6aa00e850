"""In-memory spans and counts around frobq's public functions.

The benchmark never edits the package.  `install` replaces chosen functions
and methods, in every loaded ``frobq`` module that holds them, with wrappers
that record a span (name, start, end, parent, task) or bump a counter.  Spans
live in a list until the run writes them out; `pass_metrics` turns the spans
and counts of one pass over the task list into the per-layer metrics.

Counts marked exact in EXACT_COUNTS depend only on the task list, never on
timing, so two traced runs with the same seed must report them identically.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# Per-layer times, in seconds per pass over the task list.
TIME_METRICS = (
    "qseries.product_from_spec.self_s", "qseries.inverse.s", "qseries.mul.s",
    "qseries.euler_product.s", "qseries.bivar_mul.s", "qseries.self_s",
    "theorems.theta.self_s", "theorems.psi2.s", "theorems.self_s",
    "frobenius.bivar.self_s", "frobenius.enumerate.s", "frobenius.self_s",
    "congruence.scan.s", "congruence.self_s",
    "cli.startup.s", "cli.expand.s", "cli.enumerate.s", "cli.theorem.s", "cli.verify.s",
    "cli.scan.s", "cli.identities.s", "cli.self_s",
)
EXACT_COUNTS = (
    "qseries.factors_applied", "qseries.inverse.calls", "qseries.inverse.terms",
    "qseries.mul.calls", "qseries.bivar_mul.calls", "qseries.bivar_rows",
    "theorems.lattice.visited", "theorems.lattice.kept",
    "exactring.cycint_mul.calls", "exactring.zeta_pow.calls",
    "frobenius.bivar.zwindow", "frobenius.arrays_built",
    "congruence.cells", "congruence.witnesses", "congruence.claims_verified",
)
LAYERS = ("qseries", "theorems", "frobenius", "congruence", "cli")

# Spans whose inclusive time is reported; a span nested in another span of
# the same name is not counted twice.
_INCLUSIVE = {name: name + ".s" for name in (
    "qseries.inverse", "qseries.mul", "qseries.euler_product", "qseries.bivar_mul",
    "theorems.psi2", "frobenius.enumerate", "congruence.scan", "cli.startup")}
_SELF = {name: name + ".self_s" for name in (
    "qseries.product_from_spec", "theorems.theta", "frobenius.bivar")}
CLI_SUBCOMMANDS = ("expand", "enumerate", "theorem", "verify", "scan", "identities")


class Tracer:
    """Spans as [name, start, end, parent_index, task] lists, plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.task = None
        self._stack: list[int] = []
        self._theta_order: int | None = None
        self._bivar_window = 0

    def begin(self, name: str, start: float | None = None) -> None:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter() if start is None else start,
                           None, parent, self.task])

    def end(self, end: float | None = None) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter() if end is None else end

    def adopt(self, spans: list[list], counts: dict) -> None:
        """Graft spans recorded by a child process under the open span."""
        offset = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for name, start, end, p, _ in spans:
            self.spans.append([name, start, end, parent if p is None else p + offset, self.task])
        self.counts.update(counts)


def _spanned(tracer: Tracer, name: str, fn, after=None, before=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if after is not None:
            after(args, kwargs, result)
        return result
    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _factors_applied(spec, order: int) -> int:
    # binomial passes the literal expansion performs: one per factor, per
    # exponent unit, for every n >= 1 with period*n - residue <= order
    return sum(abs(f.exponent) * ((order + f.residue) // f.period) for f in spec.factors)


def _replace_everywhere(old, new, undo: list) -> None:
    # from-imports copy the function object into other frobq modules
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "frobq" or mod_name.startswith("frobq.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
                undo.append((mod, attr, old))


def install(tracer: Tracer):
    """Wrap the layer boundaries of the already-imported frobq package.

    Returns a function that puts every original back.
    """
    import frobq.congruence as congruence
    import frobq.exactring as exactring
    import frobq.frobenius as frobenius
    import frobq.qseries as qseries
    import frobq.theorems as theorems

    c = tracer.counts
    undo: list = []

    def swap(module, attr, wrapper_factory):
        old = getattr(module, attr)
        _replace_everywhere(old, wrapper_factory(old), undo)

    def patch(cls, attrs, new):
        for attr in attrs:
            undo.append((cls, attr, getattr(cls, attr)))
            setattr(cls, attr, new)

    # qseries
    def after_product(args, kwargs, result):
        c["qseries.factors_applied"] += _factors_applied(args[0], args[1])

    swap(qseries, "product_from_spec",
         lambda fn: _spanned(tracer, "qseries.product_from_spec", fn, after_product))
    swap(qseries, "euler_product", lambda fn: _spanned(tracer, "qseries.euler_product", fn))

    def after_inverse(args, kwargs, result):
        c["qseries.inverse.calls"] += 1
        c["qseries.inverse.terms"] += result.order + 1

    ts = qseries.TruncSeries
    patch(ts, ("inverse",), _spanned(tracer, "qseries.inverse", ts.inverse, after_inverse))

    def before_mul(args, kwargs):
        c["qseries.mul.calls"] += 1

    patch(ts, ("__mul__", "__rmul__"), _spanned(tracer, "qseries.mul", ts.__mul__, before=before_mul))

    def before_bivar_mul(args, kwargs):
        s = args[0]
        c["qseries.bivar_mul.calls"] += 1
        tracer._bivar_window = max(tracer._bivar_window, s.zmax - s.zmin + 1)

    def after_bivar_mul(args, kwargs, result):
        c["qseries.bivar_rows"] += len(result.rows)

    bs = qseries.BivarSeries
    patch(bs, ("__mul__",), _spanned(tracer, "qseries.bivar_mul", bs.__mul__, after_bivar_mul,
                                     before_bivar_mul))

    # theorems: the lattice walk calls quad_exponent once per box point
    quad = theorems.quad_exponent

    @functools.wraps(quad)
    def counted_quad(k, alpha, m):
        q = quad(k, alpha, m)
        c["theorems.lattice.visited"] += 1
        if tracer._theta_order is not None and q <= tracer._theta_order:
            c["theorems.lattice.kept"] += 1
        return q

    _replace_everywhere(quad, counted_quad, undo)

    def theta(fn):
        inner = _spanned(tracer, "theorems.theta", fn)

        @functools.wraps(fn)
        def wrapper(k, alpha, order, **kwargs):
            tracer._theta_order = order
            try:
                return inner(k, alpha, order, **kwargs)
            finally:
                tracer._theta_order = None
        return wrapper

    swap(theorems, "phi_theta_series", theta)
    swap(theorems, "cphi_theta_series", theta)
    swap(theorems, "psi2_product", lambda fn: _spanned(tracer, "theorems.psi2", fn))

    # exactring: counts only, timing each ring operation would swamp the trace
    ci = exactring.CycInt
    patch(ci, ("__mul__", "__rmul__"), _counted(tracer, "exactring.cycint_mul.calls", ci.__mul__))
    swap(exactring, "zeta_pow", lambda fn: _counted(tracer, "exactring.zeta_pow.calls", fn))

    # frobenius
    def before_bivar(args, kwargs):
        tracer._bivar_window = 0

    def after_bivar(args, kwargs, result):
        c["frobenius.bivar.zwindow"] += tracer._bivar_window

    swap(frobenius, "bivar_coefficient_series",
         lambda fn: _spanned(tracer, "frobenius.bivar", fn, after_bivar, before_bivar))

    def after_enumerate(args, kwargs, result):
        c["frobenius.arrays_built"] += len(result)

    swap(frobenius, "enumerate_arrays",
         lambda fn: _spanned(tracer, "frobenius.enumerate", fn, after_enumerate))

    # congruence
    def after_verify(args, kwargs, claim):
        c["congruence.cells"] += 1
        c["congruence.witnesses"] += claim.witnesses
        c["congruence.claims_verified"] += claim.status == "verified"

    swap(congruence, "verify_congruence",
         lambda fn: _spanned(tracer, "congruence.verify", fn, after_verify))
    swap(congruence, "scan_congruences", lambda fn: _spanned(tracer, "congruence.scan", fn))

    def uninstall() -> None:
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    return uninstall


def pass_metrics(spans: list[list], first: int, counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one pass: the spans from index `first` on, and its counts."""
    child_time = Counter()
    for name, start, end, parent, _ in spans[first:]:
        if parent is not None:
            child_time[parent] += end - start
    out = {name: 0.0 for name in TIME_METRICS}
    for i in range(first, len(spans)):
        name, start, end, parent, _ = spans[i]
        own = end - start - child_time[i]
        layer, _, rest = name.partition(".")
        if layer in LAYERS:
            out[layer + ".self_s"] += own
        if name in _SELF:
            out[_SELF[name]] += own
        if name in _INCLUSIVE and not _has_ancestor(spans, parent, name):
            out[_INCLUSIVE[name]] += end - start
        if layer == "cli" and rest in CLI_SUBCOMMANDS:
            out[name + ".s"] += end - start
    for name in EXACT_COUNTS:
        out[name] = counts.get(name, 0)
    visited = counts.get("theorems.lattice.visited", 0)
    out["theorems.lattice.keep_ratio"] = (
        counts.get("theorems.lattice.kept", 0) / visited if visited else 0.0)
    return out


def _has_ancestor(spans, parent, name) -> bool:
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
