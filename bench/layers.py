"""Instrument quivercount's modules for the traced run, from outside.

`instrument(tracer)` replaces the entry points of every module with
traced stand-ins and returns a function that puts the originals back.
Nothing under src/ changes: the stand-ins are installed by attribute
assignment on the imported modules and classes, and on every other
quivercount module that imported the same object by name.

The boundary of a module is
  - its public functions, and the public methods of its classes;
  - the arithmetic operators of its classes (__add__, __mul__, ...) and
    GraphChar.__call__;
  - the private helpers in PRIVATE, which carry a per-layer metric.
Constructors, comparisons and hashing stay untraced, so their time counts
toward the calling module.

`layer_metrics(tracer, names)` turns the tracer's counters into the
per-layer metrics named in BENCHMARK.json (all but trace.overhead_ratio,
which needs the untraced run as its base).  Besides the tables below, a
name `<module>.self_s` reports a module's self time and `verify.<check>.s`
the inclusive time of one check function of `verify all`.
"""

import importlib
import inspect
from math import prod

MODULES = ("multigraph", "polynomials", "ratfun", "toric", "genfun", "cyclotomic",
           "modp", "finite_algebra", "repenum", "families", "verify", "cli")

OPERATORS = frozenset(("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                       "__rmul__", "__neg__", "__pow__", "__call__"))

PRIVATE = frozenset(("ratfun.RatQT._reduce", "toric._r_d_sum", "repenum._vertex_lists",
                     "repenum._gl_normalized", "repenum._fix_space_points"))

# Functions that return a lazy iterator without being generator functions.
ITERATOR_RETURNING = frozenset(("multigraph.strict_filtrations",))

# per-layer metric -> span name whose call count it reports
CALLS = {
    "multigraph.b1_of_contraction.calls": "multigraph.Multigraph.b1_of_contraction",
    "genfun.cvector_of_filtration.calls": "genfun.cvector_of_filtration",
    "ratfun.RatQT.add.calls": "ratfun.RatQT.__add__",
    "ratfun.RatQT.reduce.calls": "ratfun.RatQT._reduce",
    "polynomials.QTPoly.mul.calls": "polynomials.QTPoly.__mul__",
    "polynomials.divides_t_factor.calls": "polynomials.divides_t_factor",
    "repenum.fix_nullity.calls": "repenum.fix_nullity",
    "repenum.fix_space_points.calls": "repenum._fix_space_points",
    "modp.rref.calls": "modp.rref",
    "finite_algebra.mul.calls": "finite_algebra.FiniteAlgebra.mul",
    "finite_algebra.is_unit.calls": "finite_algebra.FiniteAlgebra.is_unit",
    "finite_algebra.mat_det.calls": "finite_algebra.mat_det",
    "cyclotomic.CycInt.add.calls": "cyclotomic.CycInt.__add__",
    "families.all_connected_multigraphs.calls": "families.all_connected_multigraphs",
}

# per-layer metric -> tracer counter
COUNTS = {
    "multigraph.strict_filtrations.yielded": "multigraph.strict_filtrations.yielded",
    "multigraph.connected_spanning_subgraphs.yielded":
        "multigraph.Multigraph.connected_spanning_subgraphs.yielded",
    "toric.depth_functions.visited": "toric.depth_functions.visited",
    "repenum.group_elements.visited": "repenum.group_elements.visited",
}

# per-layer metric -> (numerator counter, denominator counter)
RATIOS = {
    "polynomials.divides_t_factor.true_ratio":
        ("polynomials.divides_t_factor.true", "polynomials.divides_t_factor.tests"),
    "repenum.gl_cache.hit_ratio": ("repenum.gl_cache.hits", "repenum.gl_cache.lookups"),
    "genfun.graphchar.hit_ratio": ("genfun.graphchar.hits", "genfun.graphchar.lookups"),
}

OVERHEAD = "trace.overhead_ratio"


# -- counters that need the arguments or the result ------------------------

def _observers(tracer):
    counts = tracer.counts

    def depth_functions(args, kwargs):
        gamma, d = args[0], args[1]

        def done(result):
            if gamma.edge_count():
                counts["toric.depth_functions.visited"] += d ** gamma.edge_count()
        return done

    def group_elements(args, kwargs):
        def done(result):
            counts["repenum.group_elements.visited"] += prod(len(lst) for lst in result[0])
        return done

    def divides(args, kwargs):
        def done(result):
            counts["polynomials.divides_t_factor.tests"] += 1
            if result:
                counts["polynomials.divides_t_factor.true"] += 1
        return done

    def gl_cache(args, kwargs):
        alg, size = args[0], args[1]
        if not size:
            return lambda result: None
        before = len(getattr(alg, "_gl_data", None) or ())

        def done(result):
            counts["repenum.gl_cache.lookups"] += 1
            if len(alg._gl_data) == before:
                counts["repenum.gl_cache.hits"] += 1
        return done

    def graphchar(args, kwargs):
        memo = args[0]._memo
        before = len(memo)

        def done(result):
            counts["genfun.graphchar.lookups"] += 1
            if len(memo) == before:
                counts["genfun.graphchar.hits"] += 1
        return done

    return {
        "toric._r_d_sum": depth_functions,
        "repenum._vertex_lists": group_elements,
        "polynomials.divides_t_factor": divides,
        "repenum.gl_order": gl_cache,
        "repenum.gl_elements": gl_cache,
        "repenum._gl_normalized": gl_cache,
        "genfun.GraphChar.__call__": graphchar,
    }


# -- installation ----------------------------------------------------------

def _selected(qualname, attr):
    return not attr.startswith("_") or attr in OPERATORS or qualname in PRIVATE


def _targets(modules):
    """Yield (owner, attribute, span name, layer, original callable)."""
    for layer, module in modules.items():
        for attr, value in list(vars(module).items()):
            name = "%s.%s" % (layer, attr)
            if inspect.isclass(value) and value.__module__ == module.__name__:
                if issubclass(value, BaseException):
                    continue
                for mattr, raw in list(vars(value).items()):
                    mname = "%s.%s" % (name, mattr)
                    if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
                        if _selected(mname, mattr):
                            yield value, mattr, mname, layer, raw
            elif callable(value) and getattr(value, "__module__", None) == module.__name__:
                if _selected(name, attr):
                    yield module, attr, name, layer, value


def instrument(tracer):
    """Install traced stand-ins in every quivercount module; returns undo()."""
    modules = {name: importlib.import_module("quivercount." + name) for name in MODULES}
    package = importlib.import_module("quivercount")
    observers = _observers(tracer)
    replaced = {}      # id(original) -> stand-in, for re-bound imports
    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    for owner, attr, name, layer, raw in list(_targets(modules)):
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        if inspect.isgeneratorfunction(fn) or name in ITERATOR_RETURNING:
            traced = tracer.wrap_generator(name, layer, fn)
        else:
            traced = tracer.wrap(name, layer, fn, observers.get(name))
        patch(owner, attr, kind(traced) if kind else traced)
        if kind is None:
            replaced[id(fn)] = traced

    for module in list(modules.values()) + [package]:
        for attr, value in list(vars(module).items()):
            if id(value) in replaced:
                patch(module, attr, replaced[id(value)])

    verify = modules["verify"]
    saved_lists = [(lst, list(lst)) for lst in list(verify.SUITES.values()) + [verify.EXTRA]]
    for lst, _ in saved_lists:
        lst[:] = [replaced.get(id(fn), fn) for fn in lst]

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        for lst, original in saved_lists:
            lst[:] = original

    return restore


def layer_metric(tracer, name):
    """The value of one per-layer metric; KeyError if nothing reports it."""
    if name in CALLS:
        return tracer.calls[CALLS[name]]
    if name in COUNTS:
        return tracer.counts[COUNTS[name]]
    if name in RATIOS:
        num, den = RATIOS[name]
        bottom = tracer.counts[den]
        return tracer.counts[num] / bottom if bottom else 0.0
    span, _, kind = name.rpartition(".")
    if kind == "self_s" and span in MODULES:
        return tracer.self_s.get(span, 0.0)
    module, _, check = span.partition(".")
    if kind == "s" and module == "verify" and check.startswith("check_") \
            and hasattr(importlib.import_module("quivercount.verify"), check):
        return tracer.total_s.get(span, 0.0)
    raise KeyError("no span or counter reports the per-layer metric %r" % name)


def layer_metrics(tracer, names):
    """The named per-layer metrics (not trace.overhead_ratio), as name -> value."""
    return {name: layer_metric(tracer, name) for name in names}
