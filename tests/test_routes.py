"""The routes agree, and share no code: one table of family addresses.

frobq computes each series phi_{k,alpha} (repetition) and cphi_{k,alpha}
(colored) by independent routes, and trusts a count because they agree:
  * enum: the number of arrays `enumerate_arrays` builds at each weight;
  * count: `count_phi` or `count_cphi`, route 1's row counts;
  * bivar: `bivar_coefficient_series`, route 2;
  * theta: `phi_theta_series` or `cphi_theta_series`, route 3;
  * the product formulas of route 4, where the paper gives one.

A row of ROWS is (variant, k, orders), orders mapping each route to the
truncation order it runs at there.  Each row runs every alpha in
-k-4 .. 4, once at its orders and once at order 0, and `disagreements`
compares every pair of routes on their common prefix.  A new route, or a
route that reaches new addresses, adds its orders here rather than a
comparison test of its own.

The routes are independent only if none runs another's code.  ROUTE_CODE
names each route's own functions and classes, CORE what every route may
share, and BATTERY the proof identities, which may use any route.  Every
module-level function and class of the route modules is in one of them,
and nothing a route's code reaches, followed through its names and its
imports, belongs to another route.
"""

from __future__ import annotations

import dis
import importlib
import inspect
import itertools

import pytest

from frobq import VARIANTS, frobenius, theorems
from frobq.qseries import ZZ, TruncSeries, first_divergence


def _counts(count, k, alpha, order):
    return TruncSeries(ZZ, [count(k, alpha, n) for n in range(order + 1)], order)


def _series(route, variant, k, alpha, order):
    # every frobq function is looked up in its module when the route runs,
    # so a planted edit is what runs
    repetition = variant == "repetition"
    if route == "enum":
        return _counts(lambda *args: len(frobenius.enumerate_arrays(variant, *args)),
                       k, alpha, order)
    if route == "count":
        return _counts(frobenius.count_phi if repetition else frobenius.count_cphi, k, alpha, order)
    if route == "bivar":
        return frobenius.bivar_coefficient_series(variant, k, alpha, order)
    if route == "theta":
        theta = theorems.phi_theta_series if repetition else theorems.cphi_theta_series
        return theta(k, alpha, order)
    return getattr(theorems, f"{route}_product")(order)


# route 4's product formulas, at the one address each counts
PRODUCTS = {("repetition", 2, -1): ("phi2m1", "psi2"), ("colored", 2, -1): ("cphi2m1",)}


def disagreements(variant, k, alpha, orders):
    """(route, route, first differing index) for each pair of the routes in
    `orders` that differ on their common prefix, each run at its order."""
    series = {route: _series(route, variant, k, alpha, order) for route, order in orders.items()}
    return [(a, b, i) for a, b in itertools.combinations(series, 2)
            if (i := first_divergence(series[a], series[b])) is not None]


# k: (enum, count, bivar and theta); enumeration builds too many arrays at k=6
ORDERS = {1: (10, 20, 120), 2: (10, 14, 120), 3: (10, 12, 100), 4: (10, 12, 60),
          5: (6, 12, 40), 6: (None, 20, 30)}
ROWS = [(variant, k, {"enum": enum, "count": count, "bivar": top, "theta": top})
        for variant in VARIANTS for k, (enum, count, top) in ORDERS.items()]


@pytest.mark.parametrize("variant, k, orders", ROWS, ids=[f"{v}-{k}" for v, k, _ in ROWS])
def test_routes_agree(variant, k, orders):
    found, base = {}, {route: order for route, order in orders.items() if order is not None}
    for alpha in range(-k - 4, 5):
        at = {**base, **dict.fromkeys(PRODUCTS.get((variant, k, alpha), ()), 120)}
        for routes in (at, dict.fromkeys(at, 0)):
            if pairs := disagreements(variant, k, alpha, routes):
                found[alpha, max(routes.values())] = pairs
    assert not found


# ---------------------------------------------------------------------------
# independence
# ---------------------------------------------------------------------------

MODULES = ("frobenius", "qseries", "theorems", "exactring", "_packed")
ROUTE_CODE = {
    "enum": ("frobenius.FrobeniusArray", "frobenius._min_row_sum", "frobenius._bounded_rows",
             "frobenius._colored_rows", "frobenius._colored_count", "frobenius._check_enum_args",
             "frobenius._row_pairs", "frobenius.enumerate_arrays", "frobenius.count_phi",
             "frobenius.count_cphi", "frobenius._list_size"),
    "bivar": ("frobenius.bivar_work", "frobenius._weight_words", "frobenius._binomials",
              "frobenius._PackedRows", "frobenius.bivar_coefficient_series"),
    "theta": ("theorems.quad_exponent", "theorems._choose2", "theorems._interval",
              "theorems._lattice_guard", "theorems._lattice_table",
              "theorems._pentagonal_exponents", "theorems._divide_by_euler",
              "theorems.division_work", "theorems.cphi_theta_series", "theorems.phi_theta_series",
              "exactring._poly_div_exact", "exactring.cyclotomic_poly",
              "exactring._power_basis_rows", "exactring.CycInt", "exactring.zeta_pow"),
    "product": ("qseries._apply_binomial", "qseries._constant_factor", "qseries.euler_product",
                "qseries.ProductFactor", "qseries.ProductSpec", "qseries.parse_product_spec",
                "qseries.product_work", "qseries._packed_saving", "qseries._apply_power",
                "qseries._expand_run", "qseries.product_from_spec", "_packed.Packed",
                "theorems.phi2m1_product", "theorems.cphi2m1_product", "theorems.psi2_product"),
}
CORE = ("_value.FrozenValue", "qseries.NotUnitError", "qseries.IntegerRing", "qseries.ModRing",
        "qseries.RingMismatchError", "qseries.ProductSpecError", "qseries.TruncSeries",
        "qseries._check_rings", "qseries.first_divergence", "theorems.NonIntegralCoefficientError")
BATTERY = ("theorems.mod5_numerator_product", "theorems.mod5_numerator_theta",
           "theorems.mod5_numerator_signed", "theorems._triangular_root", "theorems._sparse_sum",
           "theorems.euler_cube", "theorems.jacobi_work", "theorems.jacobi_guard",
           "theorems.jacobi_triple", "qseries.BivarSeries")


def _look_up(name):
    module, attr = name.split(".")
    return getattr(importlib.import_module(f"frobq.{module}"), attr)


def _own(obj):
    # the frobq function (through an lru_cache) or class that `obj` is, or None
    obj = inspect.unwrap(obj) if callable(obj) else obj
    if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__.startswith("frobq"):
        return obj
    return None


def _named(obj):
    """The objects that `obj`'s code names: a class's bases and what its
    methods name; for a function, each name in its code and the code nested
    in it, looked up in its globals, in the frobq modules it imports and in
    those it names."""
    if inspect.isclass(obj):
        methods = [getattr(m, "__func__", m) for m in vars(obj).values()]
        methods += [f for m in methods if isinstance(m, property) for f in (m.fget, m.fset)]
        return [*obj.__bases__, *itertools.chain.from_iterable(
            _named(m) for m in methods if inspect.isfunction(m))]
    names, spaces, codes = set(), [obj.__globals__], [obj.__code__]
    while codes:
        code = codes.pop()
        codes += [c for c in code.co_consts if inspect.iscode(c)]
        names.update(code.co_names)
        instructions = list(dis.get_instructions(code))
        # a relative import loads its level, 1 in this flat package, two instructions before
        spaces += [vars(importlib.import_module(f".{ins.argval}", "frobq"))
                   for i, ins in enumerate(instructions)
                   if ins.opname == "IMPORT_NAME" and instructions[i - 2].argval == 1]
    values = [space[name] for space in spaces for name in names if name in space]
    modules = [vars(v) for v in values if inspect.ismodule(v) and v.__name__.startswith("frobq")]
    return values + [space[name] for space in modules for name in names if name in space]


def reached(obj):
    """Every frobq function and class `obj` names, transitively, itself included."""
    seen, todo = {}, [obj]
    while todo:
        value = todo.pop()
        own = _own(value) or _own(type(value))  # an instance such as ZZ runs its class
        if own is not None and id(own) not in seen:
            seen[id(own)] = own
            todo += _named(own)
    return list(seen.values())


def crossings():
    """(group, name, reached name) wherever the code of a route, or of CORE,
    reaches code that is neither its own nor CORE's."""
    groups = {**ROUTE_CODE, "core": CORE}
    owner = {id(_own(_look_up(name))): (group, name)
             for group, names in {**groups, "battery": BATTERY}.items() for name in names}
    found = []
    for group, names in groups.items():
        for name in names:
            for obj in reached(_look_up(name)):
                unclassified = (None, f"{obj.__module__}.{obj.__qualname__}")
                other, other_name = owner.get(id(obj), unclassified)
                if other not in (group, "core"):
                    found.append((group, name, other_name))
    return found


def test_every_function_and_class_of_the_routes_is_classified():
    classified = {*itertools.chain.from_iterable(ROUTE_CODE.values()), *CORE, *BATTERY}
    defined = {f"{module}.{name}" for module in MODULES
               for name, obj in vars(importlib.import_module(f"frobq.{module}")).items()
               if _own(obj) is not None and obj.__module__ == f"frobq.{module}"}
    assert defined - classified == set()


def test_routes_share_no_code():
    assert crossings() == []
