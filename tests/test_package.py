"""The package surface: what each entry point imports, the lazy namespace,
and the small value classes."""

import ast
import copy
import dataclasses
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import frobq
from frobq import qseries
from frobq._value import FrozenValue
from frobq.congruence import CongruenceClaim, scan_congruences
from frobq.exactring import CycInt
from frobq.frobenius import FrobeniusArray
from frobq.qseries import (ZZ, ModRing, ProductFactor, ProductSpec, TruncSeries,
                           parse_product_spec)
from frobq.theorems import NonIntegralCoefficientError, cphi_theta_series

SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh(code, *argv):
    """Run `code` in a fresh interpreter that imports frobq from this checkout."""
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, timeout=60)


# ---------------------------------------------------------------------------
# modules loaded by each README subcommand
# ---------------------------------------------------------------------------

# runs `python -m frobq.cli ARGV...`, then reports the loaded modules on stderr
_CLI_MODULES = """
import runpy, sys
sys.argv[0] = "frobq"
code = None
try:
    runpy.run_module("frobq.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
sys.stderr.write(repr((code, sorted(sys.modules))))
"""

_FROBQ = {"exactring", "frobenius", "theorems", "congruence"}

# (argv, frobq modules it must not load, frobq modules it must load); only
# the repetition theta route, `theorem --which 1` and the checks built on it,
# loads `exactring`, and only a product expansion large enough to pack a
# run loads the packed kernel `_packed`
README_CALLS = [
    pytest.param(
        ("expand", "--spec", "-,2,1,-2; -,12,8,-1; -,12,6,-1; -,12,4,-1; -,12,0,-1", "--N", "4"),
        _FROBQ | {"_packed"}, set(), id="expand"),
    pytest.param(
        ("enumerate", "--variant", "colored", "--k", "2", "--alpha", "-1", "--n", "2", "--list"),
        {"exactring", "theorems", "congruence", "_packed"}, set(), id="enumerate"),
    pytest.param(("theorem", "--which", "1", "--k", "2", "--alpha", "-1", "--N", "50"),
                 {"frobenius", "congruence", "_packed"}, {"exactring"}, id="theorem"),
    pytest.param(("theorem", "--which", "2", "--k", "2", "--alpha", "-1", "--N", "50"),
                 {"exactring", "frobenius", "congruence", "_packed"}, set(), id="theorem-colored"),
    pytest.param(("verify", "--target", "thm3", "--N", "104"),
                 {"exactring", "frobenius", "_packed"}, set(), id="verify"),
    pytest.param(("verify", "--target", "jtp", "--N", "40"),
                 {"exactring", "frobenius", "congruence", "_packed"}, {"theorems"},
                 id="verify-jtp"),
    pytest.param(("scan", "--builtin", "phi2m1", "--N", "204", "--maxA", "8", "--maxM", "7"),
                 {"exactring", "frobenius", "_packed"}, set(), id="scan"),
    pytest.param(("identities", "--N", "100"), {"frobenius", "_packed"}, set(), id="identities"),
    pytest.param(("expand", "--spec", "-,1,0,1; +,4,1,2; +,6,0,1", "--N", "1200"),
                 _FROBQ, {"_packed"}, id="expand-large"),
]


@pytest.mark.parametrize("argv, absent, present", README_CALLS)
def test_subcommand_loads_only_its_modules(argv, absent, present):
    proc = _fresh(_CLI_MODULES, *argv)
    code, modules = ast.literal_eval(proc.stderr)
    assert code == 0 and proc.stdout
    assert "dataclasses" not in modules and "inspect" not in modules
    assert not {f"frobq.{name}" for name in absent} & set(modules)
    assert {f"frobq.{name}" for name in present} <= set(modules)


def test_bare_import_loads_no_submodule():
    proc = _fresh("import sys, frobq; print(sorted(m for m in sys.modules if 'frobq' in m))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["['frobq']"]


# ---------------------------------------------------------------------------
# the lazy namespace
# ---------------------------------------------------------------------------

_NAMESPACE = """
import json, sys
import frobq
theorems, qs = frobq.theorems, frobq.qseries  # no explicit import
assert theorems is sys.modules["frobq.theorems"] and qs is sys.modules["frobq.qseries"]
homes = {}
for name in frobq.__all__:
    obj = getattr(frobq, name)
    home = sys.modules[obj.__module__]
    assert obj is getattr(home, name), name
    homes[name] = obj.__module__
star = {}
exec("from frobq import *", star)
assert set(star) - {"__builtins__"} == set(frobq.__all__)
print(json.dumps(homes))
"""

EXPORTED = [
    "CycInt", "cyclotomic_poly", "zeta_pow",
    "BivarSeries", "ModRing", "NotUnitError", "ProductFactor", "ProductSpec",
    "ProductSpecError", "RingMismatchError", "TruncSeries", "ZZ", "euler_product",
    "first_divergence", "parse_product_spec", "product_from_spec",
    "FrobeniusArray", "bivar_coefficient_series", "count_cphi", "count_phi", "enumerate_arrays",
    "NonIntegralCoefficientError", "cphi2m1_product", "cphi_theta_series",
    "euler_cube", "jacobi_triple", "phi2m1_product", "phi_theta_series", "quad_exponent",
    "CongruenceClaim", "progression_exponent_check", "residue_argument_check",
    "scan_congruences", "verify_congruence",
]


def test_every_exported_name_is_its_module_attribute_in_a_fresh_interpreter():
    proc = _fresh(_NAMESPACE)
    assert proc.returncode == 0, proc.stderr
    homes = json.loads(proc.stdout)
    assert list(homes) == EXPORTED
    assert set(homes.values()) == {f"frobq.{m}" for m in
                                   ("exactring", "qseries", "frobenius", "theorems", "congruence")}


def test_dir_covers_all_and_the_submodules():
    names = dir(frobq)
    assert set(frobq.__all__) <= set(names)
    assert {"cli", "congruence", "exactring", "frobenius", "qseries", "theorems"} <= set(names)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        frobq.frobnicate
    assert not hasattr(frobq, "_apply_binomial")
    assert not hasattr(frobq, "decimal_coefficients")


def test_a_patched_module_attribute_is_seen_through_the_package(monkeypatch):
    def patched(spec, order, ring=ZZ):
        return TruncSeries.zero(ring, order)

    monkeypatch.setattr(qseries, "product_from_spec", patched)
    assert frobq.product_from_spec is patched
    monkeypatch.undo()
    assert frobq.product_from_spec is qseries.product_from_spec is not patched
    assert "product_from_spec" not in vars(frobq)


# ---------------------------------------------------------------------------
# value classes: the contract the dataclasses they replaced had
# ---------------------------------------------------------------------------

def _values():
    spec = parse_product_spec("-,2,1,-2; +,12,8,3")
    return [
        spec,
        spec.factors[0],
        FrobeniusArray(((2, 1), (0, 2)), ((1, 1),)),
        FrobeniusArray((3, 1), ()),
        scan_congruences(TruncSeries.zero(ZZ, 40), 2, 2, min_witnesses=10)[1],
        CongruenceClaim(2, 1, 3, 1, "violated", first_violation=1, witnesses=1),
        TruncSeries(ZZ, [1, -2, 3]),
        TruncSeries(ModRing(5), [7, 12]),
        ModRing(5),
        CycInt(3, [0, 1]),
    ]


def test_reprs_match_the_dataclass_reprs():
    assert [repr(v) for v in _values()] == [
        "ProductSpec(factors=(ProductFactor(sign=-1, period=2, residue=1, exponent=-2), "
        "ProductFactor(sign=1, period=12, residue=8, exponent=3)))",
        "ProductFactor(sign=-1, period=2, residue=1, exponent=-2)",
        "FrobeniusArray(top=((2, 1), (0, 2)), bottom=((1, 1),))",
        "FrobeniusArray(top=(3, 1), bottom=())",
        "CongruenceClaim(step=2, offset=0, modulus=2, verified_up_to=40, status='verified', "
        "first_violation=None, witnesses=21, subsumed=True)",
        "CongruenceClaim(step=2, offset=1, modulus=3, verified_up_to=1, status='violated', "
        "first_violation=1, witnesses=1, subsumed=False)",
        # the rings and series keep their short reprs, which error messages print
        "TruncSeries(ZZ, N=2, [1, -2, 3])",
        "TruncSeries(ModRing(5), N=1, [2, 2])",
        "ModRing(5)",
        "CycInt(3, [0, 1])",
    ]


def test_equality_and_hash_by_value_within_one_type():
    for value, twin in zip(_values(), _values()):
        assert value == twin and value is not twin and hash(value) == hash(twin)
    assert FrobeniusArray((), ()) != ((), ())
    assert ProductFactor(1, 2, 1, 1) != (1, 2, 1, 1)
    assert ProductSpec(()) != FrobeniusArray((), ())
    assert CongruenceClaim(5, 4, 5, 9, "verified") != CongruenceClaim(5, 4, 5, 9, "verified",
                                                                       subsumed=True)
    assert len({FrobeniusArray((1,), ()), FrobeniusArray((1,), ()), FrobeniusArray((), (1,))}) == 2


@pytest.mark.parametrize("cls, slots", [
    (ProductFactor, ("sign", "period", "residue", "exponent")),
    (ProductSpec, ("factors",)),
    (FrobeniusArray, ("top", "bottom")),
    (CongruenceClaim, ("step", "offset", "modulus", "verified_up_to", "status",
                       "first_violation", "witnesses", "subsumed")),
    (TruncSeries, ("ring", "coeffs", "order")),
    (ModRing, ("modulus",)),
    (CycInt, ("order", "coeffs")),
])
def test_slotted_and_frozen(cls, slots):
    assert cls.__slots__ == slots
    value = next(v for v in _values() if type(v) is cls)
    assert not hasattr(value, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{slots[0]}'"):
        setattr(value, slots[0], None)
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{slots[0]}'"):
        delattr(value, slots[0])
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_value_class_builds_alike_by_position_and_by_keyword():
    values = _values()
    # every FrozenValue class in the package has a sample, IntegerRing aside
    assert {type(v) for v in values} | {type(ZZ)} == {
        cls for cls in _subclasses(FrozenValue) if cls.__module__.startswith("frobq.")}
    for value in values:
        cls, fields = type(value), value._fields()
        by_name = dict(zip(cls.__slots__, fields))
        assert cls(*fields) == value
        assert cls(**by_name) == value
        assert cls(fields[0], **dict(list(by_name.items())[1:])) == value
        assert cls(**dict(reversed(by_name.items()))) == value
    assert ProductFactor(1, 12, exponent=3, residue=8) == parse_product_spec("+,12,8,3").factors[0]
    assert type(ZZ)() == ZZ


@pytest.mark.parametrize("cls", [ProductFactor, ProductSpec, FrobeniusArray])
def test_plain_value_classes_take_the_base_constructor(cls):
    assert "__init__" not in vars(cls)
    assert cls.__init__ is FrozenValue.__init__


def test_repr_evaluates_to_an_equal_value():
    names = {cls.__name__: cls
             for cls in (ProductFactor, ProductSpec, FrobeniusArray, CongruenceClaim)}
    values = [v for v in _values() if type(v).__name__ in names]
    values.append(ProductFactor(sign=1, period=3, residue=0, exponent=-1))
    assert {type(v) for v in values} == set(names.values())
    for value in values:
        assert eval(repr(value), names) == value


@pytest.mark.parametrize("build", [
    lambda: ProductFactor(1, 2, 3),                         # missing
    lambda: ProductFactor(1, 2, exponent=4),                # missing between
    lambda: ProductFactor(1, 2, 3, 4, 5),                   # extra
    lambda: ProductFactor(1, 2, 3, 4, sign=1),              # repeated, and extra
    lambda: ProductFactor(1, 2, 3, sign=1),                 # repeated
    lambda: ProductFactor(1, 2, 3, 4, colour=5),            # unknown
    lambda: ProductFactor(1, 2, 3, expo=4),                 # unknown for a missing one
    lambda: ProductSpec(),
    lambda: FrobeniusArray((), (), ()),
    lambda: FrobeniusArray((), bottom=(), top=()),
])
def test_a_wrong_field_set_raises_type_error_naming_the_fields(build):
    with pytest.raises(TypeError, match=r"(ProductFactor|ProductSpec|FrobeniusArray) takes each "
                                        r"of its fields \((sign, period, residue, exponent"
                                        r"|factors|top, bottom)\) exactly once"):
        build()


def test_integer_ring_pickles_and_copies_to_an_equal_ring():
    assert isinstance(ZZ, FrozenValue) and ZZ.__slots__ == () and not hasattr(ZZ, "__dict__")
    for twin in (pickle.loads(pickle.dumps(ZZ)), copy.copy(ZZ), copy.deepcopy(ZZ)):
        assert twin == ZZ and hash(twin) == hash(ZZ) and repr(twin) == "ZZ"
    assert ZZ != ModRing(2)


def test_a_mod_ring_series_unpickles_through_its_ring():
    series = TruncSeries(ModRing(5), [7, 12])
    for twin in (pickle.loads(pickle.dumps(series)), copy.copy(series), copy.deepcopy(series)):
        assert twin == series and twin.ring == ModRing(5) and twin.coeffs == (2, 2)
    # unpickling calls the constructors, so the ring checks its modulus again
    # and the series reduces its coefficients through the ring again
    assert ModRing(5).__reduce__() == (ModRing, (5,))
    assert series.__reduce__() == (TruncSeries, (ModRing(5), (2, 2), 1))


def _raise_the_detector_error():
    raise NonIntegralCoefficientError(9, CycInt(3, [0, 1]))


def test_a_process_pool_returns_series_and_reraises_the_detector_error():
    # spawned workers import frobq afresh, so everything crosses by pickle
    with ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("spawn")) as pool:
        series = pool.submit(cphi_theta_series, 3, 0, 20)
        error = pool.submit(_raise_the_detector_error)
        assert series.result(timeout=60) == cphi_theta_series(3, 0, 20)
        with pytest.raises(NonIntegralCoefficientError) as info:
            error.result(timeout=60)
    assert (info.value.index, info.value.value) == (9, CycInt(3, [0, 1]))
    assert str(info.value) == "coefficient of q^9 is not a rational integer: CycInt(3, [0, 1])"


def test_array_is_as_small_as_the_slotted_dataclass():
    # the dataclass FrobeniusArray replaced, on the running Python
    @dataclasses.dataclass(frozen=True, slots=True)
    class Reference:
        top: tuple
        bottom: tuple

    assert sys.getsizeof(FrobeniusArray((), ())) == sys.getsizeof(Reference((), ()))


# (hook names, exempt classes): FrozenValue owns immutability and value
# equality, and the mutable BivarSeries compares by value but never hashes
ATTRIBUTE_HOOKS = ({"__setattr__", "__delattr__"}, {"FrozenValue"})
EQUALITY_HOOKS = ({"__eq__", "__hash__"}, {"FrozenValue", "BivarSeries"})


def _hook_classes(source, hooks, exempt):
    """Names of the classes in `source`, those in `exempt` aside, whose body
    defines or assigns one of `hooks`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name not in exempt:
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    names = {item.name}
                else:
                    names = {t.id for t in getattr(item, "targets", ()) if isinstance(t, ast.Name)}
                if names & hooks:
                    found.append(node.name)
    return found


def _package_hook_classes(hooks, exempt):
    found = {path.name: _hook_classes(path.read_text(), hooks, exempt)
             for path in sorted(SRC.glob("frobq/*.py"))}
    assert len(found) >= 8
    return {name: classes for name, classes in found.items() if classes}


def test_only_frozen_value_guards_attributes():
    # every immutable value gets its immutability, and so its pickling and
    # copying, from FrozenValue
    assert _package_hook_classes(*ATTRIBUTE_HOOKS) == {}


def test_only_frozen_value_defines_value_equality():
    # a class with its own __eq__ must keep __hash__ in step by hand; CycInt
    # once equalled a plain int while hashing as (order, coeffs)
    assert _package_hook_classes(*EQUALITY_HOOKS) == {}


@pytest.mark.parametrize("source, classes", [
    ("class A:\n    def __setattr__(self, name, value):\n        pass", ["A"]),
    ("class A:\n    def __delattr__(self, name):\n        pass", ["A"]),
    ("class A:\n    __setattr__ = object.__setattr__", ["A"]),
    ("class A:\n    class B:\n        __delattr__ = None", ["B"]),
    ("class FrozenValue:\n    def __setattr__(self, name, value):\n        pass", []),
    ("class A:\n    def __eq__(self, other):\n        return True", []),
])
def test_the_attribute_hook_scan_flags_each_kind(source, classes):
    assert _hook_classes(source, *ATTRIBUTE_HOOKS) == classes


@pytest.mark.parametrize("source, classes", [
    ("class A:\n    def __eq__(self, other):\n        return True", ["A"]),
    ("class A:\n    def __hash__(self):\n        return 0", ["A"]),
    ("class A:\n    __hash__ = FrozenValue.__hash__", ["A"]),
    ("class A:\n    __eq__ = object.__eq__", ["A"]),
    ("class A:\n    class B:\n        __hash__ = None", ["B"]),
    ("class FrozenValue:\n    def __eq__(self, other):\n        return True", []),
    ("class BivarSeries:\n    __hash__ = None", []),
    ("class A:\n    def __setattr__(self, name, value):\n        pass", []),
])
def test_the_equality_hook_scan_flags_each_kind(source, classes):
    assert _hook_classes(source, *EQUALITY_HOOKS) == classes


# ---------------------------------------------------------------------------
# exact arithmetic: the README promises not a single float in the package
# ---------------------------------------------------------------------------

def _float_uses(source):
    """(line, what) for each float literal, true division and call that makes
    a float (`float`, `math.sqrt`, `math.log`, `math.exp`) in `source`."""
    makers = {"sqrt", "log", "exp"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "/"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"math.{a.name}") for a in node.names if a.name in makers]
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "float":
                found.append((node.lineno, "float"))
            elif (isinstance(func, ast.Attribute) and func.attr in makers
                  and isinstance(func.value, ast.Name) and func.value.id == "math"):
                found.append((node.lineno, f"math.{func.attr}"))
    return found


def test_the_package_has_no_float():
    found = {path.name: _float_uses(path.read_text()) for path in sorted(SRC.glob("frobq/*.py"))}
    assert len(found) >= 8
    assert {name: uses for name, uses in found.items() if uses} == {}


@pytest.mark.parametrize("source, what", [
    ("x = y / 2", "/"),
    ("x = 1.5", "1.5"),
    ("x /= 2", "/"),
    ("x = float(y)", "float"),
    ("import math\nx = math.sqrt(y)", "math.sqrt"),
    ("from math import log\nx = log(y)", "math.log"),
])
def test_the_float_scan_flags_each_kind(source, what):
    assert [w for _, w in _float_uses(source)] == [what]
    assert _float_uses("from math import isqrt\nx = isqrt(y) // 2 + 3") == []


# ---------------------------------------------------------------------------
# one writer: FrozenValue's constructor binds every frozen field
# ---------------------------------------------------------------------------

def _object_setattr_uses(source):
    """Line numbers where `source` reads `object.__setattr__`."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name) and node.value.id == "object"]


def test_only_the_value_base_calls_object_setattr():
    found = {path.name: _object_setattr_uses(path.read_text())
             for path in sorted(SRC.glob("frobq/*.py"))}
    assert len(found) >= 8
    assert [name for name, lines in found.items() if lines] == ["_value.py"]


@pytest.mark.parametrize("source, lines", [
    ("class A:\n    def __init__(self, x):\n        object.__setattr__(self, 'x', x)", [3]),
    ("write = object.__setattr__", [1]),
    ("class A:\n    def __init__(self, x):\n        super().__init__(x)", []),
    ("class A:\n    def __setattr__(self, name, value):\n        pass", []),
])
def test_the_setattr_scan_flags_each_kind(source, lines):
    assert _object_setattr_uses(source) == lines
