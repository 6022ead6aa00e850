"""Planted bugs, one table: each row makes one edit to frobq and names the
cheapest check that must then fail (mutation testing: DeMillo, Lipton and
Sayward, "Hints on Test Data Selection", 1978).  The routes are trusted
because they agree; a row shows that a check would see them disagree.

A row is (name, target, old, new, check, caught):
  * target: "module.function" or "module.Class.method" in frobq, or any
    module attribute for a value row;
  * old, new: `old` occurs exactly once in the target's source and becomes
    `new` on the same lines; a value row has old None, and `new` replaces
    the attribute outright;
  * check: a callable, which returns True on the real code, or an argv for
    `cli.main`, which exits 0 on it.  A callable looks every frobq name up
    in its module when it runs, so that it calls the planted version;
  * caught: False (the callable returns False), `exits(code, *lines)`
    (`cli.main` exits `code`, and JSON line i of stdout holds the fields of
    lines[i]) or `raises(type, **attributes)`.

A check that two routes agree calls `test_routes.disagreements`.  A check
over several cases uses `any` when every case must catch the bug.
A row that stops catching its bug fails: never delete or relax one to make
it pass.  A new fast path adds its row here.  Other tests plant a bug with
`plant` when they assert more than that it is caught.
"""

from __future__ import annotations

import __future__
import functools
import importlib
import inspect
import json
import sys
import textwrap
from typing import Any, Callable, NamedTuple

import pytest

from frobq import VARIANTS, cli, frobenius, qseries, theorems
from frobq.exactring import CycInt
from test_routes import crossings, disagreements
from test_theorems import _box_histogram, _walk_histogram


def edited(target: str, old: str, new: str):
    """The target function with `old` replaced by `new` in its source,
    compiled with its module's globals at the file's line numbers."""
    module, owner, name = _resolve(target)
    lines, first = inspect.getsourcelines(getattr(owner, name))
    source = textwrap.dedent("".join(lines))
    assert source.count(old) == 1, f"{target} holds {source.count(old)} copies of {old!r}"
    assert old.count("\n") == new.count("\n"), "an edit keeps the line numbers"
    # a def compiled alone does not see its file's `from __future__ import annotations`
    code = compile("\n" * (first - 1) + source.replace(old, new), inspect.getfile(module),
                   "exec", flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace = {}
    exec(code, vars(module), namespace)
    return namespace[name]


def plant(monkeypatch, target: str, old: str | None, new):
    """Install the edit, or with old None the value `new`, in place of the
    target: on its class for a method, and otherwise in every frobq module
    that holds the original, since a `from` import copies it."""
    _, owner, name = _resolve(target)
    planted = new if old is None else edited(target, old, new)
    if inspect.isclass(owner):
        monkeypatch.setattr(owner, name, planted)
        return
    original = getattr(owner, name)
    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "frobq"]:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, planted)


def _resolve(target: str):
    # (module, the object holding the last name, the last name)
    module_name, *path, name = target.split(".")
    module = importlib.import_module(f"frobq.{module_name}")
    return module, functools.reduce(getattr, path, module), name


def exits(code: int, *lines: dict) -> Callable:
    def caught(result):
        got, out = result
        return (got == code and len(out) == len(lines)
                and all(fields.items() <= line.items() for fields, line in zip(lines, out)))
    return caught


def raises(error: type, **attributes) -> Callable:
    def caught(result):
        return isinstance(result, error) and all(
            getattr(result, key) == value for key, value in attributes.items())
    return caught


class Row(NamedTuple):
    name: str
    target: str
    old: str | None
    new: Any
    check: Callable[[], bool] | list
    caught: Any


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _all_ones(order):
    return qseries.TruncSeries(qseries.ZZ, [1] * (order + 1))


def _route_two(order):
    # route 2 against route 1's counts, k 1-3, alpha -4..2, both variants
    return not any(disagreements(variant, k, alpha, {"bivar": order, "count": order})
                   for variant in VARIANTS for k in (1, 2, 3) for alpha in range(-4, 3))


def _colored_five():
    # route 3 against route 2 at colored k=5, where the theta power runs
    return not disagreements("colored", 5, -2, {"theta": 20, "bivar": 20})


def _shifted_exponent_refused():
    # the detector the benchmark's self-check trips, at k=2: one
    # non-constant coordinate
    try:
        theorems.phi_theta_series(2, -1, 10, zeta_exponent_shift=1)
    except theorems.NonIntegralCoefficientError:
        return True
    return False


def _psi2_equals_phi2m1():
    # the one check that divides by (1 + q^e), at a size that packs
    return not disagreements("repetition", 2, -1, {"psi2": 1200, "phi2m1": 1200})


ZETA_PLUS_ONE = ("theorems._lattice_table", "e = k * alpha", "e = k * alpha + 1")
PSI2_MINUS_SIX = "-,2,0,1; -,6,0,1; +,2,0,-1; -,1,0,-2"  # (1 - q^6i) for (1 + q^6i)
REVERSED_SWEEP = ("qseries.BivarSeries._sweep", "reverse=dz > 0", "reverse=dz < 0")
_JTP = ["verify", "--target", "jtp", "--N", "30"]

ROWS = [
    # the named checks of the CLI
    Row("thm4 sees a count off the progression", "theorems.cphi2m1_product", None, _all_ones,
        ["verify", "--target", "thm4", "--N", "30"],
        exits(1, {"status": "fail", "first_violation": 4})),
    Row("jtp sees a wrong theta coefficient", "theorems.jacobi_triple",
        "return product, theta", "theta.rows[1][5] = 7; return product, theta",
        _JTP, exits(1, {"status": "fail", "z": 1, "first_divergence": 5})),
    # a wrong sign at q^5 first shows in the lowest row it reaches, z^-7
    # (reached at q^21 from z^0), at q^26
    # a reversed sweep first shows in row z^-8, at q^29
    Row("jtp sees a reversed BivarSeries sweep", *REVERSED_SWEEP, _JTP,
        exits(1, {"status": "fail", "z": -8, "first_divergence": 29})),
    # a sweep that starts one slot late drops each source's first nonzero
    # coefficient; row z^-8 starts at q^28
    Row("jtp sees a BivarSeries sweep start one slot late", "qseries.BivarSeries._sweep",
        "lo = next(compress(count(), source), n)", "lo = next(compress(count(), source), n) + 1",
        _JTP, exits(1, {"status": "fail", "z": -8, "first_divergence": 28})),
    Row("jtp sees a flipped pentagonal sign", "theorems.jacobi_triple",
        "euler = euler_product(order).coeffs",
        "euler = [-c if e == 5 else c for e, c in enumerate(euler_product(order).coeffs)]",
        _JTP, exits(1, {"status": "fail", "z": -7, "first_divergence": 26})),
    *(Row(f"thm3numerator sees a wrong {stage} side", f"theorems.mod5_numerator_{stage}", None,
          _all_ones, ["verify", "--target", "thm3numerator", "--N", "30"],
          exits(1, {"status": "fail", "identity": f"mod5_numerator(product,{stage})",
                    "first_divergence": 1}))
      for stage in ("theta", "signed")),
    Row("psi2 sees (1 - q^6i) in its numerator", "theorems.PSI2_SPEC_TEXT", None, PSI2_MINUS_SIX,
        ["verify", "--target", "psi2", "--N", "30"],
        exits(1, {"status": "fail", "first_divergence": 6, "lhs": "24", "rhs": "26"})),
    Row("identities counts the psi2 failure", "theorems.PSI2_SPEC_TEXT", None, PSI2_MINUS_SIX,
        ["identities", "--N", "30"],
        exits(1, *[{"status": "pass"}] * 3, {"status": "fail", "name": "psi2"},
              *[{"status": "pass"}] * 2, {"failures": 1})),
    Row("identities sees a wrong euler cube", "cli._euler_cube", '"-,1,0,3"', '"-,1,0,2"',
        ["identities", "--N", "30"],
        exits(1, {"status": "fail", "name": "euler_cube"}, *[{"status": "pass"}] * 5,
              {"failures": 1})),
    Row("cor1 sees a wrong product side", "theorems.phi2m1_product", None, _all_ones,
        ["verify", "--target", "cor1", "--N", "10"],
        exits(1, {"status": "fail", "first_divergence": 1})),

    # the routes share no code
    Row("route 3 names the product DSL", "theorems.cphi_theta_series",
        "_divide_by_euler(coeffs, k)", "_divide_by_euler(coeffs, k); product_from_spec",
        lambda: not crossings(), False),
    Row("route 3 names the battery's euler_cube", "theorems._divide_by_euler",
        "odd, even = _pentagonal_exponents(order)",
        "odd, even = _pentagonal_exponents(order); euler_cube", lambda: not crossings(), False),
    # route 2 packs its rows with its own kernel, not route 4's nor the battery's
    *(Row(f"route 2 names {name}", "frobenius._PackedRows.sweep", "source = rows[z]",
          f"source = rows[z]; from .{module} import {name}", lambda: not crossings(), False)
      for module, name in (("_packed", "Packed"), ("qseries", "BivarSeries"))),

    # route 1, against route 3 or the arrays it builds
    Row("counts skip the split with an empty bottom sum", "frobenius._row_pairs",
        "if bottoms:", "if bottoms and n2:",
        lambda: (not disagreements("repetition", 2, -1, {"count": 0, "theta": 0})
                 or not disagreements("colored", 3, 1, {"count": 5, "theta": 5})), False),
    Row("colored counts weigh every coloring one", "frobenius._colored_count",
        "prod(comb(k, len(list(g))) for _, g in itertools.groupby(row))", "1",
        lambda: not disagreements("colored", 2, -1, {"count": 0, "enum": 0}), False),
    Row("colored rows miss the lone zero of color 1", "frobenius._colored_rows",
        "choices.append(runs[key])", "choices.append([c for c in runs[key] if c != ((0, 1),)])",
        lambda: any(not disagreements("colored", k, -1, {"enum": 0, "bivar": 0})
                    for k in (1, 3)), False),

    # route 2, against route 1's counts
    Row("route 2 cuts at lam + 3", "frobenius.bivar_coefficient_series",
        "acc.cut(lam + 2)", "acc.cut(lam + 3)",
        lambda: any(not disagreements(variant, 2, -1, {"bivar": 10, "count": 10})
                    for variant in VARIANTS), False),
    Row("route 2 starts one row short at the top", "frobenius.bivar_coefficient_series",
        "min(k, order - alpha)", "min(k, order - alpha) - 1", lambda: _route_two(12), False),
    Row("route 2 starts one row short at the bottom", "frobenius.bivar_coefficient_series",
        "max(0, -alpha - order)", "max(0, -alpha - order) + 1", lambda: _route_two(12), False),
    Row("route 2 colored weights one short", "frobenius.bivar_coefficient_series",
        "_binomials(k, 0, min(k, order), 1)", "_binomials(k, 0, min(k, order) - 1, 1)",
        lambda: _route_two(12), False),
    Row("route 2 charges the bottom factor lam + 2", "frobenius.bivar_coefficient_series",
        "j * (lam + 1)", "j * (lam + 1 + (sign < 0))", lambda: _route_two(12), False),
    # a row that keeps one slot, q^0, still reaches q^order of row alpha
    Row("route 2 cut drops the rows at the window's edge", "frobenius._PackedRows.cut",
        "if keep <= 0:", "if keep <= 1:", lambda: _route_two(12), False),
    Row("route 2 sweeps the wrong way", "frobenius._PackedRows.sweep", "reverse=descending",
        "reverse=not descending", lambda: _route_two(2), False),
    Row("route 2 term mask one slot short", "frobenius._PackedRows.sweep",
        "y &= (1 << live * bits) - 1", "y &= (1 << (live - 1) * bits) - 1",
        lambda: _route_two(12), False),
    # the largest entries sit in the top slots, so an overflow first carries
    # past the end of row alpha
    Row("route 2 range check never widens", "frobenius._PackedRows.fit",
        "functools.reduce(or_, self.rows.values(), 0) & head",
        "functools.reduce(or_, self.rows.values(), 0) & 0",
        lambda: _route_two(12), raises(OverflowError)),
    Row("bivar_work one term short", "frobenius.bivar_work",
        "for lam in range(order + 1):", "for lam in range(1, order + 1):",
        lambda: frobenius.bivar_work(2, 2169) <= frobenius.MAX_BIVAR_WORK
        < frobenius.bivar_work(2, 2170), False),

    # route 3
    Row("lattice walk with a short interval", "theorems._interval",
        "(s - c) // (free + 1)", "(s - c) // (free + 1) - 1",
        lambda: any(_walk_histogram(*case) == _box_histogram(*case)
                    for case in ((2, -1, 7), (3, 0, 7), (4, 2, 20))), False),
    Row("zeta + 1 at k=2, alpha=-1 shows at q^0", *ZETA_PLUS_ONE,
        lambda: not disagreements("repetition", 2, -1, {"theta": 10, "phi2m1": 10}),
        raises(theorems.NonIntegralCoefficientError, index=0, value=CycInt(3, [0, 1]))),
    Row("theorem reports zeta + 1 as non-integral", *ZETA_PLUS_ONE,
        ["theorem", "--which", "1", "--k", "2", "--alpha", "-1", "--N", "5"],
        exits(1, {"status": "fail", "integral": False, "index": 0,
                  "detail": "coefficient of q^0 is not a rational integer: CycInt(3, [0, 1])"})),
    *(Row(f"zeta + 1 at k={k}, alpha={alpha} shows at q^{index}", *ZETA_PLUS_ONE,
          lambda k=k, alpha=alpha: not disagreements("repetition", k, alpha,
                                                      {"theta": 20, "bivar": 20}),
          raises(theorems.NonIntegralCoefficientError, index=index, value=value))
      for k, alpha, index, value in ((2, 5, 9, CycInt(3, [0, 1])),
                                     (4, 5, 6, CycInt(5, [0, 1, 0, 0])),
                                     (3, -6, 3, CycInt(4, [0, 1])))),
    # colored k <= 4 folds the walk's k + 1 exponent columns, each weighed 1
    Row("colored fold drops the last exponent column", "theorems._fold",
        "enumerate(weights)", "enumerate(weights[:-1])",
        lambda: not disagreements("colored", 3, 0, {"theta": 20, "count": 20}), False),
    # at k=2, alpha=-1 only the constant coordinate subtracts column 0, so
    # the integrality scan cannot see it; route 1 does
    Row("fold adds a column that it should subtract", "theorems._fold",
        "sub if w < 0 else add", "sub if w < 0 < e else add",
        lambda: not disagreements("repetition", 2, -1, {"theta": 20, "count": 20}), False),
    Row("integrality scan skips the last coordinate", "theorems.phi_theta_series",
        "zip(*others)", "zip(*others[:-1])", _shifted_exponent_refused, False),
    Row("pentagonal division with a wrong sign", "theorems._divide_by_euler",
        "acc -= coeffs[n - g]", "acc += coeffs[n - g]",
        lambda: not disagreements("colored", 2, -1, {"theta": 50, "cphi2m1": 50}), False),
    # colored k=5 runs the theta power and one cube division
    Row("cube division with a wrong sign on even j", "theorems._divide_by_euler",
        "2 * j + 1 if j % 2 else -2 * j - 1", "2 * j + 1", _colored_five, False),
    Row("theta power cut keeps one coefficient fewer", "theorems._theta_power",
        "keep = order + 1 - _split_cost(left, alpha - z)",
        "keep = order - _split_cost(left, alpha - z)", _colored_five, False),
    Row("balanced split costed with a + 1 for a", "theorems._split_cost",
        "(r - b) * a * (a + 1)", "(r - b) * (a + 1) * (a + 2)", _colored_five, False),

    # route 4, the product DSL
    # (1 + q^e) and (1 - q^e) netted together, under the first sign seen
    Row("netting keyed on e alone", "qseries.product_from_spec",
        "net[f.sign, e] = net.get((f.sign, e), 0) + f.exponent",
        "sign = -f.sign if (-f.sign, e) in net else f.sign; "
        "net[sign, e] = net.get((sign, e), 0) + f.exponent",
        lambda: not disagreements("colored", 2, -1, {"cphi2m1": 100, "theta": 100}), False),
    Row("block division reads its source one slot late", "qseries._apply_binomial",
        "coeffs[i - e:i]", "coeffs[i - e + 1:i + 1]",
        lambda: not disagreements("repetition", 2, -1, {"phi2m1": 100, "theta": 100}), False),
    Row("packed digits not written back", "qseries._expand_run",
        "digits = packed.digits()", "packed.digits()",
        lambda: not disagreements("colored", 2, -1, {"cphi2m1": 1200, "theta": 1200}), False),
    Row("deferred list passes dropped", "qseries._expand_run",
        "rest.append((sign, s, times))", "pass", _psi2_equals_phi2m1, False),
    Row("packed slots widen by zero bytes", "_packed.Packed._step",
        "self._widen(self.nbytes + 1 + self.nbytes // 4)", "self._widen(self.nbytes)",
        _psi2_equals_phi2m1, False),
    Row("packed range check never fires", "_packed.Packed._step",
        "(self.y + self.room) & self.head", "(self.y + self.room) & 0",
        _psi2_equals_phi2m1, False),
    # phi2m1 only divides by (1 - q^e), so against route 3 it misses this one
    Row("packed subtraction adds", "_packed.Packed._step",
        "(y | self.top) - shifted", "(y | self.top) + shifted", _psi2_equals_phi2m1, False),
]


def _result(check, capsys):
    # the check's value or exception, or cli.main's exit code and JSON lines
    if callable(check):
        try:
            return check()
        except Exception as error:
            return error
    code = cli.main(check)
    return code, [json.loads(line) for line in capsys.readouterr().out.splitlines()]


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_planted_bug_is_caught(row, monkeypatch, capsys):
    real = _result(row.check, capsys)
    assert (real is True) if callable(row.check) else real[0] == 0, real
    plant(monkeypatch, row.target, row.old, row.new)
    result = _result(row.check, capsys)
    assert result is False if row.caught is False else row.caught(result), result

