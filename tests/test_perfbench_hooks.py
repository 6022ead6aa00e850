"""The benchmark still finds every frobq name it uses: the traced mode
(perfbench/tracing.py) wraps them and the setup probe (perfbench/child.py)
warms each workload through them.  The guards accept every task it runs."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import frobq.frobenius as frobenius
import frobq.qseries as qseries
import frobq.theorems as theorems

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up by name while it is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", WORKLOADS)
def test_setup_probe_warms_every_workload(workload):
    # the probe that `setup_s` times; a frobq name it calls must not go missing
    _load("child").warm(workload)


def _wrapped_names():
    return (qseries.product_from_spec, qseries.TruncSeries.inverse, qseries.TruncSeries.__mul__,
            qseries.BivarSeries.__mul__, theorems.psi2_product, theorems.quad_exponent,
            theorems.cphi_theta_series, frobenius.bivar_coefficient_series)


def test_hooks_trace_product_psi2_and_bivar_then_uninstall():
    tracing = _load("tracing")
    originals = _wrapped_names()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert _wrapped_names() != originals
        series = qseries.product_from_spec(qseries.parse_product_spec("-,1,0,-1; +,2,1,1"), 20)
        series * series.inverse()
        theorems.psi2_product(20)
        frobenius.bivar_coefficient_series("colored", 2, -1, 8)
        # the bivariate route multiplies in place, so call the general
        # product directly to keep its wrapper covered
        factor = qseries.BivarSeries.from_terms(8, -2, 2, [(0, 0, 1), (1, 1, 1), (2, 3, 1)])
        factor * factor
        theorems.cphi_theta_series(2, -1, 10)
    finally:
        uninstall()
    assert _wrapped_names() == originals

    names = {span[0] for span in tracer.spans}
    assert {"qseries.product_from_spec", "qseries.inverse", "qseries.mul", "theorems.psi2",
            "frobenius.bivar", "qseries.bivar_mul", "theorems.theta"} <= names
    metrics = tracing.pass_metrics(tracer.spans, 0, tracer.counts)
    # the spec's 20 binomials, then psi2(20)'s 10 + 3 + 10 + 40
    assert metrics["qseries.factors_applied"] == 20 + 10 + 63
    # only the explicit call: products, psi2 and the theta route divide in place
    assert metrics["qseries.inverse.calls"] == 1
    # only the direct product: (1 + zq + z^2q^3)^2 has rows z^0, z^1, z^2
    # (z^3 and z^4 fall outside the window [-2, 2])
    assert metrics["qseries.bivar_mul.calls"] == 1
    assert metrics["qseries.bivar_rows"] == 3
    # the window is recorded by the BivarSeries.__mul__ wrapper, which the
    # bivariate route no longer calls
    assert metrics["frobenius.bivar.zwindow"] == 0
    # the theta route walks the lattice without calling quad_exponent per point
    assert metrics["theorems.lattice.visited"] == 0


def test_guards_accept_every_arrays_task():
    # routes 1 and 2 refuse by counts that take no time, so a task they
    # refused would fail the workload rather than time it
    tasks = _load("workloads").universe("arrays")
    assert {t.kind for t in tasks} == {"bivar", "enumerate", "count"}
    for task in tasks:
        variant, k, alpha, n = task.params
        if task.kind == "bivar":
            assert frobenius.bivar_work(k, n) <= frobenius.MAX_BIVAR_WORK
        else:
            frobenius._check_enum_args(variant, k, alpha, n)
