"""Command line front end.

Every computation is exposed as a batch subcommand with deterministic output:
JSON lines by default (integers as decimal strings, since coefficients
outgrow 64 bits quickly), CSV on request for the tabular commands.

Exit codes: 0 success/verified, 1 mathematical disagreement (with location),
2 usage error, violated input guard or exhausted memory.

Each subcommand, and each named check, imports the modules it calls when it
runs, so a call loads only what it computes with.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from . import VARIANTS
from .qseries import (
    ZZ,
    ModRing,
    NotUnitError,
    ProductSpecError,
    euler_product,
    first_divergence,
    parse_product_spec,
    product_from_spec,
)

# The most arrays `enumerate --list` prints.  The line is written a few
# thousand arrays at a time, so memory holds the arrays, not their JSON, and
# encoding an array costs about 7 times what building it costs.  On a 2-CPU
# x86 guest with CPython 3.11.7, best of 3 runs to /dev/null: colored k=3,
# alpha=-2, n=17 (800,934 arrays) took 5.6 s and peaked at 62 MiB, k=4,
# alpha=-3, n=12 (680,108) 4.5 s and 56 MiB, and k=10, alpha=-5, n=4
# (1,566,600) 10.2 s and 111 MiB: 6.5-6.9 us an array.  Runs on the loaded
# guest took up to 1.4 times as long, so the limit is 8-10 s and 90 MiB.
MAX_LIST_ARRAYS = 1_200_000
# how many pieces, arrays and separators, `enumerate --list` writes at once
_LIST_CHUNK = 4096

# `scan --builtin` names, each with its spec's name in `theorems`
BUILTIN_SPECS = {
    "phi2m1": "PHI2M1_SPEC_TEXT",
    "cphi2m1": "CPHI2M1_SPEC_TEXT",
}


# `json.dumps(obj, sort_keys=True)` with its encoder built once, not per line
_encode = json.JSONEncoder(sort_keys=True).encode


def _emit(obj) -> None:
    print(_encode(obj))


def _emit_csv(header: str, rows) -> None:
    print(header)
    for row in rows:
        print(",".join(map(str, row)))


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_expand(args) -> int:
    spec = parse_product_spec(args.spec)
    ring = ModRing(args.mod) if args.mod is not None else ZZ
    coeffs = list(map(str, product_from_spec(spec, args.N, ring).coeffs))
    if args.csv:
        _emit_csv("n,coefficient", enumerate(coeffs))
    else:
        out = {"command": "expand", "N": args.N, "spec": spec.render(), "coefficients": coeffs}
        if args.mod is not None:
            out["mod"] = args.mod
        _emit(out)
    return 0


def cmd_enumerate(args) -> int:
    from . import frobenius

    out = {
        "command": "enumerate",
        "variant": args.variant,
        "k": args.k,
        "alpha": args.alpha,
        "n": args.n,
    }
    if not args.list:
        count = frobenius.count_phi if args.variant == "repetition" else frobenius.count_cphi
        out["count"] = str(count(args.k, args.alpha, args.n))
        _emit(out)
        return 0
    # built before anything is written, so a refusal prints nothing
    arrays = frobenius.enumerate_arrays(args.variant, args.k, args.alpha, args.n,
                                        limit=MAX_LIST_ARRAYS)
    out["count"] = str(len(arrays))
    # the line `_emit` would print with out["arrays"], written array by
    # array: with sorted keys "arrays" follows "alpha" and precedes the rest
    alpha = _encode({"alpha": out.pop("alpha")})
    rest = _encode(out)
    separators = itertools.chain([""], itertools.repeat(", "))
    encoded = map(_encode, map(frobenius.FrobeniusArray.to_json_dict, arrays))
    pieces = itertools.chain.from_iterable(zip(separators, encoded))
    write = sys.stdout.write
    write(alpha[:-1] + ', "arrays": [')
    # a few thousand pieces a write: a write a piece made a small --list
    # call about a third slower through a pipe
    while chunk := "".join(itertools.islice(pieces, _LIST_CHUNK)):
        write(chunk)
    write("], " + rest[1:] + "\n")
    return 0


def cmd_theorem(args) -> int:
    from . import theorems

    out = {"command": "theorem", "which": args.which, "k": args.k,
           "alpha": args.alpha, "N": args.N}
    if args.which == 1:
        try:
            series = theorems.phi_theta_series(args.k, args.alpha, args.N)
        except theorems.NonIntegralCoefficientError as exc:
            out.update(status="fail", integral=False, index=exc.index, detail=str(exc))
            _emit(out)
            return 1
        out["integral"] = True
    else:
        series = theorems.cphi_theta_series(args.k, args.alpha, args.N)
    out["coefficients"] = list(map(str, series.coeffs))
    out["status"] = "pass"
    if args.csv:
        _emit_csv("n,coefficient", enumerate(out["coefficients"]))
    else:
        _emit(out)
    return 0


def _series_comparison(name, lhs, rhs):
    d = first_divergence(lhs, rhs)
    if d is None:
        return True, {"identity": name, "status": "pass"}
    return False, {
        "identity": name,
        "status": "fail",
        "first_divergence": d,
        "lhs": str(lhs.coeffs[d]),
        "rhs": str(rhs.coeffs[d]),
    }


def _theorems():
    from . import theorems

    return theorems


def _euler_cube_comparison(order):
    e = euler_product(order)
    return _series_comparison("euler_cube", _theorems().euler_cube(order), e * e * e)


def _jacobi_comparison(order):
    product, theta = _theorems().jacobi_triple(order)
    for z in sorted(set(product.rows) | set(theta.rows)):
        d = first_divergence(product.z_slice(z), theta.z_slice(z))
        if d is not None:
            return False, {"identity": "jacobi_triple", "status": "fail",
                           "z": z, "first_divergence": d}
    return True, {"identity": "jacobi_triple", "status": "pass"}


def _theta_vs_product(name, theta, product, order):
    # the guarded product side first, so an oversized order is refused
    # before the theta side's division runs
    rhs = product(order)
    return _series_comparison(name, theta(2, -1, order), rhs)


def _mod5_numerator_comparison(order):
    theorems = _theorems()
    product = theorems.mod5_numerator_product(order)
    theta = theorems.mod5_numerator_theta(order)
    signed = theorems.mod5_numerator_signed(order)
    ok, detail = _series_comparison("mod5_numerator(product,theta)", product, theta)
    if not ok:
        return ok, detail
    return _series_comparison("mod5_numerator(product,signed)", product, signed)


def _congruence_report(label, series, step, offset, modulus):
    from .congruence import verify_congruence

    claim = verify_congruence(series, step, offset, modulus)
    ok = claim.status == "verified"
    out = {
        "identity": label,
        "status": "pass" if ok else "fail",
        "report": f"{label}({step}n+{offset}) ≡ 0 mod {modulus}, {claim.witnesses} witnesses",
    }
    if not ok:
        out["first_violation"] = claim.first_violation
    return ok, out


# Every named check, once: its `verify --target` name, its `identities`
# name (None where it has none) and the check, order -> (ok, detail).
# `identities` runs the named ones in this order.  Each check imports
# `theorems` and looks its series functions up when it runs, so a patched
# module attribute is seen.
CHECKS = (
    ("thm3", None, lambda order: _congruence_report(
        "phi_{2,-1}", _theorems().phi2m1_product(order), 5, 4, 5)),
    ("thm4", None, lambda order: _congruence_report(
        "cphi_{2,-1}", _theorems().cphi2m1_product(order), 5, 4, 5)),
    (None, "euler_cube", _euler_cube_comparison),
    ("jtp", "jacobi_triple", _jacobi_comparison),
    ("thm3numerator", "mod5_numerator", _mod5_numerator_comparison),
    ("psi2", "psi2", lambda order: _series_comparison(
        "psi2_product", _theorems().psi2_product(order), _theorems().phi2m1_product(order))),
    ("cor1", "phi2m1_theta_vs_product", lambda order: _theta_vs_product(
        "phi2m1(theta,product)", _theorems().phi_theta_series, _theorems().phi2m1_product,
        order)),
    ("cor2", "cphi2m1_theta_vs_product", lambda order: _theta_vs_product(
        "cphi2m1(theta,product)", _theorems().cphi_theta_series, _theorems().cphi2m1_product,
        order)),
)
VERIFY_TARGETS = {target: check for target, _, check in CHECKS if target}


def cmd_verify(args) -> int:
    ok, detail = VERIFY_TARGETS[args.target](args.N)
    detail.update(command="verify", target=args.target, N=args.N)
    _emit(detail)
    return 0 if ok else 1


def cmd_scan(args) -> int:
    from .congruence import scan_congruences

    if args.builtin:
        spec = parse_product_spec(getattr(_theorems(), BUILTIN_SPECS[args.builtin]))
    else:
        spec = parse_product_spec(args.spec)
    series = product_from_spec(spec, args.N)
    claims = scan_congruences(
        series, args.maxA, args.maxM,
        min_witnesses=args.min_witnesses,
        primes_only=not args.all_moduli)
    if args.csv:
        _emit_csv("A,B,M,verified_up_to,status,subsumed",
                  ((c.step, c.offset, c.modulus, c.verified_up_to, c.status, c.subsumed)
                   for c in claims))
    else:
        for c in claims:
            _emit(c.to_json_dict())
    return 0


def cmd_identities(args) -> int:
    # the triple product is the battery's costliest check, so its guard
    # refuses first; every check runs before printing, so a refused one
    # leaves stdout empty
    _theorems().jacobi_guard(args.N)
    results = []
    for _, name, check in CHECKS:
        if name:
            ok, detail = check(args.N)
            detail.update(command="identities", name=name, N=args.N)
            results.append((ok, detail))
    for _, detail in results:
        _emit(detail)
    failures = sum(not ok for ok, _ in results)
    _emit({"command": "identities", "N": args.N, "checks": len(results), "failures": failures})
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobq",
        description="Exact q-series expansion, array enumeration, and congruence scanning.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("expand", help="expand a product-DSL spec into coefficients")
    p.add_argument("--spec", required=True, help="factors 'SIGN,PERIOD,RESIDUE,EXP' joined by ';'")
    p.add_argument("--N", type=int, required=True, help="truncation order")
    p.add_argument("--mod", type=int, help="reduce coefficients modulo this")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("enumerate", help="count or list arrays by exhaustive search")
    p.add_argument("--variant", choices=VARIANTS, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="weight")
    p.add_argument("--list", action="store_true", help="include the arrays, not just the count")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("theorem", help="closed-form series (1: repetition, 2: colored)")
    p.add_argument("--which", type=int, choices=(1, 2), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_theorem)

    p = sub.add_parser("verify", help="check one named identity or congruence")
    p.add_argument("--target", required=True, choices=tuple(VERIFY_TARGETS))
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="search for arithmetic-progression congruences")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--spec", help="product-DSL spec for the series to scan")
    src.add_argument("--builtin", choices=sorted(BUILTIN_SPECS))
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--maxA", type=int, required=True)
    p.add_argument("--maxM", type=int, required=True)
    p.add_argument("--min-witnesses", type=int, default=20, dest="min_witnesses")
    p.add_argument("--all-moduli", action="store_true", dest="all_moduli",
                   help="scan composite moduli too, not just primes")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("identities", help="run the whole identity battery")
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(func=cmd_identities)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a computed coefficient is printed whatever its size: Python's limit on
    # int-to-decimal conversion (3.11+, some 3.10 patch releases) would raise
    # ValueError, which below means a usage error
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except ProductSpecError as exc:
        return _fail_usage(f"bad product spec: {exc}")
    except NotUnitError as exc:
        return _fail_usage(f"non-invertible constant term: {exc}")
    except ValueError as exc:
        return _fail_usage(str(exc))
    except MemoryError:
        pass  # reported below, once the exception and the frames it holds are freed
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)
    return _fail_usage("out of memory")


if __name__ == "__main__":
    sys.exit(main())
