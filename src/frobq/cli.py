"""Command line front end.

Every computation is exposed as a batch subcommand with deterministic output:
JSON lines by default (integers as decimal strings, since coefficients
outgrow 64 bits quickly), CSV on request for the tabular commands.

Exit codes: 0 success/verified, 1 mathematical disagreement (with location),
2 usage error, violated input guard, exhausted memory or a closed stdout.

Each subcommand, and each named check, imports the modules it calls when it
runs, so a call loads only what it computes with.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from . import VARIANTS
from .qseries import (
    ZZ,
    ModRing,
    NotUnitError,
    ProductSpecError,
    first_divergence,
    parse_product_spec,
    product_from_spec,
)

# The most arrays `enumerate --list` prints.  The line is written a few
# thousand arrays at a time, so memory holds the arrays, not their JSON.
# The limit was set when every array was encoded on its own, at 6.5-6.9 us
# an array (about 7 times what building it costs), for 8-10 s and 90 MiB
# on a 2-CPU x86 guest with CPython 3.11.7.  With each row encoded once
# (`_ROW_MEMO`), colored k=3, alpha=-2, n=17 (800,934 arrays) takes 0.9 s
# and peaks at 68 MiB, and k=4, alpha=-3, n=12 (680,108) 0.9-1.0 s and
# 63 MiB, in a subprocess writing to a pipe.
MAX_LIST_ARRAYS = 1_200_000
# The most row entries `enumerate --list` prints: long rows that are nearly
# all distinct are each encoded, at 0.6-1.1 us an entry on the same guest.
# Colored k=6, alpha=-19, n=28 (7,331,136 entries) took 4.6-5.4 s and
# 140 MiB, k=8, alpha=-18, n=17 (9,834,880) 10.3 s and 182 MiB, and k=6,
# alpha=-19, n=29 (20,177,454 in 1,048,230 arrays) 13.6 s and 303 MiB.
MAX_LIST_ENTRIES = 8_000_000
# The most rows whose JSON `enumerate --list` keeps.  A top row repeats once
# for each of its bottoms and a bottom once for each top of its split, so
# a row is encoded once, not once an array: colored k=3, alpha=-2, n=17 has
# 40,429 distinct rows in 800,934 arrays.  The limit bounds the memo where
# nearly every row is distinct: colored k=6, alpha=-19, n=29 (939,711 rows
# in 1,048,230 arrays) peaked at 303 MiB with no memo, 565 MiB with every
# row kept, and 318 MiB with this limit.
_ROW_MEMO = 65_536
# how many pieces `_write` joins into one write: a write a piece made a
# small `enumerate --list` call about a third slower through a pipe
_WRITE_CHUNK = 4096


# `json.dumps(obj, sort_keys=True)` with its encoder built once, not per line
_encode = json.JSONEncoder(sort_keys=True).encode


def _write(pieces) -> None:
    # every byte of stdout goes through here, a few thousand strings a
    # write, each read from `pieces` only when its chunk is written
    pieces = iter(pieces)
    for first in pieces:
        sys.stdout.write(first + "".join(itertools.islice(pieces, _WRITE_CHUNK - 1)))


def _emit(obj) -> None:
    _write([_encode(obj) + "\n"])


def _emit_csv(header: str, rows) -> None:
    _write(itertools.chain([header + "\n"], (",".join(map(str, row)) + "\n" for row in rows)))


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
    # counted before any row is built, and built before anything is
    # written, so a refusal prints nothing
    total, entries = frobenius._list_size(args.variant, args.k, args.alpha, args.n)
    out["count"] = str(total)
    if not args.list:
        _emit(out)
        return 0
    if total > MAX_LIST_ARRAYS:
        raise ValueError(f"enumeration guard: {total} arrays exceed "
                         f"MAX_LIST_ARRAYS={MAX_LIST_ARRAYS}")
    if entries > MAX_LIST_ENTRIES:
        raise ValueError(f"enumeration guard: {entries} row entries exceed "
                         f"MAX_LIST_ENTRIES={MAX_LIST_ENTRIES}")
    arrays = frobenius.enumerate_arrays(args.variant, args.k, args.alpha, args.n)
    # the line `_emit` would print with out["arrays"], each array encoded
    # only when it is written: the envelope's one "[]" is where they go.
    # The arrays share their row tuples, and hold them for the whole call,
    # so a row's JSON is kept under its id, for the first _ROW_MEMO rows
    head, tail = _encode(dict(out, arrays=[])).split("[]")
    rows = {}

    def encode_row(row):
        text = rows.get(id(row))
        if text is None:
            text = _encode(frobenius.FrobeniusArray.json_row(row))
            if len(rows) < _ROW_MEMO:
                rows[id(row)] = text
        return text

    separators = itertools.chain([""], itertools.repeat(", "))
    encoded = ('{"bottom": %s, "top": %s}' % (encode_row(a.bottom), encode_row(a.top))
               for a in arrays)
    pieces = itertools.chain.from_iterable(zip(separators, encoded))
    _write(itertools.chain([head + "["], pieces, ["]" + tail + "\n"]))
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


def _theorems():
    from . import theorems

    return theorems


def _compare(identity, lhs, rhs, **where):
    # (ok, detail) for two series: a pass, or the first index where they
    # differ with `where` (the row of a bivariate identity) or, without it,
    # the two coefficients there
    d = first_divergence(lhs, rhs)
    if d is None:
        return True, {"identity": identity, "status": "pass"}
    detail = {"identity": identity, "status": "fail", "first_divergence": d, **where}
    if not where:
        detail.update(lhs=str(lhs.coeffs[d]), rhs=str(rhs.coeffs[d]))
    return False, detail


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


def _euler_cube(order):
    yield _compare("euler_cube", _theorems().euler_cube(order),
                   product_from_spec(parse_product_spec("-,1,0,3"), order))


def _jacobi_triple(order):
    product, theta = _theorems().jacobi_triple(order)
    for z in sorted(set(product.rows) | set(theta.rows)):
        yield _compare("jacobi_triple", product.z_slice(z), theta.z_slice(z), z=z)


def _mod5_numerator(order):
    theorems = _theorems()
    product = theorems.mod5_numerator_product(order)
    yield _compare("mod5_numerator(product,theta)", product,
                   theorems.mod5_numerator_theta(order))
    yield _compare("mod5_numerator(product,signed)", product,
                   theorems.mod5_numerator_signed(order))


def _run(check, order):
    # the check's first failing comparison, or its last one when all pass
    for ok, detail in check(order):
        if not ok:
            break
    return ok, detail


# Every named check, once: its `verify --target` name, its `identities`
# name (None where it has none) and the check, order -> its comparisons,
# each (ok, detail), which `_run` reads in turn.  `identities` runs the
# named ones in this order.  Each check imports `theorems` and looks its
# series functions up when it runs, so a patched module attribute is seen.
CHECKS = (
    ("thm3", None, lambda order: [_congruence_report(
        "phi_{2,-1}", _theorems().phi2m1_product(order), 5, 4, 5)]),
    ("thm4", None, lambda order: [_congruence_report(
        "cphi_{2,-1}", _theorems().cphi2m1_product(order), 5, 4, 5)]),
    (None, "euler_cube", _euler_cube),
    ("jtp", "jacobi_triple", _jacobi_triple),
    ("thm3numerator", "mod5_numerator", _mod5_numerator),
    ("psi2", "psi2", lambda order: [_compare(
        "psi2_product", _theorems().psi2_product(order), _theorems().phi2m1_product(order))]),
    # keyword arguments run as written: the guarded product side first, so
    # an oversized order is refused before the theta side divides
    ("cor1", "phi2m1_theta_vs_product", lambda order: [_compare(
        "phi2m1(theta,product)", rhs=_theorems().phi2m1_product(order),
        lhs=_theorems().phi_theta_series(2, -1, order))]),
    ("cor2", "cphi2m1_theta_vs_product", lambda order: [_compare(
        "cphi2m1(theta,product)", rhs=_theorems().cphi2m1_product(order),
        lhs=_theorems().cphi_theta_series(2, -1, order))]),
)
VERIFY_TARGETS = {target: check for target, _, check in CHECKS if target}


def cmd_verify(args) -> int:
    ok, detail = _run(VERIFY_TARGETS[args.target], args.N)
    detail.update(command="verify", target=args.target, N=args.N)
    _emit(detail)
    return 0 if ok else 1


def cmd_scan(args) -> int:
    from .congruence import scan_congruences

    if args.builtin:
        series = getattr(_theorems(), f"{args.builtin}_product")(args.N)
    else:
        series = product_from_spec(parse_product_spec(args.spec), args.N)
    claims = scan_congruences(
        series, args.maxA, args.maxM,
        min_witnesses=args.min_witnesses,
        primes_only=not args.all_moduli)
    if args.csv:
        _emit_csv("A,B,M,verified_up_to,status,subsumed",
                  ((c.step, c.offset, c.modulus, c.verified_up_to, c.status, c.subsumed)
                   for c in claims))
    else:
        _write(_encode(c.to_json_dict()) + "\n" for c in claims)
    return 0


def cmd_identities(args) -> int:
    # the triple product is the battery's costliest check, so its guard
    # refuses first; every check runs before printing, so a refused one
    # leaves stdout empty
    _theorems().jacobi_guard(args.N)
    details, failures = [], 0
    for _, name, check in CHECKS:
        if name:
            ok, detail = _run(check, args.N)
            detail.update(command="identities", name=name, N=args.N)
            details.append(detail)
            failures += not ok
    details.append(dict(command="identities", N=args.N, checks=len(details), failures=failures))
    _write(_encode(detail) + "\n" for detail in details)
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
    src.add_argument("--builtin", choices=("cphi2m1", "phi2m1"))
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
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader has gone: what is still buffered goes to devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _fail_usage("stdout closed")
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
