"""The boundary of every input guard of frobq, one table.

Each guard limit (a module-level `MAX_*` constant in `src/frobq`) gets its
largest accepted input, which must run to completion within its timeout,
and its first refusal, one step past it, which must exit at once with the
guard's message.  Every row runs in a fresh interpreter, one at a time,
under its timeout and, where a row gives one, an address-space cap.  The
accepted rows take 0.1-15 s each, and the whole table a minute or two.

    PYTHONPATH=src python tests/guard_boundaries.py

prints one line per row and exits 1 at the first row that misses.  The file
is not a pytest module, since its rows take too long for the test suite;
`tests/test_guard_boundaries.py` checks that the table names every guard
limit, each with an accepted row and a refusal.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

SRC = Path(__file__).resolve().parents[1] / "src"
GIB = 1 << 30


class Row(NamedTuple):
    guard: str  # the limit probed, as "module.MAX_NAME"
    argv: tuple  # the interpreter's arguments: `cli(...)` or `call(...)`
    timeout: float  # seconds, interpreter start included
    cap: int | None  # address-space cap in bytes, or None
    code: int  # expected exit code
    # a substring of stderr, or a predicate on stdout; stdout is read only
    # for a predicate or a refusal, which must print nothing
    expect: str | Callable[[str], bool] | None = None


def cli(*args) -> tuple:
    return ("-m", "frobq.cli", *map(str, args))


def call(code: str) -> tuple:
    # a library call, for the guards no subcommand reaches; a refusal is an
    # uncaught ValueError, so the interpreter exits 1 with its traceback
    return ("-c", code)


def scan(order: int) -> tuple:
    # the series (q;q), every step up to its order, modulus 2
    return cli("scan", "--spec=-,1,0,1", "--N", order, "--maxA", order, "--maxM", 2,
               "--min-witnesses", 1)


def theorem(which: int, k: int, alpha: int, order: int) -> tuple:
    return cli("theorem", "--which", which, "--k", k, "--alpha", alpha, "--N", order)


def enum(variant: str, k: int, alpha: int, n: int, *extra) -> tuple:
    return cli("enumerate", "--variant", variant, "--k", k, "--alpha", alpha, "--n", n, *extra)


def closed_form(E: int) -> Callable[[str], bool]:
    # 1/(1 - q)^E through q^3, as `expand` prints it
    want = [str(c) for c in (1, E, math.comb(E + 1, 2) + E, math.comb(E + 2, 3) + E * E + E)]
    return lambda out: json.loads(out)["coefficients"] == want


def sha256(digest: str) -> Callable[[str], bool]:
    # stdout byte for byte, for a row whose output a rewrite must not change
    return lambda out: hashlib.sha256(out.encode()).hexdigest() == digest


CPHI2M1 = "--spec=-,2,0,1; +,2,0,1; +,2,2,1; -,1,0,-2"
BIVAR = "from frobq.frobenius import bivar_coefficient_series as f; f('colored', {}, {}, {})"
ENUM = "from frobq.frobenius import enumerate_arrays as f; print(len(f('colored', 6, -3, {})))"

ROWS = (
    # the cphi2m1 spec at N = 8450 counts 124,971,956 updates; 1/(q;q) is
    # the costliest shape (nothing nets, stride 1, every pass divides)
    Row("qseries.MAX_PRODUCT_WORK", cli("expand", CPHI2M1, "--N", 8450), 30, None, 0),
    Row("qseries.MAX_PRODUCT_WORK", cli("expand", CPHI2M1, "--N", 8451), 30, None, 2,
        "product guard"),
    Row("qseries.MAX_PRODUCT_WORK", cli("expand", "--spec=-,1,0,-1", "--N", 15810), 30, None, 0),
    Row("qseries.MAX_PRODUCT_WORK", cli("expand", "--spec=-,1,0,-1", "--N", 15811), 30, None, 2,
        "product guard"),
    # 125,000,000 one-update passes, each counted as MIN_PASS_WORK
    Row("qseries.MAX_PRODUCT_WORK", cli("expand", "--spec=-,1,0,-125000000", "--N", 1), 5, None,
        2, "product guard"),
    # 124,999,980 updates: the costliest shape of one-update passes, and the
    # one accepted shape whose packed int lasts to the end of the expansion
    Row("qseries.MAX_PRODUCT_WORK", cli("expand", "--spec=-,1,0,-2083333", "--N", 3), 30, None, 0,
        closed_form(2083333)),
    Row("qseries.MAX_PRODUCT_WORK", cli("expand", "--spec=-,1,0,-2083334", "--N", 3), 30, None, 2,
        "product guard"),
    # 20 updates, but N + 1 coefficients, each counted as MIN_PASS_WORK
    Row("qseries.MAX_PRODUCT_WORK", cli("expand", "--spec=+,6250000,0,1", "--N", 6250000), 5,
        None, 2, "product guard"),
    Row("qseries.MAX_PRODUCT_WORK", cli("expand", "--spec=+,6250000,0,1", "--N", 6249999), 30,
        GIB, 0),
    # one 2,000,000-bit constant, 2^1999999, printed in decimal: exactly
    # 4*10^12 squared bits, about 6 s of conversion
    Row("cli.MAX_PRINT_WORK", cli("expand", "--spec=+,1,1,1999999", "--N", 0), 30, None, 0,
        lambda out: int(json.loads(out)["coefficients"][0][-20:]) == pow(2, 1999999, 10**20)),
    Row("cli.MAX_PRINT_WORK", cli("expand", "--spec=+,1,1,2000000", "--N", 0), 5, None, 2,
        "print guard: 4000004000001 squared coefficient bits exceed MAX_PRINT_WORK"),
    Row("theorems.MAX_JACOBI_WORK", cli("verify", "--target", "jtp", "--N", 961), 20, None, 0),
    Row("theorems.MAX_JACOBI_WORK", cli("verify", "--target", "jtp", "--N", 962), 20, None, 2,
        "triple product guard"),
    # the count is a closed form: its sum over rows ran for minutes here
    Row("theorems.MAX_JACOBI_WORK", cli("identities", "--N", 10**18), 5, None, 2,
        "triple product guard"),
    Row("theorems.MAX_JACOBI_WORK", cli("verify", "--target", "jtp", "--N", 10**18), 5, None, 2,
        "triple product guard"),
    # 59,999,702 updates dividing by (q;q)^2; N = 91418 makes 60,000,688
    Row("theorems.MAX_DIVISION_WORK", theorem(2, 2, -1, 91417), 30, None, 0),
    Row("theorems.MAX_DIVISION_WORK", theorem(2, 2, -1, 91418), 30, None, 2, "division guard"),
    Row("theorems.MAX_LATTICE_BOX", theorem(2, 6, 0, 72), 30, GIB, 0),
    Row("theorems.MAX_LATTICE_BOX", theorem(1, 6, 0, 72), 30, GIB, 0,
        sha256("9e129ccb2d789d8adba5a1480a4f27240eb1a883bc5de16077b1bcaa99e31993")),
    Row("theorems.MAX_LATTICE_BOX", theorem(2, 6, 0, 73), 5, GIB, 2,
        "lattice guard: box of 6436343 points"),
    Row("theorems.MAX_LATTICE_BOX", theorem(1, 6, 0, 73), 5, GIB, 2,
        "lattice guard: box of 6436343 points"),
    Row("frobenius.MAX_BIVAR_WORK", call(BIVAR.format(4, -2, 1613)), 30, GIB, 0),
    Row("frobenius.MAX_BIVAR_WORK", call(BIVAR.format(4, -2, 1614)), 5, GIB, 1,
        "ValueError: bivariate guard"),
    # two-word starting weights C(100, j): 149,231,082 weighted slots; N =
    # 363 counts 150,124,194
    Row("frobenius.MAX_BIVAR_WORK", call(BIVAR.format(100, -50, 362)), 30, GIB, 0),
    Row("frobenius.MAX_BIVAR_WORK", call(BIVAR.format(100, -50, 363)), 5, GIB, 1,
        "ValueError: bivariate guard: 150124194 slice entries counted"),
    # 1,499,046 triples; N = maxA = 1732 makes 1,500,778
    Row("congruence.MAX_SCAN_TRIPLES", scan(1731), 30, GIB, 0),
    Row("congruence.MAX_SCAN_TRIPLES", scan(1732), 5, GIB, 2,
        "scan guard: 1500778 (M, A, B) triples"),
    # 7,331,136 row entries in long, nearly all distinct rows
    Row("cli.MAX_LIST_ENTRIES", enum("colored", 6, -19, 28, "--list"), 30, GIB, 0,
        sha256("ba59848105211e98b0f661143134b4254871dc56ac7d48f82da45be506ea65c1")),
    Row("cli.MAX_LIST_ENTRIES", enum("colored", 6, -19, 29, "--list"), 5, GIB, 2,
        "enumeration guard: 20177454 row entries exceed MAX_LIST_ENTRIES"),
    # 800,934 arrays; n = 18 has 1,285,563
    Row("cli.MAX_LIST_ARRAYS", enum("colored", 3, -2, 17, "--list"), 30, GIB, 0,
        sha256("7b92e5796137533033c677bab6d4e6a7f322c94e52879e0d5d16ca64d07a5600")),
    Row("cli.MAX_LIST_ARRAYS", enum("colored", 3, -2, 18, "--list"), 5, GIB, 2,
        "enumeration guard: 1285563 arrays exceed MAX_LIST_ARRAYS=1200000"),
    Row("frobenius.MAX_ENUM_WEIGHT", enum("colored", 6, 0, 30), 30, GIB, 0),
    Row("frobenius.MAX_ENUM_WEIGHT", enum("colored", 6, 0, 31), 5, GIB, 2,
        "enumeration guard: weight 31 exceeds MAX_ENUM_WEIGHT"),
    # bottom rows of up to 400 entries, every one cached: about 640 MiB
    Row("frobenius.MAX_ENUM_ROW", enum("repetition", 1000, -370, 30), 30, GIB, 0),
    Row("frobenius.MAX_ENUM_ROW", enum("repetition", 1000, -371, 30), 5, GIB, 2,
        "enumeration guard: rows of up to 401 entries exceed MAX_ENUM_ROW"),
    # --list refuses far fewer arrays, so only the library call reaches it
    Row("frobenius.MAX_ENUM_ARRAYS", call(ENUM.format(10)), 30, GIB, 0,
        lambda out: out == "9088704\n"),
    Row("frobenius.MAX_ENUM_ARRAYS", call(ENUM.format(11)), 5, GIB, 1,
        "ValueError: enumeration guard: 21450960 arrays exceed MAX_ENUM_ARRAYS=10000000"),
)


def _miss(row: Row, code, out: str, err: str) -> str | None:
    # why the row missed, or None when it held
    if code != row.code:
        return f"exit {code}, expected {row.code}"
    if row.code and out:
        return "a refusal printed to stdout"
    if isinstance(row.expect, str) and row.expect not in err:
        return f"stderr lacks {row.expect!r}"
    if callable(row.expect) and not row.expect(out):
        return "stdout failed its check"
    return None


def run(row: Row) -> str | None:
    def limit():
        if row.cap is not None:
            resource.setrlimit(resource.RLIMIT_AS, (row.cap, row.cap))

    path = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    read = row.code != 0 or callable(row.expect)
    try:
        proc = subprocess.run([sys.executable, *row.argv], env=env, text=True,
                              stdout=subprocess.PIPE if read else subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=row.timeout, preexec_fn=limit)
    except subprocess.TimeoutExpired:
        return f"still running after {row.timeout} s"
    miss = _miss(row, proc.returncode, proc.stdout or "", proc.stderr)
    return miss and f"{miss}; stderr: {proc.stderr[-500:]!r}"


def main() -> int:
    for row in ROWS:
        started = time.perf_counter()
        miss = run(row)
        shown = shlex.join(("frobq", *row.argv[2:])) if row.argv[0] == "-m" else row.argv[1]
        print(f"{'MISS' if miss else 'ok':4} {time.perf_counter() - started:6.2f} s  "
              f"{row.guard}  exit {row.code}  {shown}", flush=True)
        if miss:
            print(f"  {miss}", flush=True)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
