"""CLI surface: flags, output shapes, exit codes, determinism."""

import functools
import hashlib
import importlib
import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from frobq import cli, frobenius, qseries, theorems
from frobq.congruence import CongruenceClaim
from frobq.qseries import TruncSeries, first_divergence
from test_teeth import plant


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def test_expand_known_product(capsys):
    code, out, _ = run_cli(
        capsys, "expand",
        "--spec", "-,2,1,-2; -,12,8,-1; -,12,6,-1; -,12,4,-1; -,12,0,-1",
        "--N", "4")
    assert code == 0
    payload = json_lines(out)[0]
    assert payload["coefficients"] == ["1", "2", "3", "6", "10"]


def test_expand_mod_and_csv(capsys):
    # a spec with no spaces must use --spec=... so argparse does not read it as a flag
    code, out, _ = run_cli(capsys, "expand", "--spec=-,1,0,-1", "--N", "6",
                           "--mod", "5", "--csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "n,coefficient"
    assert rows[1:] == ["0,1", "1,1", "2,2", "3,3", "4,0", "5,2", "6,1"]


@pytest.mark.parametrize("argv, expected", [
    (("theorem", "--which", "2", "--k", "2", "--alpha", "-1", "--N", "5", "--csv"),
     "n,coefficient\n0,2\n1,4\n2,12\n3,24\n4,50\n5,92\n"),
    (("expand", "--spec=-,1,0,1", "--N", "5", "--mod", "5"),
     '{"N": 5, "coefficients": ["1", "4", "4", "0", "0", "1"], "command": "expand", '
     '"mod": 5, "spec": "-,1,0,1"}\n'),
])
def test_output_bytes(capsys, argv, expected):
    # the CSV of a theorem and the JSON of a reduced expansion, byte for byte
    assert run_cli(capsys, *argv) == (0, expected, "")


def test_expand_bad_spec_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "expand", "--spec=-,1,1,-1", "--N", "4")
    assert code == 2
    assert "bad product spec" in err


@pytest.mark.parametrize("mod, expected", [
    (None, (2, "", "error: non-invertible constant term: 2 is not a unit in ZZ\n")),
    ("4", (2, "", "error: non-invertible constant term: 2 is not a unit mod 4\n")),
    # 2^-1 = 3 mod 5, times 1/prod (1 + q^n) = 1 - q + 0 q^2 - q^3 + ...
    ("5", (0, '{"N": 3, "coefficients": ["3", "2", "0", "2"], "command": "expand", "mod": 5, '
              '"spec": "+,1,1,-1"}\n', "")),
])
def test_expand_inverts_the_constant_factor_or_exits_two(capsys, mod, expected):
    # 1/prod (1 + q^(n-1)) has the constant factor 1/(1 + q^0) = 1/2
    argv = ("expand", "--spec=+,1,1,-1", "--N", "3", *(("--mod", mod) if mod else ()))
    assert run_cli(capsys, *argv) == expected


@pytest.mark.parametrize("argv", [
    ("expand", "--spec=+,1,1,2000000", "--N", "0"),
    ("expand", "--spec=+,1,1,2000000", "--N", "0", "--csv"),
    ("theorem", "--which", "2", "--k", "2", "--alpha", "-1", "--N", "5"),
])
def test_print_guard_refuses_before_printing(capsys, monkeypatch, argv):
    # 2^2000000 has 2,000,001 bits: its decimal would take seconds
    if argv[0] == "theorem":
        work = sum(c.bit_length() ** 2 for c in theorems.cphi_theta_series(2, -1, 5).coeffs)
        monkeypatch.setattr(cli, "MAX_PRINT_WORK", work - 1)
    else:
        work = 2_000_001 ** 2
    started = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - started < 0.5
    assert (code, out) == (2, "")
    assert err == (f"error: print guard: {work} squared coefficient bits exceed "
                   f"MAX_PRINT_WORK={cli.MAX_PRINT_WORK}\n")


def test_print_guard_limit_is_inclusive(capsys, monkeypatch):
    argv = ("theorem", "--which", "1", "--k", "2", "--alpha", "-1", "--N", "6")
    work = sum(c.bit_length() ** 2 for c in theorems.phi_theta_series(2, -1, 6).coeffs)
    monkeypatch.setattr(cli, "MAX_PRINT_WORK", work)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json_lines(out)[0]["coefficients"] == ["1", "2", "3", "6", "10", "16", "26"]


def test_enumerate_count(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--variant", "colored",
                           "--k", "2", "--alpha", "-1", "--n", "2")
    assert code == 0
    assert json_lines(out)[0]["count"] == "12"


@pytest.mark.parametrize("variant", ["repetition", "colored"])
@pytest.mark.parametrize("k, alpha, n", [(1, 0, 6), (2, -1, 7), (3, 2, 8), (2, -3, 4), (2, 9, 3)])
def test_enumerate_count_with_and_without_list(capsys, variant, k, alpha, n):
    argv = ("enumerate", "--variant", variant, "--k", str(k), "--alpha", str(alpha), "--n", str(n))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    counted = json_lines(out)[0]
    code, out, _ = run_cli(capsys, *argv, "--list")
    assert code == 0
    listed = json_lines(out)[0]
    assert counted["count"] == listed["count"] == str(len(listed["arrays"]))
    assert list(counted) == [key for key in listed if key != "arrays"]


def test_enumerate_list_shape(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--variant", "repetition",
                           "--k", "2", "--alpha", "-1", "--n", "0", "--list")
    assert code == 0
    assert json_lines(out)[0]["arrays"] == [{"top": [], "bottom": [[0]]}]


@pytest.mark.parametrize("variant, k, alpha, n", [
    ("colored", 2, 9, 3),  # no array
    ("repetition", 2, -1, 0),  # one array
    ("colored", 1, 0, 0),
    ("repetition", 1, 0, 6),
    ("colored", 1, -2, 7),
    ("repetition", 3, 2, 8),
    ("colored", 3, -2, 6),
])
def test_enumerate_list_streams_the_line_it_used_to_build(capsys, monkeypatch,
                                                          variant, k, alpha, n):
    # the line the arrays make, printed from route 1's sorted rows with no
    # array built
    arrays = frobenius.enumerate_arrays(variant, k, alpha, n)
    old = {"command": "enumerate", "variant": variant, "k": k, "alpha": alpha, "n": n,
           "count": str(len(arrays)), "arrays": [a.to_json_dict() for a in arrays]}

    def no_arrays(*args, **kwargs):
        raise AssertionError("built the arrays")

    monkeypatch.setattr(frobenius, "enumerate_arrays", no_arrays)
    monkeypatch.setattr(frobenius, "_new_array", no_arrays)
    code, out, _ = run_cli(capsys, "enumerate", "--variant", variant, "--k", str(k),
                           "--alpha", str(alpha), "--n", str(n), "--list")
    assert code == 0
    assert out == json.dumps(old, sort_keys=True) + "\n"


# how many top rows keep the bottoms list of their split, which the tops of
# a split share, and do not get a copy of their own: every top (None), none
# or the first three
@pytest.mark.parametrize("shared", [None, 0, 3], ids=["every-row", "no-row", "three-rows"])
@pytest.mark.parametrize("variant, k, alpha, n", [
    ("repetition", 2, 0, 0),  # one array, both rows empty
    ("colored", 3, 0, 0),
    ("repetition", 2, -2, 0),  # an empty top over a row of zeros
    ("colored", 2, -2, 0),
    ("repetition", 2, 3, 5),  # every bottom row empty
    ("colored", 3, -1, 8),
    ("repetition", 3, -2, 9),
])
def test_enumerate_list_encodes_each_row_once_as_the_array_would(capsys, monkeypatch, shared,
                                                                variant, k, alpha, n):
    # each array is written from its rows' JSON: each top row encoded once,
    # and each list of bottoms once, under that list, whichever tops share
    # it; the line is the one each array's own encoding makes
    encoded = []
    real = cli._encode

    def counted(obj):
        encoded.append(obj)
        return real(obj)

    arrays = frobenius.enumerate_arrays(variant, k, alpha, n)
    head = real({"command": "enumerate", "variant": variant, "k": k, "alpha": alpha,
                 "n": n, "count": str(len(arrays)), "arrays": []}).split("[]")
    want = head[0] + "[" + ", ".join(real(a.to_json_dict()) for a in arrays) + "]" + head[1]
    by_top = frobenius._sorted_rows(variant, k, alpha, n)
    if shared is not None:
        by_top = [(top, bottoms if i < shared else list(bottoms))
                  for i, (top, bottoms) in enumerate(by_top)]
    monkeypatch.setattr(frobenius, "_sorted_rows", lambda *args: by_top)
    monkeypatch.setattr(cli, "_encode", counted)
    code, out, _ = run_cli(capsys, "enumerate", "--variant", variant, "--k", str(k),
                           "--alpha", str(alpha), "--n", str(n), "--list")
    assert code == 0
    assert out == want + "\n"
    # the envelope, each top row, and the rows of each distinct bottoms list
    lists = {id(bottoms): bottoms for _, bottoms in by_top}
    assert len(encoded) == 1 + len(by_top) + sum(map(len, lists.values()))


@pytest.mark.parametrize("obj", [
    # a claim as `scan` prints it, and one with a violation
    CongruenceClaim(5, 4, 5, 1200, "verified", witnesses=240).to_json_dict(),
    CongruenceClaim(5, 3, 5, 1200, "violated", first_violation=3).to_json_dict(),
    # a `verify` detail with a non-ASCII character
    {"command": "verify", "target": "thm3", "N": 104, "identity": "phi_{2,-1}",
     "status": "pass", "report": "phi_{2,-1}(5n+4) ≡ 0 mod 5, 21 witnesses"},
    # nested lists and dicts
    {"z": [[1, [2, [3, []]]], {"b": [0.5, -1], "a": "x"}], "y": [], "x": {}},
])
def test_emit_prints_what_json_dumps_prints(capsys, obj):
    cli._emit(obj)
    assert capsys.readouterr().out == json.dumps(obj, sort_keys=True) + "\n"


def test_enumerate_guard_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--variant", "repetition",
                           "--k", "2", "--alpha", "-1", "--n", "31")
    assert code == 2
    assert "enumeration guard" in err


def test_theorem_one_reports_integrality(capsys):
    code, out, _ = run_cli(capsys, "theorem", "--which", "1",
                           "--k", "2", "--alpha", "-1", "--N", "6")
    assert code == 0
    payload = json_lines(out)[0]
    assert payload["integral"] is True
    assert payload["coefficients"] == ["1", "2", "3", "6", "10", "16", "26"]


def _cli_env():
    # stdout block-buffered, as a shell pipeline runs `frobq`
    src = str(Path(theorems.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _run_cli_process(*argv, timeout=1, preexec_fn=None):
    return subprocess.run([sys.executable, "-m", "frobq.cli", *argv], capture_output=True,
                          text=True, env=_cli_env(), timeout=timeout, preexec_fn=preexec_fn)


def _one_gib_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_enumerate_colored_count_at_k6_fits_in_one_gib():
    # building the colored rows ran out of memory here; the count weights
    # the repetition rows instead
    proc = _run_cli_process("enumerate", "--variant", "colored", "--k", "6", "--alpha", "0",
                            "--n", "20", timeout=10, preexec_fn=_one_gib_address_space)
    assert proc.returncode == 0, proc.stderr
    assert json_lines(proc.stdout)[0]["count"] == "9436609944"


@pytest.mark.parametrize("k, alpha, n, count", [
    # 9,436,609,944 arrays: enumerate_arrays refuses them at any limit
    (6, 0, 20, 9436609944),
    # 2,039,583 arrays: enumerate_arrays builds them in about 2 s, but
    # --list would print about 180 MB of JSON in some 16 s
    (3, -2, 19, 2039583),
])
def test_enumerate_list_guard_exits_two_quickly(k, alpha, n, count):
    # the count decides before any row is built, under the cap CI runs with
    proc = _run_cli_process("enumerate", "--variant", "colored", "--k", str(k), "--alpha",
                            str(alpha), "--n", str(n), "--list",
                            preexec_fn=_one_gib_address_space)
    assert proc.returncode == 2
    assert f"enumeration guard: {count} arrays exceed MAX_LIST_ARRAYS={cli.MAX_LIST_ARRAYS}" \
        in proc.stderr
    assert proc.stdout == ""


def test_enumerate_list_refuses_long_rows_before_building_them(capsys, monkeypatch):
    # 1,048,230 arrays pass MAX_LIST_ARRAYS, but their 20,177,454 entries,
    # in bottom rows that are nearly all distinct, took 13.6 s and 303 MiB
    def no_build(*args, **kwargs):
        raise AssertionError("built rows before refusing")

    monkeypatch.setattr(frobenius, "enumerate_arrays", no_build)
    monkeypatch.setattr(frobenius, "_sorted_rows", no_build)
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "enumerate", "--variant", "colored", "--k", "6",
                             "--alpha", "-19", "--n", "29", "--list")
    assert time.perf_counter() - started < 0.1
    assert code == 2
    assert err == ("error: enumeration guard: 20177454 row entries exceed "
                   f"MAX_LIST_ENTRIES={cli.MAX_LIST_ENTRIES}\n")
    assert out == ""


@pytest.mark.parametrize("k, alpha, n, entries", [(3, -2, 17, 6480726), (4, -3, 12, 5488836)])
def test_enumerate_list_entry_guard_admits_the_calibration_cases(k, alpha, n, entries):
    # the two cases MAX_LIST_ARRAYS was timed on stay accepted
    assert frobenius._list_size("colored", k, alpha, n)[1] == entries <= cli.MAX_LIST_ENTRIES


def test_enumerate_list_entry_guard_is_inclusive(capsys, monkeypatch):
    args = ("enumerate", "--variant", "colored", "--k", "2", "--alpha", "-1", "--n", "4", "--list")
    arrays = frobenius.enumerate_arrays("colored", 2, -1, 4)
    entries = sum(len(a.top) + len(a.bottom) for a in arrays)
    monkeypatch.setattr(cli, "MAX_LIST_ENTRIES", entries)
    code, out, _ = run_cli(capsys, *args)
    assert code == 0 and json_lines(out)[0]["count"] == str(len(arrays))
    monkeypatch.setattr(cli, "MAX_LIST_ENTRIES", entries - 1)
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (2, "")
    assert f"enumeration guard: {entries} row entries exceed" in err


def test_enumerate_list_arrays_guard_refuses_first(capsys, monkeypatch):
    # with both --list limits exceeded, the refusal names the arrays
    args = ("enumerate", "--variant", "colored", "--k", "2", "--alpha", "-1", "--n", "4", "--list")
    total, entries = frobenius._list_size("colored", 2, -1, 4)
    monkeypatch.setattr(cli, "MAX_LIST_ARRAYS", total - 1)
    monkeypatch.setattr(cli, "MAX_LIST_ENTRIES", entries - 1)
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (2, "")
    assert err == (f"error: enumeration guard: {total} arrays exceed "
                   f"MAX_LIST_ARRAYS={total - 1}\n")


def _quarter_gib_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))


def test_enumerate_list_streams_under_a_quarter_gib():
    # the line is written a few thousand arrays at a time: holding every
    # array's JSON dict and the whole line peaked near 390 MiB and ran out
    # of memory here
    proc = _run_cli_process("enumerate", "--variant", "colored", "--k", "3", "--alpha", "-2",
                            "--n", "15", "--list", timeout=20,
                            preexec_fn=_quarter_gib_address_space)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.endswith('], "command": "enumerate", "count": "299325", "k": 3, '
                                '"n": 15, "variant": "colored"}\n')
    assert proc.stdout.count('{"bottom": ') == 299325
    # the digest of the line the whole-line encoder printed
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == \
        "1575807894a30d481912475dc2de1da87fc0a279f65fe0291087c9ab6ec727e4"


def _eighth_gib_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 27, 1 << 27))


def test_out_of_memory_exits_two_with_one_error_line():
    # the scan guard accepts this scan, which peaks near 240 MiB; under a
    # 128 MiB cap its MemoryError exited 1 with "lost sys.stderr"
    proc = _run_cli_process("scan", "--spec=-,1,0,1", "--N", "1731", "--maxA", "1731",
                            "--maxM", "2", "--all-moduli", "--min-witnesses", "1",
                            timeout=30, preexec_fn=_eighth_gib_address_space)
    assert proc.returncode == 2
    assert proc.stderr == "error: out of memory\n"
    assert proc.stdout == ""


def test_out_of_memory_is_reported_once_the_exception_is_cleared(capsys, monkeypatch):
    # the frames that filled memory are freed before the line is printed
    def exhaust(args):
        raise MemoryError

    reported = []

    def fail_usage(message, real=cli._fail_usage):
        reported.append(sys.exc_info())
        return real(message)

    monkeypatch.setattr(cli, "cmd_expand", exhaust)
    monkeypatch.setattr(cli, "_fail_usage", fail_usage)
    code, out, err = run_cli(capsys, "expand", "--spec=-,1,0,1", "--N", "3")
    assert (code, out, err) == (2, "", "error: out of memory\n")
    assert reported == [(None, None, None)]


@pytest.mark.parametrize("argv", [
    # some 6.5 MB of claims
    ("scan", "--spec=-,1,0,1", "--N", "600", "--maxA", "300", "--maxM", "3", "--all-moduli",
     "--min-witnesses", "1"),
    # some 1.4 MB and 0.2 MB: both more than a pipe holds
    ("enumerate", "--variant", "colored", "--k", "3", "--alpha", "-2", "--n", "10", "--list"),
    ("expand", "--spec=-,1,0,-1", "--N", "4000", "--csv"),
])
def test_a_reader_that_stops_early_gets_exit_two_and_one_line(argv):
    # as `| head` does: these exited 1, the code of a mathematical
    # disagreement, with a BrokenPipeError traceback
    proc = subprocess.Popen([sys.executable, "-m", "frobq.cli", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_cli_env())
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    _, err = proc.communicate(timeout=30)
    assert (proc.returncode, err) == (2, b"error: stdout closed\n")


def test_one_line_into_a_closed_pipe_exits_two():
    # the buffered line reached the pipe only in the flush at exit, which
    # printed "Exception ignored" and exited 120
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "frobq.cli", "verify", "--target", "thm3",
                               "--N", "104"], stdout=write_end, stderr=subprocess.PIPE,
                              env=_cli_env(), timeout=30)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, b"error: stdout closed\n")


@pytest.mark.parametrize("extra", [
    ("--maxA", "8", "--maxM", "1000000000"),
    ("--maxA", "20", "--maxM", "3000000", "--all-moduli"),
    ("--maxA", "20", "--maxM", "300000"),
])
def test_scan_guard_exits_two_quickly(extra):
    # the triple count refuses before the prime sieve, which alone would
    # take O(maxM) time and memory
    proc = _run_cli_process("scan", "--spec=-,1,0,1", "--N", "400", *extra,
                            preexec_fn=_one_gib_address_space)
    assert proc.returncode == 2
    assert "scan guard" in proc.stderr
    assert proc.stdout == ""


def test_theorem_lattice_guard_exits_two_quickly():
    # k=9, N=60 would walk 21^8 lattice points; the guard refuses before walking
    proc = _run_cli_process("theorem", "--which", "1", "--k", "9", "--alpha", "0", "--N", "60")
    assert proc.returncode == 2
    assert "lattice guard" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv, code, message", [
    # the walk recursed k - 1 deep: RecursionError
    (("theorem", "--which", "2", "--k", "2000", "--alpha", "0", "--N", "0"), 2,
     "lattice guard: box of 2^1999 points"),
    (("theorem", "--which", "1", "--k", "1500", "--alpha", "0", "--N", "0"), 2,
     "lattice guard: box of 2^1499 points"),
    # the guard built 3^999999999 to compare it with the limit
    (("theorem", "--which", "2", "--k", "1000000000", "--alpha", "0", "--N", "1"), 2,
     "division guard"),
    # the division by (q;q)^2 ran unguarded for minutes
    (("theorem", "--which", "2", "--k", "2", "--alpha", "0", "--N", "200000"), 2,
     "division guard: 194347208 coefficient updates"),
    # the (value, color) pairs of all 10^8 colors were built before any row
    (("enumerate", "--variant", "colored", "--k", "100000000", "--alpha", "0", "--n", "0",
      "--list"), 0, None),
    # jacobi_work took the isqrt of a negative number
    (("identities", "--N", "-1"), 2, "error: truncation order must be >= 0"),
    # route 1 built a bottom row of 10^8 zeros and ran out of memory
    (("enumerate", "--variant", "repetition", "--k", "100000000", "--alpha", "-100000000",
      "--n", "3"), 2, "enumeration guard: rows of up to 100000003 entries exceed MAX_ENUM_ROW"),
    # an empty lattice: the box of 63247^9999999 points was refused, and
    # the table and the power basis would each hold 10^7 entries
    (("theorem", "--which", "1", "--k", "10000000", "--alpha", "1000000000", "--N", "1"), 0,
     '"coefficients": ["0", "0"]'),
    (("theorem", "--which", "2", "--k", "3", "--alpha", "100000000", "--N", "10"), 0,
     '"coefficients": [' + ", ".join(['"0"'] * 11) + "]"),
])
def test_large_or_negative_sizes_exit_quickly_without_a_traceback(argv, code, message):
    proc = _run_cli_process(*argv, preexec_fn=_one_gib_address_space)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if message is None:
        assert json_lines(proc.stdout)[0]["arrays"] == [{"bottom": [], "top": []}]
    elif code == 0:
        assert message in proc.stdout
    else:
        assert message in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ("expand", "--spec=-,1,0,-1", "--N", "1000000"),
    ("expand", "--spec=-,1,0,-1", "--N", "1000000", "--mod", "7"),
    ("scan", "--spec=-,1,0,-1", "--N", "1000000", "--maxA", "5", "--maxM", "5"),
    # psi2 expands through the product DSL; cor1 and cor2 build the product
    # side before the theta division
    ("verify", "--target", "psi2", "--N", "14000"),
    ("verify", "--target", "cor1", "--N", "60000"),
    ("verify", "--target", "cor2", "--N", "60000"),
    # one pass of one update, but 6,250,001 coefficients to build: each
    # counts MIN_PASS_WORK; at N = 3 * 10^7 a 1 GiB cap ran out of memory
    ("expand", "--spec=+,6250000,0,1", "--N", "6250000"),
    ("scan", "--spec=+,6250000,0,1", "--N", "6250000", "--maxA", "5", "--maxM", "5"),
])
def test_product_guard_exits_two_quickly(argv):
    # 5e11 coefficient updates would run for hours; the guard refuses up front
    proc = _run_cli_process(*argv)
    assert proc.returncode == 2
    assert "product guard" in proc.stderr
    assert proc.stdout == ""


def _decimal(n):
    # str(n) in 1000-digit chunks, each under Python's 4300-digit limit
    chunks = []
    while n >= 10 ** 1000:
        n, low = divmod(n, 10 ** 1000)
        chunks.append(str(low).zfill(1000))
    return str(n) + "".join(reversed(chunks))


def test_expand_prints_a_coefficient_of_any_size():
    # (1 + q^0)^20000 is the constant 2^20000, 6021 digits: a computed
    # answer, printed in full with exit 0
    proc = _run_cli_process("expand", "--spec", "+,1,1,20000", "--N", "0", timeout=10)
    assert proc.returncode == 0, proc.stderr
    (digits,) = json.loads(proc.stdout)["coefficients"]
    assert len(digits) == 6021
    assert digits == _decimal(2 ** 20000)


@pytest.mark.parametrize("argv, timeout", [
    (("verify", "--target", "jtp", "--N", "5000"), 1),
    (("identities", "--N", "3000"), 2),
    # identities runs the triple-product guard before its first check
    (("identities", "--N", "15000"), 1),
    # the guard's count summed about sqrt(2N) terms: still running after 20 s
    (("verify", "--target", "jtp", "--N", str(10**18)), 1),
    (("identities", "--N", str(10**18)), 1),
])
def test_triple_product_guard_exits_two_quickly(argv, timeout):
    # about 4e9 coefficient updates at N=5000; identities prints nothing
    # before every check has run, so the refusal leaves stdout empty
    proc = _run_cli_process(*argv, timeout=timeout)
    assert proc.returncode == 2
    assert "triple product guard" in proc.stderr
    assert proc.stdout == ""


def test_theorem_two(capsys):
    code, out, _ = run_cli(capsys, "theorem", "--which", "2",
                           "--k", "2", "--alpha", "-1", "--N", "4")
    assert code == 0
    assert json_lines(out)[0]["coefficients"] == ["2", "4", "12", "24", "50"]


VERIFY_AT_30 = {
    "thm3": '"identity": "phi_{2,-1}", "report": "phi_{2,-1}(5n+4) \\u2261 0 mod 5, '
            '6 witnesses", "status": "pass"',
    "thm4": '"identity": "cphi_{2,-1}", "report": "cphi_{2,-1}(5n+4) \\u2261 0 mod 5, '
            '6 witnesses", "status": "pass"',
    "jtp": '"identity": "jacobi_triple", "status": "pass"',
    # a passing thm3numerator names the last of its two comparisons
    "thm3numerator": '"identity": "mod5_numerator(product,signed)", "status": "pass"',
    "psi2": '"identity": "psi2_product", "status": "pass"',
    "cor1": '"identity": "phi2m1(theta,product)", "status": "pass"',
    "cor2": '"identity": "cphi2m1(theta,product)", "status": "pass"',
}


@pytest.mark.parametrize("target", list(VERIFY_AT_30))
def test_verify_targets_pass(capsys, target):
    code, out, _ = run_cli(capsys, "verify", "--target", target, "--N", "30")
    assert code == 0
    assert out == f'{{"N": 30, "command": "verify", {VERIFY_AT_30[target]}, "target": "{target}"}}\n'


@pytest.mark.parametrize("target", ["thm3", "thm4"])
@pytest.mark.parametrize("order", [0, 3])
def test_verify_congruence_without_witnesses_is_usage_error(capsys, target, order):
    # 5n+4 <= N has no index below N = 4, so a pass would check nothing
    code, out, err = run_cli(capsys, "verify", "--target", target, "--N", str(order))
    assert code == 2
    assert out == ""
    assert "insufficient witnesses" in err


@pytest.mark.parametrize("target, label", [("thm3", "phi_{2,-1}"), ("thm4", "cphi_{2,-1}")])
def test_verify_congruence_with_one_witness_passes(capsys, target, label):
    code, out, _ = run_cli(capsys, "verify", "--target", target, "--N", "4")
    assert code == 0
    payload = json_lines(out)[0]
    assert payload["status"] == "pass"
    assert payload["report"] == f"{label}(5n+4) ≡ 0 mod 5, 1 witnesses"


def test_verify_thm3_report_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "--target", "thm3", "--N", "104")
    assert code == 0
    payload = json_lines(out)[0]
    assert payload["report"] == "phi_{2,-1}(5n+4) ≡ 0 mod 5, 21 witnesses"


def test_verify_targets_match_readme_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = readme.index("### Verify targets") + 4  # title, blank line, header, rule
    rows = []
    for line in readme[start:]:
        if not line.startswith("|"):
            break
        rows.append(line.split("|")[1].strip().strip("`"))
    assert rows == list(cli.VERIFY_TARGETS)


def test_readme_layout_names_resolve():
    # every backticked name in a row of the "Library layout" table is an
    # attribute (dotted for members) of that row's module
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = readme.index("## Library layout") + 4  # title, blank line, header, rule
    rows = 0
    for line in readme[start:]:
        if not line.startswith("|"):
            break
        module_cell, contents = line.split("|")[1:3]
        module = importlib.import_module(module_cell.strip().strip("`"))
        for name in re.findall(r"`([^`]+)`", contents):
            functools.reduce(getattr, name.split("."), module)
        rows += 1
    assert rows == 6


def test_psi2_is_the_check_that_divides_by_one_plus_q(capsys, monkeypatch):
    # phi2m1 and cphi2m1 only divide by (1 - q^e); a kernel that divides by
    # (1 - q^e) in place of (1 + q^e) leaves them intact and breaks psi2, on
    # the packed int and on the list alike
    phi2m1, cphi2m1 = theorems.phi2m1_product(60), theorems.cphi2m1_product(60)
    plant(monkeypatch, "qseries._apply_power", "if type(state) is not list:",
          "if (sign := -1 if times < 0 else sign) and type(state) is not list:")
    for saving in (float("inf"), float("-inf")):  # the packed int, the list
        monkeypatch.setattr(qseries, "_packed_saving", lambda *args: saving)
        assert theorems.phi2m1_product(60) == phi2m1
        assert theorems.cphi2m1_product(60) == cphi2m1
        assert first_divergence(theorems.psi2_product(60), phi2m1) == 2
        code, out, _ = run_cli(capsys, "verify", "--target", "psi2", "--N", "30")
        assert code == 1
        assert json_lines(out)[0]["status"] == "fail"


def test_scan_builtin_emits_mod5_claim(capsys):
    code, out, _ = run_cli(capsys, "scan", "--builtin", "phi2m1", "--N", "204",
                           "--maxA", "8", "--maxM", "7")
    assert code == 0
    claims = json_lines(out)
    assert {"A": 5, "B": 4, "M": 5, "status": "verified", "subsumed": False,
            "verified_up_to": 204} in claims


def test_scan_byte_identical_across_runs(capsys):
    args = ("scan", "--builtin", "cphi2m1", "--N", "204", "--maxA", "8", "--maxM", "7")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_scan_csv(capsys):
    code, out, _ = run_cli(capsys, "scan", "--builtin", "phi2m1", "--N", "204",
                           "--maxA", "5", "--maxM", "5", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "A,B,M,verified_up_to,status,subsumed"
    assert "5,4,5,204,verified,False" in lines


def test_scan_insufficient_witnesses_usage_error(capsys):
    code, _, err = run_cli(capsys, "scan", "--builtin", "phi2m1", "--N", "30",
                           "--maxA", "8", "--maxM", "5")
    assert code == 2
    assert "insufficient witnesses" in err


def test_identities_battery(capsys):
    code, out, _ = run_cli(capsys, "identities", "--N", "30")
    assert code == 0
    checks = [("euler_cube", "euler_cube"), ("jacobi_triple", "jacobi_triple"),
              ("mod5_numerator(product,signed)", "mod5_numerator"), ("psi2_product", "psi2"),
              ("phi2m1(theta,product)", "phi2m1_theta_vs_product"),
              ("cphi2m1(theta,product)", "cphi2m1_theta_vs_product")]
    assert out == "".join(
        f'{{"N": 30, "command": "identities", "identity": "{identity}", "name": "{name}", '
        f'"status": "pass"}}\n' for identity, name in checks
    ) + '{"N": 30, "checks": 6, "command": "identities", "failures": 0}\n'


def test_checks_use_no_dense_series_product(capsys, monkeypatch):
    # every check compares series its routes build: none multiplies or
    # inverts a series with the dense reference arithmetic
    def refuse(*args):
        raise AssertionError("dense series arithmetic called")

    for cls, name in ((TruncSeries, "__mul__"), (TruncSeries, "inverse"),
                      (qseries.BivarSeries, "__mul__")):
        monkeypatch.setattr(cls, name, refuse)
    code, out, err = run_cli(capsys, "identities", "--N", "100")
    assert (code, err) == (0, "")
    assert json_lines(out)[-1]["failures"] == 0
    for target in cli.VERIFY_TARGETS:
        code, out, err = run_cli(capsys, "verify", "--target", target, "--N", "100")
        assert (code, err) == (0, ""), target
        assert json_lines(out)[0]["status"] == "pass"


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["expand", "--N", "4"])
    assert exc.value.code == 2
