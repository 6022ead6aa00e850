"""The four workloads: their task universes, seeded task lists, execution and checks.

A workload is a list of slots.  Each slot draws a fixed number of chains
from its candidates; a chain is a short tuple of tasks that must run in
order because a later task is checked against an earlier one (a ModRing
expansion against its ZZ twin, enumerations against the bivariate series of
the same (variant, k, alpha)).  The seed picks the chains and shuffles their
order; slot sizes are fixed so that every seed asks for the same amount of
work.  Every candidate belongs to a finite universe, so each task without an
independent route has a stored digest of the seed code's output in
digests.json (regenerate with make_digests.py).

The workloads mirror the README examples and the ROADMAP sizes, scaled so
that one pass over a task list takes a few seconds; no real usage traces
exist.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"

# Only the checkout's own sources count, never an installed copy.
if not (SRC / "frobq" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no frobq package at {SRC}; run from the root of a frobq checkout")
sys.path.insert(0, str(SRC))
import frobq  # noqa: E402

if Path(frobq.__file__).resolve().parent != (SRC / "frobq").resolve():
    raise SystemExit(f"perfbench: imported frobq from {frobq.__file__}, not from {SRC}")

PHI2M1 = "-,2,1,-2; -,12,8,-1; -,12,6,-1; -,12,4,-1; -,12,0,-1"
CPHI2M1 = "-,2,0,1; +,2,0,1; +,2,2,1; -,1,0,-2"
BUILTINS = {"phi2m1": PHI2M1, "cphi2m1": CPHI2M1}
VARIANTS = ("repetition", "colored")
SCAN_MAX_STEP, SCAN_MAX_MODULUS = 8, 7


@dataclass(frozen=True)
class Task:
    kind: str
    params: tuple

    @property
    def key(self) -> str:
        return json.dumps([self.kind, *self.params])


# ---------------------------------------------------------------------------
# Task universes
# ---------------------------------------------------------------------------

# Factor shapes (period, exponent) of the random product specs; the seed of the
# pool fills in signs and residues.  Every division shape multiplies and
# divides, so each spec pays one inverse and one dense multiply.
DIVISION_SHAPES = (((1, -1), (4, 1), (6, -1)), ((2, -2), (3, 1), (5, -1)), ((1, -2), (2, 1), (12, -1)))
MULTIPLY_SHAPES = (((2, 1), (3, 1), (5, 2)), ((1, 1), (4, 2), (6, 1)), ((3, 2), (4, 1), (2, 1)))


def _spec_pool(name: str, shapes) -> list[str]:
    rng = random.Random(f"frobq-perfbench-{name}")
    pool = []
    for shape in shapes:
        for _ in range(8):
            pool.append("; ".join(f"{rng.choice('+-')},{p},{rng.randrange(p)},{e}" for p, e in shape))
    return pool


DIVISION_SPECS = _spec_pool("division", DIVISION_SHAPES)
MULTIPLY_SPECS = _spec_pool("multiply", MULTIPLY_SHAPES)


def expand(spec: str, order: int, mod: int | None = None) -> Task:
    return Task("expand", (spec, order, mod))


# Alpha and -k-alpha give the same generating function (for both variants)
# and the same array count, so a seed choosing within such a pair changes
# the inputs but not the amount of work.  Where a lattice walk is involved
# the pair also shares its box bound isqrt(2N + |alpha|).
def _products_slots():
    # 25 tasks a pass, so that the p90 falls in the middle of the third
    # costliest task's samples (after the two builtins at N=1200), never on
    # the edge between two tasks of different cost
    div_twin = [(expand(s, 700), expand(s, 700, p)) for s in DIVISION_SPECS[8:16] for p in (5, 7)]
    slots = [
        (2, [(expand(PHI2M1, 1200),), (expand(CPHI2M1, 1200),)]),
        # one twin slot per builtin family, since the families differ in cost
        (1, [(expand(PHI2M1, 900), expand(PHI2M1, 900, p)) for p in (5, 7)]),
        (1, [(expand(CPHI2M1, 900), expand(CPHI2M1, 900, p)) for p in (5, 7)]),
        (1, div_twin),
        (2, [(Task("psi2", (n,)),) for n in range(198, 203)]),
    ]
    # one slot per factor shape, so every seed draws the same mix of shapes
    for i in range(0, 24, 8):
        slots.append((3, [(expand(s, 700),) for s in DIVISION_SPECS[i:i + 8]]))
        slots.append((2, [(expand(s, 1200),) for s in MULTIPLY_SPECS[i:i + 8]]))
    return slots


def _theta_slots():
    # (k, order, alpha pairs); k=2, alpha=-1 is checked against the products
    plan = ((2, 800, ((-1,), (-2, 0), (-3, 1))), (3, 400, ((-2, -1), (-3, 0))),
            (4, 40, ((-1, -3), (-2,), (1, -5))), (5, 24, ((-2, -3), (-1, -4), (1, -6))),
            (6, 14, ((-2, -4), (-1, -5))))
    slots = [(1, [(Task("theta", (v, k, a, order)),) for a in pair])
             for v in VARIANTS for k, order, pairs in plan for pair in pairs]
    # one more fast task makes the count odd, so the median latency falls on
    # a task rather than on the gap between two groups of tasks
    slots.append((1, [(Task("theta", (v, 4, a, 40)),) for v in VARIANTS for a in (2, -6)]))
    return slots


def _arrays_slots():
    def group(variant, k, alpha, order, enum_n, count_n):
        return (Task("bivar", (variant, k, alpha, order)),
                Task("enumerate", (variant, k, alpha, enum_n)),
                Task("count", (variant, k, alpha, count_n)))

    # (variant, k, alpha pair, bivar order, enumerate weight, count weight);
    # colored k=3 at weight 15 sets the memory high-water mark.  Seven groups
    # make 21 tasks a pass, so that the p90 falls in the middle of the samples
    # of the two repetition k=2 bivariate series, the costliest tasks after
    # the colored k=3 enumeration.
    templates = (
        ("colored", 3, (-2, -1), 60, 15, 10),
        ("colored", 2, (-2, 0), 100, 16, 12),
        ("repetition", 2, (-2, 0), 120, 20, 18),
        ("repetition", 2, (-3, 1), 120, 20, 18),
        ("repetition", 3, (-2, -1), 80, 16, 14),
        ("repetition", 4, (-1, -3), 60, 14, 12),
        ("colored", 4, (-1, -3), 40, 9, 8),
    )
    return [(1, [group(v, k, a, order, en, cn) for a in pair])
            for v, k, pair, order, en, cn in templates]


def _cli_slots():
    def cli(*argv):
        return (Task("cli", argv),)

    expands = [cli("expand", f"--spec={s}", "--N", "200") for s in
               [PHI2M1, CPHI2M1] + DIVISION_SPECS[::4] + MULTIPLY_SPECS[::4]]
    expands += [cli("expand", f"--spec={s}", "--N", "200", "--mod", "5") for s in (PHI2M1, CPHI2M1)]
    def enumerate_(variant, k, alphas, *extra):
        return [cli("enumerate", "--variant", variant, "--k", str(k), "--alpha", str(a), "--n", "8", *extra)
                for a in alphas]

    # each --list slot holds one (alpha, -k-alpha) pair, so every seed prints
    # the same number of arrays and the CLI memory peak does not depend on it.
    # The colored pair, the second costliest call after `identities`, runs
    # whole: with 20 calls a pass the p90 falls in the middle of its samples.
    enumerates = [(2, enumerate_("colored", 3, (-1, -2), "--list")),
                  (1, enumerate_("repetition", 3, (-1, -2), "--list")),
                  (1, [t for v in VARIANTS for k, pair in ((2, (0, -2)), (3, (-1, -2)))
                       for t in enumerate_(v, k, pair)])]
    theorems = [cli("theorem", "--which", str(w), "--k", str(k), "--alpha", str(a), "--N", "80")
                for w in (1, 2) for k in (2, 3) for a in (-1, 0, 1)]
    slots = [(3, expands), *enumerates, (3, theorems)]
    for target in ("thm3", "thm4", "cor1", "cor2", "psi2", "thm3numerator", "jtp"):
        orders = (36, 40, 44) if target == "jtp" else (96, 100, 104)
        slots.append((1, [cli("verify", "--target", target, "--N", str(n)) for n in orders]))
    slots.append((2, [cli("scan", "--builtin", b, "--N", "204", "--maxA", str(SCAN_MAX_STEP),
                          "--maxM", str(SCAN_MAX_MODULUS)) for b in BUILTINS]))
    slots.append((1, [cli("identities", "--N", "100")]))
    return slots


WORKLOADS = {
    "products": _products_slots,
    "theta": _theta_slots,
    "arrays": _arrays_slots,
    "cli": _cli_slots,
}


def generate(workload: str, seed: int) -> list[Task]:
    """The task list of one pass: the same seed always gives the same list."""
    rng = random.Random(seed)
    chains = []
    for count, candidates in WORKLOADS[workload]():
        chains += rng.sample(candidates, count)
    rng.shuffle(chains)
    return [task for chain in chains for task in chain]


def universe(workload: str) -> list[Task]:
    """Every task the workload can generate, in a fixed order."""
    seen = {}
    for _, candidates in WORKLOADS[workload]():
        for chain in candidates:
            for task in chain:
                seen.setdefault(task.key, task)
    return list(seen.values())


def needs_digest(task: Task) -> bool:
    """Tasks with no independent route are checked against the seed code's output."""
    if task.kind == "expand":
        return task.params[2] is None
    if task.kind == "theta":
        return task.params[1:3] != (2, -1)
    return task.kind in ("bivar", "cli")


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def execute(task: Task, tracer=None):
    """Run one task the way a library caller or shell user would; this is what is timed."""
    kind, p = task.kind, task.params
    if kind == "expand":
        spec, order, mod = p
        parsed = frobq.parse_product_spec(spec)
        if mod is None:
            series = frobq.product_from_spec(parsed, order)
            claims = frobq.scan_congruences(series, SCAN_MAX_STEP, SCAN_MAX_MODULUS)
            return series, frobq.verify_congruence(series, 5, 4, 5), claims
        # a ModRing(p) series is only checked modulo p itself: verify_congruence
        # reads residues as integers, so another modulus would give wrong claims
        series = frobq.product_from_spec(parsed, order, frobq.ModRing(mod))
        return series, frobq.verify_congruence(series, 5, 4, mod), None
    if kind == "psi2":
        return frobq.theorems.psi2_product(p[0])
    if kind == "theta":
        variant, k, alpha, order = p
        fn = frobq.phi_theta_series if variant == "repetition" else frobq.cphi_theta_series
        return fn(k, alpha, order)
    if kind == "bivar":
        return frobq.bivar_coefficient_series(*p)
    if kind == "enumerate":
        return frobq.enumerate_arrays(*p)
    if kind == "count":
        variant, k, alpha, n = p
        return (frobq.count_phi if variant == "repetition" else frobq.count_cphi)(k, alpha, n)
    if kind == "cli":
        return run_cli(p, tracer)
    raise ValueError(f"unknown task kind {kind!r}")


def cli_env() -> dict:
    """The environment of a CLI subprocess: this checkout's src/ first on the module path."""
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def run_cli(argv: tuple, tracer=None) -> tuple[int, bytes, int]:
    """`frobq ARGV...` in a fresh interpreter: (exit code, stdout, peak RSS in KiB).

    With a tracer the child records spans around the library calls and this
    process grafts them under a span for the subcommand.
    """
    env = cli_env()
    if tracer is None:
        cmd = [sys.executable, "-m", "frobq.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "child.py"), "cli", *argv]
        spans_file = OUT / f"cli-spans-{os.getpid()}.json"
        env["PERFBENCH_SPANS"] = str(spans_file)
    start = time.perf_counter()
    if tracer is not None:
        tracer.begin("cli." + argv[0], start)
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if tracer is not None:
            child = json.loads(spans_file.read_text())
            spans_file.unlink()
            tracer.begin("cli.startup", start)
            tracer.end(child["ready"])
            tracer.adopt(child["spans"], child["counts"])
    finally:
        if tracer is not None:
            tracer.end()
    return proc.returncode, out, usage.ru_maxrss


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def canonical(task: Task, output) -> str:
    """A digest of the task's output that is independent of object identity."""
    if task.kind == "cli":
        rc, stdout, _ = output
        payload = [rc, stdout.decode("utf-8", "replace")]
    elif task.kind == "expand":
        series, claim, claims = output
        payload = [[str(c) for c in series.coeffs], _claim(claim), [_claim(c) for c in claims]]
    else:
        payload = [str(c) for c in output.coeffs]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:32]


def _claim(claim) -> dict:
    return dict(claim.to_json_dict(), witnesses=claim.witnesses)


def references(tasks: list[Task]) -> dict:
    """Independent-route series the checks compare against, computed before timing."""
    refs = {}
    for task in tasks:
        if task.kind == "psi2":
            refs.setdefault(("repetition", task.params[0]), None)
        elif task.kind == "theta" and task.params[1:3] == (2, -1):
            refs.setdefault((task.params[0], task.params[3]), None)
    for variant, order in refs:
        fn = frobq.phi2m1_product if variant == "repetition" else frobq.cphi2m1_product
        refs[variant, order] = fn(order)
    return refs


class Checker:
    """Checks each task's output; `earlier` holds this pass's results for chained checks."""

    def __init__(self, digests: dict, refs: dict):
        self.digests = digests
        self.refs = refs
        self.earlier: dict[str, object] = {}

    def check(self, task: Task, output) -> tuple[int, str | None]:
        """(verified output coefficients, error or None)."""
        kind, p = task.kind, task.params
        if needs_digest(task):
            want = self.digests.get(task.key)
            if want is None:
                return 0, "no stored digest for this task"
            if canonical(task, output) != want:
                return 0, "output differs from the stored digest"
        if kind == "expand":
            return self._check_expand(task, *output)
        if kind == "psi2":
            if output != self.refs["repetition", p[0]]:
                return 0, "psi2 product differs from the phi2m1 product"
            return p[0] + 1, None
        if kind == "theta":
            variant, k, alpha, order = p
            if (k, alpha) == (2, -1) and output != self.refs[variant, order]:
                return 0, "theta quotient differs from the k=2, alpha=-1 product"
            return order + 1, None
        if kind == "bivar":
            self.earlier[_group(p)] = output.coeffs
            return p[3] + 1, None
        if kind in ("enumerate", "count"):
            return self._check_arrays(task, output)
        if kind == "cli":
            rc, stdout, _ = output
            if rc != 0:
                return 0, f"exit code {rc}"
            return _cli_coefficients(p), None
        return 0, f"unknown task kind {kind!r}"

    def _check_expand(self, task, series, claim, claims):
        spec, order, mod = task.params
        if mod is None:
            self.earlier[task.key] = series.coeffs
            if spec in BUILTINS.values():
                # the 5n+4 mod 5 congruence holds for both builtin families
                if claim.status != "verified" or claim.witnesses != len(range(4, order + 1, 5)):
                    return 0, "5n+4 congruence not verified on a builtin family"
                if not any((c.modulus, c.step, c.offset) == (5, 5, 4) for c in claims):
                    return 0, "scan missed the 5n+4 mod 5 congruence"
            return order + 1, None
        zz = self.earlier.get(expand(spec, order).key)
        if zz is None:
            return 0, "the ZZ twin of this ModRing expansion did not succeed"
        if list(series.coeffs) != [c % mod for c in zz]:
            return 0, f"ModRing({mod}) expansion differs from the ZZ expansion reduced mod {mod}"
        want = next((i for i in range(4, order + 1, 5) if zz[i] % mod), None)
        if (claim.status == "verified") != (want is None) or claim.first_violation != want:
            return 0, "ModRing congruence claim disagrees with the ZZ coefficients"
        return order + 1, None

    def _check_arrays(self, task, output):
        variant, k, alpha, n = task.params
        bivar = self.earlier.get(_group(task.params))
        if bivar is None:
            return 0, "the bivariate series of this group did not succeed"
        count = output if task.kind == "count" else len(output)
        if count != bivar[n]:
            return 0, f"{task.kind} gives {count}, the bivariate series {bivar[n]}"
        if task.kind == "enumerate":
            error = _sample_arrays(task, output)
            if error:
                return 0, error
        return 1, None


def _group(params: tuple) -> str:
    return json.dumps(list(params[:3]))


def _sample_arrays(task: Task, arrays: list) -> str | None:
    """Spot-check a seeded sample of enumerated arrays: shape, weight, order, uniqueness."""
    variant, k, alpha, n = task.params
    if not arrays:
        return None
    rng = random.Random(task.key)
    for i in sorted(rng.sample(range(len(arrays)), min(32, len(arrays)))):
        a = arrays[i]
        if a.weight != n or a.row_difference != alpha:
            return f"array {i} has weight {a.weight}, row difference {a.row_difference}"
        for row in (a.top, a.bottom):
            if list(row) != sorted(row, reverse=True):
                return f"array {i} has a row out of canonical order"
            if variant == "repetition" and any(row.count(v) > k for v in row):
                return f"array {i} repeats a value more than {k} times"
            if variant == "colored" and (len(set(row)) != len(row)
                                         or any(not 1 <= c <= k for _, c in row)):
                return f"array {i} repeats a colored value or uses a color outside 1..{k}"
        if i + 1 < len(arrays) and not (a.top, a.bottom) < (arrays[i + 1].top, arrays[i + 1].bottom):
            return f"arrays {i} and {i + 1} are not strictly increasing"
    return None


def _cli_coefficients(argv: tuple) -> int:
    # verified output coefficients of one CLI call: the series it prints or
    # compares (N + 1 terms), or one count for `enumerate`
    if argv[0] == "enumerate":
        return 1
    return int(argv[argv.index("--N") + 1]) + 1


def load_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)["digests"]


# ---------------------------------------------------------------------------
# Self-check: the gate must fire on known-wrong outputs
# ---------------------------------------------------------------------------


def self_check(digests: dict) -> list[tuple[str, bool]]:
    """Feed deliberately wrong outputs through the real checks.

    A case passes when the correct output is accepted and the wrong one is
    rejected.  Two cases use the library's own mutation hooks; the others
    perturb a correct output of one task of each checked kind.
    """
    checker = Checker(digests, {("repetition", 60): frobq.phi2m1_product(60)})
    checker.earlier[expand(PHI2M1, 60).key] = frobq.phi2m1_product(60).coeffs
    checker.earlier[_group(("colored", 2, -1))] = frobq.bivar_coefficient_series("colored", 2, -1, 12).coeffs

    def verdict(task, run):
        try:
            output = run()
        except Exception as exc:  # a raising task is a failed task
            return f"{type(exc).__name__}: {exc}"
        return checker.check(task, output)[1]

    def off_by_one(series):
        return type(series)(series.ring, (series.coeffs[0] + 1,) + series.coeffs[1:], series.order)

    def modring_off_by_one(task):
        series, claim, claims = execute(task)
        return off_by_one(series), claim, claims

    def cli_flipped(task):
        rc, out, rss = execute(task)
        return rc, out.replace(b"pass", b"fail"), rss

    psi2 = Task("psi2", (60,))
    theta_k2 = Task("theta", ("repetition", 2, -1, 60))
    theta_k4 = Task("theta", ("repetition", 4, -1, 40))
    theta_digest = Task("theta", ("colored", 4, -1, 40))
    modring = expand(PHI2M1, 60, 5)
    enum = Task("enumerate", ("colored", 2, -1, 8))
    cli = Task("cli", ("verify", "--target", "cor1", "--N", "100"))
    cases = [
        ("psi2_product(mutated=True) against the phi2m1 product", psi2,
         lambda: frobq.theorems.psi2_product(60),
         lambda: frobq.theorems.psi2_product(60, mutated=True)),
        ("phi_theta_series(zeta_exponent_shift=1) at k=2, alpha=-1", theta_k2,
         lambda: execute(theta_k2),
         lambda: frobq.phi_theta_series(2, -1, 60, zeta_exponent_shift=1)),
        ("phi_theta_series(zeta_exponent_shift=1) at k=4, alpha=-1", theta_k4,
         lambda: execute(theta_k4),
         lambda: frobq.phi_theta_series(4, -1, 40, zeta_exponent_shift=1)),
        ("theta digest with one coefficient off", theta_digest,
         lambda: execute(theta_digest), lambda: off_by_one(execute(theta_digest))),
        ("ModRing(5) expansion with one coefficient off", modring,
         lambda: execute(modring), lambda: modring_off_by_one(modring)),
        ("enumeration missing one array", enum, lambda: execute(enum), lambda: execute(enum)[:-1]),
        ("CLI stdout with a changed status", cli, lambda: execute(cli), lambda: cli_flipped(cli)),
    ]
    return [(name, verdict(task, good) is None and verdict(task, bad) is not None)
            for name, task, good, bad in cases]
