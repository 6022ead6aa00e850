"""frobq benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        One run of one workload.  The last stdout line is the JSON result:
        end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
    python3 perfbench/run.py --suite [--seed N] [--seconds S]
        Every workload untraced, then traced twice with the same seed: prints
        every metric with its unit, whether the exact counts repeated, and
        the self-check.  A traced run alternates plain and traced passes and
        reports trace.overhead_s, traced minus plain median pass time.
    python3 perfbench/run.py --self-check
        Feeds known-wrong outputs through the correctness gate.

Each workload is a closed loop: one client in this process, no extra
threads, the next task sent only when the previous result is back.  A run
repeats its task list in passes while the next pass is expected to end
within --seconds, and in any case until MIN_SAMPLES task latencies are in.
Times are reported at a reference machine speed (see "Machine speed" below).
Run it from the root of a frobq checkout; it imports frobq from src/ there
(see workloads.py) and writes only below .perfbench_out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import child
import tracing
import workloads
from workloads import HERE, OUT, ROOT, SRC

SETUP_PROBES_PER_PASS = 3  # taken before each pass, so they sample the whole run
SETUP_MIN_PROBES = 25  # topped up after the last pass
# Median times of the two reference jobs on the machine the benchmark was
# tuned on (a 2-vCPU KVM guest, Intel Xeon, CPython 3.11.7); see below.
KERNEL_REF_S = 0.0043
SPAWN_REF_S = 0.060
MIN_SAMPLES = 100  # so that at least ten latency samples lie beyond the nearest-rank p90
RUN_LIMIT_S = 150.0  # no new pass starts after this, so a run ends well within 180 s
END_TO_END_UNITS = {"wall_s": "s", "coeffs_per_s": "1/s", "task_p50_ms": "ms",
                    "task_p90_ms": "ms", "setup_s": "s", "peak_rss_mib": "MiB"}


def _unit(metric: str) -> str:
    if metric.endswith((".s", "_s")):
        return "s"
    return "ratio" if metric.endswith("ratio") else "count"


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def _git_commit() -> str | None:
    # --git-dir keeps git from finding a repository above an exported checkout
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def provenance(workload: str, seed: int, tasks) -> dict:
    keys = json.dumps([t.key for t in tasks]).encode()
    return {
        "workload": workload,
        "seed": seed,
        "tasks_per_pass": len(tasks),
        "task_list_sha256": hashlib.sha256(keys).hexdigest(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# Machine speed
#
# On a shared VM the speed of the whole guest drifts by up to 2x within
# minutes, on both CPUs and in CPU time as well as wall time, so raw times of
# runs made minutes apart disagree by more than any useful bound.  Every timed
# job is therefore preceded by a fixed frobq-free reference job of the same
# kind: pure-Python integer convolutions (kernel_s) before an in-process
# task, a bare interpreter start (spawn_s) before a CLI call or a set-up
# probe.  Times are reported at the reference speed, raw time / slowdown,
# where slowdown is the reference job's time over its reference constant.
# For tasks it is the mean over the pass: the guest switches between a fast
# and a slow state, and a pass that straddles both is slowed in proportion to
# the time it spent in each.  The reference jobs never touch frobq, so a
# change to frobq moves the reported times as it moves the raw ones; the raw
# times stay in the result file.
# ---------------------------------------------------------------------------

# Factors of two to four machine words, and of about 2000 bits: frobq's
# series coefficients span both, and the guest's slow state slows the two
# kinds of multiply by different amounts.
_KERNEL_FACTORS = (
    (tuple((i * 2654435761) ** 2 for i in range(120)), tuple((i * 40503) ** 3 for i in range(120))),
    (tuple(3 ** (1500 + 7 * i) for i in range(12)), tuple(5 ** (900 + 3 * i) for i in range(12))),
)


def kernel_s() -> float:
    """Seconds for fixed integer convolutions, the kind of work frobq's series kernels do."""
    start = time.perf_counter()
    for left, right in _KERNEL_FACTORS:
        out = [0] * (len(left) + len(right))
        for i, a in enumerate(left):
            for j, b in enumerate(right):
                out[i + j] += a * b
    return time.perf_counter() - start


def spawn_s() -> float:
    """Seconds for a fresh interpreter, started as the CLI is, to run `pass` and exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, env=workloads.cli_env())
    return time.perf_counter() - start


def probe_setup(workload: str) -> float:
    """Time from spawning a fresh interpreter until frobq is imported and warm."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), "probe", workload],
                          capture_output=True, text=True, check=True, env=workloads.cli_env())
    return float(proc.stdout.split()[-1]) - start


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def clear_row_caches() -> None:
    """Empty the enumeration layer's memo tables, so every pass pays what a first call pays."""
    import frobq.frobenius

    for value in vars(frobq.frobenius).values():
        if getattr(value, "__module__", None) == "frobq.frobenius" and hasattr(value, "cache_clear"):
            value.cache_clear()


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    OUT.mkdir(exist_ok=True)
    tasks = workloads.generate(workload, seed)
    prov = provenance(workload, seed, tasks)
    child.warm(workload)
    digests = workloads.load_digests()
    self_check = workloads.self_check(digests)
    checker = workloads.Checker(digests, workloads.references(tasks))
    # A traced run alternates plain and traced passes, so that the tracing
    # overhead is measured under the same machine conditions.  It makes at
    # least three passes: one to warm up, one traced, one plain to compare.
    tracer = tracing.Tracer() if trace else None

    latencies, scaled, passes, failures, setups = [], [], [], [], []
    child_peak_kib = 0
    begin = time.perf_counter()

    def more() -> bool:
        # another pass only if it should end within --seconds, or while the
        # latencies are still too few for a p90
        if len(passes) < (3 if trace else 1):
            return True
        elapsed = time.perf_counter() - begin
        if elapsed >= RUN_LIMIT_S:
            return False
        return len(latencies) < MIN_SAMPLES or elapsed * (len(passes) + 1) / len(passes) <= seconds

    while more():
        if not trace:
            setups += [(spawn_s(), probe_setup(workload)) for _ in range(SETUP_PROBES_PER_PASS)]
        clear_row_caches()
        gc.collect()
        checker.earlier.clear()
        traced = trace and len(passes) % 2 == 1
        if traced:
            first_span = len(tracer.spans)
            tracer.counts.clear()
            uninstall = tracing.install(tracer)
        wall = coeffs = 0.0
        slowdowns = []
        for task in tasks:
            slowdowns.append(spawn_s() / SPAWN_REF_S if task.kind == "cli" else kernel_s() / KERNEL_REF_S)
            if traced:
                tracer.task = len(latencies)
                tracer.begin("task")
            start = time.perf_counter()
            try:
                output = workloads.execute(task, tracer if traced else None)
            except Exception as exc:  # a task that raises is a failed task, not a failed run
                output, error = None, f"{type(exc).__name__}: {exc}"
            else:
                error = None
            elapsed = time.perf_counter() - start
            if traced:
                tracer.end(start + elapsed)
            if error is None:
                n, error = checker.check(task, output)
                coeffs += n
            if task.kind == "cli" and output is not None:
                child_peak_kib = max(child_peak_kib, output[2])
            if error is not None:
                failures.append({"pass": len(passes), "task": task.key, "error": error})
            output = None
            latencies.append(elapsed)
            wall += elapsed
        slowdown = statistics.fmean(slowdowns)
        raw = latencies[-len(tasks):]
        scaled += [t / slowdown for t in raw]
        record = {"wall_s": wall / slowdown, "coeffs": coeffs, "traced": traced, "slowdown": slowdown,
                  "raw_wall_s": wall, "task_s": raw, "task_slowdowns": slowdowns}
        if traced:
            uninstall()
            layers = tracing.pass_metrics(tracer.spans, first_span, tracer.counts)
            record["layers"] = {name: value / slowdown if name in tracing.TIME_METRICS else value
                                for name, value in layers.items()}
        passes.append(record)

    self_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not trace:
        setups += [(spawn_s(), probe_setup(workload)) for _ in range(SETUP_MIN_PROBES - len(setups))]
    ordered = sorted(scaled)
    walls = [p["wall_s"] for p in passes if not p["traced"]]
    if not trace:
        peak_kib = child_peak_kib if workload == "cli" else self_rss_kib
        metrics = {
            "wall_s": statistics.median(walls),
            "coeffs_per_s": statistics.median(p["coeffs"] / p["wall_s"] for p in passes),
            "task_p50_ms": 1000 * _nearest_rank(ordered, 0.5),
            "task_p90_ms": 1000 * _nearest_rank(ordered, 0.9),
            "setup_s": statistics.median(t * SPAWN_REF_S / ref for ref, t in setups),
            "peak_rss_mib": peak_kib / 1024,
        }
        units = END_TO_END_UNITS
    else:
        layers = [p["layers"] for p in passes if p["traced"]]
        metrics = {}
        for name in layers[0]:
            if name in tracing.TIME_METRICS:
                metrics[name] = statistics.median(lay[name] for lay in layers)
            else:  # exact counts and their ratio come from the first traced pass
                metrics[name] = layers[0][name]
        traced_wall = statistics.median(p["wall_s"] for p in passes if p["traced"])
        metrics["trace.wall_s"] = traced_wall
        # the first pass is left out: it fills the lazy caches the warm-up does not touch
        metrics["trace.overhead_s"] = traced_wall - statistics.median(walls[1:])
        units = {name: _unit(name) for name in metrics}

    failed = len(failures)
    summary = {
        "passes": len(passes),
        "latency_samples": len(latencies),
        "setup_probes": len(setups),
        "samples_beyond_p90": len(ordered) - math.ceil(0.9 * len(ordered)),
        "slowdown": statistics.median(p["slowdown"] for p in passes),
        "raw_wall_s": statistics.median(p["raw_wall_s"] for p in passes if not p["traced"]),
        "fail_ratio": failed / len(latencies),
        "self_check": {name: caught for name, caught in self_check},
    }
    if trace:
        counts = [{k: lay[k] for k in tracing.EXACT_COUNTS} for lay in layers]
        summary["exact_counts_equal_across_passes"] = all(c == counts[0] for c in counts)
    result = {
        "correct": failed == 0 and all(caught for _, caught in self_check),
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"provenance": prov, "summary": summary, "result": result, "passes": passes,
                   "setup_probes_s": setups, "failures": failures}, fh, indent=1)
    if trace:
        with open(OUT / f"{stem}-spans.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "task"],
                       "spans": tracer.spans}, fh)
    for f in failures[:5]:
        print(f"perfbench: failed {f['task']}: {f['error']}", file=sys.stderr)
    print(json.dumps({"provenance": prov}))
    print(json.dumps({"summary": summary}))
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Suite and self-check
# ---------------------------------------------------------------------------


def _invoke(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {workload} run exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["summary"], json.loads(lines[-1])


def suite(seed: int, seconds: float) -> int:
    ok = True
    for workload in workloads.WORKLOADS:
        summary, plain = _invoke(workload, seed, seconds, 0)
        traced = [_invoke(workload, seed, seconds, 1) for _ in range(2)]
        exact = [{k: r["metrics"][k]["value"] for k in tracing.EXACT_COUNTS} for _, r in traced]
        repeat = exact[0] == exact[1]
        ok &= plain["correct"] and all(r["correct"] for _, r in traced) and repeat
        print(f"== {workload}: correct={plain['correct']} attempted={plain['attempted']} "
              f"failed={plain['failed']} fail_ratio={summary['fail_ratio']:.4f} "
              f"samples={summary['latency_samples']} beyond_p90={summary['samples_beyond_p90']} "
              f"passes={summary['passes']}")
        for name, m in plain["metrics"].items():
            print(f"   {name:34s} {m['value']:14.6g} {m['unit']}")
        layers = traced[0][1]["metrics"]
        print(f"   exact counts repeat across two traced runs: {repeat}")
        for name, m in layers.items():
            print(f"   {name:34s} {m['value']:14.6g} {m['unit']}")
    print("== self-check")
    ok &= self_check_report()
    return 0 if ok else 1


def self_check_report() -> bool:
    results = workloads.self_check(workloads.load_digests())
    for name, caught in results:
        print(f"   {'caught' if caught else 'MISSED'}: {name}")
    return all(caught for _, caught in results)


def main() -> int:
    parser = argparse.ArgumentParser(description="frobq benchmark")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--suite", action="store_true", help="every workload, untraced and traced")
    mode.add_argument("--self-check", action="store_true", dest="self_check",
                      help="show that the correctness gate catches wrong outputs")
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.suite:
        return suite(args.seed, args.seconds)
    if args.self_check:
        return 0 if self_check_report() else 1
    if args.workload is None:
        parser.error("--workload is required for a single run")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
