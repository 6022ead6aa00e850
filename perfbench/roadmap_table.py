"""Re-measure the ROADMAP baseline rows, with the benchmark's tracer counts beside them.

    python3 perfbench/roadmap_table.py

Times are medians of three untraced repeats in this process (the CLI row runs as a
subprocess, like a shell user); the counts come from one traced repeat
afterwards.  Colored enumeration at k=3, n=20 holds about 400 MiB at its peak.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import tracing
import workloads  # puts the checkout's src/ on the path

import frobq  # noqa: E402  (after workloads)

REPEATS = 3

ROWS = (
    ("phi2m1_product", "N=2000", lambda: frobq.phi2m1_product(2000), ("qseries.inverse.terms",)),
    ("psi2_product", "N=800", lambda: frobq.theorems.psi2_product(800), ("qseries.mul.calls",)),
    ("phi_theta_series", "k=6, alpha=0, N=40", lambda: frobq.phi_theta_series(6, 0, 40),
     ("theorems.lattice.visited", "theorems.lattice.kept")),
    ("bivar_coefficient_series colored", "k=2, N=120",
     lambda: frobq.bivar_coefficient_series("colored", 2, -1, 120),
     ("qseries.bivar_mul.calls", "frobenius.bivar.zwindow")),
    ("enumerate_arrays colored", "k=3, alpha=0, n=20",
     lambda: frobq.enumerate_arrays("colored", 3, 0, 20), ("frobenius.arrays_built",)),
    ("frobq identities", "N=100", lambda: workloads.run_cli(("identities", "--N", "100")), ()),
    ("python3 -c 'import frobq'", "", lambda: subprocess.run(
        [sys.executable, "-c", "import frobq"], check=True, env=workloads.cli_env()), ()),
)


def main() -> int:
    times = {}
    for name, size, fn, _ in ROWS:
        samples = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        times[name] = samples
    tracer = tracing.Tracer()
    tracing.install(tracer)
    print("| path | size | median s | min-max s | traced counts |")
    print("|---|---|---|---|---|")
    for name, size, fn, counters in ROWS:
        tracer.counts.clear()
        if counters:
            fn()
        counts = ", ".join(f"{c} {tracer.counts[c]}" for c in counters)
        s = times[name]
        print(f"| `{name}` | {size} | {statistics.median(s):.3f} | {min(s):.3f}-{max(s):.3f} | {counts} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
