"""Fresh-interpreter entry points that the benchmark starts as subprocesses.

    python3 perfbench/child.py probe WORKLOAD
        import frobq, warm the workload's lazy caches, then print
        time.perf_counter() (CLOCK_MONOTONIC, shared with the parent)
    python3 perfbench/child.py cli ARG...
        run `frobq ARG...` with spans recorded around the package's public
        functions; the spans go to the JSON file named by PERFBENCH_SPANS and
        stdout stays exactly what the CLI prints

Both are started with the checkout's src/ first on PYTHONPATH
(workloads.cli_env), as the CLI itself is.
"""

from __future__ import annotations

import json
import os
import sys
import time


def warm(workload: str) -> None:
    """Import frobq and fill the lazy caches that the workload would otherwise pay for first."""
    import frobq

    if workload == "theta":
        for order in range(3, 8):  # Z[zeta_(k+1)] for k = 2..6
            frobq.zeta_pow(order, 1)
    elif workload == "cli":
        import frobq.cli

        frobq.cli.build_parser()


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "probe":
        warm(rest[0])
        print(repr(time.perf_counter()))
        return 0
    if mode == "cli":
        import frobq.cli

        frobq.cli.build_parser()
        ready = time.perf_counter()
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            return frobq.cli.main(rest)
        finally:
            with open(os.environ["PERFBENCH_SPANS"], "w") as fh:
                json.dump({"ready": ready, "spans": tracer.spans, "counts": tracer.counts}, fh)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
