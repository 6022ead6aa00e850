"""Regenerate digests.json: the output digest of every task that has no independent route.

    python3 perfbench/make_digests.py

Run it only on code whose output is known good (the digests in the repo
come from the seed code, whose outputs the test suite checks); a digest
that changes means an output changed.
"""

from __future__ import annotations

import json
import sys
import time

import workloads


def main() -> int:
    workloads.OUT.mkdir(exist_ok=True)
    digests = {}
    for name in workloads.WORKLOADS:
        start = time.perf_counter()
        todo = [t for t in workloads.universe(name) if workloads.needs_digest(t)]
        for task in todo:
            output = workloads.execute(task)
            if task.kind == "cli" and output[0] != 0:
                raise SystemExit(f"{task.key} exited with {output[0]}")
            digests[task.key] = workloads.canonical(task, output)
        print(f"{name}: {len(todo)} digests in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    with open(workloads.DIGESTS, "w") as fh:
        json.dump({"digests": dict(sorted(digests.items()))}, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
