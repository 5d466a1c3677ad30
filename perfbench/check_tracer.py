#!/usr/bin/env python3
"""Check the tracer against call counts known for ``verify vec:symmetric:4``.

Runs two traced passes of the ``battery`` workload at seed 0 and checks that
the counts for that op equal the reference below and that every op's counts
repeat exactly between the two passes.  Exit 0 when both hold.

    python3 perfbench/check_tracer.py

The reference describes the program as the benchmark was defined; a change
that removes redundant work (such as caching the subcategory/subalgebra
maps) moves these counts on purpose, and then this reference is updated in a
change of the benchmark's own.
"""

from __future__ import annotations

import sys
import time

from run import RUN_LIMIT_S, run_worker

OP = "verify vec:symmetric:4"
KNOWN = {
    "subalg.subcategory_from_subalgebra": 10830,
    "subalg.subalgebra_from_subcategory": 3720,
    "wedderburn.adapt_to_idempotent": 3720,
    "subalg.restrict": 262080,
    "wedderburn.expand": 269610,
    "fusion_ring.subcategory_closure": 15264,
    "fusion_ring.enumerate_subcategories": 3,
    "wedderburn.compute_blocks": 2,
}


def main() -> int:
    passes = []
    for _ in range(2):
        out = run_worker(["--workload", "battery", "--seed", "0", "--traced"],
                         time.monotonic() + RUN_LIMIT_S)
        if "error" in out:
            print(f"traced pass failed: {out['error']}")
            return 1
        passes.append(out["op_counts"])
    ok = True
    if passes[0] != passes[1]:
        ok = False
        print("call counts differ between the two traced passes")
    for name, want in KNOWN.items():
        got = [p[OP].get(name, 0) for p in passes]
        status = "ok" if got == [want, want] else "MISMATCH"
        ok = ok and status == "ok"
        print(f"{status:8s} {name:40s} expected {want:7d}, traced {got}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
