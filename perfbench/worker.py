"""One pass of a workload in a fresh process.

Set-up ends once fuscat is imported and the inputs are written; the worker
then runs each op in-process through ``fuscat.cli.main`` with stdout
captured, and prints one JSON line with its set-up time, per-op results,
peak RSS and, when traced, the per-layer metrics.  ``run.py`` starts it and
passes ``--t0``, its ``time.monotonic()`` at spawn; run it alone as

    python3 perfbench/worker.py --workload oracle --seed 0 [--traced] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default=None, help="write the spans here (.npz)")
    # CLOCK_MONOTONIC is system-wide on Linux, so the spawner's reading is
    # comparable with ours.
    ap.add_argument("--t0", type=float, default=None, help="time.monotonic() at spawn")
    args = ap.parse_args()

    import fuscat.cli as cli  # set-up includes the import, with numpy
    from workloads import gate, workload_ops, write_inputs

    ops = workload_ops(args.workload)
    write_inputs(args.workload)
    setup_s = time.monotonic() - args.t0 if args.t0 is not None else None
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}), flush=True)
        return 0

    tracer = None
    if args.traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    outputs = []
    for i, op in enumerate(ops):
        if tracer:
            tracer.current_op = i
        buf = io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(op.argv(args.seed))  # looked up now: the tracer rebinds it
        except Exception:  # noqa: BLE001 - a raising op is a failed op, not a crash
            rc, error = None, traceback.format_exc(limit=3)
        outputs.append((time.perf_counter() - t0, rc, buf.getvalue(), error))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    results = []
    for op, (seconds, rc, stdout, error) in zip(ops, outputs):
        if error is None:
            try:
                errors = gate(op, rc, stdout)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                errors = [f"malformed report: {type(exc).__name__}: {exc}"]
        else:
            errors = [f"raised: {error}"]
        results.append(
            {
                "op": op.label,
                "seconds": seconds,
                "errors": errors,
                "sha256": hashlib.sha256(stdout.encode()).hexdigest(),
            }
        )
    out = {"setup_s": setup_s, "ops": results, "peak_rss_mb": peak_rss_mb}
    if tracer:
        out["layers"] = tracer.layer_metrics()
        out["op_counts"] = {op.label: tracer.counts(i) for i, op in enumerate(ops)}
        if args.trace_out:
            tracer.save(args.trace_out)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
