#!/usr/bin/env python3
"""fuscat benchmark: closed-loop workloads of CLI ops, one client, one op at a time.

    python3 perfbench/run.py --workload battery --seed 0 --seconds 40 --trace 0

Run from the root of a checkout.  Each pass over a workload's ops runs in a
fresh worker process (``worker.py``); passes repeat until ``--seconds`` would
be exceeded, with at least one.  Set-up (worker start to ready: importing
fuscat with numpy and writing the inputs) is timed on several extra workers
too.  Every op's output is checked, and ``analyze``/``lattice`` reports must
be byte-identical across the passes of a run.

With ``--trace 0`` the last stdout line reports the end-to-end metrics (the
median over passes); with ``--trace 1`` it runs one untraced and two traced
passes and reports the per-layer metrics, the tracing overhead, and fails if
the traced call counts differ between the two traced passes.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, workload_ops  # noqa: E402

# BLAS/OpenMP pools are pinned to one thread (never more than nproc): the
# workloads are single-client, and one thread keeps runs steady on a shared
# machine.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5  # extra set-up-only workers per run, after one warm-up
TRACE_DIR = os.path.join(".perfbench", "trace")
RUN_LIMIT_S = 170.0  # every worker is killed past this point of the run

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "slowest_op_s": "s",
    "peak_rss_mb": "MB",
}
# (metric, unit) reported by the traced run; "<fn>.calls"/"<fn>.s" come from
# the tracer, the ratios and the overhead are derived here.
PER_LAYER = [
    ("fusion_ring.self_s", "s"), ("fusion_ring.calls", "count"),
    ("fusion_ring.build_ring.s", "s"),
    ("fusion_ring.validate.calls", "count"), ("fusion_ring.validate.s", "s"),
    ("fusion_ring.enumerate_subcategories.calls", "count"),
    ("fusion_ring.enumerate_subcategories.s", "s"),
    ("fusion_ring.subcategory_closure.calls", "count"),
    ("fusion_ring.closures_per_subcategory", "ratio"),
    ("wedderburn.self_s", "s"), ("wedderburn.calls", "count"),
    ("wedderburn.compute_blocks.calls", "count"), ("wedderburn.compute_blocks.s", "s"),
    ("wedderburn.adapt_to_idempotent.calls", "count"),
    ("wedderburn.adapt_to_idempotent.s", "s"),
    ("wedderburn.expand.calls", "count"),
    ("subalg.self_s", "s"), ("subalg.calls", "count"),
    ("subalg.subalgebra_from_subcategory.calls", "count"),
    ("subalg.subcategory_from_subalgebra.calls", "count"),
    ("subalg.restrict.calls", "count"),
    ("subalg.ce_basis.s", "s"), ("subalg.build_lattice.s", "s"),
    ("subalg.subalgebras_per_subcategory", "ratio"),
    ("linalg.self_s", "s"), ("linalg.calls", "count"),
    ("linalg.joint_eigenspaces.calls", "count"),
    ("linalg.subspace_contains.calls", "count"), ("linalg.subspace_contains.s", "s"),
    ("linalg.orthonormal_basis.calls", "count"),
    ("char_theory.self_s", "s"), ("char_theory.calls", "count"),
    ("char_theory.cf_star.calls", "count"), ("char_theory.cf_star.s", "s"),
    ("groups.self_s", "s"), ("groups.calls", "count"),
    ("groups.subgroups.calls", "count"), ("groups.subgroups.s", "s"),
    ("groups.character_table.s", "s"), ("groups.vec_fusion_ring.s", "s"),
    ("groups.rep_fusion_ring.s", "s"), ("groups.crosscheck_rep.s", "s"),
    ("groups.crosscheck_vec.s", "s"),
    ("verify.self_s", "s"), ("verify.calls", "count"), ("verify.verify_ring.s", "s"),
    ("cli.self_s", "s"), ("cli.calls", "count"), ("cli.parse_source.s", "s"),
    ("trace.overhead_s", "s"), ("trace.spans", "count"),
]


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: str(THREADS) for var in THREAD_VARS})
    return env


def environment() -> dict:
    """What the numbers depend on, printed next to every result."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: THREADS for var in THREAD_VARS},
    }


def run_worker(args: list[str], deadline: float) -> dict:
    """Run one worker to completion; its last stdout line is its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args, "--t0", repr(time.monotonic())]
    with subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"error": "worker timed out"}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited {proc.returncode}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"worker printed no result: {lines[-1][:200]!r}"}


def check_passes(passes: list[dict], n_ops: int) -> tuple[int, int]:
    """(attempted, failed) over every pass; reports each failure on stderr.

    ``analyze``/``lattice`` reports must match the first pass byte for byte.
    A failing op stays counted.
    """
    attempted = failed = 0
    first: dict[str, str] = {}
    for k, p in enumerate(passes):
        attempted += n_ops
        if "error" in p:
            failed += n_ops
            print(f"pass {k}: {p['error']}", file=sys.stderr)
            continue
        for op in p["ops"]:
            errors = list(op["errors"])
            if not op["op"].startswith("verify"):
                if first.setdefault(op["op"], op["sha256"]) != op["sha256"]:
                    errors.append("report bytes differ from the first pass")
            if errors:
                failed += 1
                print(f"pass {k}: {op['op']}: {'; '.join(errors)}", file=sys.stderr)
    return attempted, failed


def pass_times(p: dict) -> tuple[float, float]:
    """(wall, slowest op) of one pass, in seconds."""
    secs = [op["seconds"] for op in p["ops"]]
    return sum(secs), max(secs)


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    ok = [p for p in passes if "error" not in p]
    if not ok:
        return {}
    walls, slowest = zip(*(pass_times(p) for p in ok))
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "slowest_op_s": statistics.median(slowest),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in ok),
    }


def per_layer(untraced: dict, traced: list[dict]) -> tuple[dict[str, float], bool]:
    """Per-layer metrics from two traced passes; False if their counts differ."""
    if "error" in untraced or any("error" in p for p in traced):
        return {}, False
    counts = [p["op_counts"] for p in traced]
    repeat = all(c == counts[0] for c in counts)
    if not repeat:
        print("traced call counts differ between the two traced passes", file=sys.stderr)
    layers = [p["layers"] for p in traced]

    def value(name: str) -> float:
        return statistics.median(lay.get(name, 0) for lay in layers)

    subcats = value("subcategories")
    derived = {
        "fusion_ring.closures_per_subcategory":
            value("fusion_ring.subcategory_closure.calls") / subcats if subcats else 0.0,
        "subalg.subalgebras_per_subcategory":
            value("subalg.subalgebra_from_subcategory.calls") / subcats if subcats else 0.0,
        "trace.overhead_s":
            statistics.median(pass_times(p)[0] for p in traced) - pass_times(untraced)[0],
        "trace.spans": value("spans"),
    }
    return {name: derived[name] if name in derived else value(name) for name, _ in PER_LAYER}, repeat


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "fuscat", "cli.py")):
        print(f"error: no fuscat sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    env = environment()
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    run_worker([*base, "--setup-only"], deadline)  # warm-up: bytecode and file caches
    setup_runs = [run_worker([*base, "--setup-only"], deadline) for _ in range(SETUP_SAMPLES)]

    passes: list[dict] = []
    if args.trace:
        os.makedirs(os.path.join(ROOT, TRACE_DIR), exist_ok=True)
        passes.append(run_worker(base, deadline))
        for k in (1, 2):
            out = os.path.join(TRACE_DIR, f"{args.workload}.{k}.npz")
            passes.append(run_worker([*base, "--traced", "--trace-out", out], deadline))
    else:
        while True:
            t0 = time.monotonic()
            passes.append(run_worker(base, deadline))
            now = time.monotonic()
            if "error" in passes[-1] or now - start + (now - t0) > args.seconds:
                break

    n_ops = len(workload_ops(args.workload))
    attempted, failed = check_passes(passes, n_ops)
    setups = [r["setup_s"] for r in setup_runs + passes if "setup_s" in r]
    for k, p in enumerate(passes):
        if "ops" in p:
            times = ", ".join(f"{op['op']} {op['seconds']:.3f}" for op in p["ops"])
            print(f"pass {k}{' traced' if 'layers' in p else ''}: setup {p['setup_s']:.3f} s; {times}")
    print(f"error_rate: {failed}/{attempted}")

    if args.trace:
        metrics, repeat = per_layer(passes[0], passes[1:])
        units = dict(PER_LAYER)
    else:
        metrics, repeat = end_to_end(passes, setups), True
        units = END_TO_END
    correct = failed == 0 and repeat and len(metrics) == len(units)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
