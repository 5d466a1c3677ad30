"""The benchmark's workloads: fixed ring sets, their inputs and output gates.

An op is one CLI command (``analyze``, ``lattice`` or ``verify`` with
``--format json --seed <seed>``).  The seed goes only to ``--seed``; the ring
sets never change with it.  No input repeats within a pass, so a
process-level memo cannot turn repeated inputs into cache hits.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field

from su2 import su2_oracle, su2_path, write_su2

# The ``verify --battery --large`` sources, in battery order.  Written out
# rather than read from fuscat so that the workload cannot drift with it.
BATTERY_GROUPS = [
    "cyclic:2", "cyclic:3", "cyclic:4", "product:cyclic:2*cyclic:2", "cyclic:5",
    "cyclic:6", "symmetric:3", "dihedral:8", "quaternion:8", "dihedral:10",
    "alternating:4", "symmetric:4",
]
BATTERY_SOURCES = [f"{kind}:{g}" for g in BATTERY_GROUPS for kind in ("rep", "vec")]

# vec:alternating:5 has rank 60 (all dimensions 1), Wedderburn blocks of
# sizes m = 1, 3, 3, 4, 5 (sum of m^2 = 60) and 59 fusion subcategories.
A5_VEC_ORACLE = {"global_dim": 60.0, "block_m": [1, 3, 3, 4, 5], "subcategories": 59}
# Rep(A5): A5 is simple, so only the trivial subcategory and the whole.
A5_REP_ORACLE = {"subcategories": 2}

WORKLOADS = ("battery", "scale", "oracle")

# Generated ring files; a fixed relative path keeps report bytes equal
# across passes, since reports echo the source.
INPUT_DIR = os.path.join(".perfbench", "inputs")


@dataclass
class Op:
    command: str
    source: str
    oracle: dict = field(default_factory=dict)

    def argv(self, seed: int) -> list[str]:
        return [self.command, self.source, "--format", "json", "--seed", str(seed)]

    @property
    def label(self) -> str:
        return f"{self.command} {self.source}"


# SU(2)_k levels each workload reads from generated ``ring:`` files.
SU2_LEVELS = {"scale": (60,), "oracle": (30, 40)}


def su2_source(k: int) -> str:
    return f"ring:{su2_path(k, INPUT_DIR)}"


def workload_ops(workload: str) -> list[Op]:
    """The workload's ops, in order."""
    if workload == "battery":
        return [Op("verify", s) for s in BATTERY_SOURCES]
    if workload == "scale":
        return [
            Op("lattice", "vec:alternating:5", A5_VEC_ORACLE),
            Op("analyze", su2_source(60), su2_oracle(60)),
            Op("lattice", su2_source(60), su2_oracle(60)),
        ]
    if workload == "oracle":
        return [Op("verify", "rep:alternating:5", A5_REP_ORACLE)] + [
            Op("verify", su2_source(k), su2_oracle(k)) for k in SU2_LEVELS["oracle"]
        ]
    raise ValueError(f"unknown workload {workload!r} (choose from {', '.join(WORKLOADS)})")


def write_inputs(workload: str) -> None:
    """Write the ``ring:`` files the workload's ops read."""
    for k in SU2_LEVELS.get(workload, ()):
        write_su2(k, INPUT_DIR)


def _close(a: float, b: float) -> bool:
    # An oracle comparison, not a residual: far looser than any digit a
    # correct change could move, far tighter than any wrong ring could match.
    return math.isclose(a, b, rel_tol=1e-6)


def gate(op: Op, rc: int, stdout: str) -> list[str]:
    """Reasons the op's output is wrong; empty when it passes."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    errors = []
    want = op.oracle
    if op.command == "verify":
        if report.get("passed") is not True:
            failed = [c["name"] for r in report["results"] for c in r["checks"] if not c["passed"]]
            errors.append(f"report not passed: {failed}")
        if "subcategories" in want:
            infos = " ".join(c["info"] for r in report["results"] for c in r["checks"])
            found = [int(n) for n in re.findall(r"(\d+) subcategories", infos)]
            if found != [want["subcategories"]]:
                errors.append(f"subcategories {found}, expected {want['subcategories']}")
    elif op.command == "analyze":
        if report["rank"] != want["rank"]:
            errors.append(f"rank {report['rank']}, expected {want['rank']}")
        if not _close(report["global_dim"], want["global_dim"]):
            errors.append(f"global dim {report['global_dim']}, expected {want['global_dim']}")
    elif op.command == "lattice":
        entries = report["entries"]
        if report["count"] != want["subcategories"] or len(entries) != want["subcategories"]:
            errors.append(f"{report['count']} subcategories, expected {want['subcategories']}")
        top = max((e["subcategory_fpdim"] for e in entries), default=0.0)
        if not _close(top, want["global_dim"]):
            errors.append(f"global dim {top}, expected {want['global_dim']}")
        if "block_m" in want:
            trivial = [e for e in entries if e["subcategory_indices"] == [0]]
            block_m = sorted(len(rows) for rows in trivial[0]["block_rows"]) if trivial else []
            if block_m != want["block_m"]:
                errors.append(f"block multiplicities {block_m}, expected {want['block_m']}")
    return errors
