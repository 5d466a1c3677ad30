"""Command-line interface: analyze, subcategories, lattice, verify.

Sources are ``rep:<group>``, ``vec:<group>``, or ``ring:<file.json>`` where the
group grammar is cyclic:n, dihedral:2n, symmetric:n, alternating:n,
quaternion:8, and product:A*B.  Reports come out as text, JSON, or (for the
lattice) DOT.  Identical configuration and seed produce byte-identical JSON.

Exit codes: 0 success, 1 identity failure, 2 input failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from . import subalg
from .char_theory import _fourier_inverse_raw, cointegral
from .fusion_ring import (
    EnumerationLimit,
    FusionRingData,
    RingDataError,
    enumerate_subcategories,
    load_ring_json,
)
from .groups import BadTable, FiniteGroup, UnknownBuiltin, parse_group, rep_fusion_ring, vec_fusion_ring
from .linalg import Tolerance
from .verify import CheckResult, battery_sources, verify_ring
from .wedderburn import compute_blocks

__all__ = ["main", "RunConfig"]


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation: command, source, tolerances, seed, output shape."""

    command: str
    source: str | None
    seed: int = 0
    tol: Tolerance = Tolerance()
    format: str = "text"
    output: str | None = None
    battery: bool = False
    large: bool = False
    dump_units: bool = False


class InputFailure(Exception):
    """Source could not be parsed or validated; maps to exit code 2."""


def _cvec(vec) -> list:
    """A complex vector, or array of them, as [[re, im], ...] Python floats, for JSON."""
    v = np.asarray(vec, dtype=complex)
    return np.stack([v.real, v.imag], -1).tolist()


def _fnum(x: float) -> str:
    return f"{x:.6g}"


def parse_source(source: str, seed: int, tol: Tolerance) -> tuple[FusionRingData, FiniteGroup | None, str]:
    """Resolve a source spec into (ring, group-or-None, kind)."""
    kind, _, rest = source.partition(":")
    try:
        if kind == "rep" and rest:
            G = parse_group(rest)
            return rep_fusion_ring(G, seed), G, "rep"
        if kind == "vec" and rest:
            G = parse_group(rest)
            return vec_fusion_ring(G), G, "vec"
        if kind == "ring" and rest:
            return load_ring_json(rest, tol), None, "ring"
    except (
        UnknownBuiltin,
        BadTable,
        RingDataError,
        OSError,
        UnicodeDecodeError,
        json.JSONDecodeError,
        RecursionError,
    ) as exc:
        raise InputFailure(f"{source}: {exc}") from exc
    raise InputFailure(f"unrecognized source {source!r} (use rep:<group>, vec:<group>, ring:<file>)")


def analyze_report(cfg: RunConfig) -> dict:
    ring, _group, _kind = parse_source(cfg.source, cfg.seed, cfg.tol)
    B = compute_blocks(ring, seed=cfg.seed, tol=cfg.tol)
    lam = cointegral(ring)
    report = {
        "source": cfg.source,
        "seed": cfg.seed,
        "rank": ring.rank,
        "labels": list(ring.labels),
        "dual": list(ring.dual),
        "dims": [float(d) for d in ring.dims],
        "global_dim": float(ring.global_dim),
        "commutative": ring.commutative,
        "blocks": [
            {"index": j, "m": blk.m, "n": float(blk.n), "summand_dim": float(blk.summand_dim)}
            for j, blk in enumerate(B.blocks)
        ],
        "cointegral": _cvec(lam.coeffs),
        # Row i is the inverse Fourier image of chi_i, entrywise: the bits of r separate images.
        "fourier_chi_images": _cvec(_fourier_inverse_raw(ring, np.eye(ring.rank, dtype=complex))),
    }
    if cfg.dump_units:
        report["matrix_units"] = [
            {
                "block": j,
                "units": [[_cvec(blk.units[s, t]) for t in range(blk.m)] for s in range(blk.m)],
                "class_sums": [
                    [_cvec(blk.class_sums[s, t]) for t in range(blk.m)] for s in range(blk.m)
                ],
            }
            for j, blk in enumerate(B.blocks)
        ]
    return report


def analyze_text(report: dict) -> str:
    lines = [
        f"source       : {report['source']}",
        f"rank         : {report['rank']}",
        f"labels       : {', '.join(report['labels'])}",
        f"dims         : {', '.join(_fnum(d) for d in report['dims'])}",
        f"global dim   : {_fnum(report['global_dim'])}",
        f"commutative  : {report['commutative']}",
        "blocks (j, m, n, summand_dim):",
    ]
    for blk in report["blocks"]:
        lines.append(
            f"  {blk['index']:3d}  m={blk['m']}  n={_fnum(blk['n'])}  dim={_fnum(blk['summand_dim'])}"
        )
    lam = ", ".join(_fnum(re) for re, _ in report["cointegral"])
    lines.append(f"cointegral   : [{lam}]")
    lines.append("fourier images of the character basis:")
    for i, img in enumerate(report["fourier_chi_images"]):
        vals = ", ".join(_fnum(re) if abs(im) < 1e-9 else f"{_fnum(re)}+{_fnum(im)}i" for re, im in img)
        lines.append(f"  {report['labels'][i]:>8} -> [{vals}]")
    return "\n".join(lines) + "\n"


def subcategories_report(cfg: RunConfig) -> dict:
    ring, _group, _kind = parse_source(cfg.source, cfg.seed, cfg.tol)
    subcats = enumerate_subcategories(ring)
    return {
        "source": cfg.source,
        "seed": cfg.seed,
        "count": len(subcats),
        "subcategories": [
            {
                "indices": list(D.indices),
                "labels": [ring.labels[i] for i in D.indices],
                "fpdim": float(D.fpdim),
            }
            for D in subcats
        ],
    }


def subcategories_text(report: dict) -> str:
    lines = [f"source: {report['source']}", f"count : {report['count']}"]
    for D in report["subcategories"]:
        lines.append(f"  fpdim {_fnum(D['fpdim']):>8}  {{{', '.join(D['labels'])}}}")
    return "\n".join(lines) + "\n"


def lattice_report(cfg: RunConfig) -> dict:
    ring, _group, _kind = parse_source(cfg.source, cfg.seed, cfg.tol)
    B = compute_blocks(ring, seed=cfg.seed, tol=cfg.tol)
    table = subalg.build_lattice(ring, B, cfg.tol)
    entries = []
    for e in table.entries:
        entries.append(
            {
                "subcategory_indices": list(e.subcategory.indices),
                "subcategory_labels": [ring.labels[i] for i in e.subcategory.indices],
                "subcategory_fpdim": float(e.subcategory.fpdim),
                "subalgebra_dim": float(e.subalgebra.dim_l),
                "ce_dim": e.subalgebra.ce_dim,
                "block_rows": [list(r) for r in e.subalgebra.rows],
                "partition": [list(cls) for cls in e.partition],
            }
        )
    return {
        "source": cfg.source,
        "seed": cfg.seed,
        "count": len(entries),
        "entries": entries,
        "hasse_edges": [list(edge) for edge in table.hasse_edges],
    }


def lattice_text(report: dict) -> str:
    lines = [f"source: {report['source']}", f"count : {report['count']}"]
    for e in report["entries"]:
        lines.append(
            "  D = {{{}}}  fpdim {}  |  L dim {}  rows {}".format(
                ", ".join(e["subcategory_labels"]),
                _fnum(e["subcategory_fpdim"]),
                _fnum(e["subalgebra_dim"]),
                e["block_rows"],
            )
        )
    lines.append(f"hasse edges: {report['hasse_edges']}")
    return "\n".join(lines) + "\n"


def lattice_dot(report: dict) -> str:
    lines = ["digraph fusion_subcategory_lattice {", "  rankdir=BT;"]
    for idx, e in enumerate(report["entries"]):
        label = "{{{}}}: fpdim {} | L: dim {}".format(
            ",".join(str(i) for i in e["subcategory_indices"]),
            _fnum(e["subcategory_fpdim"]),
            _fnum(e["subalgebra_dim"]),
        )
        lines.append(f'  n{idx} [label="{label}"];')
    for a, b in report["hasse_edges"]:
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def verify_report(cfg: RunConfig) -> dict:
    sources = battery_sources(cfg.large) if cfg.battery else [cfg.source]
    results = []
    for source in sources:
        ring, group, kind = parse_source(source, cfg.seed, cfg.tol)
        try:
            checks = verify_ring(ring, group=group, kind=kind, seed=cfg.seed, tol=cfg.tol)
        except EnumerationLimit:
            raise
        except Exception as exc:  # noqa: BLE001 - any suite error is a failed run
            checks = [CheckResult("suite completed", 1.0, 0.0, info=f"{type(exc).__name__}: {exc}")]
        results.append(
            {
                "source": source,
                "checks": [
                    {
                        "name": c.name,
                        "residual": float(c.residual),
                        "bound": float(c.bound),
                        "passed": c.passed,
                        "info": c.info,
                    }
                    for c in checks
                ],
            }
        )
    all_passed = all(c["passed"] for r in results for c in r["checks"])
    return {"seed": cfg.seed, "passed": all_passed, "results": results}


def verify_text(report: dict) -> str:
    lines = []
    for r in report["results"]:
        lines.append(f"== {r['source']}")
        for c in r["checks"]:
            status = "PASS" if c["passed"] else "FAIL"
            info = f"  ({c['info']})" if c["info"] else ""
            lines.append(
                f"  [{status}] {c['name']}: residual {c['residual']:.3e} <= {c['bound']:.3e}{info}"
            )
    lines.append("ALL PASS" if report["passed"] else "FAILURES PRESENT")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuscat",
        description="Character theory and the subalgebra lattice of fusion categories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    source_help = "rep:<group>, vec:<group>, or ring:<file.json>"

    def add_common(p, formats):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--abs-tol", type=float, default=None)
        p.add_argument("--rel-tol", type=float, default=None)
        p.add_argument("--snap-tol", type=float, default=None)
        p.add_argument("--output", default=None, help="write the report to a file")
        p.add_argument("--format", choices=formats, default="text")

    p = sub.add_parser("analyze", help="ring summary, block table, transform data")
    p.add_argument("source", help=source_help)
    add_common(p, ["text", "json"])
    p.add_argument(
        "--dump-units",
        action="store_true",
        help="include full matrix-unit coefficients (their digits depend on the seed "
        "and on the order in which star products are taken)",
    )

    p = sub.add_parser("subcategories", help="enumerate fusion subcategories")
    p.add_argument("source", help=source_help)
    add_common(p, ["text", "json"])

    p = sub.add_parser("lattice", help="subcategory/subalgebra correspondence table")
    p.add_argument("source", help=source_help)
    add_common(p, ["text", "json", "dot"])

    p = sub.add_parser("verify", help="run every identity suite")
    p.add_argument("source", nargs="?", default=None, help=source_help)
    p.add_argument("--battery", action="store_true", help="run the built-in group battery")
    p.add_argument("--large", action="store_true", help="include symmetric:4 in the battery")
    add_common(p, ["text", "json"])
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    env_abs = os.environ.get("FUSCAT_TOL")
    try:
        abs_tol = args.abs_tol if args.abs_tol is not None else (float(env_abs) if env_abs else 1e-9)
    except ValueError:
        raise InputFailure(f"FUSCAT_TOL={env_abs!r} is not a number") from None
    rel_tol = args.rel_tol if args.rel_tol is not None else 1e-9
    snap_tol = args.snap_tol if args.snap_tol is not None else 1e-6
    if not all(np.isfinite(t) and t > 0 for t in (abs_tol, rel_tol, snap_tol)):
        raise InputFailure("tolerances must be finite and positive")
    if args.seed < 0:
        raise InputFailure(f"--seed must be non-negative, got {args.seed}")
    return RunConfig(
        command=args.command,
        source=args.source,
        seed=args.seed,
        tol=Tolerance(abs_tol, rel_tol, snap_tol),
        format=args.format,
        output=args.output,
        battery=getattr(args, "battery", False),
        large=getattr(args, "large", False),
        dump_units=getattr(args, "dump_units", False),
    )


def _dumps(value, nl: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for a JSON value whose
    dict keys are strings; ``nl`` is the newline and indent of its own line.

    With ``indent`` set, ``json`` falls back to its pure-Python encoder, one
    generator step per item.  Here a list of ints and finite floats is one
    ``repr`` join, a list of equal-length such lists one ``%r`` template
    (:func:`_number_lines`), and everything else recurses, with the type
    tests in ``json``'s order.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    inner = nl + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        body = _number_lines(value, inner)
        if body is None:
            body = ("," + inner).join([_dumps(v, inner) for v in value])
        return "[" + inner + body + nl + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _dumps(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _number_lines(items: list, inner: str) -> str | None:
    """The lines of a list of ints and finite floats, or of a list of
    equal-length such lists, between its brackets; None for any other list."""
    kinds = set(map(type, items))
    if kinds <= {int, float}:
        text = ("," + inner).join(map(repr, items))
    elif kinds == {list} and len(set(map(len, items))) == 1 and items[0]:
        flat = tuple(chain.from_iterable(items))
        if not set(map(type, flat)) <= {int, float}:
            return None
        deeper = inner + "  "
        row = "[" + deeper + ("," + deeper).join(["%r"] * len(items[0])) + inner + "]"
        text = ("," + inner).join([row] * len(items)) % flat
    else:
        return None
    # repr spells the infinities and NaN inf and nan, which JSON spells otherwise.
    return None if "n" in text else text


def _emit(text: str, output: str | None) -> None:
    if not output:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputFailure(f"cannot write the report: {exc}") from exc


# Per command: the report builder and its renderers other than JSON.
_COMMANDS = {
    "analyze": (analyze_report, {"text": analyze_text}),
    "subcategories": (subcategories_report, {"text": subcategories_text}),
    "lattice": (lattice_report, {"text": lattice_text, "dot": lattice_dot}),
    "verify": (verify_report, {"text": verify_text}),
}


def run(cfg: RunConfig) -> int:
    if cfg.command not in _COMMANDS:
        raise InputFailure(f"unknown command {cfg.command!r}")
    if cfg.command == "verify":
        if not cfg.battery and not cfg.source:
            raise InputFailure("verify needs a source or --battery")
        if cfg.battery and cfg.source:
            raise InputFailure("verify takes a source or --battery, not both")
        if cfg.large and not cfg.battery:
            raise InputFailure("--large applies only to --battery")
    build, renderers = _COMMANDS[cfg.command]
    try:
        report = build(cfg)
    except EnumerationLimit as exc:
        raise InputFailure(f"{cfg.source}: {exc}") from exc
    if cfg.format == "json":
        text = _dumps(report) + "\n"
    else:
        text = renderers[cfg.format](report)
    _emit(text, cfg.output)
    return 1 if cfg.command == "verify" and not report["passed"] else 0


# One parser per process: ``parse_args`` returns a fresh namespace and keeps
# no state on the parser, so every call of :func:`main` can share it.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        return run(cfg)
    except InputFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
