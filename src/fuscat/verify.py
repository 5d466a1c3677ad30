"""Executable identity suites: every quantitative statement as a residual check.

Each suite runs over one fusion ring and returns named :class:`CheckResult`
rows with the worst observed residual and its bound.  The battery covers
representation rings and group-graded rings for a fixed list of small groups,
chosen to exercise commutative and noncommutative fusion rings, blocks with
multiplicity above one, irrational character values, and rich subgroup
lattices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import subalg
from .char_theory import (
    _fourier_forward_raw,
    _fourier_inverse_raw,
    cf_star_table,
    cointegral,
    fourier_inverse,
    integral,
    pairing,
    tau,
    unit_central_element,
)
from .fusion_ring import FusionRingData, _close_rows, _closure_rows_per_block, _fusion_hit
from .groups import FiniteGroup, OracleMismatch, crosscheck_rep, crosscheck_vec
from .linalg import _BLOCK_BYTES, DEFAULT_TOL, Tolerance
from .wedderburn import (
    NotIdempotent,
    _unit_relation_residual,
    compute_blocks,
    verify_class_sum_pairings,
    verify_dual_bases,
    verify_integral_classsum,
)

__all__ = ["CheckResult", "verify_ring", "battery_groups", "battery_sources"]

BATTERY = [
    "cyclic:2",
    "cyclic:3",
    "cyclic:4",
    "product:cyclic:2*cyclic:2",
    "cyclic:5",
    "cyclic:6",
    "symmetric:3",
    "dihedral:8",
    "quaternion:8",
    "dihedral:10",
    "alternating:4",
]
BATTERY_LARGE = BATTERY + ["symmetric:4"]
LATTICE_CHECK = "lattice round trip, injectivity, monotonicity"
# The failures of a ring's correspondence table, reported as a failed
# LATTICE_CHECK row; any other exception is a fault of the program and propagates.
LATTICE_FAILURES = (subalg.ClosureViolation, subalg.PartitionMismatch, subalg.RoundTripFailure, NotIdempotent)
# Bound of the product dimension bound, and the slack of its strict count.
DIM_BOUND = 1e-8


@dataclass(frozen=True)
class CheckResult:
    """One verified identity: its worst residual against its bound."""

    name: str
    residual: float
    bound: float
    info: str = ""

    @property
    def passed(self) -> bool:
        return self.residual <= self.bound


def battery_groups(large: bool = False) -> list[str]:
    return list(BATTERY_LARGE if large else BATTERY)


def battery_sources(large: bool = False) -> list[str]:
    out = []
    for g in battery_groups(large):
        out.append(f"rep:{g}")
        out.append(f"vec:{g}")
    return out


def _worst(*arrays) -> float:
    """Largest absolute entry over all the given arrays."""
    return max(float(np.max(np.abs(a), initial=0.0)) for a in arrays)


def _random_round_trips(ring: FusionRingData, rng: np.random.Generator) -> float:
    """Worst residual over 20 random triples (f, a, b): the adjointness
    <f <- b, a> = <f, b a>, relative to max(1, |lhs|, |rhs|), and the round
    trip of f through the inverse and forward Fourier transforms.

    The triples come from one (20, 6, r) draw, the real and then the
    imaginary part of f, a and b in turn, and every residual is one array
    expression over the stack.  Moduli of the pairings are ``np.hypot`` of
    their parts, which rounds as Python's ``abs`` of a complex number does;
    ``np.abs`` can differ from it in the last bit.
    """
    z = rng.standard_normal((20, 6, ring.rank))
    f, a, b = (z[:, 0::2] + 1j * z[:, 1::2]).transpose(1, 0, 2)
    lhs = np.sum(f * b * a * ring.dims, axis=1)
    rhs = np.sum(f * (b * a) * ring.dims, axis=1)
    scale = np.maximum(1.0, np.maximum(np.hypot(lhs.real, lhs.imag), np.hypot(rhs.real, rhs.imag)))
    gap = lhs - rhs
    back = _fourier_forward_raw(ring, _fourier_inverse_raw(ring, f))
    return max(float(np.max(np.hypot(gap.real, gap.imag) / scale)), _worst(back - f))


# The per-subcategory checks, with their bounds, in report order.
ENTRY_CHECKS = (
    ("subcategory cointegrals idempotent", 1e-8),
    ("subalgebra dimension product", 1e-6),
    ("cointegral diagonal form", 1e-8),
    ("cointegral trace sum", 1e-8),
    ("unit idempotent pairing normalization", 1e-8),
    ("integral projects to the unit idempotent", 1e-8),
    ("restriction compatible with pairing", 1e-8),
)


def _entry_residuals(ring: FusionRingData, block: subalg._LiveBlock) -> list[float]:
    """Worst residuals of the per-subcategory checks over a row block of
    table entries, in the order of ``ENTRY_CHECKS``.

    The entries are stacked along axis 0 with the block's live arrays; every
    unit array is in the (block, row, column) order of the shared base
    structure.
    """
    r, dim = ring.rank, ring.global_dim
    entries, proj, sums = block.entries, block.projectors, block.class_sums
    lam, keep = block.cointegrals, block.keep
    lay = entries[0].subalgebra.base._layout
    diag = lay.s == lay.t
    fpdim = np.array([e.subcategory.fpdim for e in entries])
    dim_l = np.array([e.subalgebra.dim_l for e in entries])
    ell0 = (block.cosets == 0).astype(float)  # the indicator of the unit's coset, D itself
    # Each cointegral times itself: row k of the first factor meets row k of the second.
    idem = cf_star_table(ring, lam, lam[:, None])[:, 0] - lam
    norm = np.sum(proj[:, :, 0] * ell0 * ring.dims, axis=1) - 1.0
    diag_sum = np.sum(sums * (keep & diag)[:, :, None], axis=1)
    pid = subalg._pi_down_rows(sums, keep, np.eye(1, r, dtype=complex)[0])  # the integral E_0
    # <restrict(chi_i), z> = (P^T (d z))_i against <chi_i, z> = d_i z_i,
    # for all i and every class sum z of the basis at once.
    Z = sums.transpose(0, 2, 1) * ring.dims[:, None]
    respair = np.matmul(proj.transpose(0, 2, 1), Z)
    respair -= Z
    respair *= keep[:, None, :]
    return [
        _worst(idem),
        _worst(dim_l * fpdim - dim),
        _worst(block.components - (keep & diag)),
        _worst(subalg._cointegral_trace_sums(block)),
        _worst(norm),
        _worst(ell0 - (fpdim / dim)[:, None] * diag_sum, pid - ell0 / fpdim[:, None]),
        _worst(respair),
    ]


def _lattice_check(ring: FusionRingData, table: subalg.LatticeTable) -> CheckResult:
    """The lattice check of a table that :func:`subalg.build_lattice` returned:
    it must hold the closure ⟨x⟩ of every single simple x.

    The closures are formed together, by one :func:`fusion_ring._close_rows`
    over the rows {1, x}.  With "meet and join correspondence" this proves
    the table complete: that check proves it closed under joins, and every
    subcategory D is the join of the ⟨x⟩ with x ∈ D.
    """
    member = np.eye(ring.rank, dtype=bool)
    member[:, 0] = True
    closures = _close_rows(ring, member)
    missing = np.flatnonzero(table._lookup(closures) < 0)
    if len(missing):
        x = int(missing[0])
        info = f"closure {tuple(np.flatnonzero(closures[x]).tolist())} of simple {x} is not in the table"
        return CheckResult(LATTICE_CHECK, 1.0, 0.0, info=info)
    return CheckResult(LATTICE_CHECK, 0.0, 0.0, info=f"{len(table.entries)} subcategories")


def _pair_checks(ring: FusionRingData, table: subalg.LatticeTable) -> list[CheckResult]:
    """Meet/join correspondence and the product dimension bound over all pairs.

    Meets and joins are looked up exactly (:meth:`subalg.LatticeTable.meets_and_joins`)
    once per unordered pair, a row block of pairs at a time, keeping only
    running maxima and counts; the bound is checked in both orders.  The
    correspondence fails when an entry's products with itself leave it, or
    when a pair has no meet or join in the table.  Otherwise every product
    of two entries lies in their join, which holds both.
    """
    entries = table.entries
    M = table.membership
    S, r = M.shape
    dim_l = np.array([e.subalgebra.dim_l for e in entries])
    info = ""
    step = _closure_rows_per_block(r, r * r)
    for lo in range(0, S, step):
        m = M[lo : lo + step]
        f = m.astype(np.float32)
        leave = np.flatnonzero(np.any(_fusion_hit(ring, f, f) & ~m, axis=1))
        if len(leave):
            info = f"products of {entries[lo + leave[0]].subcategory.indices} leave it"
            break
    worst, worst_abs, strict = 0.0, 0.0, 0
    ends = np.cumsum(np.arange(S, 0, -1))  # the pairs (a, b >= a) of row a end before ends[a]
    step = max(1, _BLOCK_BYTES // (8 * 8 * r))  # _coset_joins holds about 8 (K, r) index arrays
    for lo in range(0, ends[-1], step):
        k = np.arange(lo, min(lo + step, ends[-1]))
        a = np.searchsorted(ends, k, side="right")
        b = k - ends[a] + S
        meets, joins = table.meets_and_joins(a, b)
        found = (meets >= 0) & (joins >= 0)
        if not found.all():
            if not info:
                x = int(np.argmin(found))
                A, B = (entries[e].subcategory.indices for e in (a[x], b[x]))
                info = f"no {'meet' if meets[x] < 0 else 'join'} of {A} and {B} in the table"
            a, b, meets, joins = a[found], b[found], meets[found], joins[found]
        # dim(LM) against dim(L) dim(M) / dim(L n M): the meet's subalgebra is the product.
        lhs, rhs = dim_l[meets], dim_l[a] * dim_l[b] / dim_l[joins]
        gap = lhs - rhs
        worst = max(worst, float(np.max(gap, initial=0.0)))
        worst_abs = max(worst_abs, _worst(gap))
        strict += int(np.sum(np.where(a == b, 1, 2)[lhs < rhs - DIM_BOUND]))
    checks = [
        CheckResult("meet and join correspondence", float(bool(info)), 0.0, info=info),
        CheckResult("product dimension bound", worst, DIM_BOUND, info=f"{strict} strict instances"),
    ]
    if ring.commutative:
        checks.append(CheckResult("product dimension equality (commutative)", worst_abs, 1e-8))
    return checks


def verify_ring(
    ring: FusionRingData,
    group: FiniteGroup | None = None,
    kind: str | None = None,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> list[CheckResult]:
    """Run every identity suite on one ring; group/kind enable the group oracle crosscheck."""
    checks: list[CheckResult] = []
    rng = np.random.default_rng(seed)
    r = ring.rank
    dim = ring.global_dim
    dims = ring.dims
    dual = list(ring.dual)

    # Fourier transform is a bijection with the stated closed forms: row i of
    # each array is the image of chi_i or of E_i, in complex coefficients as
    # for any class function.
    eye = np.eye(r)
    basis = eye.astype(complex)
    inv = _fourier_inverse_raw(ring, basis)
    closed = np.zeros((r, r))
    closed[np.arange(r), dual] = dim / dims
    worst = _worst(
        _fourier_forward_raw(ring, inv) - eye,
        _fourier_inverse_raw(ring, _fourier_forward_raw(ring, basis)) - eye,
        inv - closed,
    )
    checks.append(CheckResult("fourier round trip and closed form", worst, 1e-8))

    lam = cointegral(ring)
    worst = abs(pairing(lam, integral(ring)) - 1.0 / dim)
    worst = max(worst, abs(tau(lam) - 1.0 / dim))
    u = unit_central_element(ring)
    worst = max(worst, float(np.max(np.abs(fourier_inverse(lam).coeffs - u.coeffs))))
    checks.append(CheckResult("cointegral normalization", worst, 1e-8))

    # <chi_i, F^-1(chi_j)> = d_i F^-1(chi_j)_i against dim(C) tau(chi_i * chi_j),
    # and tau(chi_i * chi_j) against delta_{j, i*}.  The star product of two
    # basis vectors is their row of N, so tau(chi_i * chi_j) is N_ij^0.
    taus = ring.N_float[:, :, 0]
    worst = _worst((inv * dims).T - dim * taus, taus - eye[dual])
    checks.append(CheckResult("pairing against trace form", worst, 1e-8))

    checks.append(
        CheckResult("right action adjointness, random round trips", _random_round_trips(ring, rng), 1e-8)
    )

    B = compute_blocks(ring, seed=seed, tol=tol)
    lay = B._layout
    diag = lay.s == lay.t
    units = B._unit_rows
    worst = _unit_relation_residual(ring, [blk.units for blk in B.blocks])
    worst = max(worst, _worst(units[diag].sum(axis=0) - eye[0]))
    checks.append(CheckResult("matrix unit relations and unit sum", worst, 1e-8))

    worst = _worst(
        units[diag, 0] - 1.0 / lay.n[diag],
        lay.summand_dim - dim / lay.n,
        [lay.summand_dim[diag].sum() - dim],
    )
    checks.append(CheckResult("block trace constants", worst, 1e-8))

    checks.append(CheckResult("dual bases identity", verify_dual_bases(B), 1e-8))
    checks.append(CheckResult("class sum pairings", verify_class_sum_pairings(B), 1e-8))
    checks.append(CheckResult("integral equals diagonal class sums", verify_integral_classsum(B), 1e-8))

    # The per-subcategory checks run while the table is built, on each row
    # block of entries and the projectors and class sums it was checked on:
    # each entry takes r * r complex entries in about eight temporaries (its
    # adapted class sums, projector, restriction products and solve).  The
    # budget is _BLOCK_BYTES times r^3 // 2^15 (at least once), so a block
    # holds about r / 16 entries at large rank (3 at r = 60, 7 at r = 120)
    # rather than one; a budget of 1 byte gives one-entry blocks at every rank.
    step = max(1, _BLOCK_BYTES * max(1, r**3 // 2**15) // (8 * 16 * r * r))
    residuals = []
    try:
        table = subalg._stream_lattice(
            ring, B, tol, step, lambda block: residuals.append(_entry_residuals(ring, block))
        )
    except LATTICE_FAILURES as exc:
        checks.append(CheckResult(LATTICE_CHECK, 1.0, 0.0, info=str(exc)))
        return checks
    worst = np.max(residuals, axis=0)
    for (name, bound), res in zip(ENTRY_CHECKS, worst.tolist()):
        checks.append(CheckResult(name, res, bound))
    checks.append(_lattice_check(ring, table))
    checks.extend(_pair_checks(ring, table))

    if group is not None:
        try:
            if kind == "rep":
                report = crosscheck_rep(group, table, tol)
                info = f"{report['normal_subgroups']} normal subgroups"
            else:
                report = crosscheck_vec(group, table, tol)
                info = f"{report['subgroups']} subgroups"
            checks.append(CheckResult("group oracle crosscheck", 0.0, 0.0, info=info))
        except OracleMismatch as exc:
            checks.append(CheckResult("group oracle crosscheck", 1.0, 0.0, info=str(exc)))

    return checks
