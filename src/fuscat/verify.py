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
    CentralElement,
    ClassFunction,
    ce_multiply,
    cf_multiply,
    cf_right_action,
    cf_star_blocks,
    chi,
    cointegral,
    fourier_forward,
    fourier_inverse,
    idempotent,
    integral,
    pairing,
    subcategory_cointegral,
    tau,
    unit_central_element,
)
from .fusion_ring import FusionRingData, subcategory_product_set
from .groups import (
    FiniteGroup,
    character_table_cached,
    crosscheck_rep,
    crosscheck_vec,
    OracleMismatch,
)
from .linalg import DEFAULT_TOL, Tolerance, snap_integer, subspace_intersection
from .wedderburn import (
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


def _basis_functions(ring: FusionRingData) -> list[ClassFunction]:
    return [chi(ring, i) for i in range(ring.rank)]


def _random_cf(ring: FusionRingData, rng) -> ClassFunction:
    return ClassFunction(ring, rng.standard_normal(ring.rank) + 1j * rng.standard_normal(ring.rank))


def verify_ring(
    ring: FusionRingData,
    group: FiniteGroup | None = None,
    kind: str | None = None,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> list[CheckResult]:
    """Run every identity suite on one ring; group/kind enable the oracle checks."""
    checks: list[CheckResult] = []
    rng = np.random.default_rng(seed)
    r = ring.rank
    dim = ring.global_dim
    basis = _basis_functions(ring)

    # Fourier transform is a bijection with the stated closed forms.
    worst = 0.0
    for i in range(r):
        f = basis[i]
        back = fourier_forward(fourier_inverse(f))
        worst = max(worst, float(np.max(np.abs(back.coeffs - f.coeffs))))
        a = idempotent(ring, i)
        back_a = fourier_inverse(fourier_forward(a))
        worst = max(worst, float(np.max(np.abs(back_a.coeffs - a.coeffs))))
        img = fourier_inverse(f).coeffs
        expected = np.zeros(r, dtype=complex)
        expected[ring.dual[i]] = dim / ring.dims[i]
        worst = max(worst, float(np.max(np.abs(img - expected))))
    checks.append(CheckResult("fourier round trip and closed form", worst, 1e-8))

    worst = 0.0
    for i in range(r):
        for j in range(r):
            expected = ring.dims[i] if i == j else 0.0
            worst = max(worst, abs(pairing(basis[i], idempotent(ring, j)) - expected))
            prod = ce_multiply(idempotent(ring, i), idempotent(ring, j)).coeffs
            exp_vec = idempotent(ring, i).coeffs if i == j else 0.0
            worst = max(worst, float(np.max(np.abs(prod - exp_vec))))
    checks.append(CheckResult("pairing duality and idempotent orthogonality", worst, 1e-8))

    lam = cointegral(ring)
    worst = abs(pairing(lam, integral(ring)) - 1.0 / dim)
    worst = max(worst, abs(tau(lam) - 1.0 / dim))
    u = unit_central_element(ring)
    worst = max(worst, float(np.max(np.abs(fourier_inverse(lam).coeffs - u.coeffs))))
    checks.append(CheckResult("cointegral normalization", worst, 1e-8))

    # <chi_i, F^-1(chi_j)> = d_i F^-1(chi_j)_i against dim(C) tau(chi_i * chi_j),
    # and tau(chi_i * chi_j) against delta_{j, i*}, one row block of products at a time.
    eye = np.eye(r)
    inv = np.array([fourier_inverse(f).coeffs for f in basis])
    pair = (inv * ring.dims).T
    dual_eye = eye[list(ring.dual)]
    worst = 0.0
    for lo, prods in cf_star_blocks(ring, eye, eye):
        taus = prods[:, :, 0]
        rows = slice(lo, lo + len(prods))
        worst = max(worst, float(np.max(np.abs(pair[rows] - dim * taus))))
        worst = max(worst, float(np.max(np.abs(taus - dual_eye[rows]))))
    checks.append(CheckResult("pairing against trace form", worst, 1e-8))

    worst = 0.0
    for _ in range(20):
        f = _random_cf(ring, rng)
        a = np.asarray(rng.standard_normal(r) + 1j * rng.standard_normal(r))
        b = np.asarray(rng.standard_normal(r) + 1j * rng.standard_normal(r))
        ca, cb = CentralElement(ring, a), CentralElement(ring, b)
        lhs = pairing(cf_right_action(f, cb), ca)
        rhs = pairing(f, ce_multiply(cb, ca))
        scale = max(1.0, abs(lhs), abs(rhs))
        worst = max(worst, abs(lhs - rhs) / scale)
        back = fourier_forward(fourier_inverse(f))
        worst = max(worst, float(np.max(np.abs(back.coeffs - f.coeffs))))
    checks.append(CheckResult("right action adjointness, random round trips", worst, 1e-8))

    B = compute_blocks(ring, seed=seed, tol=tol)
    count_residual = abs(sum(blk.m**2 for blk in B.blocks) - r)
    checks.append(CheckResult("block multiplicities fill the rank", count_residual, 0.0))

    worst = _unit_relation_residual(ring, [blk.units for blk in B.blocks])
    unit_sum = sum(
        blk.units[s, s] for blk in B.blocks for s in range(blk.m)
    )
    eps1 = np.zeros(r, dtype=complex)
    eps1[0] = 1.0
    worst = max(worst, float(np.max(np.abs(unit_sum - eps1))))
    checks.append(CheckResult("matrix unit relations and unit sum", worst, 1e-8))

    worst = 0.0
    for blk in B.blocks:
        for s in range(blk.m):
            worst = max(worst, abs(complex(blk.units[s, s][0]) - 1.0 / blk.n))
        worst = max(worst, abs(blk.summand_dim - dim / blk.n))
    worst = max(worst, abs(sum(blk.m * blk.summand_dim for blk in B.blocks) - dim))
    checks.append(CheckResult("block trace constants", worst, 1e-8))

    if group is not None and kind == "rep":
        class_sizes = sorted(len(c) for c in group.classes)
        snapped = sorted(snap_integer(blk.summand_dim, tol) for blk in B.blocks)
        nvals = sorted(snap_integer(blk.n, tol) for blk in B.blocks)
        expected_n = sorted(group.order // len(c) for c in group.classes)
        residual = 0.0 if (snapped == class_sizes and nvals == expected_n) else 1.0
        checks.append(
            CheckResult(
                "block data matches conjugacy classes",
                residual,
                0.0,
                info=f"summand dims {snapped} vs class sizes {class_sizes}",
            )
        )
    if group is not None and kind == "vec":
        degrees = sorted(character_table_cached(group, seed).degrees)
        snapped = sorted(snap_integer(blk.summand_dim, tol) for blk in B.blocks)
        mults = sorted(blk.m for blk in B.blocks)
        residual = 0.0 if (snapped == degrees and mults == degrees) else 1.0
        checks.append(
            CheckResult(
                "block data matches irreducible degrees",
                residual,
                0.0,
                info=f"summand dims {snapped} vs degrees {degrees}",
            )
        )

    checks.append(CheckResult("dual bases identity", verify_dual_bases(B), 1e-8))
    checks.append(CheckResult("class sum pairings", verify_class_sum_pairings(B), 1e-8))
    checks.append(CheckResult("integral equals diagonal class sums", verify_integral_classsum(B), 1e-8))

    try:
        table = subalg.build_lattice(ring, B, tol)
    except Exception as exc:  # noqa: BLE001 - report as a failed check
        checks.append(CheckResult(LATTICE_CHECK, 1.0, 0.0, info=str(exc)))
        return checks

    worst_idem = 0.0
    worst_dimprod = 0.0
    worst_diag = 0.0
    worst_trace = 0.0
    worst_norm = 0.0
    worst_proj = 0.0
    worst_respair = 0.0
    for e in table.entries:
        D, L = e.subcategory, e.subalgebra
        lam_d = subcategory_cointegral(D)
        sq = cf_multiply(lam_d, lam_d)
        worst_idem = max(worst_idem, float(np.max(np.abs(sq.coeffs - lam_d.coeffs))))
        worst_dimprod = max(worst_dimprod, abs(L.dim_l * D.fpdim - dim))
        for j, P in enumerate(L.cointegral_components):
            sel = set(L.rows[j])
            for s in range(P.shape[0]):
                for t in range(P.shape[1]):
                    expected = 1.0 if (s == t and s in sel) else 0.0
                    worst_diag = max(worst_diag, abs(complex(P[s, t]) - expected))
        worst_trace = max(worst_trace, subalg.verify_cointegral_trace_sum(e))

        ell0 = np.zeros(r, dtype=complex)
        ell0[list(e.partition[0])] = 1.0
        eps_l = subalg.epsilon_L(L)
        worst_norm = max(worst_norm, abs(pairing(eps_l, CentralElement(ring, ell0)) - 1.0))

        diag_sum = np.zeros(r, dtype=complex)
        for j, rr in enumerate(L.rows):
            for s in rr:
                diag_sum += L.blocks.blocks[j].class_sums[s, s]
        worst_proj = max(
            worst_proj, float(np.max(np.abs(ell0 - (D.fpdim / dim) * diag_sum)))
        )
        lam_big = integral(ring)
        pid = subalg.pi_down(lam_big, L, tol)
        worst_proj = max(
            worst_proj, float(np.max(np.abs(pid.coeffs - ell0 / D.fpdim)))
        )

        ce = subalg.ce_basis(L, tol)
        for f in (basis[i] for i in range(r)):
            res_f = subalg.restrict(f, L)
            for z in ce:
                worst_respair = max(worst_respair, abs(pairing(res_f, z) - pairing(f, z)))
    checks.append(CheckResult("subcategory cointegrals idempotent", worst_idem, 1e-8))
    checks.append(CheckResult("subalgebra dimension product", worst_dimprod, 1e-6))
    checks.append(CheckResult("cointegral diagonal form", worst_diag, 1e-8))
    checks.append(CheckResult("cointegral trace sum", worst_trace, 1e-8))
    checks.append(CheckResult("unit idempotent pairing normalization", worst_norm, 1e-8))
    checks.append(CheckResult("integral projects to the unit idempotent", worst_proj, 1e-8))
    checks.append(CheckResult("restriction compatible with pairing", worst_respair, 1e-8))
    checks.append(
        CheckResult(LATTICE_CHECK, 0.0, 0.0, info=f"{len(table.entries)} subcategories")
    )

    worst_meetjoin = 0.0
    worst_bound = 0.0
    worst_comm_eq = 0.0
    strict = 0
    raw = {
        (a, b): subcategory_product_set(ea.subcategory, eb.subcategory)
        for a, ea in enumerate(table.entries)
        for b, eb in enumerate(table.entries)
    }
    entries = table.entries
    # Meet, join and the central-subspace intersection are symmetric in the
    # pair: computed once per unordered pair, then checked in both orders.
    for a, ea in enumerate(entries):
        for b in range(a, len(entries)):
            eb = entries[b]
            meet = table.product(ea, eb)
            join = table.intersection(ea, eb)
            if meet is None or join is None:
                worst_meetjoin = max(worst_meetjoin, 1.0)
                continue
            ce_meet = len(subspace_intersection(ea.subalgebra.ce_span, eb.subalgebra.ce_span, tol))
            if ce_meet != join.subalgebra.ce_dim:
                worst_meetjoin = max(worst_meetjoin, 1.0)
            for x, y in ((a, b),) if a == b else ((a, b), (b, a)):
                lhs, rhs, orders_agree = subalg.verify_dim_inequality(
                    entries[x], entries[y], meet, join, raw[x, y], raw[y, x]
                )
                worst_bound = max(worst_bound, lhs - rhs)
                if lhs < rhs - 1e-8:
                    strict += 1
                if ring.commutative:
                    worst_comm_eq = max(worst_comm_eq, abs(lhs - rhs))
                if not set(raw[x, y]) <= set(join.subcategory.indices):
                    worst_meetjoin = max(worst_meetjoin, 1.0)
                if ring.commutative and not orders_agree:
                    worst_meetjoin = max(worst_meetjoin, 1.0)
    checks.append(CheckResult("meet and join correspondence", worst_meetjoin, 0.0))
    checks.append(
        CheckResult(
            "product dimension bound",
            worst_bound,
            1e-8,
            info=f"{strict} strict instances",
        )
    )
    if ring.commutative:
        checks.append(CheckResult("product dimension equality (commutative)", worst_comm_eq, 1e-8))

    if group is not None:
        T = character_table_cached(group, seed)
        sizes = np.array([len(c) for c in group.classes], dtype=float)
        gram = (T.rows * sizes) @ T.rows.conj().T
        row_res = float(np.max(np.abs(gram - group.order * np.eye(len(sizes)))))
        col = T.rows.conj().T @ T.rows
        col_res = float(np.max(np.abs(col - np.diag(group.order / sizes))))
        deg_res = abs(sum(d * d for d in T.degrees) - group.order)
        checks.append(CheckResult("character orthogonality", max(row_res, col_res), 1e-7))
        checks.append(CheckResult("squared degrees sum to the order", deg_res, 0.0))
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
