"""The array-expression verify suites against the per-element loops they replaced.

The reference below is the earlier ``verify_ring`` with its per-simple,
per-block, per-subcategory and per-pair Python loops, together with the
earlier per-block ``verify_class_sum_pairings``, ``verify_dual_bases`` and
``verify_integral_classsum`` and per-unit forms of the cointegral trace sum,
the projection of the integral and the ``ce_basis`` closure test.  The
product dimension bound is worked out inline, and the dimension of each
intersection of central subspaces by rank, dim U + dim V - dim(U + V),
independent of the coset partitions that the suite compares; meets and
joins come from a search of the inclusion order of the membership rows
(``reference_meets_and_joins``),
and the products of each ordered pair of entries from ``verify._fusion_hit``.
The reference looks up ``compute_blocks`` through ``verify`` and the streamed table
``_stream_lattice`` through ``subalg`` at call time, so a test that perturbs
one of them perturbs both suites alike; it reads each entry's projector and
class sums from the live row blocks of that table, one entry at a time.
"""

import dataclasses

import numpy as np
import pytest

from fuscat import char_theory, fusion_ring, linalg, subalg, verify, wedderburn
from fuscat.char_theory import (
    CentralElement,
    cf_multiply,
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
from fuscat.cli import parse_source
from fuscat.fusion_ring import enumerate_subcategories
from fuscat.groups import OracleMismatch, crosscheck_rep, crosscheck_vec
from fuscat.linalg import DEFAULT_TOL, _span_contains
from fuscat.verify import LATTICE_CHECK, CheckResult, battery_sources, verify_ring
from fuscat.wedderburn import _unit_relation_residual

from conftest import (
    bump_0_1,
    ce_span,
    inclusions,
    intersection_dims,
    live_block,
    live_table,
    patch_leaky_products,
    patch_live_projector,
    patch_subalgebras,
    patch_table,
    perturb_unit,
    reference_meets_and_joins,
    reference_random_round_trips,
    su2_fusion_ring,
    without_entries,
)


def reference_class_sum_pairings(B):
    d = B.ring.dims
    worst = 0.0
    for j, bj in enumerate(B.blocks):
        for i, bi in enumerate(B.blocks):
            vals = np.einsum("stk,uvk,k->stuv", bj.units, bi.class_sums, d.astype(complex))
            expected = np.zeros_like(vals)
            if i == j:
                for s in range(bj.m):
                    for t in range(bj.m):
                        expected[s, t, t, s] = bj.summand_dim
            worst = max(worst, float(np.max(np.abs(vals - expected))))
    for bj in B.blocks:
        expected = np.eye(bj.m) * bj.summand_dim
        worst = max(worst, float(np.max(np.abs(bj.class_sums[:, :, 0] - expected))))
    return worst


def reference_dual_bases(B):
    r = B.ring.rank
    lhs = np.zeros((r, r), dtype=complex)
    for blk in B.blocks:
        lhs += blk.n * np.einsum("sta,tsb->ab", blk.units, blk.units)
    rhs = np.zeros((r, r), dtype=complex)
    for i in range(r):
        rhs[i, B.ring.dual[i]] += 1.0
    return float(np.max(np.abs(lhs - rhs)))


def reference_integral_classsum(B):
    ring = B.ring
    total = np.zeros(ring.rank, dtype=complex)
    for blk in B.blocks:
        for s in range(blk.m):
            total += blk.class_sums[s, s]
    expected = np.zeros(ring.rank, dtype=complex)
    expected[0] = ring.global_dim
    residual = float(np.max(np.abs(total - expected)))
    u = unit_central_element(ring).coeffs
    return max(residual, float(np.max(np.abs(B.blocks[0].class_sums[0, 0] - u))))


class BoundViolation(Exception):
    """The product dimension bound failed in the reference loops."""


class ClosureFailure(Exception):
    """The class-sum span of a subalgebra failed the reference closure test."""


def unit_position(L):
    """Position of each adapted unit (j, s, t) in L's per-unit arrays."""
    lay = L.base._layout
    return {jst: u for u, jst in enumerate(zip(lay.block.tolist(), lay.s.tolist(), lay.t.tolist()))}


def intersection_dim(Q1, Q2):
    """dim(span Q1 n span Q2) = dim Q1 + dim Q2 - rank([Q1 | Q2]), for
    orthonormal columns.  A shared direction leaves a singular value at
    rounding level (below 1e-13 on the battery), any other one above 0.25."""
    both = np.hstack([Q1, Q2])
    return Q1.shape[1] + Q2.shape[1] - (np.linalg.matrix_rank(both, tol=1e-6) if both.size else 0)


def reference_trace_sum(e):
    D, L = e.subcategory, e.subalgebra
    comps = L.base.expand(subcategory_cointegral(D).coeffs)
    total = 0.0 + 0.0j
    for blk, P in zip(L.base.blocks, comps):
        total += np.trace(P) * blk.summand_dim
    residual = abs(total - D.ring.global_dim / D.fpdim)
    for (j, s, t), u in unit_position(L).items():
        if s not in set(L.rows[j]):
            residual = max(residual, abs(complex(L.cointegral_components[u])))
    return float(residual)


def reference_pi_down(z, L, class_sums):
    cols = class_sums.T
    coeffs = np.linalg.solve(cols, z.coeffs)
    keep = np.array([s in L.rows[j] for j, s, _t in unit_position(L)])
    return cols[:, keep] @ coeffs[keep]


def reference_ce_basis(L, class_sums, tol):
    pos = unit_position(L)
    out = [
        class_sums[pos[j, s, t]]
        for j, r in enumerate(L.rows)
        for s in r
        for t in range(L.base.blocks[j].m)
    ]
    vecs = np.array(out).reshape(len(out), L.ring.rank).T
    span = ce_span(L, tol)
    if span.shape[1] != L.ce_dim:
        raise ClosureFailure(f"class-sum span has dimension {span.shape[1]}, expected {L.ce_dim}")
    if not _span_contains(span, unit_central_element(L.ring).coeffs[:, None], tol):
        raise ClosureFailure("central subspace does not contain the unit")
    for k in range(vecs.shape[1]):
        if not _span_contains(span, vecs * vecs[:, k : k + 1], tol):
            raise ClosureFailure("central subspace is not closed under product")
    return out


def reference_verify_ring(ring, group=None, kind=None, seed=0, tol=DEFAULT_TOL):
    checks = []
    rng = np.random.default_rng(seed)
    r = ring.rank
    dim = ring.global_dim
    basis = [chi(ring, i) for i in range(r)]

    worst = 0.0
    for i in range(r):
        f = basis[i]
        back = fourier_forward(fourier_inverse(f))
        worst = max(worst, float(np.max(np.abs(back.coeffs - f.coeffs))))
        a = idempotent(ring, i)
        back_a = fourier_inverse(fourier_forward(a))
        worst = max(worst, float(np.max(np.abs(back_a.coeffs - a.coeffs))))
        expected = np.zeros(r, dtype=complex)
        expected[ring.dual[i]] = dim / ring.dims[i]
        worst = max(worst, float(np.max(np.abs(fourier_inverse(f).coeffs - expected))))
    checks.append(CheckResult("fourier round trip and closed form", worst, 1e-8))

    lam = cointegral(ring)
    worst = abs(pairing(lam, integral(ring)) - 1.0 / dim)
    worst = max(worst, abs(tau(lam) - 1.0 / dim))
    u = unit_central_element(ring)
    worst = max(worst, float(np.max(np.abs(fourier_inverse(lam).coeffs - u.coeffs))))
    checks.append(CheckResult("cointegral normalization", worst, 1e-8))

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

    worst = reference_random_round_trips(ring, rng)
    checks.append(CheckResult("right action adjointness, random round trips", worst, 1e-8))

    B = verify.compute_blocks(ring, seed=seed, tol=tol)
    worst = _unit_relation_residual(ring, [blk.units for blk in B.blocks])
    unit_sum = sum(blk.units[s, s] for blk in B.blocks for s in range(blk.m))
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

    checks.append(CheckResult("dual bases identity", reference_dual_bases(B), 1e-8))
    checks.append(CheckResult("class sum pairings", reference_class_sum_pairings(B), 1e-8))
    checks.append(
        CheckResult("integral equals diagonal class sums", reference_integral_classsum(B), 1e-8)
    )

    try:
        table, live = live_table(ring, B, tol)
    except Exception as exc:  # noqa: BLE001
        checks.append(CheckResult(LATTICE_CHECK, 1.0, 0.0, info=str(exc)))
        return checks

    worst = dict.fromkeys(("idem", "dimprod", "diag", "trace", "norm", "proj", "respair"), 0.0)
    for e in table.entries:
        D, L = e.subcategory, e.subalgebra
        projector, class_sums = live[D.indices]
        lam_d = subcategory_cointegral(D)
        sq = cf_multiply(lam_d, lam_d)
        worst["idem"] = max(worst["idem"], float(np.max(np.abs(sq.coeffs - lam_d.coeffs))))
        worst["dimprod"] = max(worst["dimprod"], abs(L.dim_l * D.fpdim - dim))
        pos = unit_position(L)
        for (j, s, t), u in pos.items():
            expected = 1.0 if (s == t and s in L.rows[j]) else 0.0
            worst["diag"] = max(worst["diag"], abs(complex(L.cointegral_components[u]) - expected))
        worst["trace"] = max(worst["trace"], reference_trace_sum(e))
        ell0 = np.zeros(r, dtype=complex)
        ell0[list(e.partition[0])] = 1.0
        eps_l = subalg.epsilon_L(L)
        worst["norm"] = max(worst["norm"], abs(pairing(eps_l, CentralElement(ring, ell0)) - 1.0))
        diag_sum = np.zeros(r, dtype=complex)
        for j, rr in enumerate(L.rows):
            for s in rr:
                diag_sum += class_sums[pos[j, s, s]]
        worst["proj"] = max(worst["proj"], float(np.max(np.abs(ell0 - (D.fpdim / dim) * diag_sum))))
        pid = reference_pi_down(integral(ring), L, class_sums)
        worst["proj"] = max(worst["proj"], float(np.max(np.abs(pid - ell0 / D.fpdim))))
        Z = np.array(reference_ce_basis(L, class_sums, tol)).T * ring.dims[:, None]
        worst["respair"] = max(worst["respair"], float(np.max(np.abs(projector.T @ Z - Z))))
    names = (
        ("subcategory cointegrals idempotent", 1e-8),
        ("subalgebra dimension product", 1e-6),
        ("cointegral diagonal form", 1e-8),
        ("cointegral trace sum", 1e-8),
        ("unit idempotent pairing normalization", 1e-8),
        ("integral projects to the unit idempotent", 1e-8),
        ("restriction compatible with pairing", 1e-8),
    )
    for (name, bound), res in zip(names, worst.values()):
        checks.append(CheckResult(name, res, bound))
    closures = [fusion_ring.subcategory_closure(ring, [x]).indices for x in range(r)]
    missing = [x for x, indices in enumerate(closures) if table.entry(indices) is None]
    if missing:
        info = f"closure {closures[missing[0]]} of simple {missing[0]} is not in the table"
        checks.append(CheckResult(LATTICE_CHECK, 1.0, 0.0, info=info))
    else:
        info = f"{len(table.entries)} subcategories"
        checks.append(CheckResult(LATTICE_CHECK, 0.0, 0.0, info=info))

    worst_meetjoin = worst_bound = worst_comm_eq = 0.0
    strict = 0
    entries = table.entries
    M = table.membership
    rows = M.astype(np.float32)
    pairs_a, pairs_b = np.triu_indices(len(entries))
    meets, joins = reference_meets_and_joins(table, pairs_a, pairs_b)
    spans = [ce_span(e.subalgebra, tol) for e in entries]
    for a, b, m, j in zip(pairs_a.tolist(), pairs_b.tolist(), meets.tolist(), joins.tolist()):
        # A pair whose meet is not the intersection is reported, not measured.
        if m < 0 or j < 0 or not np.array_equal(M[m], M[a] & M[b]):
            worst_meetjoin = 1.0
            continue
        meet, join = entries[m], entries[j]
        ce_meet = intersection_dim(spans[a], spans[b])
        if ce_meet != join.subalgebra.ce_dim:
            worst_meetjoin = 1.0
        for x, y in ((a, b),) if a == b else ((a, b), (b, a)):
            # dim(LM) <= dim(L) dim(M) / dim(L n M): the meet's subalgebra is the product.
            lhs = meet.subalgebra.dim_l
            rhs = entries[x].subalgebra.dim_l * entries[y].subalgebra.dim_l / join.subalgebra.dim_l
            if lhs > rhs + 1e-8 * max(1.0, rhs):
                raise BoundViolation(f"dim(LM) = {lhs} exceeds bound {rhs}")
            worst_bound = max(worst_bound, lhs - rhs)
            strict += lhs < rhs - 1e-8
            if ring.commutative:
                worst_comm_eq = max(worst_comm_eq, abs(lhs - rhs))
            # The products of the two subcategories lie in their join.
            if np.any(verify._fusion_hit(ring, rows[[x]], rows[[y]]) & ~M[j]):
                worst_meetjoin = 1.0
    checks.append(CheckResult("meet and join correspondence", worst_meetjoin, 0.0))
    checks.append(
        CheckResult("product dimension bound", worst_bound, 1e-8, info=f"{strict} strict instances")
    )
    if ring.commutative:
        checks.append(CheckResult("product dimension equality (commutative)", worst_comm_eq, 1e-8))

    if group is not None:
        try:
            if kind == "rep":
                info = f"{crosscheck_rep(group, table, tol)['normal_subgroups']} normal subgroups"
            else:
                info = f"{crosscheck_vec(group, table, tol)['subgroups']} subgroups"
            checks.append(CheckResult("group oracle crosscheck", 0.0, 0.0, info=info))
        except OracleMismatch as exc:
            checks.append(CheckResult("group oracle crosscheck", 1.0, 0.0, info=str(exc)))
    return checks


def assert_same_report(new, ref, atol=1e-13):
    assert [(c.name, c.bound, c.info, c.passed) for c in new] == [
        (c.name, c.bound, c.info, c.passed) for c in ref
    ]
    for a, b in zip(new, ref):
        assert abs(a.residual - b.residual) <= atol, (a.name, a.residual, b.residual)


def failing(checks):
    return {c.name for c in checks if not c.passed}


@pytest.mark.parametrize("source", battery_sources(large=True) + ["vec:alternating:5"])
def test_same_report_as_the_loops(source):
    ring, group, kind = parse_source(source, 0, DEFAULT_TOL)
    new = verify_ring(ring, group, kind)
    assert all(c.passed for c in new)
    assert_same_report(new, reference_verify_ring(ring, group, kind))


def test_same_report_on_su2(su2_ring):
    assert_same_report(verify_ring(su2_ring), reference_verify_ring(su2_ring))


def test_block_suites_match_the_loops(vec_a5_ring):
    B = wedderburn.compute_blocks(vec_a5_ring)
    for new, ref in (
        (wedderburn.verify_class_sum_pairings, reference_class_sum_pairings),
        (wedderburn.verify_dual_bases, reference_dual_bases),
        (wedderburn.verify_integral_classsum, reference_integral_classsum),
    ):
        assert abs(new(B) - ref(B)) <= 1e-13


def _perturb_projector(monkeypatch, ring):
    """Entry 1's live projector, after the table has checked it, gets 1e-6 at (0, 1)."""
    patch_live_projector(monkeypatch, enumerate_subcategories(ring)[1].indices, bump_0_1)


def _perturb_unit(monkeypatch, ring):
    bad = perturb_unit(verify.compute_blocks(ring), 0, 1, 3, 1e-6)
    monkeypatch.setattr(verify, "compute_blocks", lambda ring, seed=0, tol=None: bad)


def _replace_table(monkeypatch, change):
    """The table, in both suites, is change(table) of the real table."""
    patch_table(monkeypatch, change)


def _first_proper(table, side):
    """Position of the first entry after the trivial subcategory that is the
    meet (side 0) of two entries strictly above it, or the join (side 1) of
    two strictly below it."""
    inside = inclusions(table.membership)
    for e in range(1, len(inside)):
        others = np.flatnonzero(inside[e] & ~inside[:, e] if side == 0 else inside[:, e] & ~inside[e])
        a, b = np.triu_indices(len(others), 1)
        if np.any(table.meets_and_joins(others[a], others[b])[side] == e):
            return e
    raise AssertionError("no such entry")


def _drop_entry(monkeypatch, side):
    """Remove the first proper meet or join: the pairs it was the meet or the
    join of then have none in the table."""

    def drop(t):
        keep = np.arange(len(t.entries)) != _first_proper(t, side)
        return without_entries(t, keep)

    _replace_table(monkeypatch, drop)


def _drop_a_meet(monkeypatch, ring):
    _drop_entry(monkeypatch, 0)


def _drop_a_join(monkeypatch, ring):
    _drop_entry(monkeypatch, 1)


def _relabel_cosets(monkeypatch, ring):
    """Swap the class ids of a simple in a join's unit class and one outside it.

    Only the table's exact class ids change, so only the batched suite sees it.
    """

    def relabel(t):
        e = _first_proper(t, 1)
        ids = t.cosets.copy()
        x = int(np.flatnonzero(ids[e] != 0)[0])
        y = int(np.flatnonzero(ids[e] == 0)[1])
        ids[e, [x, y]] = ids[e, [y, x]]
        return dataclasses.replace(t, cosets=ids)

    _replace_table(monkeypatch, relabel)


def _skew_span(monkeypatch, ring):
    """Every subalgebra's selected class sums become random ones of their
    number; the first central subspace below the whole space is then not
    constant on its right cosets."""
    rng = np.random.default_rng(0)

    def skewed(s, L):
        shape = (L.ce_dim, ring.rank)
        return dataclasses.replace(L, ce_sums=rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    patch_subalgebras(monkeypatch, skewed)


def _drop_c3(monkeypatch, ring):
    """Remove the C3 entry (0, 3, 4) of vec:symmetric:3, the meet and the
    join of no two other entries: only the closures of single simples see it."""

    def drop(t):
        keep = np.array([e.subcategory.indices != (0, 3, 4) for e in t.entries])
        assert not keep.all()
        return without_entries(t, keep)

    _replace_table(monkeypatch, drop)


def _ce_dim_off_by_one(monkeypatch, ring):
    """The last subalgebra claims one central direction more than its cosets."""
    last = len(enumerate_subcategories(ring)) - 1
    patch_subalgebras(monkeypatch, lambda s, L: dataclasses.replace(L, ce_dim=L.ce_dim + 1) if s == last else L)


def _extend_to(monkeypatch, pick):
    """The table's extension table, in both suites, has J[D, x] = E for the
    (D, x, E) that ``pick(table)`` returns."""

    def change(t):
        D, x, E = pick(t)
        J = t.extensions.copy()
        J[D, x] = E
        return dataclasses.replace(t, extensions=J)

    _replace_table(monkeypatch, change)


def _extension_too_large(monkeypatch, ring):
    """The first extension J[D, x] of a non-trivial D by a simple outside it
    points at the top entry instead of at a smaller one: joins through it
    are too large, which the coset partitions see."""

    def pick(t):
        top = len(t.entries) - 1
        D, x = next((D, x) for D, x in np.argwhere(t.extensions < top) if D > 0 and t.extensions[D, x] != D)
        return D, x, top

    _extend_to(monkeypatch, pick)


def _closure_missing(monkeypatch, ring):
    """J[0, x] of the first simple x whose closure ⟨x⟩ is a proper entry
    points at no entry: only the lattice check compares it with ⟨x⟩."""

    def pick(t):
        x = int(np.flatnonzero(t.extensions[0] != 0)[0])
        return 0, x, -1

    _extend_to(monkeypatch, pick)


def _closure_elsewhere(monkeypatch, ring):
    """J[0, x] of the first simple x with a proper closure points at the top
    entry: the lattice check sees it, and the joins by x′ of that closure
    or by x no longer agree with the cosets."""

    def pick(t):
        x = int(np.flatnonzero(t.extensions[0] != 0)[0])
        return 0, x, len(t.entries) - 1

    _extend_to(monkeypatch, pick)


def _entry_products_leave_it(monkeypatch, ring):
    """Entry 1's products with itself reach every simple, in both suites."""
    patch_leaky_products(monkeypatch, ring, enumerate_subcategories(ring)[1].indices)


@pytest.mark.parametrize(
    "perturb, source, expected, reference_sees",
    [
        (_drop_a_meet, "vec:symmetric:4", {"meet and join correspondence", LATTICE_CHECK}, True),
        (_drop_a_join, "vec:dihedral:8", {"meet and join correspondence"}, True),
        (_relabel_cosets, "vec:dihedral:8", {"meet and join correspondence"}, False),
        (_skew_span, "vec:symmetric:3", {LATTICE_CHECK}, True),
        (_ce_dim_off_by_one, "vec:symmetric:3", {LATTICE_CHECK}, True),
        (_drop_c3, "vec:symmetric:3", {LATTICE_CHECK}, True),
        (_entry_products_leave_it, "vec:symmetric:3", {"meet and join correspondence"}, True),
        (_extension_too_large, "vec:symmetric:4", {"meet and join correspondence"}, False),
        (_closure_missing, "vec:symmetric:4", {LATTICE_CHECK}, False),
        (_closure_elsewhere, "vec:symmetric:4", {"meet and join correspondence", LATTICE_CHECK}, False),
        (_perturb_projector, "vec:symmetric:3", {"restriction compatible with pairing"}, True),
        (
            _perturb_unit,
            "vec:symmetric:3",
            {"class sum pairings", "dual bases identity", "matrix unit relations and unit sum", LATTICE_CHECK},
            True,
        ),
    ],
    ids=[
        "dropped-meet",
        "dropped-join",
        "relabelled-cosets",
        "skewed-span",
        "ce-dim",
        "dropped-c3",
        "entry-products-leave-it",
        "extension-too-large",
        "closure-missing",
        "closure-elsewhere",
        "projector",
        "unit",
    ],
)
def test_perturbations_fail_the_same_checks(monkeypatch, perturb, source, expected, reference_sees):
    ring = parse_source(source, 0, DEFAULT_TOL)[0]
    perturb(monkeypatch, ring)
    new = verify_ring(ring)
    assert failing(new) == expected
    if reference_sees:
        assert failing(new) == failing(reference_verify_ring(ring))
    else:
        assert not failing(reference_verify_ring(ring))


def test_dropped_meet_fails_by_name(monkeypatch):
    # In D8, {e, r^2} is the meet of the two Klein four-groups and of either
    # with C4, and the join of no two entries.  Without it those pairs have
    # no meet in the table, and are reported rather than measured against
    # the trivial subgroup, which the order search lands on.  It is also the
    # closure of r^2, so the lattice check names it missing.
    ring = parse_source("vec:dihedral:8", 0, DEFAULT_TOL)[0]
    _drop_entry(monkeypatch, 0)
    expected = {LATTICE_CHECK, "meet and join correspondence"}
    assert failing(verify_ring(ring)) == expected
    assert failing(reference_verify_ring(ring)) == expected


def test_product_dimension_violation_fails_by_name(monkeypatch, vec_s3_ring):
    # Raising dim_l of the trivial subcategory's subalgebra breaks the bound
    # for the pairs of incomparable subcategories that meet in it.
    names = [c.name for c in verify_ring(vec_s3_ring)]
    patch_subalgebras(monkeypatch, lambda s, L: dataclasses.replace(L, dim_l=L.dim_l + 1e-3) if s == 0 else L)
    checks = verify_ring(vec_s3_ring)
    assert [c.name for c in checks] == names
    bound = {c.name: c for c in checks}["product dimension bound"]
    assert not bound.passed and bound.residual == pytest.approx(1e-3)
    assert failing(checks) == {"product dimension bound", "subalgebra dimension product"}
    # The loops raised instead, losing every check of the ring.
    with pytest.raises(BoundViolation):
        reference_verify_ring(vec_s3_ring)


def test_commutative_equality_fails_by_name(monkeypatch):
    # Lowering dim_l of the trivial subcategory's subalgebra leaves the bound
    # but breaks the equality for two order-2 subcategories, which meet in it.
    ring, group, kind = parse_source("rep:product:cyclic:2*cyclic:2", 0, DEFAULT_TOL)
    assert enumerate_subcategories(ring)[0].indices == (0,)
    names = [c.name for c in verify_ring(ring, group, kind)]
    patch_subalgebras(monkeypatch, lambda s, L: dataclasses.replace(L, dim_l=L.dim_l / 2) if s == 0 else L)
    checks = verify_ring(ring, group, kind)
    assert [c.name for c in checks] == names
    assert {"product dimension equality (commutative)", "subalgebra dimension product"} <= failing(checks)
    assert "product dimension bound" not in failing(checks)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("source", battery_sources(large=True))
def test_random_round_trips_equal_the_loop_bit_for_bit(source, seed):
    # The stacked draw reads the same normals in the same order as the loop,
    # and its residual is the loop's to the last bit, as is the check's row.
    ring, group, kind = parse_source(source, 0, DEFAULT_TOL)
    ref = reference_random_round_trips(ring, np.random.default_rng(seed))
    assert verify._random_round_trips(ring, np.random.default_rng(seed)) == ref
    row = next(c for c in verify_ring(ring, group, kind, seed=seed) if c.name.startswith("right action"))
    assert row.residual == ref


@pytest.mark.parametrize("k", [30, 40])
def test_no_per_element_pairings(monkeypatch, k):
    ring = su2_fusion_ring(k)
    calls = {"idempotent": 0, "pairing": 0}

    def counted(name, real):
        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return spy

    spies = {name: counted(name, getattr(char_theory, name)) for name in calls}
    for mod in (char_theory, verify):
        for name, spy in spies.items():
            monkeypatch.setattr(mod, name, spy, raising=False)
    assert all(c.passed for c in verify_ring(ring))
    # One cointegral pairing; the random draws pair as one stack, and the integral is E_0.
    assert calls == {"idempotent": 1, "pairing": 1}


@pytest.mark.parametrize("source", ["vec:symmetric:3", "vec:dihedral:8", "vec:symmetric:4"])
def test_pair_checks_run_no_svd_and_no_closure(monkeypatch, source):
    # Meets and joins are looked up by their exact rows and the intersections
    # come from the coset partitions, so the pair checks touch no float span.
    ring = parse_source(source, 0, DEFAULT_TOL)[0]
    table = subalg.build_lattice(ring, verify.compute_blocks(ring))

    def forbidden(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(np.linalg, "svd", forbidden)
    monkeypatch.setattr(fusion_ring, "_close_rows", forbidden)
    checks = verify._pair_checks(ring, table)
    assert checks[0].name == "meet and join correspondence"
    assert all(c.passed for c in checks)


def test_intersection_dims_in_row_blocks(monkeypatch):
    # Nested random spans of mixed widths; a small Gram cap forces several row blocks.
    rng = np.random.default_rng(3)
    base = np.linalg.qr(rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))[0]
    spans = [base[:, :w] for w in (0, 1, 3, 3, 5)] + [
        np.linalg.qr(rng.standard_normal((12, w)))[0] for w in (2, 4)
    ]
    a, b = np.triu_indices(len(spans))
    expected = [intersection_dim(spans[x], spans[y]) for x, y in zip(a, b)]
    monkeypatch.setattr(linalg, "_BLOCK_BYTES", 16 * 3 * 18)
    assert intersection_dims(spans, b, a, DEFAULT_TOL).tolist() == expected
    assert intersection_dims(spans, a, b, DEFAULT_TOL).tolist() == expected
    assert [expected[k] for k in np.flatnonzero(a == b)] == [0, 1, 3, 3, 5, 2, 4]
    assert expected[len(spans) + 1 : 2 * len(spans) - 3] == [1, 1, 1]  # span 1 inside 2, 3, 4


class _Stop(Exception):
    pass


def test_entry_checks_in_blocks_sized_by_rank(monkeypatch, vec_a5_ring):
    # At r = 60 a block of the per-subcategory checks holds 3 entries
    # (test_same_report_as_the_loops checks their residuals); a budget of
    # 1 byte still gives one entry per block.
    sizes = []
    real = verify._entry_residuals

    def spy(ring, block):
        sizes.append(len(block.entries))
        return real(ring, block)

    def stop(*args):
        raise _Stop

    monkeypatch.setattr(verify, "_entry_residuals", spy)
    monkeypatch.setattr(verify, "_pair_checks", stop)
    for budget, step in ((verify._BLOCK_BYTES, 3), (1, 1)):
        monkeypatch.setattr(verify, "_BLOCK_BYTES", budget)
        sizes.clear()
        with pytest.raises(_Stop):
            verify_ring(vec_a5_ring)
        assert sum(sizes) == 59 and set(sizes[:-1]) == {step}


def test_trace_sum_and_pi_down_match_the_loops(vec_s3_ring, vec_s3_blocks):
    table, block = live_block(vec_s3_ring, vec_s3_blocks)
    # The block's stacks are the per-entry data, row by row.
    assert np.array_equal(block.keep, [e.subalgebra.selected for e in table.entries])
    assert np.array_equal(block.cointegrals, [subcategory_cointegral(e.subcategory).coeffs for e in table.entries])
    z = CentralElement(vec_s3_ring, np.arange(vec_s3_ring.rank) + 1j)
    projected = subalg._pi_down_rows(block.class_sums, block.keep, z.coeffs)
    trace_sums = subalg._cointegral_trace_sums(block)
    for e, res, got, class_sums in zip(table.entries, trace_sums, projected, block.class_sums):
        assert res == pytest.approx(reference_trace_sum(e), abs=1e-15)
        assert np.allclose(got, reference_pi_down(z, e.subalgebra, class_sums), atol=1e-13)


def test_fourier_forward_rows(su2_ring):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, su2_ring.rank)) + 1j * rng.standard_normal((3, su2_ring.rank))
    out = char_theory._fourier_forward_raw(su2_ring, A)
    for a, row in zip(A, out):
        dual = np.array(su2_ring.dual)
        assert np.array_equal(row, a[dual] * su2_ring.dims / su2_ring.global_dim)
        assert np.array_equal(fourier_forward(CentralElement(su2_ring, a)).coeffs, row)
