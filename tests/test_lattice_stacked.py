"""The stacked correspondence table against the one-subcategory-at-a-time build.

The reference below is the per-subcategory construction the stacked pass
replaced: every block adapted by its own eigvals/SVD/inverse and an einsum,
the class sums read as the inverse Fourier image of the adapted units, the
cointegral expanded a second time in the adapted unit matrix, the
projector read from that matrix and its inverse, the partition found by
clustering both float sides (``reference_block_partition``), one containment
test per pair, and Hasse edges from an O(S^3) loop over Python sets.  It
looks up ``subcategory_cointegral`` and ``enumerate_subcategories`` through
``subalg`` at call time, so a test that perturbs one of them perturbs both
constructions alike.  A second reference, ``stacked_projectors``, is the
stacked pass as it was before the table was streamed in row blocks: the
projectors of all entries formed at once, against which the one-entry reads
of the streamed table are compared bit for bit.
"""

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

from fuscat import cli, fusion_ring, subalg, wedderburn
from fuscat.char_theory import ClassFunction, _fourier_inverse_raw
from fuscat.cli import parse_source
from fuscat.fusion_ring import enumerate_subcategories
from fuscat.linalg import DEFAULT_TOL, _span_contains
from fuscat.subalg import (
    ClosureViolation,
    LatticeEntry,
    LatticeTable,
    PartitionMismatch,
    RoundTripFailure,
    SubalgebraIndex,
    build_lattice,
)
from fuscat.verify import battery_sources
from fuscat.wedderburn import Block, BlockStructure, NotIdempotent, compute_blocks

from conftest import (
    ce_span,
    deligne_product,
    haagerup_izumi_ring,
    live_table,
    patch_subalgebras,
    per_block_adaptation,
    reference_block_partition,
    reference_checked_partition,
    su2_fusion_ring,
    subalgebras_of,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def reference_adapt(B, p, tol=DEFAULT_TOL):
    """The block structure adapted to the idempotent p, and its eigenbasis U per block."""
    ring = B.ring
    comps = B.expand(p.coeffs)
    new_blocks, bases = [], []
    for blk, P in zip(B.blocks, comps):
        m = blk.m
        if m == 1:
            val = complex(P[0, 0])
            if min(abs(val), abs(val - 1)) > tol.snap_tol:
                raise NotIdempotent(f"block eigenvalue {val!r} is not in {{0, 1}}")
            new_blocks.append(blk)
            bases.append(np.ones((1, 1), dtype=complex))
            continue
        w = np.linalg.eigvals(P)
        ones = int(np.sum(np.abs(w - 1) <= tol.snap_tol))
        zeros = int(np.sum(np.abs(w) <= tol.snap_tol))
        if ones + zeros != m:
            bad = w[int(np.argmax(np.minimum(np.abs(w - 1), np.abs(w))))]
            raise NotIdempotent(f"block eigenvalue {bad!r} is not in {{0, 1}}")
        Us, _, Vh = np.linalg.svd(P)
        image = [Us[:, k] for k in range(ones)]
        kernel = [Vh[k].conj() for k in range(ones, m)]
        cols = []
        for one, group in ((0, image), (1, kernel)):
            for v in group:
                piv = v[int(np.argmax(np.abs(v)))]
                if abs(piv) > 0:
                    v = v * (abs(piv) / piv)
                sig = tuple((round(float(-c.real), 9), round(float(-c.imag), 9)) for c in v)
                cols.append((one, sig, v))
        cols.sort(key=lambda item: item[:2])
        U = np.column_stack([item[2] for item in cols])
        Uinv = np.linalg.inv(U)
        units = np.einsum("as,tb,abk->stk", U, Uinv, blk.units)
        new_blocks.append(
            Block(blk.m, blk.n, blk.summand_dim, units, _fourier_inverse_raw(ring, units))
        )
        bases.append(U)
    return BlockStructure(ring, tuple(new_blocks), B.seed), bases


def reference_subalgebra(D, B, tol=DEFAULT_TOL):
    return reference_entry(D, B, tol)[0]


def reference_entry(D, B, tol=DEFAULT_TOL):
    """The subalgebra of D, with its (r, r) projector and adapted class sums."""
    lam = subalg.subcategory_cointegral(D)
    adapted, bases = reference_adapt(B, lam, tol)
    comps = adapted.expand(lam.coeffs)
    rows = []
    for blk, P in zip(adapted.blocks, comps):
        selected = []
        for s in range(blk.m):
            val = complex(P[s, s])
            if abs(val - 1) <= tol.snap_tol:
                selected.append(s)
            elif abs(val) > tol.snap_tol:
                raise ClosureViolation(f"diagonal coefficient {val!r} is not 0 or 1")
        off = P - np.diag(np.diag(P))
        if np.max(np.abs(off)) > tol.snap_tol:
            raise ClosureViolation("adapted cointegral has off-diagonal coefficients")
        rows.append(tuple(selected))
    if not rows or 0 not in rows[0]:
        raise ClosureViolation("unit summand is missing from the subalgebra")
    dim_l = float(sum(adapted.blocks[j].summand_dim * len(r) for j, r in enumerate(rows)))
    ce_dim = int(sum(len(r) * adapted.blocks[j].m for j, r in enumerate(rows)))
    lay = adapted._layout
    mask = np.array([t in rows[j] for j, t in zip(lay.block.tolist(), lay.t.tolist())])
    selected = np.array([s in rows[j] for j, s in zip(lay.block.tolist(), lay.s.tolist())])
    projector = adapted._unit_matrix[:, mask] @ adapted._unit_matrix_inv[mask]
    components = np.concatenate([P.ravel() for P in comps])
    idempotent = np.concatenate(
        [(U @ np.diag(np.isin(np.arange(len(U)), sel)) @ np.linalg.inv(U)).ravel() for U, sel in zip(bases, rows)]
    )
    sums = adapted._class_sum_rows
    L = SubalgebraIndex(B, tuple(rows), dim_l, ce_dim, sums[selected], components, idempotent)
    return L, projector, sums


def stacked_projectors(subcats, B, tol=DEFAULT_TOL):
    """(S, r, r) projectors of all subcategories from one stacked pass, as
    the table formed them before it was streamed in row blocks."""
    coeffs = np.array([subalg.subcategory_cointegral(D).coeffs for D in subcats])
    adapted = wedderburn._adapt_stack(B, coeffs, tol)
    r, S = B.rank, len(subcats)
    idems = []
    for P, U, Uinv in zip(*per_block_adaptation(B, adapted)):
        diag = np.diagonal(Uinv @ P @ U, axis1=1, axis2=2)
        idems.append((U * (np.abs(diag - 1) <= tol.snap_tol)[:, None, :]) @ Uinv)
    units = [blk.units.transpose(2, 0, 1).reshape(r * blk.m, blk.m) for blk in B.blocks]
    out = np.empty((S, r, r), dtype=complex)
    step = max(1, subalg._BLOCK_BYTES // (r * r * out.itemsize))
    buf = np.empty((min(step, S), r, r), dtype=complex)
    for lo in range(0, S, step):
        G = buf[: min(step, S - lo)]
        pos = 0
        for blk, F, L in zip(B.blocks, units, idems):
            width = blk.m * blk.m
            prods = np.matmul(F, L[lo : lo + step].transpose(0, 2, 1))
            G[:, :, pos : pos + width] = prods.reshape(len(G), r, width)
            pos += width
        np.matmul(G, B._unit_matrix_inv, out=out[lo : lo + step])
    return out


def reference_edges(sets):
    edges = []
    for a in range(len(sets)):
        for b in range(len(sets)):
            if a == b or not sets[a] < sets[b]:
                continue
            if any(sets[a] < sets[c] < sets[b] for c in range(len(sets))):
                continue
            edges.append((a, b))
    return tuple(sorted(edges))


class MonotonicityFailure(Exception):
    """The reference's pair check: an inclusion not reversed by the central subspaces."""


def reference_build_lattice(ring, B, tol=DEFAULT_TOL):
    entries = []
    for D in subalg.enumerate_subcategories(ring):
        L = reference_subalgebra(D, B, tol)
        back = subalg.subcategory_from_subalgebra(L, tol)
        if back.indices != D.indices:
            raise RoundTripFailure(f"{D.indices} round-tripped to {back.indices}")
        entries.append(LatticeEntry(D, L, reference_block_partition(L, tol)))
    spans = [ce_span(e.subalgebra, tol) for e in entries]
    for a in range(len(entries)):
        for b in range(a + 1, len(entries)):
            same_dim = spans[a].shape[1] == spans[b].shape[1]
            if same_dim and _span_contains(spans[a], spans[b], tol):
                raise RoundTripFailure(
                    "distinct subcategories produced identical central subspaces: "
                    f"{entries[a].subcategory.indices} vs {entries[b].subcategory.indices}"
                )
    for a, ea in enumerate(entries):
        for b, eb in enumerate(entries):
            if a != b and set(ea.subcategory.indices) <= set(eb.subcategory.indices):
                if not _span_contains(spans[a], spans[b], tol):
                    raise MonotonicityFailure(
                        f"inclusion {ea.subcategory.indices} <= {eb.subcategory.indices} "
                        "was not reversed by the central subspaces"
                    )
    sets = [set(e.subcategory.indices) for e in entries]
    M = np.array([np.isin(np.arange(ring.rank), e.subcategory.indices) for e in entries])
    inside = np.array([[x <= y for y in sets] for x in sets])
    # Class ids from the clustered partitions: the smallest simple of each class.
    cosets = np.empty((len(entries), ring.rank), dtype=np.intp)
    for row, e in zip(cosets, entries):
        for cls in e.partition:
            row[list(cls)] = min(cls)
    return LatticeTable(ring, B, tuple(entries), reference_edges(sets), M, inside, cosets)


def ring_of(source):
    if source == "hi:3*su2:3":
        return deligne_product(haagerup_izumi_ring(3), su2_fusion_ring(3))
    if source.startswith("su2:"):
        return su2_fusion_ring(int(source[4:]))
    return parse_source(source, 0, DEFAULT_TOL)[0]


def assert_tables_match(new, live, ref):
    """The streamed table and its live arrays (``live_table``) against the reference table."""
    assert len(new.entries) == len(ref.entries)
    for e, f in zip(new.entries, ref.entries):
        L, R = e.subalgebra, f.subalgebra
        assert e.subcategory.indices == f.subcategory.indices
        assert (L.rows, L.dim_l, L.ce_dim, e.partition) == (R.rows, R.dim_l, R.ce_dim, f.partition)
        projector, sums = live[e.subcategory.indices]
        _, ref_projector, ref_sums = reference_entry(f.subcategory, new.blocks)
        assert np.max(np.abs(sums - ref_sums)) <= 1e-12
        assert np.max(np.abs(projector - ref_projector)) <= 1e-12
        assert np.max(np.abs(L.ce_sums - R.ce_sums)) <= 1e-12
        assert np.max(np.abs(L.cointegral_components - R.cointegral_components)) <= 1e-12
        assert np.max(np.abs(L.idempotent - R.idempotent)) <= 1e-12
        assert np.array_equal(subalg._projector(L), projector)
    assert new.hasse_edges == ref.hasse_edges
    for field in ("membership", "inside", "cosets"):
        assert np.array_equal(getattr(new, field), getattr(ref, field)), field


@pytest.mark.parametrize(
    "source", battery_sources(large=True) + ["vec:alternating:5", "su2:40"]
)
def test_stacked_table_matches_per_subcategory_build(source):
    ring = ring_of(source)
    B = compute_blocks(ring)
    assert_tables_match(*live_table(ring, B), reference_build_lattice(ring, B))


@pytest.mark.parametrize("source", ["vec:symmetric:4", "vec:alternating:5", "su2:6", "hi:3*su2:3"])
def test_one_entry_reads_match_the_stacked_pass_bitwise(source):
    # Restriction, epsilon_L and the inverse map rebuild one entry's
    # projector; it has the bits that the stacked pass gave all entries.
    ring = ring_of(source)
    B = compute_blocks(ring)
    table = build_lattice(ring, B)
    rng = np.random.default_rng(5)
    f = ClassFunction(ring, rng.standard_normal(ring.rank) + 1j * rng.standard_normal(ring.rank))
    projectors = stacked_projectors([e.subcategory for e in table.entries], B)
    for e, P in zip(table.entries, projectors):
        L = e.subalgebra
        assert np.array_equal(subalg.epsilon_L(L).coeffs, P[:, 0])
        assert np.array_equal(subalg.restrict(f, L).coeffs, P @ f.coeffs)
        assert np.array_equal(subalg._normalized_restrictions(L), P / ring.dims)
        assert subalg.subcategory_from_subalgebra(L).indices == e.subcategory.indices


@pytest.fixture(scope="module")
def s4():
    """vec:symmetric:4: 30 subcategories, blocks of multiplicity 1, 1, 2, 3, 3."""
    ring = ring_of("vec:symmetric:4")
    return ring, compute_blocks(ring)


def raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def perturb_cointegrals(monkeypatch, ring, deltas):
    """Add deltas[k] to the cointegral of the k-th enumerated subcategory."""
    original = subalg.subcategory_cointegral
    position = {D.indices: k for k, D in enumerate(enumerate_subcategories(ring))}

    def perturbed(D):
        lam = original(D)
        k = position[D.indices]
        return ClassFunction(ring, lam.coeffs + deltas[k]) if k in deltas else lam

    monkeypatch.setattr(subalg, "subcategory_cointegral", perturbed)


def unit(B, j, s, t):
    return B.blocks[j].units[s, t]


def central(B, j):
    return B.blocks[j].units[range(B.blocks[j].m), range(B.blocks[j].m)].sum(axis=0)


def swap_to(k):
    """Delta turning a cointegral into that of the k-th subcategory."""

    def delta(B, own):
        D = enumerate_subcategories(B.ring)[k]
        return subalg.subcategory_cointegral(D).coeffs - own

    return delta


def nan(B, own):
    return np.full(B.rank, np.nan)


# Each case maps enumeration positions to the delta, a function of B and the
# unperturbed cointegral, added to that subcategory's cointegral.
PERTURBATIONS = {
    # The m = 1 blocks 0 and 1 leave {0, 1} in subcategory 4, block 0 in
    # subcategory 9; subcategory 4 is named, by its block 0.
    "m1_eigenvalue": (
        {
            4: lambda B, own: 0.3 * unit(B, 0, 0, 0) + 0.2 * unit(B, 1, 0, 0),
            9: lambda B, own: 0.2 * unit(B, 0, 0, 0),
        },
        NotIdempotent,
    ),
    # Subcategory 2 fails in blocks 2 and 4, subcategory 6 already in block 3:
    # the stacked pass sees 6 fail first, yet 2 is named, by its block 2.
    "block_order": (
        {
            2: lambda B, own: 0.35 * central(B, 2) + 0.25 * central(B, 4),
            6: lambda B, own: 0.3 * central(B, 3),
        },
        NotIdempotent,
    ),
    # A nilpotent part in a block where the cointegral vanishes: eigenvalues
    # stay 0, but the adapted component is not diagonal.
    "off_diagonal": ({29: lambda B, own: 1e-3 * unit(B, 3, 0, 1)}, ClosureViolation),
    "unit_missing": ({5: lambda B, own: -unit(B, 0, 0, 0)}, ClosureViolation),
    "round_trip_before_eigenvalue": (
        {3: swap_to(7), 8: lambda B, own: 0.3 * central(B, 4)},
        RoundTripFailure,
    ),
    "eigenvalue_before_round_trip": (
        {1: lambda B, own: 0.3 * central(B, 4), 3: swap_to(7)},
        NotIdempotent,
    ),
    # A NaN cointegral passes the m = 1 tests (NaN compares false) and makes
    # the first m > 1 block's eigvals raise; the stacked call then runs
    # matrix by matrix and keeps that error for its row alone.
    "linalg_error": (
        {3: nan, 6: lambda B, own: 0.3 * central(B, 2)},
        np.linalg.LinAlgError,
    ),
    "linalg_error_later": (
        {3: lambda B, own: 0.3 * central(B, 4), 6: nan},
        NotIdempotent,
    ),
}


@pytest.mark.parametrize("case", sorted(PERTURBATIONS))
def test_first_failure_matches_reference(monkeypatch, s4, case):
    ring, B = s4
    spec, expected = PERTURBATIONS[case]
    subs = enumerate_subcategories(ring)
    own = {k: subalg.subcategory_cointegral(subs[k]).coeffs for k in spec}
    deltas = {k: delta(B, own[k]) for k, delta in spec.items()}
    perturb_cointegrals(monkeypatch, ring, deltas)
    outcome = raised(build_lattice, ring, B)
    assert outcome == raised(reference_build_lattice, ring, B)
    assert outcome[0] is expected
    # Each stacked entry fails, or succeeds, as the reference does for it alone.
    for D, L in zip(subs, subalgebras_of(subs, B)):
        try:
            R = reference_subalgebra(D, B)
        except Exception as exc:  # noqa: BLE001 - compared below
            assert (type(L), str(L)) == (type(exc), str(exc))
        else:
            assert L.rows == R.rows


def test_stacked_call_falls_back_matrix_by_matrix():
    A = np.stack([2 * np.eye(3), np.zeros((3, 3)), np.diag([1.0, 2, 4])]).astype(complex)
    errors = [None, None, None]
    inv = wedderburn._stacked(np.linalg.inv, A, errors)
    assert errors[0] is None and errors[2] is None
    assert isinstance(errors[1], np.linalg.LinAlgError)
    assert np.allclose(inv, [np.eye(3) / 2, np.eye(3), np.diag([1, 0.5, 0.25])])
    errors = [None, None, None]
    assert np.allclose(wedderburn._stacked(np.linalg.inv, A[[0, 2]], errors), inv[[0, 2]])
    assert errors == [None, None, None]


@pytest.mark.parametrize("at", [5, 9])
def test_duplicate_subcategory_fails_injectivity_as_reference(monkeypatch, s4, at):
    ring, B = s4
    subs = enumerate_subcategories(ring)
    with_duplicate = subs[:at] + [subs[4]] + subs[at:]
    monkeypatch.setattr(subalg, "enumerate_subcategories", lambda _ring: with_duplicate)
    outcome = raised(build_lattice, ring, B)
    assert outcome == raised(reference_build_lattice, ring, B)
    assert outcome[0] is RoundTripFailure and "identical central subspaces" in outcome[1]


def test_reference_clustering_finds_the_right_cosets():
    # Both float sides, clustered as before the partition was exact, give
    # the right cosets on every entry, also on non-commutative rings that
    # come from no group.
    sources = battery_sources(large=True) + ["vec:alternating:5"]
    rings = [ring_of(s) for s in sources + [f"su2:{k}" for k in range(1, 21)]]
    rings += [haagerup_izumi_ring(3), haagerup_izumi_ring(5)]
    rings.append(deligne_product(haagerup_izumi_ring(3), su2_fusion_ring(3)))
    for ring in rings:
        for e in build_lattice(ring, compute_blocks(ring)).entries:
            assert reference_block_partition(e.subalgebra) == e.partition, ring


def span_of_target(monkeypatch, target, change):
    """Entry ``target``'s selected class sums become ``change`` of their own,
    in the streamed build and in the reference alike."""

    def changed(L):
        return dataclasses.replace(L, ce_sums=change(L.ce_sums))

    real_reference = reference_subalgebra

    def reference(D, B, tol=DEFAULT_TOL):
        L = real_reference(D, B, tol)
        return changed(L) if D.indices == enumerate_subcategories(B.ring)[target].indices else L

    patch_subalgebras(monkeypatch, lambda s, L: changed(L) if s == target else L)
    monkeypatch.setitem(globals(), "reference_subalgebra", reference)


@pytest.mark.parametrize("target", [4, 12, 21])
def test_skewed_span_fails_the_partition(monkeypatch, s4, target):
    # Random class sums of the right number are not constant on the right
    # cosets; the clustering reference sees it too.
    ring, B = s4
    rng = np.random.default_rng(target)

    def skew(V):
        return rng.standard_normal(V.shape) + 1j * rng.standard_normal(V.shape)

    span_of_target(monkeypatch, target, skew)
    outcome = raised(build_lattice, ring, B)
    assert outcome[0] is PartitionMismatch and "is not constant on its right cosets" in outcome[1]
    assert raised(reference_build_lattice, ring, B)[0] is PartitionMismatch


@pytest.mark.parametrize("target", [4, 12, 21])
def test_short_span_fails_the_partition(monkeypatch, s4, target):
    # Repeating one class sum in place of the last keeps every vector inside
    # the true central subspace; only the count of cosets can see it.
    ring, B = s4
    span_of_target(monkeypatch, target, lambda V: np.concatenate([V[:-1], V[:1]]))
    D = enumerate_subcategories(ring)[target]
    cosets = ring.rank // len(D)
    assert raised(build_lattice, ring, B) == (
        PartitionMismatch,
        f"central subspace has dimension {cosets - 1}, {D.indices} has {cosets} right cosets",
    )


@pytest.mark.parametrize("seed", range(6))
def test_hasse_edges_match_set_loop(seed):
    # Random families of subsets of 7 points, with repeated rows, the empty
    # set and the full set.
    rng = np.random.default_rng(seed)
    M = rng.random((30, 7)) < rng.uniform(0.2, 0.8)
    M = np.concatenate([M, M[:4], np.zeros((1, 7), bool), np.ones((1, 7), bool)])
    M = M[rng.permutation(len(M))]
    sets = [set(np.flatnonzero(row).tolist()) for row in M]
    edges = subalg._hasse_edges(subalg._inclusions(M))
    assert edges == reference_edges(sets)
    assert len(edges) > 0


def lattice_memory(ring):
    """(memory retained, peak above it) of build_lattice, in bytes, and the table."""
    B = compute_blocks(ring)
    ring.N_float, ring.support, B._unit_matrix_inv  # cached before tracing
    enumerate_subcategories(ring)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        table = build_lattice(ring, B)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return retained - start, peak - retained, table


def test_lattice_memory_above_the_table(vec_a5_ring):
    # The (r, r) projectors and class sums of 59 entries would take 6.8 MB;
    # streamed in row blocks, the table keeps the selected class sums,
    # 0.98 MB, and (r,) arrays.
    retained, peak, table = lattice_memory(vec_a5_ring)
    assert len(table.entries) == 59
    assert sum(e.subalgebra.ce_sums.nbytes for e in table.entries) <= retained <= 1.5e6
    assert peak <= 2e6


def test_rank_120_lattice_memory():
    # vec:symmetric:5: the (r, r) arrays of 156 entries would take 71.9 MB,
    # the selected class sums take 8.3 MB.
    retained, _, table = lattice_memory(ring_of("vec:symmetric:5"))
    assert len(table.entries) == 156
    assert retained < 12e6


def test_adaptation_memory_above_its_result(vec_a5_ring):
    # The adaptation keeps per block the (S, m, m) components, bases and
    # inverses: 3 S r numbers, 170 kB for the 59 cointegrals, where one
    # (S, r, r) array would take 3.4 MB.  The adapted class sums are formed
    # for a row block of entries at a time, without the units.
    ring = vec_a5_ring
    B = compute_blocks(ring)
    # The structure's cached arrays are formed once per ring, not per adaptation.
    B._unit_matrix_inv, B._class_sum_rows
    subs = enumerate_subcategories(ring)
    coeffs = np.array([subalg.subcategory_cointegral(D).coeffs for D in subs])
    step = subalg._BLOCK_BYTES // (16 * ring.rank**2)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        adapted = wedderburn._adapt_stack(B, coeffs, DEFAULT_TOL)
        retained, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for lo in range(0, len(subs), step):
            sums = wedderburn._adapted_class_sums(B, adapted.take(slice(lo, lo + step)))
            alone = wedderburn._adapted_class_sums(B, adapted.take(slice(lo, lo + 1)))
            assert np.array_equal(sums[0], alone[0])
            del sums, alone
        sums_retained, sums_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(e is None for e in adapted.errors)
    assert step == 4
    assert retained - start <= 5e5
    assert peak - retained <= 1e6
    assert sums_retained - retained <= 1e4
    assert sums_peak - sums_retained <= 1e6


def test_one_unit_matrix_inverse(monkeypatch, vec_a5_ring):
    ring = vec_a5_ring
    B = compute_blocks(ring)
    shapes = []
    real_inv = np.linalg.inv

    def spy(a):
        shapes.append(np.shape(a))
        return real_inv(a)

    monkeypatch.setattr(np.linalg, "inv", spy)
    build_lattice(ring, B)
    r = ring.rank
    assert shapes.count((r, r)) == 1  # the base unit matrix, once
    assert all(len(s) == 3 and s[1] < r for s in shapes if s != (r, r))  # stacked block bases


def test_no_svd_of_a_central_subspace(monkeypatch, vec_a5_ring):
    # The class sums are tested against the exact coset indicators: the only
    # matrices factored are the (c, c) products of the two, one per entry,
    # stacked per coset count of a row block, and the stacked (m, m) block
    # bases.  No (r, k) basis of a central subspace is factored; the one
    # (r, r) matrix is the trivial subcategory's, whose r right cosets are
    # its single simples.
    ring = vec_a5_ring
    B = compute_blocks(ring)
    shapes, stacks = [], []
    real_svd, real_rank = np.linalg.svd, subalg._numerical_rank

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    def rank_spy(M, tol):
        stacks.append(M.shape)
        return real_rank(M, tol)

    monkeypatch.setattr(np.linalg, "svd", spy)
    monkeypatch.setattr(subalg, "_numerical_rank", rank_spy)
    table = build_lattice(ring, B)
    r = ring.rank
    widths = sorted(s[1:] for s in stacks for _ in range(s[0]))
    assert widths == sorted((e.subalgebra.ce_dim,) * 2 for e in table.entries)
    assert [s for s in widths if s[0] == r] == [(r, r)]
    for s in stacks:
        shapes.remove(s)
    assert all(len(s) == 3 and s[0] == len(table.entries) and s[1] < r for s in shapes)


def test_lattice_report_bytes_unchanged(tmp_path):
    out = tmp_path / "lattice.json"
    argv = ["lattice", "vec:symmetric:4", "--format", "json", "--seed", "0", "--output", str(out)]
    assert cli.main(argv) == 0
    with open(os.path.join(DATA, "lattice_vec_symmetric_4.json"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def round_trip_first(ring, B, tol=DEFAULT_TOL):
    """The per-entry checks of the stacked build as they ran before the round
    trip was read from the partition: every entry's simple set recomputed and
    closed by ``subcategory_from_subalgebra``, then its partition."""
    subcats = enumerate_subcategories(ring)
    for D, L in zip(subcats, subalgebras_of(subcats, B, tol)):
        if isinstance(L, Exception):
            raise L
        back = subalg.subcategory_from_subalgebra(L, tol)
        if back.indices != D.indices:
            raise RoundTripFailure(f"{D.indices} round-tripped to {back.indices}")
        reference_block_partition(L, tol)
    raise AssertionError("every entry passed")


def corrupt_projector(monkeypatch, B, target, column, source=0):
    """Column ``column`` of entry ``target``'s projector becomes column
    ``source`` scaled by the dimension ratio, so that both simples restrict
    alike; the central side is left as it was.  The entry is found by its
    idempotent, in every row block and in one-entry rebuilds alike."""
    original = subalg._projectors
    idempotent = build_lattice(B.ring, B).entries[target].subalgebra.idempotent

    def corrupted(B, idems):
        out = np.array(original(B, idems))
        d = B.ring.dims
        for k in np.flatnonzero((idems == idempotent).all(axis=1)):
            out[k, :, column] = out[k, :, source] * d[column] / d[source]
        return out

    monkeypatch.setattr(subalg, "_projectors", corrupted)


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(subalg, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(subalg, name, counted)
    return calls


def test_round_trip_read_from_the_partition(monkeypatch, s4):
    # Every unit class equals its subcategory, so no simple set is recomputed.
    ring, B = s4
    calls = count_calls(monkeypatch, "subcategory_from_subalgebra")
    table = build_lattice(ring, B)
    assert calls == []
    assert len(table.entries) == 30
    for e in table.entries:
        assert e.partition[0] == e.subcategory.indices


@pytest.mark.parametrize("order", [2, 3])
def test_corrupted_projector_fails_the_round_trip_as_before(monkeypatch, s4, order):
    # Simple i joins the unit class of the trivial subcategory's subalgebra.
    # An involution makes {1, i} closed: a round-trip failure.  An element of
    # order 3 does not: a closure violation.  Either way the partitions now
    # disagree too, and the round trip is still the error raised.
    ring, B = s4
    i = next(g for g in range(1, ring.rank) if len(subalg.subcategory_closure(ring, [g])) == order)
    corrupt_projector(monkeypatch, B, 0, i)
    calls = count_calls(monkeypatch, "subcategory_from_subalgebra")
    outcome = raised(build_lattice, ring, B)
    assert len(calls) == 1
    assert outcome == raised(round_trip_first, ring, B)
    if order == 2:
        assert outcome == (RoundTripFailure, f"(0,) round-tripped to (0, {i})")
    else:
        closure = subalg.subcategory_closure(ring, [i]).indices
        assert outcome == (
            ClosureViolation,
            f"computed simple set (0, {i}) is not fusion closed (closure {closure})",
        )


def test_corrupted_projector_outside_the_unit_class_fails_the_partition(monkeypatch, s4):
    # Two simples outside subcategory 5, in different right cosets, are made
    # to restrict alike: the unit class is still D, so the round trip holds
    # without being recomputed, and the restriction of the second leaves its
    # closed form.  Clustering both sides finds the partitions disagree.
    ring, B = s4
    D = enumerate_subcategories(ring)[5]
    a, b = [g for g in range(ring.rank) if g not in D.indices][:2]
    corrupt_projector(monkeypatch, B, 5, b, source=a)
    calls = count_calls(monkeypatch, "subcategory_from_subalgebra")
    outcome = raised(build_lattice, ring, B)
    assert calls == []
    assert outcome[0] is PartitionMismatch
    assert outcome[1].startswith(f"restriction of simple {b} is ")
    assert raised(round_trip_first, ring, B)[0] is PartitionMismatch


@pytest.fixture(scope="module")
def s4_row_blocks(s4):
    """The row blocks of vec:symmetric:4 in which verify checks its table
    (3 entries at r = 24): per block its subcategories, subalgebras,
    projectors and coset ids."""
    ring, B = s4
    subcats = enumerate_subcategories(ring)
    cosets = fusion_ring._right_cosets(ring, subalg._membership(ring, subcats))
    out, lo = [], 0
    for block in subalg._subalgebra_blocks(subcats, B, DEFAULT_TOL, 3):
        hi = lo + len(block.subalgebras)
        out.append((subcats[lo:hi], block.subalgebras, block.projectors, cosets[lo:hi]))
        lo = hi
    return out


def test_block_partitions_match_the_entry_by_entry_check(s4_row_blocks):
    for subcats, subalgebras, projectors, heads in s4_row_blocks:
        expected = [reference_checked_partition(*args) for args in zip(subcats, subalgebras, projectors, heads)]
        assert subalg._checked_partitions(subcats, subalgebras, projectors, heads, DEFAULT_TOL) == expected


def _outside(D, L, P):
    """The first simple outside D."""
    return next(x for x in range(len(P)) if x not in D.indices)


def _join_unit_class(D, L, P):
    """A simple outside D restricts as the unit does."""
    P = P.copy()
    x = _outside(D, L, P)
    P[:, x] = P[:, 0] * L.ring.dims[x]
    return L, P


def _bump_outside(D, L, P):
    """The restriction of a simple outside D moves by 1e-6."""
    P = P.copy()
    P[0, _outside(D, L, P)] += 1e-6
    return L, P


def _random_sums(D, L, P):
    rng = np.random.default_rng(len(D.indices))
    V = rng.standard_normal(L.ce_sums.shape) + 1j * rng.standard_normal(L.ce_sums.shape)
    return dataclasses.replace(L, ce_sums=V), P


def _repeated_sum(D, L, P):
    """Every kept class sum becomes the first: in the span, of width one."""
    return dataclasses.replace(L, ce_sums=np.repeat(L.ce_sums[:1], len(L.ce_sums), axis=0)), P


ENTRY_CORRUPTIONS = {
    "not built": lambda D, L, P: (ClosureViolation("adapted cointegral has off-diagonal coefficients"), P),
    "round trip": _join_unit_class,
    "closed form": _bump_outside,
    "ce_dim": lambda D, L, P: (dataclasses.replace(L, ce_dim=L.ce_dim + 1), P),
    "span": _random_sums,
    "width": _repeated_sum,
}


@pytest.mark.parametrize("second", sorted(ENTRY_CORRUPTIONS))
@pytest.mark.parametrize("first", sorted(ENTRY_CORRUPTIONS))
@pytest.mark.parametrize("block, at", [(4, (0, 2)), (6, (1, 2))])
def test_block_check_raises_for_its_first_failing_entry(s4_row_blocks, block, at, first, second):
    # Two entries of one row block are corrupted; the block check raises
    # what the entry-by-entry check raises for the first of them, with the
    # same message, whatever the second would raise.
    subcats, subalgebras, projectors, heads = s4_row_blocks[block]
    subalgebras, projectors = list(subalgebras), np.array(projectors)
    for k, kind in zip(at, (first, second)):
        subalgebras[k], projectors[k] = ENTRY_CORRUPTIONS[kind](subcats[k], subalgebras[k], projectors[k])
    k = at[0]
    if isinstance(subalgebras[k], Exception):
        expected = (type(subalgebras[k]), str(subalgebras[k]))
    else:
        expected = raised(reference_checked_partition, subcats[k], subalgebras[k], projectors[k], heads[k])
    for j in range(k):
        reference_checked_partition(subcats[j], subalgebras[j], projectors[j], heads[j])  # passes
    assert raised(subalg._checked_partitions, subcats, subalgebras, projectors, heads, DEFAULT_TOL) == expected
