"""The stacked m = 1 blocks and one-dimensional spaces against the loops they replaced.

Each reference below is the per-block or per-cluster loop as it ran before
the m = 1 blocks became one (S, q) slab: ``reference_split`` takes one
``orthonormal_basis`` (phased column by column) per eigenvalue cluster,
``reference_compute_blocks`` builds one block at a time,
``reference_adapt_stack`` keeps an explicit m = 1 branch with bases of ones,
and ``reference_class_sums``, ``reference_projectors`` and
``reference_subalgebras`` visit every block, an m = 1 block by (1, 1)
products.  The stacked code must give the same bits on commutative rings
(SU(2)_k, complex characters of rep:cyclic:3), a ring with blocks of several
m (HI(Z_3)) and a non-commutative group ring (vec:symmetric:4).  The last
tests are witnesses that the stacked checks still fail where they should.
"""

import numpy as np
import pytest

from fuscat import linalg, subalg, wedderburn
from fuscat.char_theory import _fourier_inverse_raw, cointegral, subcategory_cointegral
from fuscat.cli import parse_source
from fuscat.fusion_ring import enumerate_subcategories
from fuscat.linalg import DEFAULT_TOL, NotCommuting, joint_eigenspaces
from fuscat.subalg import ClosureViolation, SubalgebraIndex
from fuscat.wedderburn import Block, BlockStructure, NotIdempotent, NotSemisimple, compute_blocks

from conftest import haagerup_izumi_ring, per_block_adaptation, su2_fusion_ring

RINGS = {
    "su2:10": lambda: su2_fusion_ring(10),
    "su2:30": lambda: su2_fusion_ring(30),
    "hi:3": lambda: haagerup_izumi_ring(3),
    "rep:cyclic:3": lambda: parse_source("rep:cyclic:3", 0, DEFAULT_TOL)[0],
    "vec:symmetric:4": lambda: parse_source("vec:symmetric:4", 0, DEFAULT_TOL)[0],
}


@pytest.fixture(scope="module", params=list(RINGS))
def case(request):
    ring = RINGS[request.param]()
    subs = enumerate_subcategories(ring)
    return ring, compute_blocks(ring), subs, np.array([subcategory_cointegral(D).coeffs for D in subs])


def same(a, b):
    return np.shape(a) == np.shape(b) and np.array_equal(a, b)


# ---- the per-cluster split ------------------------------------------------


def reference_phase(v):
    nrm = np.linalg.norm(v)
    if nrm == 0:
        return v
    v = v / nrm
    piv = v[int(np.argmax(np.abs(v)))]
    if abs(piv) > 0:
        v = v * (abs(piv) / piv)
    return v


def reference_orthonormal_basis(M, tol=DEFAULT_TOL):
    Q = linalg._orthonormal_columns(np.asarray(M, dtype=complex), tol)
    for k in range(Q.shape[1]):
        Q[:, k] = reference_phase(Q[:, k])
    return Q


def reference_clusters(values, ctol):
    order = np.lexsort((-values.imag, -values.real))
    clusters, reps = [], []
    for idx in order:
        v = values[idx]
        for c, rep in enumerate(reps):
            if abs(v - rep) <= ctol:
                clusters[c].append(int(idx))
                break
        else:
            clusters.append([int(idx)])
            reps.append(v)
    return [np.array(c) for c in clusters]


def reference_refine(V, mats, tol=DEFAULT_TOL):
    if V.shape[1] == 1:
        return [V]
    for A in mats:
        k = V.shape[1]
        Ap = V.conj().T @ A @ V
        mu = np.trace(Ap) / k
        if np.max(np.abs(Ap - mu * np.eye(k))) <= max(tol.abs_tol, 1e-9 * max(1.0, float(np.max(np.abs(Ap))))):
            continue
        w, U = np.linalg.eig(Ap)
        ctol = max(tol.abs_tol, 1e-7 * max(1.0, float(np.max(np.abs(w)))))
        pieces = [reference_orthonormal_basis(V @ U[:, c], tol) for c in reference_clusters(w, ctol)]
        return [out for piece in pieces for out in reference_refine(piece, mats, tol)]
    return [V]


def reference_split(mats, seed=0, tol=DEFAULT_TOL):
    """The split of the first seed, one cluster at a time."""
    S = linalg._as_stack(mats)
    coeffs = np.random.default_rng(seed).standard_normal(len(S))
    Y = sum(c * M for c, M in zip(coeffs, S)).astype(complex, copy=False)
    w, U = np.linalg.eig(Y)
    ctol = max(tol.abs_tol, 1e-7 * max(1.0, float(np.max(np.abs(w)))))
    spaces = []
    for c in reference_clusters(w, ctol):
        V = reference_orthonormal_basis(U[:, c], tol)
        assert V.shape[1] == len(c)
        spaces.extend(reference_refine(V, S, tol))
    return spaces


@pytest.mark.parametrize("per_block", [None, 2], ids=["one_block", "two_matrix_blocks"])
def test_joint_eigenspaces_match_per_cluster_bases(case, per_block, monkeypatch):
    ring = case[0]
    _, lz = wedderburn._center_basis(ring, DEFAULT_TOL)
    if per_block:  # row blocks of two matrices: the combination sums across blocks
        monkeypatch.setattr(linalg, "_BLOCK_BYTES", per_block * lz[0].nbytes)
    for seed in (0, 3):
        got, want = joint_eigenspaces(lz, seed=seed), reference_split(lz, seed=seed)
        assert len(got) == len(want)
        assert all(same(a, b) and a.flags.c_contiguous for a, b in zip(got, want))


@pytest.mark.parametrize("seed", range(6))
def test_clusters_match_the_greedy_scan_on_chains(seed):
    # Runs of values 0.6 ctol apart: each value is near its neighbours but
    # not always near its cluster's first value, so the greedy scan's
    # choices, not a closure of the near relation, set the clusters.
    rng = np.random.default_rng(seed)
    starts = 0.9 * np.exp(2j * np.pi * rng.uniform(size=5)) * rng.uniform(size=5)  # |z| < 1: ctol is 1e-7
    steps = [0.6e-7 * np.exp(1j * rng.uniform(-0.3, 0.3)) * np.arange(rng.integers(1, 6)) for _ in starts]
    values = rng.permutation(np.concatenate([z + step for z, step in zip(starts, steps)]))
    idx, widths = linalg._cluster_indices(values, DEFAULT_TOL)
    want = reference_clusters(values, 1e-7)
    assert [len(c) for c in want] == widths.tolist()
    assert same(idx, np.concatenate(want))
    assert len(want) < len(values)


def test_family_norms_match_per_matrix_norms(case):
    _, lz = wedderburn._center_basis(case[0], DEFAULT_TOL)
    for S in (lz, lz * (1 + 0.5j)):
        peak, fro = linalg._family_norms(np.ascontiguousarray(S))
        assert same(peak, np.array([np.max(np.abs(M)) for M in S]))
        assert same(fro, np.array([np.linalg.norm(M) for M in S]))


# ---- the per-block blocks ------------------------------------------------


def reference_compute_blocks(ring, seed=0, tol=DEFAULT_TOL):
    """compute_blocks with its block loop: each block's unit, cointegral
    test, units and class sums one block at a time."""
    center, lz = wedderburn._center_basis(ring, tol)
    spaces = joint_eigenspaces(lz, seed=seed, tol=tol)
    basis = np.column_stack(spaces)
    unit_coords = np.linalg.solve(basis, np.eye(1, ring.rank, dtype=complex)[0])
    lam = cointegral(ring).coeffs
    lam_coords = np.linalg.solve(basis, lam)
    rng = np.random.default_rng(seed)
    raw, pos, lam_block = [], 0, -1
    for j, V in enumerate(spaces):
        width = V.shape[1]
        m = int(round(width**0.5))
        block_unit = V @ unit_coords[pos : pos + width]
        if np.max(np.abs(V @ lam_coords[pos : pos + width])) > 1e-6:
            lam_block = j
        pos += width
        units = block_unit[None, None, :] if m == 1 else wedderburn._build_block_units(ring, V, block_unit, m, rng, tol)
        n = m / complex(block_unit[0]).real
        raw.append(Block(m, n, ring.global_dim / n, units, _fourier_inverse_raw(ring, units)))
    rest = [blk for j, blk in enumerate(raw) if j != lam_block]
    idems = np.array([blk.units[range(blk.m), range(blk.m)].sum(axis=0) for blk in rest])
    keys = np.column_stack(
        [
            [blk.m for blk in rest],
            wedderburn._round9([blk.n for blk in rest]),
            wedderburn._round9(np.stack([idems.real, idems.imag], axis=-1).reshape(len(rest), -1)),
        ]
    )
    rest = [rest[i] for i in wedderburn._lex_order(keys)]
    return BlockStructure(ring, (raw[lam_block], *rest), seed)


def test_m1_blocks_are_a_prefix(case):
    B = case[1]
    ms = [blk.m for blk in B.blocks]
    assert ms[0] == 1 and ms == sorted(ms)
    assert B._ones == ms.count(1)
    assert B._unit_rows[: B._ones].flags.writeable is False


def test_blocks_match_the_block_loop(case):
    ring, B = case[0], case[1]
    for seed in (0, 3):
        got = B if seed == 0 else compute_blocks(ring, seed=seed)
        want = reference_compute_blocks(ring, seed=seed)
        assert len(got.blocks) == len(want.blocks)
        for a, b in zip(got.blocks, want.blocks):
            assert (a.m, a.n, a.summand_dim) == (b.m, b.n, b.summand_dim)
            assert same(a.units, b.units) and same(a.class_sums, b.class_sums)
            assert not (a.units.flags.writeable or a.class_sums.flags.writeable)


# ---- the per-block adaptation --------------------------------------------


def reference_adapt_stack(B, coeffs, tol=DEFAULT_TOL):
    """(comps, bases, inverses, errors) per block, with the m = 1 branch."""
    rows = np.stack([B._unit_matrix_inv @ c for c in np.asarray(coeffs, dtype=complex)])
    comps, pos = [], 0
    for blk in B.blocks:
        comps.append(rows[:, pos : pos + blk.m**2].reshape(-1, blk.m, blk.m))
        pos += blk.m**2
    S = len(rows)
    errors = [None] * S
    bases, inverses = [], []
    for blk, P in zip(B.blocks, comps):
        m = blk.m
        if m == 1:
            vals = P[:, 0, 0]
            for s in np.flatnonzero(np.minimum(np.abs(vals), np.abs(vals - 1)) > tol.snap_tol):
                if errors[s] is None:
                    errors[s] = NotIdempotent(f"block eigenvalue {complex(vals[s])!r} is not in {{0, 1}}")
            bases.append(np.ones_like(P))
            inverses.append(bases[-1])
            continue
        eye = np.eye(m, dtype=complex)
        failed = np.array([e is not None for e in errors])
        w = wedderburn._stacked(np.linalg.eigvals, np.where(failed[:, None, None], eye, P), errors)
        ones = np.count_nonzero(np.abs(w - 1) <= tol.snap_tol, axis=1)
        zeros = np.count_nonzero(np.abs(w) <= tol.snap_tol, axis=1)
        for s in np.flatnonzero(ones + zeros != m):
            bad = w[s][int(np.argmax(np.minimum(np.abs(w[s] - 1), np.abs(w[s]))))]
            errors[s] = NotIdempotent(f"block eigenvalue {bad!r} is not in {{0, 1}}")
        failed = np.array([e is not None for e in errors])
        ones[failed] = m
        Us, _, Vh = wedderburn._stacked(np.linalg.svd, np.where(failed[:, None, None], eye, P), errors)
        cols = np.where((np.arange(m) < ones[:, None])[:, None, :], Us, Vh.conj().transpose(0, 2, 1))
        piv = np.take_along_axis(cols, np.argmax(np.abs(cols), axis=1)[:, None, :], axis=1)
        phase = np.ones_like(piv)
        np.divide(np.abs(piv), piv, out=phase, where=np.abs(piv) > 0)
        cols *= phase
        signature = wedderburn._round9(np.stack([-cols.real, -cols.imag], axis=-1).transpose(0, 2, 1, 3))
        keys = np.concatenate([(np.arange(m) >= ones[:, None])[:, :, None], signature.reshape(S, m, 2 * m)], axis=2)
        U = np.take_along_axis(cols, wedderburn._lex_order(keys)[:, None, :], axis=2)
        U[failed] = eye
        bases.append(U)
        inverses.append(wedderburn._stacked(np.linalg.inv, U, errors))
    return comps, bases, inverses, errors


def reference_class_sums(B, bases, inverses):
    r, S = B.rank, len(bases[0])
    out = np.empty((S, r, r), dtype=complex)
    pos = 0
    for blk, U, Uinv in zip(B.blocks, bases, inverses):
        m = blk.m
        sums = out[:, pos : pos + m * m].reshape(S, m, m, r)
        pos += m * m
        if m == 1:
            sums[:] = blk.class_sums
            continue
        Y = np.matmul(U.transpose(0, 2, 1), blk.class_sums.reshape(m, m * r))
        np.matmul(Uinv[:, None], Y.reshape(S, m, m, r), out=sums)
    return out


def reference_projectors(B, idems):
    r = B.rank
    G = np.empty((len(idems), r, r), dtype=complex)
    pos = 0
    for blk in B.blocks:
        m, width = blk.m, blk.m * blk.m
        F = blk.units.transpose(2, 0, 1).reshape(r * m, m)
        L = idems[:, pos : pos + width].reshape(-1, m, m)
        G[:, :, pos : pos + width] = np.matmul(F, L.transpose(0, 2, 1)).reshape(len(G), r, width)
        pos += width
    return np.matmul(G, B._unit_matrix_inv)


def reference_subalgebras(B, coeffs, tol=DEFAULT_TOL):
    """(subalgebras, projectors, class sums, components, keep) of all rows, block by block."""
    comps, bases, inverses, errors = reference_adapt_stack(B, coeffs, tol)
    ok = np.array([e is None for e in errors])
    S = len(coeffs)
    selections, adapted, idems, keep = [], [], [], []
    for blk, P, U, Uinv in zip(B.blocks, comps, bases, inverses):
        A = Uinv @ P @ U
        diag = np.diagonal(A, axis1=1, axis2=2)
        selected = np.abs(diag - 1) <= tol.snap_tol
        bad = ~selected & (np.abs(diag) > tol.snap_tol)
        off = np.max(np.abs(np.where(np.eye(blk.m, dtype=bool), 0, A)), axis=(1, 2))
        for s in np.flatnonzero(ok & (bad.any(axis=1) | (off > tol.snap_tol))):
            if bad[s].any():
                val = complex(diag[s, np.argmax(bad[s])])
                errors[s] = ClosureViolation(f"diagonal coefficient {val!r} is not 0 or 1")
            else:
                errors[s] = ClosureViolation("adapted cointegral has off-diagonal coefficients")
            ok[s] = False
        selections.append(selected.tolist())
        adapted.append(A.reshape(S, -1))
        idems.append(((U * selected[:, None, :]) @ Uinv).reshape(S, -1))
        keep.append(np.repeat(selected, blk.m, axis=1))
    components, idempotents = np.concatenate(adapted, axis=1), np.concatenate(idems, axis=1)
    keep = np.concatenate(keep, axis=1)
    sums = reference_class_sums(B, bases, inverses)
    out = []
    for s in range(S):
        if errors[s] is not None or not selections[0][s][0]:
            out.append(errors[s] or ClosureViolation("unit summand is missing from the subalgebra"))
            continue
        sel = tuple(tuple(i for i, on in enumerate(rows[s]) if on) for rows in selections)
        dim_l = float(sum(blk.summand_dim * len(r) for blk, r in zip(B.blocks, sel)))
        out.append(SubalgebraIndex(B, sel, dim_l, int(keep[s].sum()), sums[s][keep[s]], components[s], idempotents[s]))
    return out, reference_projectors(B, idempotents), sums, components, keep


def test_adaptation_matches_per_block_loop(case):
    _, B, _, coeffs = case
    comps, bases, inverses, errors = reference_adapt_stack(B, coeffs)
    adapted = wedderburn._adapt_stack(B, coeffs, DEFAULT_TOL)
    assert [repr(e) for e in adapted.errors] == [repr(e) for e in errors]
    for got, want in zip(per_block_adaptation(B, adapted), (comps, bases, inverses)):
        assert all(same(a, b) for a, b in zip(got, want))
    assert same(wedderburn._adapted_class_sums(B, adapted), reference_class_sums(B, bases, inverses))


def test_subalgebra_blocks_match_per_block_loop(case):
    _, B, subs, coeffs = case
    want, projectors, sums, components, keep = reference_subalgebras(B, coeffs)
    (block,) = subalg._subalgebra_blocks(subs, B, DEFAULT_TOL, len(subs))
    assert same(block.projectors, projectors) and same(block.class_sums, sums)
    assert same(block.components, components) and same(block.keep, keep)
    for L, R in zip(block.subalgebras, want):
        assert (L.rows, L.dim_l, L.ce_dim) == (R.rows, R.dim_l, R.ce_dim)
        assert same(L.ce_sums, R.ce_sums) and same(L.idempotent, R.idempotent)
        assert same(L.cointegral_components, R.cointegral_components)
        assert same(subalg._projector(L), reference_projectors(B, R.idempotent[None])[0])


# ---- witnesses: the stacked checks still fail ----------------------------


def test_space_pushed_off_invariance_fails_verification():
    _, lz = wedderburn._center_basis(su2_fusion_ring(10), DEFAULT_TOL)
    spaces = joint_eigenspaces(lz)
    peak = linalg._family_norms(lz)[0]
    linalg._verify_joint(spaces, lz, peak, DEFAULT_TOL)
    pushed = spaces[4] + 1e-6 * spaces[7]
    spaces[4] = pushed / np.linalg.norm(pushed)
    with pytest.raises(linalg._SplitFailed, match="not invariant"):
        linalg._verify_joint(spaces, lz, peak, DEFAULT_TOL)


def test_non_commuting_family_names_its_first_pair():
    _, lz = wedderburn._center_basis(su2_fusion_ring(10), DEFAULT_TOL)
    mats = lz.copy()
    mats[6, 2, 3] += 1e-3  # breaks commutation with every matrix that mixes 2 and 3
    first = next(
        (i, j)
        for i in range(len(mats))
        for j in range(i + 1, len(mats))
        if np.max(np.abs(mats[i] @ mats[j] - mats[j] @ mats[i])) > 1e-8
    )
    with pytest.raises(NotCommuting, match=rf"^matrices {first[0]} and {first[1]} do not"):
        joint_eigenspaces(mats)


def test_half_m1_component_is_not_idempotent_at_its_first_block():
    B = compute_blocks(su2_fusion_ring(10))
    q = B._ones
    comps = np.zeros((3, B.rank), dtype=complex)
    comps[:, 0] = 1.0
    comps[1, [3, 7]] = 0.5, 0.25  # the first failing block is 3
    comps[2, q - 1] = 0.5
    coeffs = comps @ B._unit_matrix.T
    adapted = wedderburn._adapt_stack(B, coeffs, DEFAULT_TOL)
    rows = B._expand_rows(coeffs)
    assert adapted.errors[0] is None
    for s, j in ((1, 3), (2, q - 1)):
        assert isinstance(adapted.errors[s], NotIdempotent)
        assert str(adapted.errors[s]) == f"block eigenvalue {complex(rows[s, j])!r} is not in {{0, 1}}"
        assert abs(rows[s, j] - 0.5) < 1e-9


def test_cointegral_off_its_block_is_named_at_the_first_block_it_meets(monkeypatch):
    # The cointegral plus chi_3 meets several blocks; the first of them, in
    # block order, is not the cointegral alone, and that is the error, as it
    # was one block at a time.
    ring = su2_fusion_ring(6)
    real = wedderburn.cointegral
    monkeypatch.setattr(wedderburn, "cointegral", lambda r: type(real(r))(r, real(r).coeffs + np.eye(1, r.rank, 3)[0]))
    with pytest.raises(NotSemisimple, match="^cointegral block is not one dimensional$"):
        compute_blocks(ring)
