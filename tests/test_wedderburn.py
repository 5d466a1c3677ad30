import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuscat import char_theory, cli, groups, linalg, wedderburn
from fuscat.char_theory import ClassFunction, cf_multiply, cf_star, cf_star_table, chi, cointegral
from fuscat.fusion_ring import FusionRingData, enumerate_subcategories
from fuscat.char_theory import subcategory_cointegral
from fuscat.cli import parse_source
from fuscat.linalg import DEFAULT_TOL, Tolerance
from fuscat.wedderburn import (
    Block,
    BlockStructure,
    NotIdempotent,
    NotSemisimple,
    compute_blocks,
    verify_class_sum_pairings,
    verify_dual_bases,
    verify_integral_classsum,
)

from conftest import deligne_product, haagerup_izumi_ring, per_block_adaptation, perturb_unit, su2_fusion_ring


def block_shape(B):
    return [(blk.m, round(blk.n, 6), round(blk.summand_dim, 6)) for blk in B.blocks]


class TestComputeBlocks:
    def test_rep_c2(self, rep_c2_ring):
        B = compute_blocks(rep_c2_ring)
        assert block_shape(B) == [(1, 2.0, 1.0), (1, 2.0, 1.0)]
        # block 0 carries the cointegral (chi0 + chi1)/2
        assert np.allclose(B.blocks[0].units[0, 0], [0.5, 0.5])
        assert np.allclose(B.blocks[1].units[0, 0], [0.5, -0.5])

    def test_rep_s3(self, s3_blocks):
        # oracle: class sizes of S3 are 1, 3, 2 so the scales are 6, 2, 3
        assert block_shape(s3_blocks) == [(1, 6.0, 1.0), (1, 2.0, 3.0), (1, 3.0, 2.0)]

    def test_vec_s3(self, vec_s3_blocks):
        # oracle: the group algebra of S3 is k + k + M_2(k)
        assert block_shape(vec_s3_blocks) == [(1, 6.0, 1.0), (1, 6.0, 1.0), (2, 3.0, 2.0)]

    def test_multiplicities_fill_rank(self, vec_s3_blocks, s3_blocks):
        assert sum(b.m**2 for b in vec_s3_blocks.blocks) == 6
        assert sum(b.m**2 for b in s3_blocks.blocks) == 3

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerance(snap_tol=0.6)])
    def test_width_not_a_square_is_not_semisimple(self, monkeypatch, vec_s3_ring, tol):
        # The widths 1, 1, 4 of Vec(S3) re-split as 2, 2, 2: as many spaces as
        # the centre has dimensions, but no block of width 2 is a matrix
        # algebra, however loose the snapping tolerance.
        real = wedderburn.joint_eigenspaces

        def resplit(mats, seed=0, tol=DEFAULT_TOL):
            spaces = real(mats, seed=seed, tol=tol)
            assert sorted(V.shape[1] for V in spaces) == [1, 1, 4]
            return np.split(np.column_stack(spaces), 3, axis=1)

        monkeypatch.setattr(wedderburn, "joint_eigenspaces", resplit)
        with pytest.raises(NotSemisimple, match="block dimension 2 is not a perfect square"):
            compute_blocks(vec_s3_ring, tol=tol)

    def test_block_zero_is_cointegral(self, s3_ring, s3_blocks):
        assert np.allclose(s3_blocks.blocks[0].units[0, 0], cointegral(s3_ring).coeffs)

    def test_unit_class_sum_is_algebra_unit(self, vec_s3_blocks):
        assert np.allclose(vec_s3_blocks.blocks[0].class_sums[0, 0], 1.0)

    def test_deterministic_given_seed(self, vec_s3_ring):
        B1 = compute_blocks(vec_s3_ring, seed=3)
        B2 = compute_blocks(vec_s3_ring, seed=3)
        for b1, b2 in zip(B1.blocks, B2.blocks):
            assert np.array_equal(b1.units, b2.units)

    def test_matrix_unit_relations(self, vec_s3_ring, vec_s3_blocks):
        units = [
            (j, s, t, blk.units[s, t])
            for j, blk in enumerate(vec_s3_blocks.blocks)
            for s in range(blk.m)
            for t in range(blk.m)
        ]
        for j1, s1, t1, u1 in units:
            for j2, s2, t2, u2 in units:
                prod = cf_star(vec_s3_ring, u1, u2)
                expected = (
                    vec_s3_blocks.blocks[j1].units[s1, t2]
                    if (j1 == j2 and s2 == t1)
                    else np.zeros(6)
                )
                assert np.max(np.abs(prod - expected)) <= 10 * 1e-9

    def test_tau_of_diagonal_units(self, vec_s3_blocks):
        for blk in vec_s3_blocks.blocks:
            for s in range(blk.m):
                assert complex(blk.units[s, s][0]) == pytest.approx(1 / blk.n)


class TestExpand:
    def test_unit_expands_to_identity(self, s3_ring, s3_blocks):
        comps = s3_blocks.expand(chi(s3_ring, 0).coeffs)
        for blk, P in zip(s3_blocks.blocks, comps):
            assert np.allclose(P, np.eye(blk.m))

    def test_rho_diagonal_values(self, s3_ring, s3_blocks):
        # evaluation picture: chi_rho takes values (2, 0, -1) on the blocks
        # ordered (identity class, transpositions, 3-cycles)
        comps = s3_blocks.expand(chi(s3_ring, 2).coeffs)
        assert [round(complex(P[0, 0]).real) for P in comps] == [2, 0, -1]

    def test_cointegral_hits_block_zero(self, s3_ring, s3_blocks):
        comps = s3_blocks.expand(cointegral(s3_ring).coeffs)
        assert complex(comps[0][0, 0]) == pytest.approx(1)
        assert all(np.max(np.abs(P)) < 1e-12 for P in comps[1:])


def adapt_one(B, p):
    """_adapt_stack of the single idempotent p."""
    return wedderburn._adapt_stack(B, p.coeffs[None], DEFAULT_TOL)


def adapted_structure(B, p):
    """B re-based by the eigenbases that adapt it to p.

    Test side only: the units are conjugated by the bases, the class sums are
    what _adapted_class_sums gives for them.
    """
    adapted = adapt_one(B, p)
    assert adapted.errors[0] is None
    sums = wedderburn._adapted_class_sums(B, adapted)[0]
    blocks, pos = [], 0
    _, bases, inverses = per_block_adaptation(B, adapted)
    for blk, U, Uinv in zip(B.blocks, bases, inverses):
        m = blk.m
        units = np.einsum("as,tb,abk->stk", U[0], Uinv[0], blk.units)
        blocks.append(Block(m, blk.n, blk.summand_dim, units, sums[pos : pos + m * m].reshape(m, m, -1)))
        pos += m * m
    return BlockStructure(B.ring, tuple(blocks), B.seed)


class TestAdapt:
    def test_identity_idempotent_is_noop(self, vec_s3_ring, vec_s3_blocks):
        adapted = adapt_one(vec_s3_blocks, chi(vec_s3_ring, 0))
        assert adapted.errors[0] is None
        for blk, U in zip(vec_s3_blocks.blocks, per_block_adaptation(vec_s3_blocks, adapted)[1]):
            assert np.allclose(U[0], np.eye(blk.m), atol=1e-12)
        sums = wedderburn._adapted_class_sums(vec_s3_blocks, adapted)[0]
        assert np.allclose(sums, vec_s3_blocks._class_sum_rows, atol=1e-12)

    def test_reflection_subgroup_idempotent(self, vec_s3_ring, vec_s3_blocks, s3_group):
        # p = (chi_e + chi_t)/2 for a transposition t: a rank-one projection
        # inside the 2x2 block, so afterwards p = F^triv_00 + F^rho_00.
        t = next(
            i for i in range(1, 6) if s3_group.mul(i, i) == 0
        )
        coeffs = np.zeros(6, dtype=complex)
        coeffs[0] = coeffs[t] = 0.5
        p = ClassFunction(vec_s3_ring, coeffs)
        assert np.allclose(cf_multiply(p, p).coeffs, p.coeffs)
        comps = adapted_structure(vec_s3_blocks, p).expand(p.coeffs)
        # triv block coefficient 1, sign block 0, rho block diag(1, 0)
        assert complex(comps[0][0, 0]) == pytest.approx(1)
        assert abs(complex(comps[1][0, 0])) < 1e-9
        assert np.allclose(comps[2], np.diag([1.0, 0.0]), atol=1e-9)

    def test_non_idempotent_rejected(self, vec_s3_ring, vec_s3_blocks):
        half = ClassFunction(vec_s3_ring, 0.5 * chi(vec_s3_ring, 0).coeffs)
        assert isinstance(adapt_one(vec_s3_blocks, half).errors[0], NotIdempotent)

    def test_adapt_preserves_block_invariants(self, vec_s3_ring, vec_s3_blocks):
        for D in enumerate_subcategories(vec_s3_ring):
            adapted = adapted_structure(vec_s3_blocks, subcategory_cointegral(D))
            assert verify_class_sum_pairings(adapted) < 1e-8
            assert verify_dual_bases(adapted) < 1e-8
            assert verify_integral_classsum(adapted) < 1e-8
            unit_sum = sum(
                blk.units[s, s] for blk in adapted.blocks for s in range(blk.m)
            )
            expected = np.zeros(6)
            expected[0] = 1
            assert np.max(np.abs(unit_sum - expected)) < 1e-9


class TestVerifyOps:
    def test_class_sum_pairings_small(self, s3_blocks, vec_s3_blocks):
        assert verify_class_sum_pairings(s3_blocks) < 1e-8
        assert verify_class_sum_pairings(vec_s3_blocks) < 1e-8

    def test_transposition_class_sum_value(self, s3_blocks):
        # <eps_1, C^{transpositions}> = class size = 3; the transposition
        # block is the one with scale n = 2
        j = next(i for i, b in enumerate(s3_blocks.blocks) if round(b.n) == 2)
        assert complex(s3_blocks.blocks[j].class_sums[0, 0][0]) == pytest.approx(3)

    def test_off_block_pairing_vanishes(self, s3_ring, s3_blocks):
        from fuscat.char_theory import CentralElement, pairing

        j3 = next(i for i, b in enumerate(s3_blocks.blocks) if round(b.n) == 3)
        j2 = next(i for i, b in enumerate(s3_blocks.blocks) if round(b.n) == 2)
        f = ClassFunction(s3_ring, s3_blocks.blocks[j3].units[0, 0])
        c = CentralElement(s3_ring, s3_blocks.blocks[j2].class_sums[0, 0])
        assert abs(pairing(f, c)) < 1e-10

    def test_vec_s3_corner_pairing(self, vec_s3_ring, vec_s3_blocks):
        from fuscat.char_theory import CentralElement, pairing

        blk = vec_s3_blocks.blocks[2]
        assert blk.m == 2
        f = ClassFunction(vec_s3_ring, blk.units[0, 1])
        c = CentralElement(vec_s3_ring, blk.class_sums[1, 0])
        assert pairing(f, c) == pytest.approx(2)

    def test_dual_bases_rep_c2_by_hand(self, rep_c2_ring):
        B = compute_blocks(rep_c2_ring)
        # 2 (F^0 x F^0) + 2 (F^1 x F^1) with F = (chi0 +- chi1)/2 gives
        # chi0 x chi0 + chi1 x chi1
        lhs = np.zeros((2, 2), dtype=complex)
        for blk in B.blocks:
            lhs += blk.n * np.einsum("a,b->ab", blk.units[0, 0], blk.units[0, 0])
        assert np.allclose(lhs, np.eye(2))
        assert verify_dual_bases(B) < 1e-12

    def test_dual_bases_trivial(self, trivial_ring):
        B = compute_blocks(trivial_ring)
        assert verify_dual_bases(B) < 1e-14
        assert verify_integral_classsum(B) < 1e-14

    def test_integral_classsum_rep_c2(self, rep_c2_ring):
        B = compute_blocks(rep_c2_ring)
        total = B.blocks[0].class_sums[0, 0] + B.blocks[1].class_sums[0, 0]
        assert np.allclose(total, [2, 0])

    def test_integral_classsum_rep_s3(self, s3_blocks):
        assert verify_integral_classsum(s3_blocks) < 1e-8


class TestLargerBlocks:
    def test_vec_s4_has_degree_three_blocks(self):
        G = groups.parse_group("symmetric:4")
        ring = groups.vec_fusion_ring(G)
        B = compute_blocks(ring)
        assert sorted(b.m for b in B.blocks) == [1, 1, 2, 3, 3]
        assert verify_class_sum_pairings(B) < 1e-8
        assert verify_dual_bases(B) < 1e-8


class TestStructuralInvariants:
    def test_multiplicity_weighted_dims_fill_global_dim(self, s3_blocks, vec_s3_blocks):
        for B in (s3_blocks, vec_s3_blocks):
            total = sum(blk.m * blk.summand_dim for blk in B.blocks)
            assert total == pytest.approx(B.ring.global_dim)

    def test_commutative_idempotents_diagonalize_fusion(self, s3_ring, s3_blocks):
        # commutative ring: every central idempotent is a joint eigenvector
        # of all the left star-multiplications
        for blk in s3_blocks.blocks:
            F = blk.units[0, 0]
            for i in range(3):
                prod = cf_star(s3_ring, chi(s3_ring, i).coeffs, F)
                scale = prod[np.argmax(np.abs(F))] / F[np.argmax(np.abs(F))]
                assert np.max(np.abs(prod - scale * F)) < 1e-10


# The bound _build_block_units applies to the residual of a new block.
CHECK_TOL = max(100 * DEFAULT_TOL.abs_tol, 1e-10)


def reference_unit_residual(ring, unit_blocks):
    """One einsum per ordered pair of units, over all the given blocks."""
    units = [
        (j, s, t, u[s, t])
        for j, u in enumerate(unit_blocks)
        for s in range(len(u))
        for t in range(len(u))
    ]
    worst = 0.0
    for j1, s1, t1, u1 in units:
        for j2, s2, t2, u2 in units:
            prod = np.einsum("i,j,ijk->k", u1, u2, ring.N_float)
            expected = unit_blocks[j1][s1, t2] if (j1 == j2 and s2 == t1) else 0.0
            worst = max(worst, float(np.max(np.abs(prod - expected))))
    return worst


class TestUnitRelationResidual:
    def test_built_units_pass(self, vec_s3_ring, vec_s3_blocks):
        for blk in vec_s3_blocks.blocks:
            assert wedderburn._unit_relation_residual(vec_s3_ring, [blk.units]) <= CHECK_TOL
        all_units = [blk.units for blk in vec_s3_blocks.blocks]
        assert wedderburn._unit_relation_residual(vec_s3_ring, all_units) <= 1e-8

    @pytest.mark.parametrize("s, t", [(0, 1), (1, 0), (1, 1)])
    def test_matches_reference_loop(self, vec_s3_ring, vec_s3_blocks, s, t):
        for B in (vec_s3_blocks, perturb_unit(vec_s3_blocks, s, t, 3, 1e-6)):
            all_units = [blk.units for blk in B.blocks]
            got = wedderburn._unit_relation_residual(vec_s3_ring, all_units)
            assert got == pytest.approx(reference_unit_residual(vec_s3_ring, all_units), abs=1e-14)

    @pytest.mark.parametrize("s, t", [(0, 1), (1, 0), (1, 1)])
    def test_perturbed_unit_exceeds_check_tol(self, vec_s3_ring, vec_s3_blocks, s, t):
        B = perturb_unit(vec_s3_blocks, s, t, 3, 1e-6)
        block = next(blk for blk in B.blocks if blk.m == 2)
        assert wedderburn._unit_relation_residual(vec_s3_ring, [block.units]) > CHECK_TOL
        all_units = [blk.units for blk in B.blocks]
        assert wedderburn._unit_relation_residual(vec_s3_ring, all_units) > CHECK_TOL

    def test_memory_below_r3_while_splitting(self, monkeypatch, vec_a5_ring):
        original = wedderburn._unit_relation_residual
        seen = []

        def traced(ring, unit_blocks):
            tracemalloc.start()
            try:
                out = original(ring, unit_blocks)
                seen.append((max(len(u) for u in unit_blocks), tracemalloc.get_traced_memory()[1]))
            finally:
                tracemalloc.stop()
            return out

        vec_a5_ring.N_float  # cached before tracing
        monkeypatch.setattr(wedderburn, "_unit_relation_residual", traced)
        compute_blocks(vec_a5_ring)
        r = vec_a5_ring.rank
        assert max(m for m, _ in seen) == 5
        assert all(peak < r**3 * 16 for _, peak in seen)  # an r^3 complex table


# Floats whose product with 1e9 lies on or next to a half-integer: odd
# multiples of 2^-10 are exact ties (x·1e9 = (2k+1)·976562.5), and the
# nearest floats to (n + 1/2)·1e-9 and their neighbours straddle one (for
# about half of them ``np.round`` alone differs from ``round``).
_TIES = st.integers(-(2**40), 2**40).map(lambda k: (2 * k + 1) / 1024)
_NEAR_TIES = st.tuples(st.integers(-(10**12), 10**12), st.sampled_from([-np.inf, 0.0, np.inf])).map(
    lambda p: float(np.nextafter((p[0] + 0.5) / 1e9, p[1])) if p[1] else (p[0] + 0.5) / 1e9
)
_ROUNDING_FLOATS = st.one_of(
    st.floats(allow_nan=False), st.floats(-2, 2), _TIES, _NEAR_TIES
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ROUNDING_FLOATS, min_size=1, max_size=40))
def test_round9_equals_python_round(xs):
    out = wedderburn._round9(np.array(xs))
    assert out.tolist() == [round(x, 9) for x in xs]


def test_round9_ties_round_half_even():
    xs = [1 / 1024, 3 / 1024, -5 / 1024, 2.5e-9, 0.5e-9, 1e300, -0.0]
    assert wedderburn._round9(np.array(xs)).tolist() == [round(x, 9) for x in xs]


def python_key_block_order(blocks):
    """Positions of the blocks sorted by the per-value ``round`` keys."""
    def key(j):
        blk = blocks[j]
        sig = tuple((round(float(c.real), 9), round(float(c.imag), 9)) for c in blk.units[range(blk.m), range(blk.m)].sum(axis=0))
        return blk.m, round(blk.n, 9), sig

    return sorted(range(len(blocks)), key=key)


@pytest.mark.parametrize(
    "source", ["vec:symmetric:4", "rep:symmetric:4", "vec:dihedral:8", "vec:alternating:5", "su2:30"]
)
def test_block_order_matches_python_round_keys(source):
    if source.startswith("su2:"):
        ring = su2_fusion_ring(int(source[4:]))
    else:
        ring = parse_source(source, 0, DEFAULT_TOL)[0]
    rest = compute_blocks(ring).blocks[1:]
    assert python_key_block_order(rest) == list(range(len(rest)))


@pytest.mark.parametrize("source", ["vec:symmetric:4", "vec:alternating:5", "vec:dihedral:8"])
def test_adapted_columns_match_python_round_keys(source):
    # Each adapted eigenbasis U lists its eigenvalue-1 columns first, each
    # group in the order of the per-value ``round`` keys of its columns.
    ring = parse_source(source, 0, DEFAULT_TOL)[0]
    B = compute_blocks(ring)
    subs = enumerate_subcategories(ring)
    P = np.array([subcategory_cointegral(D).coeffs for D in subs])
    adapted = wedderburn._adapt_stack(B, P, DEFAULT_TOL)
    assert not any(adapted.errors)
    checked = 0
    for blk, comps, U, Uinv in zip(B.blocks, *per_block_adaptation(B, adapted)):
        if blk.m == 1:
            continue
        for s in range(len(subs)):
            ones = int(np.count_nonzero(np.abs(np.diagonal(Uinv[s] @ comps[s] @ U[s]) - 1) <= 1e-6))
            neg_re, neg_im = (-U[s].real).T.tolist(), (-U[s].imag).T.tolist()
            keys = [
                (k >= ones, tuple((round(x, 9), round(y, 9)) for x, y in zip(re, im)))
                for k, (re, im) in enumerate(zip(neg_re, neg_im))
            ]
            assert sorted(range(blk.m), key=keys.__getitem__) == list(range(blk.m))
            checked += 1
    assert checked


def svd_center_basis(ring, tol):
    """The centre from the SVD of the (r^2, r) commutator stack, on every
    ring: the path that commutative rings took before they skipped it."""
    N = ring.N_float
    left = N.transpose(0, 2, 1)
    right = N.transpose(1, 2, 0)
    diff = (left - right).reshape(ring.rank, -1).T
    _, s, Vh = np.linalg.svd(diff, full_matrices=False)
    smax = s[0] if s.size else 0.0
    thr = max(tol.abs_tol, smax * ring.rank**2 * np.finfo(float).eps, smax * 1e-10)
    null_dim = ring.rank - int(np.sum(s > thr))
    return Vh[ring.rank - null_dim :].conj().T


def svd_center_and_left_mults(ring, tol):
    """:func:`svd_center_basis` and its centre's left multiplications, made
    as ``_center_basis`` makes them."""
    r = ring.rank
    center = svd_center_basis(ring, tol)
    lz = center.T @ np.ascontiguousarray(ring.N_float.transpose(0, 2, 1)).reshape(r, r * r)
    return center, lz.reshape(center.shape[1], r, r)


def linalg_shapes(monkeypatch, name="svd"):
    """Shapes of the matrices passed to np.linalg.<name> from now on."""
    shapes = []
    real = getattr(np.linalg, name)

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, spy)
    return shapes


class TestCommutativeCentre:
    @pytest.mark.parametrize("source", ["su2", "rep:symmetric:4", "vec:cyclic:6"])
    def test_commutative_ring_runs_no_svd(self, monkeypatch, su2_ring, source):
        ring = su2_ring if source == "su2" else parse_source(source, 0, DEFAULT_TOL)[0]
        assert ring.commutative
        expected = svd_center_basis(ring, DEFAULT_TOL)
        shapes = linalg_shapes(monkeypatch)
        center, lz = wedderburn._center_basis(ring, DEFAULT_TOL)
        assert shapes == []
        assert center.dtype == expected.dtype and np.array_equal(center, expected)
        assert lz.flags.c_contiguous and np.array_equal(lz, ring.N_float.transpose(0, 2, 1))

    def test_non_commutative_rings_take_the_svd(self, monkeypatch):
        # vec:symmetric:3, and rep:cyclic:3 with N[1, 2] made to differ from
        # N[2, 1] in one entry (not a fusion ring; only the test reads it).
        # The SVD is of the (r, r) R of the stack's QR, to the bits of the
        # SVD of the stack itself.
        s3 = parse_source("vec:symmetric:3", 0, DEFAULT_TOL)[0]
        c3 = parse_source("rep:cyclic:3", 0, DEFAULT_TOL)[0]
        N = c3.N.copy()
        N[1, 2, 1] += 1
        skewed = FusionRingData(c3.labels, N, c3.dual, c3.dims, c3.global_dim)
        for ring in (s3, skewed):
            assert not ring.commutative
            expected = svd_center_basis(ring, DEFAULT_TOL)
            qr_shapes = linalg_shapes(monkeypatch, "qr")
            svd_shapes = linalg_shapes(monkeypatch, "svd")
            center, lz = wedderburn._center_basis(ring, DEFAULT_TOL)
            assert qr_shapes == [(ring.rank**2, ring.rank)]
            assert svd_shapes == [(ring.rank, ring.rank)]
            monkeypatch.undo()
            assert np.array_equal(center, expected)
            assert lz.flags.c_contiguous and lz.shape == (center.shape[1], ring.rank, ring.rank)
            assert np.allclose(lz, np.tensordot(center, ring.N_float.transpose(0, 2, 1), axes=(0, 0)))
        assert center.shape[1] < skewed.rank

    def test_commutative_ring_splits_the_left_multiplications_uncopied(self, monkeypatch):
        # The identity centre's product would return its input exactly, so
        # the split is handed the one contiguous copy of the left
        # multiplications, which it does not copy again.
        ring = su2_fusion_ring(60)
        r = ring.rank
        assert ring.commutative and ring.N_float is not None  # cached before tracing
        seen = []
        real = wedderburn.joint_eigenspaces

        def spy(mats, *args, **kwargs):
            seen.append(mats)
            return real(mats, *args, **kwargs)

        monkeypatch.setattr(wedderburn, "joint_eigenspaces", spy)
        tracemalloc.start()
        try:
            compute_blocks(ring)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        (lz,) = seen
        assert lz.flags.c_contiguous and np.array_equal(lz, ring.N_float.transpose(0, 2, 1))
        assert linalg._as_stack(lz) is lz
        # 1.44 r^3 doubles measured; the identity product and a second
        # stack of it took 2.43.
        assert peak < 2 * r**3 * 8

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize(
        "source", ["vec:symmetric:3", "vec:symmetric:4", "vec:alternating:5", "hi:3", "hi:3*su2:3"]
    )
    def test_blocks_match_the_svd_centre_bitwise(self, monkeypatch, source, seed):
        if source == "hi:3":
            ring = haagerup_izumi_ring(3)
        elif source == "hi:3*su2:3":
            ring = deligne_product(haagerup_izumi_ring(3), su2_fusion_ring(3))
        else:
            ring = parse_source(source, 0, DEFAULT_TOL)[0]
        assert not ring.commutative
        B = compute_blocks(ring, seed=seed)
        monkeypatch.setattr(wedderburn, "_center_basis", svd_center_and_left_mults)
        reference = compute_blocks(ring, seed=seed)
        assert len(B.blocks) == len(reference.blocks)
        for blk, ref in zip(B.blocks, reference.blocks):
            assert np.array_equal(blk.units, ref.units)
            assert np.array_equal(blk.class_sums, ref.class_sums)


def reference_lagrange_idempotents(ring, x, unit, lambdas):
    """Lagrange interpolation with one star product per factor p * (x - lambda_t u)."""
    out = []
    for s, ls in enumerate(lambdas):
        p = unit
        for t, lt in enumerate(lambdas):
            if t != s:
                p = cf_star(ring, p, x - lt * unit) / (ls - lt)
        out.append(p)
    return out


def reference_build_block_units(ring, space, block_unit, m, rng, tol):
    """Matrix units of one block with one star product per pair of vectors:
    the einsum left multiplication, the one-pair Lagrange steps and a unit
    loop over s, drawing x and y at the same points as _build_block_units."""
    if m == 1:
        return block_unit[None, None, :]
    dim = space.shape[1]
    check_tol = max(100 * tol.abs_tol, 1e-10)
    for _ in range(wedderburn._MAX_SPLIT_TRIES):
        x = space @ (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        X = space.conj().T @ np.einsum("i,ijk->kj", x, ring.N_float) @ space
        w = np.linalg.eigvals(X)
        w = w[np.lexsort((-w.imag, -w.real))]
        ctol = 1e-6 * max(1.0, float(np.max(np.abs(w))))
        groups_ = []
        for val in w:
            if groups_ and abs(val - groups_[-1][0]) <= ctol:
                groups_[-1].append(val)
            else:
                groups_.append([val])
        if len(groups_) != m or any(len(g) != m for g in groups_):
            continue
        lambdas = [complex(np.mean(g)) for g in groups_]
        if min(abs(a - b) for i, a in enumerate(lambdas) for b in lambdas[i + 1 :]) < 1e-3:
            continue
        idems = reference_lagrange_idempotents(ring, x, block_unit, lambdas)
        ok = all(np.max(np.abs(cf_star(ring, e, e) - e)) <= check_tol for e in idems)
        if not ok or np.max(np.abs(sum(idems) - block_unit)) > check_tol:
            continue
        y = space @ (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        units = np.zeros((m, m, ring.rank), dtype=complex)
        units[0, 0] = e0 = idems[0]
        degenerate = False
        for s in range(1, m):
            a = cf_star(ring, cf_star(ring, e0, y), idems[s])
            b = cf_star(ring, cf_star(ring, idems[s], y), e0)
            z = cf_star(ring, a, b)
            c = complex(np.vdot(e0, z) / np.vdot(e0, e0))
            if abs(c) < 1e-8 or np.max(np.abs(z - c * e0)) > check_tol * max(1.0, abs(c)):
                degenerate = True
                break
            scale = abs(c) ** 0.5
            units[0, s] = a / scale
            units[s, 0] = b / (c / scale)
        if degenerate:
            continue
        units[1:, 1:] = cf_star_table(ring, units[1:, 0], units[0, 1:])
        if wedderburn._unit_relation_residual(ring, [units]) <= check_tol:
            return units
    raise wedderburn.SplitFailure(f"could not build matrix units for an m={m} block")


@pytest.fixture(scope="module")
def split_rings(vec_a5_ring):
    return {"vec:alternating:5": vec_a5_ring, "vec:symmetric:4": parse_source("vec:symmetric:4", 0, DEFAULT_TOL)[0]}


class TestUnitsThroughMultiplicationMatrices:
    @pytest.mark.parametrize("source", ["vec:alternating:5", "vec:symmetric:4"])
    def test_idempotents_match_the_one_pair_steps(self, monkeypatch, split_rings, source):
        ring = split_rings[source]
        xs, seen = [], []
        real_left, real_lagrange = wedderburn._left_mult_matrix, wedderburn._lagrange_idempotents

        def left(ring_, x):
            xs.append(x)
            return real_left(ring_, x)

        def lagrange(L, unit, lambdas):
            out = real_lagrange(L, unit, lambdas)
            seen.append((xs[-1], unit, lambdas, out))
            return out

        monkeypatch.setattr(wedderburn, "_left_mult_matrix", left)
        monkeypatch.setattr(wedderburn, "_lagrange_idempotents", lagrange)
        B = compute_blocks(ring)
        assert len(seen) == sum(blk.m > 1 for blk in B.blocks)
        for x, unit, lambdas, out in seen:
            assert np.allclose(real_left(ring, x), np.einsum("i,ijk->kj", x, ring.N_float), rtol=0, atol=1e-12)
            ref = np.array(reference_lagrange_idempotents(ring, x, unit, lambdas))
            assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("source", ["vec:alternating:5", "vec:symmetric:4"])
    def test_units_match_the_one_pair_unit_loop(self, monkeypatch, split_rings, source, seed):
        ring = split_rings[source]
        B = compute_blocks(ring, seed=seed)
        monkeypatch.setattr(wedderburn, "_build_block_units", reference_build_block_units)
        ref = compute_blocks(ring, seed=seed)
        assert [blk.m for blk in B.blocks] == [blk.m for blk in ref.blocks]
        for blk, rb in zip(B.blocks, ref.blocks):
            assert np.max(np.abs(blk.units - rb.units)) <= 1e-12 * np.max(np.abs(rb.units))
            assert np.max(np.abs(blk.class_sums - rb.class_sums)) <= 1e-12 * np.max(np.abs(rb.class_sums))

    def test_no_star_product_of_one_pair(self, monkeypatch, vec_a5_ring):
        # Every block of vec A5 has m = 1 or m >= 3, so a batched step has at
        # least two pairs; cf_star is never called.
        pairs = []
        real_table = wedderburn.cf_star_table

        def table(ring, F, G):
            pairs.append(len(F) * len(G))
            return real_table(ring, F, G)

        def one_pair(ring, f, g):
            raise AssertionError("one-pair cf_star call")

        monkeypatch.setattr(char_theory, "cf_star", one_pair)
        monkeypatch.setattr(wedderburn, "cf_star", one_pair, raising=False)
        monkeypatch.setattr(wedderburn, "cf_star_table", table)
        B = compute_blocks(vec_a5_ring)
        assert sorted(blk.m for blk in B.blocks) == [1, 3, 3, 4, 5]
        assert pairs and min(pairs) > 1

    @pytest.mark.parametrize("command", ["analyze", "lattice"])
    @pytest.mark.parametrize("source", ["vec:alternating:5", "vec:symmetric:4"])
    def test_reports_match_the_one_pair_path_bytewise(self, monkeypatch, tmp_path, source, command):
        argv = [command, source, "--format", "json", "--output"]
        assert cli.main([*argv, str(tmp_path / "new.json")]) == 0
        monkeypatch.setattr(wedderburn, "_build_block_units", reference_build_block_units)
        assert cli.main([*argv, str(tmp_path / "ref.json")]) == 0
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()
