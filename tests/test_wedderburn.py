import numpy as np
import pytest

from fuscat import groups
from fuscat.char_theory import ClassFunction, chi, cointegral, cf_multiply, unit_class_function
from fuscat.fusion_ring import enumerate_subcategories
from fuscat.char_theory import subcategory_cointegral
from fuscat.wedderburn import (
    NotIdempotent,
    adapt_to_idempotent,
    compute_blocks,
    verify_class_sum_pairings,
    verify_dual_bases,
    verify_integral_classsum,
)


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
        from fuscat.char_theory import cf_star

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
        comps = s3_blocks.expand(unit_class_function(s3_ring).coeffs)
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


class TestAdapt:
    def test_identity_idempotent_is_noop(self, vec_s3_ring, vec_s3_blocks):
        out = adapt_to_idempotent(vec_s3_blocks, unit_class_function(vec_s3_ring))
        for b1, b2 in zip(out.blocks, vec_s3_blocks.blocks):
            assert np.allclose(b1.units, b2.units, atol=1e-12)

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
        adapted = adapt_to_idempotent(vec_s3_blocks, p)
        comps = adapted.expand(p.coeffs)
        # triv block coefficient 1, sign block 0, rho block diag(1, 0)
        assert complex(comps[0][0, 0]) == pytest.approx(1)
        assert abs(complex(comps[1][0, 0])) < 1e-9
        assert np.allclose(comps[2], np.diag([1.0, 0.0]), atol=1e-9)

    def test_non_idempotent_rejected(self, vec_s3_ring, vec_s3_blocks):
        half = ClassFunction(vec_s3_ring, 0.5 * unit_class_function(vec_s3_ring).coeffs)
        with pytest.raises(NotIdempotent):
            adapt_to_idempotent(vec_s3_blocks, half)

    def test_adapt_preserves_block_invariants(self, vec_s3_ring, vec_s3_blocks):
        for D in enumerate_subcategories(vec_s3_ring):
            adapted = adapt_to_idempotent(vec_s3_blocks, subcategory_cointegral(D))
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
        from fuscat.char_theory import cf_star

        for blk in s3_blocks.blocks:
            F = blk.units[0, 0]
            for i in range(3):
                prod = cf_star(s3_ring, chi(s3_ring, i).coeffs, F)
                scale = prod[np.argmax(np.abs(F))] / F[np.argmax(np.abs(F))]
                assert np.max(np.abs(prod - scale * F)) < 1e-10
