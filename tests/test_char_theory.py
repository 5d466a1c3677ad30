import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuscat import groups
from fuscat.char_theory import (
    CentralElement,
    ClassFunction,
    antipodal,
    beta_tau,
    ce_multiply,
    cf_multiply,
    cf_right_action,
    cf_star,
    cf_star_blocks,
    cf_star_table,
    chi,
    cointegral,
    ell_D,
    fourier_forward,
    fourier_inverse,
    idempotent,
    integral,
    pairing,
    subcategory_cointegral,
    tau,
    unit_central_element,
)
from fuscat.fusion_ring import subcategory_closure


def rand_cf(ring, rng):
    return ClassFunction(ring, rng.standard_normal(ring.rank) + 1j * rng.standard_normal(ring.rank))


def rand_ce(ring, rng):
    return CentralElement(ring, rng.standard_normal(ring.rank) + 1j * rng.standard_normal(ring.rank))


class TestMultiplication:
    def test_unit(self, s3_ring):
        rng = np.random.default_rng(0)
        f = rand_cf(s3_ring, rng)
        out = cf_multiply(chi(s3_ring, 0), f)
        assert np.allclose(out.coeffs, f.coeffs)

    def test_rho_squared(self, s3_ring):
        out = cf_multiply(chi(s3_ring, 2), chi(s3_ring, 2))
        assert np.allclose(out.coeffs, [1, 1, 1])

    def test_group_ring_multiplication(self, vec_s3_ring, s3_group):
        g, h = 1, 3
        out = cf_multiply(chi(vec_s3_ring, g), chi(vec_s3_ring, h))
        expected = np.zeros(6)
        expected[s3_group.mul(g, h)] = 1
        assert np.allclose(out.coeffs, expected)

    def test_ce_idempotents(self, s3_ring):
        e1, e2 = idempotent(s3_ring, 1), idempotent(s3_ring, 2)
        assert np.allclose(ce_multiply(e1, e1).coeffs, e1.coeffs)
        assert np.allclose(ce_multiply(e1, e2).coeffs, 0)

    def test_ce_unit(self, s3_ring):
        rng = np.random.default_rng(1)
        a = rand_ce(s3_ring, rng)
        out = ce_multiply(unit_central_element(s3_ring), a)
        assert np.allclose(out.coeffs, a.coeffs)

    def test_associative_on_random(self, s3_ring):
        rng = np.random.default_rng(2)
        f, g, h = (rand_cf(s3_ring, rng) for _ in range(3))
        lhs = cf_multiply(cf_multiply(f, g), h)
        rhs = cf_multiply(f, cf_multiply(g, h))
        assert np.allclose(lhs.coeffs, rhs.coeffs)

    def test_mixed_rings_rejected(self, s3_ring, rep_c2_ring):
        with pytest.raises(ValueError):
            cf_multiply(chi(s3_ring, 0), chi(rep_c2_ring, 0))


class TestPairing:
    def test_rho_value(self, s3_ring):
        assert pairing(chi(s3_ring, 2), idempotent(s3_ring, 2)) == pytest.approx(2)

    def test_off_diagonal_zero(self, s3_ring):
        assert pairing(chi(s3_ring, 1), idempotent(s3_ring, 2)) == 0

    def test_unit_pairing(self, s3_ring):
        assert pairing(chi(s3_ring, 0), unit_central_element(s3_ring)) == 1


class TestIntegralCointegral:
    def test_integral_vector(self, s3_ring):
        lam_e = integral(s3_ring)
        assert np.allclose(lam_e.coeffs, [1, 0, 0])
        assert np.allclose(ce_multiply(lam_e, lam_e).coeffs, lam_e.coeffs)

    def test_cointegral_pairing(self, s3_ring):
        assert pairing(cointegral(s3_ring), integral(s3_ring)) == pytest.approx(1 / 6)

    def test_cointegral_rep_c2(self, rep_c2_ring):
        assert np.allclose(cointegral(rep_c2_ring).coeffs, [0.5, 0.5])

    def test_cointegral_rep_s3(self, s3_ring):
        assert np.allclose(cointegral(s3_ring).coeffs, [1 / 6, 1 / 6, 2 / 6])

    def test_cointegral_trivial(self, trivial_ring):
        assert np.allclose(cointegral(trivial_ring).coeffs, [1])

    def test_cointegral_idempotent(self, s3_ring):
        lam = cointegral(s3_ring)
        assert np.allclose(cf_multiply(lam, lam).coeffs, lam.coeffs)


class TestAntipodal:
    def test_self_dual_identity(self, s3_ring):
        rng = np.random.default_rng(3)
        a = rand_ce(s3_ring, rng)
        assert np.allclose(antipodal(a).coeffs, a.coeffs)

    def test_vec_ring_inversion(self, s3_group):
        ring = groups.vec_fusion_ring(s3_group)
        for g in range(6):
            out = antipodal(idempotent(ring, g))
            expected = np.zeros(6)
            expected[ring.dual[g]] = 1
            assert np.allclose(out.coeffs, expected)

    def test_involution(self, vec_s3_ring):
        rng = np.random.default_rng(4)
        a = rand_ce(vec_s3_ring, rng)
        assert np.allclose(antipodal(antipodal(a)).coeffs, a.coeffs)


class TestFourier:
    def test_rho_image(self, s3_ring):
        out = fourier_inverse(chi(s3_ring, 2))
        assert np.allclose(out.coeffs, [0, 0, 3])

    def test_unit_image_is_scaled_integral(self, s3_ring):
        out = fourier_inverse(chi(s3_ring, 0))
        assert np.allclose(out.coeffs, 6 * integral(s3_ring).coeffs)

    def test_cointegral_maps_to_unit(self, s3_ring):
        out = fourier_inverse(cointegral(s3_ring))
        assert np.allclose(out.coeffs, 1.0)

    def test_forward_images(self, s3_ring):
        out = fourier_forward(idempotent(s3_ring, 2))
        assert np.allclose(out.coeffs, [0, 0, 1 / 3])
        lam_img = fourier_forward(integral(s3_ring))
        assert np.allclose(lam_img.coeffs, [1 / 6, 0, 0])

    def test_round_trip_100_random(self, s3_ring, vec_s3_ring):
        rng = np.random.default_rng(5)
        for ring in (s3_ring, vec_s3_ring):
            for _ in range(100):
                f = rand_cf(ring, rng)
                back = fourier_forward(fourier_inverse(f))
                assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-8
                a = rand_ce(ring, rng)
                back_a = fourier_inverse(fourier_forward(a))
                assert np.max(np.abs(back_a.coeffs - a.coeffs)) < 1e-8


class TestRightAction:
    def test_unit_acts_trivially(self, s3_ring):
        rng = np.random.default_rng(6)
        f = rand_cf(s3_ring, rng)
        out = cf_right_action(f, unit_central_element(s3_ring))
        assert np.allclose(out.coeffs, f.coeffs)

    def test_matched_index(self, s3_ring):
        out = cf_right_action(chi(s3_ring, 2), idempotent(s3_ring, 2))
        assert np.allclose(out.coeffs, chi(s3_ring, 2).coeffs)

    def test_mismatched_index(self, s3_ring):
        out = cf_right_action(chi(s3_ring, 2), idempotent(s3_ring, 0))
        assert np.allclose(out.coeffs, 0)

    def test_adjoint_to_multiplication(self, vec_s3_ring):
        rng = np.random.default_rng(7)
        f = rand_cf(vec_s3_ring, rng)
        a, b = rand_ce(vec_s3_ring, rng), rand_ce(vec_s3_ring, rng)
        lhs = pairing(cf_right_action(f, b), a)
        rhs = pairing(f, ce_multiply(b, a))
        assert lhs == pytest.approx(rhs)


class TestTauBeta:
    def test_tau_unit(self, s3_ring):
        assert tau(chi(s3_ring, 0)) == 1

    def test_tau_rho_squared(self, s3_ring):
        assert tau(cf_multiply(chi(s3_ring, 2), chi(s3_ring, 2))) == 1

    def test_tau_cointegral(self, s3_ring):
        assert tau(cointegral(s3_ring)) == pytest.approx(1 / 6)

    def test_dual_bases(self, s3_ring, vec_s3_ring):
        for ring in (s3_ring, vec_s3_ring):
            for i in range(ring.rank):
                assert beta_tau(chi(ring, i), chi(ring, ring.dual[i])) == 1

    def test_no_unit_constituent(self, s3_ring):
        assert beta_tau(chi(s3_ring, 0), chi(s3_ring, 2)) == 0

    def test_symmetry_on_commutative(self, s3_ring):
        rng = np.random.default_rng(8)
        f, g = rand_cf(s3_ring, rng), rand_cf(s3_ring, rng)
        assert beta_tau(f, g) == pytest.approx(beta_tau(g, f))


class TestPairingTraceIdentity:
    # <f, F^-1(g)> = dim(C) tau(f * g); with d_i = d_{i*} both sides equal
    # dim(C) sum_i f_i g_{i*}.
    def test_unit_case(self, s3_ring):
        assert pairing(chi(s3_ring, 0), fourier_inverse(chi(s3_ring, 0))) == pytest.approx(6)
        assert 6 * beta_tau(chi(s3_ring, 0), chi(s3_ring, 0)) == pytest.approx(6)

    def test_rho_both_sides_six(self, s3_ring):
        f = chi(s3_ring, 2)
        assert pairing(f, fourier_inverse(f)) == pytest.approx(6)
        assert 6 * beta_tau(f, f) == pytest.approx(6)

    def test_random_pairs(self, s3_ring, vec_s3_ring):
        rng = np.random.default_rng(9)
        for ring in (s3_ring, vec_s3_ring):
            dual = list(ring.dual)
            for _ in range(20):
                f, g = rand_cf(ring, rng), rand_cf(ring, rng)
                closed = ring.global_dim * np.sum(f.coeffs * g.coeffs[dual])
                assert abs(pairing(f, fourier_inverse(g)) - closed) < 1e-8
                assert abs(ring.global_dim * beta_tau(f, g) - closed) < 1e-8


def reference_star(ring, f, g):
    return np.einsum("i,j,ijk->k", f, g, ring.N_float)


def rand_rows(ring, rng, n):
    return rng.standard_normal((n, ring.rank)) + 1j * rng.standard_normal((n, ring.rank))


STAR_RINGS = ["s3_ring", "vec_s3_ring", "su2_ring"]


class TestStarTable:
    @pytest.mark.parametrize("ring_name", STAR_RINGS)
    def test_table_matches_einsum_loop(self, request, ring_name):
        ring = request.getfixturevalue(ring_name)
        rng = np.random.default_rng(7)
        F, G = rand_rows(ring, rng, 4), rand_rows(ring, rng, 5)
        table = cf_star_table(ring, F, G)
        assert table.shape == (4, 5, ring.rank)
        expected = np.array([[reference_star(ring, f, g) for g in G] for f in F])
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(table - expected)) <= 1e-13 * scale

    @pytest.mark.parametrize("ring_name", STAR_RINGS)
    def test_cf_star_is_one_row_case(self, request, ring_name):
        ring = request.getfixturevalue(ring_name)
        rng = np.random.default_rng(8)
        f, g = rand_rows(ring, rng, 2)
        out = cf_star(ring, f, g)
        assert out.shape == (ring.rank,)
        assert np.array_equal(out, cf_star_table(ring, f[None], g[None])[0, 0])
        expected = reference_star(ring, f, g)
        assert np.max(np.abs(out - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_real_rows_stay_real(self, s3_ring):
        table = cf_star_table(s3_ring, np.eye(3), np.eye(3))
        assert table.dtype == np.float64
        assert np.array_equal(table, s3_ring.N_float)

    def test_blocks_cover_every_row_in_order(self, su2_ring):
        rng = np.random.default_rng(9)
        r = su2_ring.rank
        F, G = rand_rows(su2_ring, rng, r), rand_rows(su2_ring, rng, 3)
        blocks = list(cf_star_blocks(su2_ring, F, G))
        assert len(blocks) > 1
        assert [lo for lo, _ in blocks] == list(np.cumsum([0] + [len(t) for _, t in blocks[:-1]]))
        whole = cf_star_table(su2_ring, F, G)
        stacked = np.concatenate([t for _, t in blocks])
        assert np.max(np.abs(stacked - whole)) <= 1e-13 * np.max(np.abs(whole))
        assert all(len(t) <= r // 16 for _, t in blocks)

    def test_fusion_tensor_is_not_cast_to_complex(self, su2_ring):
        r = su2_ring.rank
        rng = np.random.default_rng(10)
        f, g = rand_rows(su2_ring, rng, 2)
        su2_ring.N_float  # cached before tracing
        tracemalloc.start()
        try:
            cf_star(su2_ring, f, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < r**3 * 8  # a complex copy of N would take r^3 * 16 bytes


class TestSubcategoryElements:
    def test_whole_category(self, s3_ring):
        whole = subcategory_closure(s3_ring, [2])
        assert np.allclose(subcategory_cointegral(whole).coeffs, cointegral(s3_ring).coeffs)
        assert np.allclose(ell_D(whole).coeffs, 1.0)

    def test_trivial_subcategory(self, s3_ring):
        triv = subcategory_closure(s3_ring, [])
        assert np.allclose(subcategory_cointegral(triv).coeffs, [1, 0, 0])
        assert np.allclose(ell_D(triv).coeffs, 6 * integral(s3_ring).coeffs)

    def test_rep_c2_inside_s3(self, s3_ring):
        D = subcategory_closure(s3_ring, [1])
        lam_d = subcategory_cointegral(D)
        assert np.allclose(lam_d.coeffs, [0.5, 0.5, 0])
        assert np.allclose(cf_multiply(lam_d, lam_d).coeffs, lam_d.coeffs)
        assert np.allclose(ell_D(D).coeffs, [3, 3, 0])


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30, deadline=None)
def test_fourier_bijection_random_seeds(seed):
    import fuscat.groups as g

    ring = g.rep_fusion_ring(g.parse_group("symmetric:3"))
    rng = np.random.default_rng(seed)
    f = ClassFunction(ring, rng.standard_normal(3) + 1j * rng.standard_normal(3))
    back = fourier_forward(fourier_inverse(f))
    assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-10
