import dataclasses

import numpy as np
import pytest

from fuscat import groups, subalg, verify, wedderburn
from fuscat.char_theory import (
    CentralElement,
    chi,
    cointegral,
    integral,
    pairing,
    unit_central_element,
    unit_class_function,
)
from fuscat.fusion_ring import (
    enumerate_subcategories,
    subcategory_closure,
    subcategory_join,
    subcategory_meet,
    subcategory_product_set,
)
from fuscat.linalg import DEFAULT_TOL, orthonormal_basis, subspace_contains, subspace_intersection
from fuscat.subalg import (
    ClosureFailure,
    LatticeTable,
    PartitionMismatch,
    build_lattice,
    block_partition,
    ce_basis,
    epsilon_L,
    pi_down,
    restrict,
    subalgebra_from_subcategory,
    subcategory_from_subalgebra,
    verify_cointegral_trace_sum,
    verify_dim_inequality,
)


@pytest.fixture(scope="module")
def s3_subalgebras(s3_ring, s3_blocks):
    """Subalgebras of the adjoint algebra of Rep(S3), keyed by subcategory."""
    subs = enumerate_subcategories(s3_ring)
    return {D.indices: subalgebra_from_subcategory(D, s3_blocks) for D in subs}


@pytest.fixture(scope="module")
def s3_table(s3_ring, s3_blocks):
    return build_lattice(s3_ring, s3_blocks)


@pytest.fixture(scope="module")
def vec_s3_table(vec_s3_ring, vec_s3_blocks):
    return build_lattice(vec_s3_ring, vec_s3_blocks)


def dim_inequality(table, a, b):
    raw_ab = subcategory_product_set(a.subcategory, b.subcategory)
    raw_ba = subcategory_product_set(b.subcategory, a.subcategory)
    return verify_dim_inequality(
        a, b, table.product(a, b), table.intersection(a, b), raw_ab, raw_ba
    )


class TestFromSubcategory:
    def test_trivial_subcategory_gives_whole_algebra(self, s3_ring, s3_subalgebras):
        L = s3_subalgebras[(0,)]
        assert L.dim_l == pytest.approx(6)
        assert L.rows == ((0,), (0,), (0,))
        assert L.ce_dim == 3

    def test_whole_category_gives_unit_subalgebra(self, s3_subalgebras):
        L = s3_subalgebras[(0, 1, 2)]
        assert L.dim_l == pytest.approx(1)
        assert L.rows == ((0,), (), ())
        assert L.ce_dim == 1

    def test_rep_c2_gives_three_dimensional_subalgebra(self, s3_subalgebras):
        # oracle: the group algebra of A3 inside that of S3
        L = s3_subalgebras[(0, 1)]
        assert L.dim_l == pytest.approx(3)
        assert L.rows == ((0,), (), (0,))
        assert L.ce_dim == 2

    def test_unit_row_always_selected(self, vec_s3_ring, vec_s3_blocks):
        for D in enumerate_subcategories(vec_s3_ring):
            L = subalgebra_from_subcategory(D, vec_s3_blocks)
            assert 0 in L.rows[0]


class TestEpsilonAndRestrict:
    def test_epsilon_full(self, s3_ring, s3_subalgebras):
        eps = epsilon_L(s3_subalgebras[(0,)])
        assert np.allclose(eps.coeffs, unit_class_function(s3_ring).coeffs)

    def test_epsilon_unit_subalgebra(self, s3_ring, s3_subalgebras):
        eps = epsilon_L(s3_subalgebras[(0, 1, 2)])
        assert np.allclose(eps.coeffs, cointegral(s3_ring).coeffs)

    def test_epsilon_a3(self, s3_blocks, s3_subalgebras):
        L = s3_subalgebras[(0, 1)]
        expected = L.blocks.blocks[0].units[0, 0] + L.blocks.blocks[2].units[0, 0]
        assert np.allclose(epsilon_L(L).coeffs, expected)

    def test_restrict_unit(self, s3_ring, s3_subalgebras):
        L = s3_subalgebras[(0, 1)]
        out = restrict(unit_class_function(s3_ring), L)
        assert np.allclose(out.coeffs, epsilon_L(L).coeffs)

    def test_restrict_rho_to_a3(self, s3_ring, s3_subalgebras):
        # chi_rho = 2 F^e + 0 F^transp - F^3cyc, so restriction to the
        # A3 subalgebra keeps 2 F^e - F^3cyc, which is not 2 eps_L
        L = s3_subalgebras[(0, 1)]
        out = restrict(chi(s3_ring, 2), L)
        expected = 2 * L.blocks.blocks[0].units[0, 0] - L.blocks.blocks[2].units[0, 0]
        assert np.allclose(out.coeffs, expected)
        assert not np.allclose(out.coeffs, 2 * epsilon_L(L).coeffs)

    def test_restrict_sgn_to_a3(self, s3_ring, s3_subalgebras):
        L = s3_subalgebras[(0, 1)]
        out = restrict(chi(s3_ring, 1), L)
        assert np.allclose(out.coeffs, epsilon_L(L).coeffs)


class TestRoundTrip:
    def test_all_s3(self, s3_subalgebras):
        for indices, L in s3_subalgebras.items():
            assert subcategory_from_subalgebra(L).indices == indices

    def test_all_vec_s3(self, vec_s3_ring, vec_s3_blocks):
        for D in enumerate_subcategories(vec_s3_ring):
            L = subalgebra_from_subcategory(D, vec_s3_blocks)
            assert subcategory_from_subalgebra(L).indices == D.indices

    def test_dimension_product(self, vec_s3_ring, vec_s3_blocks):
        for D in enumerate_subcategories(vec_s3_ring):
            L = subalgebra_from_subcategory(D, vec_s3_blocks)
            assert abs(L.dim_l * D.fpdim - vec_s3_ring.global_dim) < 1e-6


class TestPartition:
    def test_whole_algebra_gives_singletons(self, s3_subalgebras):
        assert block_partition(s3_subalgebras[(0,)]) == ((0,), (1,), (2,))

    def test_unit_subalgebra_gives_one_class(self, s3_subalgebras):
        assert block_partition(s3_subalgebras[(0, 1, 2)]) == ((0, 1, 2),)

    def test_a3_partition(self, s3_subalgebras):
        # oracle: primitive idempotents of the center of the A3 group algebra
        assert block_partition(s3_subalgebras[(0, 1)]) == ((0, 1), (2,))

    def test_a3_unit_idempotent(self, s3_ring, s3_subalgebras):
        L = s3_subalgebras[(0, 1)]
        part = block_partition(L)
        ell0 = np.zeros(3, dtype=complex)
        ell0[list(part[0])] = 1
        assert np.allclose(ell0, [1, 1, 0])  # E_0 + E_sgn
        assert pairing(epsilon_L(L), CentralElement(s3_ring, ell0)) == pytest.approx(1)


class TestCeBasis:
    def test_unit_subalgebra(self, s3_ring, s3_subalgebras):
        basis = ce_basis(s3_subalgebras[(0, 1, 2)])
        assert len(basis) == 1
        assert np.allclose(basis[0].coeffs, unit_central_element(s3_ring).coeffs)

    def test_whole_algebra(self, s3_subalgebras):
        assert len(ce_basis(s3_subalgebras[(0,)])) == 3

    def test_a3_class_sums(self, s3_subalgebras):
        # oracle: central elements of kA3 = class sums of e and the 3-cycles,
        # with idempotent coordinates (1,1,1) and (2,2,-1)
        basis = ce_basis(s3_subalgebras[(0, 1)])
        assert len(basis) == 2
        span = orthonormal_basis([b.coeffs for b in basis])
        expected = orthonormal_basis([np.array([1.0, 1, 1]), np.array([2.0, 2, -1])])
        assert subspace_contains(span, expected)
        assert subspace_contains(expected, span)


def dropped_row(L, j, s):
    """L with row s of block j unselected and its ce_dim lowered to match."""
    rows = list(L.rows)
    rows[j] = tuple(x for x in rows[j] if x != s)
    return dataclasses.replace(L, rows=tuple(rows), ce_dim=L.ce_dim - L.blocks.blocks[j].m)


class TestCeBasisDetectsBadSelection:
    @pytest.mark.parametrize(
        "drop, message",
        [((2, 0), "not closed under product"), ((0, 0), "does not contain the unit")],
    )
    def test_dropped_row(self, s3_subalgebras, drop, message):
        L = dropped_row(s3_subalgebras[(0,)], *drop)
        with pytest.raises(ClosureFailure, match=message):
            ce_basis(L)

    @pytest.mark.parametrize("s", [0, 1])
    def test_dropped_row_of_a_matrix_block(self, vec_s3_table, s):
        L = vec_s3_table.entry((0,)).subalgebra
        assert L.blocks.blocks[2].m == 2 and L.rows[2] == (0, 1)
        with pytest.raises(ClosureFailure, match="not closed under product"):
            ce_basis(dropped_row(L, 2, s))

    def test_dropped_row_keeping_ce_dim(self, s3_subalgebras):
        L = s3_subalgebras[(0,)]
        L = dataclasses.replace(dropped_row(L, 2, 0), ce_dim=L.ce_dim)
        with pytest.raises(ClosureFailure, match="span has dimension 2, expected 3"):
            ce_basis(L)


class TestBlockPartitionIndicators:
    def test_names_the_first_class_outside_the_span(self, s3_subalgebras):
        # span{E_0, E_sgn + 2 E_rho} separates all three coordinates, as the
        # character partition ((0,), (1,), (2,)) does, but holds only the
        # first indicator; the second class is the first one outside.
        L = dataclasses.replace(s3_subalgebras[(0,)])
        L.__dict__["ce_span"] = orthonormal_basis([np.array([1.0, 0, 0]), np.array([0.0, 1, 2])])
        with pytest.raises(PartitionMismatch, match=r"class \[1\] is outside"):
            block_partition(L)


def group_equal_rows_reference(rows, tol):
    """The per-row greedy rule: each row joins the first class whose first
    row is within tol (max norm), else starts a class; unit class first."""
    classes = []
    for i in range(len(rows)):
        if classes:
            reps = rows[[cls[0] for cls in classes]]
            near = np.flatnonzero(np.max(np.abs(reps - rows[i]), axis=1) <= tol)
            if near.size:
                classes[near[0]].append(i)
                continue
        classes.append([i])
    classes.sort(key=lambda cls: (0 not in cls, cls[0]))
    return classes


class TestGroupEqualRows:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_row_rule(self, seed):
        # Clusters of noisy copies plus chains a ~ b ~ c with a !~ c, in
        # shuffled order, so a row can be near several class heads.
        rng = np.random.default_rng(seed)
        tol = 1e-3
        width = 4
        centres = rng.standard_normal((5, width)) + 1j * rng.standard_normal((5, width))
        rows = [centres[rng.integers(5)] + rng.uniform(-0.4, 0.4, width) * tol for _ in range(30)]
        for _ in range(3):
            start = rng.standard_normal(width)
            rows.extend(start + k * 0.6 * tol for k in range(5))
        rows = np.array(rows)[rng.permutation(len(rows))]
        expected = group_equal_rows_reference(rows, tol)
        assert len(expected) < len(rows)
        assert subalg._group_equal_rows(rows, tol) == expected
        assert subalg._group_equal_rows(rows.real.copy(), tol) == group_equal_rows_reference(
            rows.real.copy(), tol
        )

    def test_restriction_rows_of_a_table(self, vec_s3_table):
        for e in vec_s3_table.entries:
            rows = subalg._normalized_restrictions(e.subalgebra).T
            assert subalg._group_equal_rows(rows, subalg.PARTITION_TOL) == (
                group_equal_rows_reference(rows, subalg.PARTITION_TOL)
            )


class TestPiDown:
    def test_unit_retained(self, s3_ring, s3_subalgebras):
        for L in s3_subalgebras.values():
            out = pi_down(unit_central_element(s3_ring), L)
            assert np.allclose(out.coeffs, 1.0)

    def test_integral_projects_to_scaled_unit_idempotent(self, s3_ring, s3_subalgebras):
        # projection of the integral onto the A3 subalgebra is half the
        # unit idempotent: (1/6)(K_e + K_3cyc) = (1/2)(E_0 + E_sgn)
        L = s3_subalgebras[(0, 1)]
        out = pi_down(integral(s3_ring), L)
        assert np.allclose(out.coeffs, [0.5, 0.5, 0])

    def test_whole_algebra_identity(self, s3_ring, s3_subalgebras):
        rng = np.random.default_rng(11)
        z = CentralElement(s3_ring, rng.standard_normal(3) + 1j * rng.standard_normal(3))
        out = pi_down(z, s3_subalgebras[(0,)])
        assert np.allclose(out.coeffs, z.coeffs)


class TestLatticeOps:
    def test_product_with_unit_subalgebra(self, s3_table):
        one = s3_table.entry((0, 1, 2))  # the unit subalgebra
        for e in s3_table.entries:
            assert s3_table.product(e, one).subalgebra.rows == e.subalgebra.rows

    def test_intersect_with_whole(self, s3_table):
        whole = s3_table.entry((0,))
        for e in s3_table.entries:
            assert s3_table.intersection(e, whole).subalgebra.rows == e.subalgebra.rows

    def test_vec_s3_reflection_pair(self, vec_s3_table):
        a, b = [e for e in vec_s3_table.entries if len(e.subcategory) == 2][:2]
        assert vec_s3_table.product(a, b).subalgebra.dim_l == pytest.approx(6)
        assert vec_s3_table.intersection(a, b).subalgebra.dim_l == pytest.approx(1)

    def test_rep_s3_idempotence_and_nesting(self, s3_table):
        a3 = s3_table.entry((0, 1))
        s3 = s3_table.entry((0,))  # the whole group algebra
        assert s3_table.product(a3, a3) is a3
        assert s3_table.intersection(a3, s3).subalgebra.dim_l == pytest.approx(3)

    def test_meet_join_identities(self, vec_s3_table):
        for a in vec_s3_table.entries:
            for b in vec_s3_table.entries:
                lm = vec_s3_table.product(a, b).subalgebra
                assert (
                    subcategory_from_subalgebra(lm).indices
                    == subcategory_meet(a.subcategory, b.subcategory).indices
                )
                li = vec_s3_table.intersection(a, b).subalgebra
                assert (
                    subcategory_from_subalgebra(li).indices
                    == subcategory_join(a.subcategory, b.subcategory).indices
                )
                ce = subspace_intersection(a.subalgebra.ce_span, b.subalgebra.ce_span)
                assert len(ce) == li.ce_dim


class TestDimInequality:
    def test_equal_arguments(self, s3_table):
        a3 = s3_table.entry((0, 1))
        lhs, rhs, _ = dim_inequality(s3_table, a3, a3)
        assert lhs == pytest.approx(rhs) == pytest.approx(3)

    def test_vec_s3_strict_instance(self, vec_s3_table):
        a, b = [e for e in vec_s3_table.entries if len(e.subcategory) == 2][:2]
        lhs, rhs, orders_agree = dim_inequality(vec_s3_table, a, b)
        assert lhs == pytest.approx(6)
        assert rhs == pytest.approx(9)
        assert not orders_agree

    def test_rep_s3_equality(self, s3_table):
        a3 = s3_table.entry((0, 1))
        s3 = s3_table.entry((0,))
        lhs, rhs, orders_agree = dim_inequality(s3_table, a3, s3)
        assert lhs == pytest.approx(6)
        assert rhs == pytest.approx(6 * 3 / 3)
        assert orders_agree


class TestCointegralTraceSum:
    def test_trivial_subcategory(self, s3_ring, s3_table):
        D = subcategory_closure(s3_ring, [])
        assert verify_cointegral_trace_sum(s3_table.entry(D.indices)) < 1e-8

    def test_rep_c2_value(self, s3_ring, s3_table):
        # diagonal coefficients of F^e + F^3cyc weighted by summand dims:
        # 1*1 + 1*2 = 3 = 6/2
        D = subcategory_closure(s3_ring, [1])
        assert verify_cointegral_trace_sum(s3_table.entry(D.indices)) < 1e-8

    def test_whole_category(self, s3_ring, s3_table):
        D = subcategory_closure(s3_ring, [2])
        assert verify_cointegral_trace_sum(s3_table.entry(D.indices)) < 1e-8


class TestRestrictionPairing:
    def test_pairing_preserved_on_ce_elements(self, s3_ring, s3_subalgebras):
        for L in s3_subalgebras.values():
            for z in ce_basis(L):
                for i in range(3):
                    f = chi(s3_ring, i)
                    assert pairing(restrict(f, L), z) == pytest.approx(pairing(f, z))


class TestBuildLattice:
    def test_rep_s3_table(self, s3_ring, s3_blocks):
        table = build_lattice(s3_ring, s3_blocks)
        assert len(table.entries) == 3
        dims = [round(e.subalgebra.dim_l, 6) for e in table.entries]
        fpdims = [round(e.subcategory.fpdim, 6) for e in table.entries]
        assert dims == [6, 3, 1]
        assert fpdims == [1, 2, 6]
        assert table.hasse_edges == ((0, 1), (1, 2))

    def test_vec_s3_table(self, vec_s3_ring, vec_s3_blocks):
        table = build_lattice(vec_s3_ring, vec_s3_blocks)
        assert len(table.entries) == 6
        assert sorted(round(e.subalgebra.dim_l, 6) for e in table.entries) == [1, 2, 3, 3, 3, 6]

    def test_trivial_ring(self, trivial_ring):
        from fuscat.wedderburn import compute_blocks

        table = build_lattice(trivial_ring, compute_blocks(trivial_ring))
        assert len(table.entries) == 1
        assert table.entries[0].subalgebra.dim_l == pytest.approx(1)


class TestProjector:
    def test_idempotent_with_trace_ce_dim(self, s3_table, vec_s3_table):
        for table in (s3_table, vec_s3_table):
            for e in table.entries:
                P = e.subalgebra.projector
                assert np.allclose(P @ P, P)
                assert np.trace(P) == pytest.approx(e.subalgebra.ce_dim)

    def test_restriction_reads_only_the_projector(self, s3_ring, s3_subalgebras, monkeypatch):
        def no_expand(self, coeffs):
            raise AssertionError("expand called")

        monkeypatch.setattr(wedderburn.BlockStructure, "expand", no_expand)
        L = s3_subalgebras[(0, 1)]
        assert np.allclose(restrict(unit_class_function(s3_ring), L).coeffs, epsilon_L(L).coeffs)
        assert subcategory_from_subalgebra(L).indices == (0, 1)
        assert block_partition(L) == ((0, 1), (2,))


class TestVerifyReadsTable:
    def test_correspondence_computed_once(self, vec_s3_ring, s3_group, monkeypatch):
        calls = {"adapt": 0, "blocks": 0}
        real_adapt = subalg.adapt_to_idempotent
        real_blocks = wedderburn.compute_blocks

        def counted_adapt(*args, **kwargs):
            calls["adapt"] += 1
            return real_adapt(*args, **kwargs)

        def counted_blocks(*args, **kwargs):
            calls["blocks"] += 1
            return real_blocks(*args, **kwargs)

        monkeypatch.setattr(subalg, "adapt_to_idempotent", counted_adapt)
        for mod in (wedderburn, subalg, groups, verify):
            monkeypatch.setattr(mod, "compute_blocks", counted_blocks, raising=False)
        checks = verify.verify_ring(vec_s3_ring, group=s3_group, kind="vec")
        assert all(c.passed for c in checks)
        n_subcats = len(enumerate_subcategories(vec_s3_ring))
        assert calls == {"adapt": n_subcats, "blocks": 1}

    def test_missing_meet_fails_the_check(self, vec_s3_ring, monkeypatch):
        real_build = subalg.build_lattice

        def without_trivial(ring, B, tol=DEFAULT_TOL):
            t = real_build(ring, B, tol)
            return LatticeTable(t.ring, t.blocks, t.entries[1:], t.hasse_edges)

        monkeypatch.setattr(subalg, "build_lattice", without_trivial)
        checks = {c.name: c for c in verify.verify_ring(vec_s3_ring)}
        assert not checks["meet and join correspondence"].passed
