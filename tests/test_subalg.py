import dataclasses

import numpy as np
import pytest

from fuscat import fusion_ring, groups, subalg, verify, wedderburn
from fuscat.cli import parse_source
from fuscat.char_theory import (
    CentralElement,
    chi,
    cointegral,
    integral,
    pairing,
    unit_central_element,
)
from fuscat.fusion_ring import (
    enumerate_subcategories,
    subcategory_closure,
    subcategory_join,
    subcategory_meet,
)
from fuscat.linalg import DEFAULT_TOL, _span_contains, orthonormal_basis
from fuscat.subalg import (
    PartitionMismatch,
    build_lattice,
    epsilon_L,
    restrict,
    subcategory_from_subalgebra,
)

from conftest import (
    ce_span,
    deligne_product,
    haagerup_izumi_ring,
    intersection_dims,
    live_block,
    live_table,
    patch_table,
    reference_group_equal_rows,
    reference_meets_and_joins,
    su2_fusion_ring,
    subalgebras_of,
)


# Rings for the lattice-operation identities: the group battery, SU(2)_k,
# Haagerup-Izumi rings and Deligne products, several of them non-commutative
# or non-integral.
LATTICE_RINGS = {source: (lambda source=source: parse_source(source, 0, DEFAULT_TOL)[0]) for source in verify.battery_sources(large=True)}
LATTICE_RINGS.update({f"su2:{k}": (lambda k=k: su2_fusion_ring(k)) for k in (2, 3, 4, 6, 8)})
LATTICE_RINGS.update({f"hi:{n}": (lambda n=n: haagerup_izumi_ring(n)) for n in (3, 4)})
LATTICE_RINGS.update(
    {
        "su2:2*su2:2": lambda: deligne_product(su2_fusion_ring(2), su2_fusion_ring(2)),
        "su2:4*su2:4": lambda: deligne_product(su2_fusion_ring(4), su2_fusion_ring(4)),
        "hi:3*su2:3": lambda: deligne_product(haagerup_izumi_ring(3), su2_fusion_ring(3)),
        "su2:2^3": lambda: deligne_product(
            deligne_product(su2_fusion_ring(2), su2_fusion_ring(2)), su2_fusion_ring(2)
        ),
    }
)


def subalgebras(ring, B):
    """The subalgebra of every subcategory of the ring, in enumeration order."""
    subs = enumerate_subcategories(ring)
    return list(zip(subs, subalgebras_of(subs, B)))


@pytest.fixture(scope="module")
def s3_subalgebras(s3_ring, s3_blocks):
    """Subalgebras of the adjoint algebra of Rep(S3), keyed by subcategory."""
    return {D.indices: L for D, L in subalgebras(s3_ring, s3_blocks)}


@pytest.fixture(scope="module")
def s3_table(s3_ring, s3_blocks):
    return build_lattice(s3_ring, s3_blocks)


@pytest.fixture(scope="module")
def vec_s3_table(vec_s3_ring, vec_s3_blocks):
    return build_lattice(vec_s3_ring, vec_s3_blocks)


def product_and_intersection(table, a, b):
    """The entries of the product (the meet) and of the intersection (the
    join) of the subalgebras of entries a and b."""
    x, y = table.entries.index(a), table.entries.index(b)
    meets, joins = table.meets_and_joins(np.array([x]), np.array([y]))
    return table.entries[meets[0]], table.entries[joins[0]]


def dim_inequality(table, a, b):
    """(dim(LM), dim(L) dim(M) / dim(L n M), whether the raw products of the
    two subcategories agree in both orders) for entries a and b."""
    product, intersection = product_and_intersection(table, a, b)
    lhs = product.subalgebra.dim_l
    rhs = a.subalgebra.dim_l * b.subalgebra.dim_l / intersection.subalgebra.dim_l
    A, B = a.subcategory.indices, b.subcategory.indices
    N = table.ring.N
    ab, ba = (np.any(N[np.ix_(X, Y)] > 0, axis=(0, 1)) for X, Y in ((A, B), (B, A)))
    return lhs, rhs, np.array_equal(ab, ba)


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
        for _D, L in subalgebras(vec_s3_ring, vec_s3_blocks):
            assert 0 in L.rows[0]


class TestEpsilonAndRestrict:
    def test_epsilon_full(self, s3_ring, s3_subalgebras):
        eps = epsilon_L(s3_subalgebras[(0,)])
        assert np.allclose(eps.coeffs, chi(s3_ring, 0).coeffs)

    def test_epsilon_unit_subalgebra(self, s3_ring, s3_subalgebras):
        eps = epsilon_L(s3_subalgebras[(0, 1, 2)])
        assert np.allclose(eps.coeffs, cointegral(s3_ring).coeffs)

    def test_epsilon_a3(self, s3_blocks, s3_subalgebras):
        # All blocks of rep:symmetric:3 have m = 1, so adapting leaves the units.
        L = s3_subalgebras[(0, 1)]
        expected = L.base.blocks[0].units[0, 0] + L.base.blocks[2].units[0, 0]
        assert np.allclose(epsilon_L(L).coeffs, expected)

    def test_restrict_unit(self, s3_ring, s3_subalgebras):
        L = s3_subalgebras[(0, 1)]
        out = restrict(chi(s3_ring, 0), L)
        assert np.allclose(out.coeffs, epsilon_L(L).coeffs)

    def test_restrict_rho_to_a3(self, s3_ring, s3_subalgebras):
        # chi_rho = 2 F^e + 0 F^transp - F^3cyc, so restriction to the
        # A3 subalgebra keeps 2 F^e - F^3cyc, which is not 2 eps_L
        L = s3_subalgebras[(0, 1)]
        out = restrict(chi(s3_ring, 2), L)
        expected = 2 * L.base.blocks[0].units[0, 0] - L.base.blocks[2].units[0, 0]
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
        for D, L in subalgebras(vec_s3_ring, vec_s3_blocks):
            assert subcategory_from_subalgebra(L).indices == D.indices

    def test_dimension_product(self, vec_s3_ring, vec_s3_blocks):
        for D, L in subalgebras(vec_s3_ring, vec_s3_blocks):
            assert abs(L.dim_l * D.fpdim - vec_s3_ring.global_dim) < 1e-6


class TestPartition:
    def test_whole_algebra_gives_singletons(self, s3_table):
        assert s3_table.entry((0,)).partition == ((0,), (1,), (2,))

    def test_unit_subalgebra_gives_one_class(self, s3_table):
        assert s3_table.entry((0, 1, 2)).partition == ((0, 1, 2),)

    def test_a3_partition(self, s3_table):
        # oracle: primitive idempotents of the center of the A3 group algebra
        assert s3_table.entry((0, 1)).partition == ((0, 1), (2,))

    def test_a3_unit_idempotent(self, s3_ring, s3_table):
        L = s3_table.entry((0, 1)).subalgebra
        part = s3_table.entry((0, 1)).partition
        ell0 = np.zeros(3, dtype=complex)
        ell0[list(part[0])] = 1
        assert np.allclose(ell0, [1, 1, 0])  # E_0 + E_sgn
        assert pairing(epsilon_L(L), CentralElement(s3_ring, ell0)) == pytest.approx(1)


class TestCeSums:
    def test_unit_subalgebra(self, s3_ring, s3_subalgebras):
        basis = s3_subalgebras[(0, 1, 2)].ce_sums
        assert len(basis) == 1
        assert np.allclose(basis[0], unit_central_element(s3_ring).coeffs)

    def test_whole_algebra(self, s3_subalgebras):
        assert len(s3_subalgebras[(0,)].ce_sums) == 3

    def test_a3_class_sums(self, s3_subalgebras):
        # oracle: central elements of kA3 = class sums of e and the 3-cycles,
        # with idempotent coordinates (1,1,1) and (2,2,-1)
        basis = s3_subalgebras[(0, 1)].ce_sums
        assert len(basis) == 2
        span = orthonormal_basis(list(basis))
        expected = orthonormal_basis([np.array([1.0, 1, 1]), np.array([2.0, 2, -1])])
        assert _span_contains(span, expected, DEFAULT_TOL)
        assert _span_contains(expected, span, DEFAULT_TOL)


def dropped_row(L, j, s):
    """L with row s of block j unselected, and its ce_dim and selected class
    sums lowered to match."""
    rows = list(L.rows)
    rows[j] = tuple(x for x in rows[j] if x != s)
    smaller = dataclasses.replace(L, rows=tuple(rows), ce_dim=L.ce_dim - L.base.blocks[j].m)
    return dataclasses.replace(smaller, ce_sums=L.ce_sums[smaller.selected[L.selected]])


def checked_partition(table, indices, L):
    """``_checked_partitions`` of the table's entry for ``indices`` alone, with L as its subalgebra."""
    k = table.entries.index(table.entry(indices))
    D = table.entries[k].subcategory
    (partition,) = subalg._checked_partitions([D], [L], subalg._projector(L)[None], table.cosets[k : k + 1], DEFAULT_TOL)
    return partition


class TestPartitionDetectsBadSelection:
    # A dropped row leaves the projector as it was, so the round trip and
    # the closed forms pass; the count of right cosets sees it.
    @pytest.mark.parametrize("drop", [(2, 0), (0, 0)])
    def test_dropped_row(self, s3_table, drop):
        L = dropped_row(s3_table.entry((0,)).subalgebra, *drop)
        with pytest.raises(PartitionMismatch, match=r"ce_dim is 2, \(0,\) has 3 right cosets"):
            checked_partition(s3_table, (0,), L)

    @pytest.mark.parametrize("s", [0, 1])
    def test_dropped_row_of_a_matrix_block(self, vec_s3_table, s):
        L = vec_s3_table.entry((0,)).subalgebra
        assert L.base.blocks[2].m == 2 and L.rows[2] == (0, 1)
        with pytest.raises(PartitionMismatch, match=r"ce_dim is 4, \(0,\) has 6 right cosets"):
            checked_partition(vec_s3_table, (0,), dropped_row(L, 2, s))

    def test_dropped_row_keeping_ce_dim(self, s3_table):
        L = s3_table.entry((0,)).subalgebra
        L = dataclasses.replace(dropped_row(L, 2, 0), ce_dim=L.ce_dim)
        with pytest.raises(PartitionMismatch, match=r"dimension 2, \(0,\) has 3 right cosets"):
            checked_partition(s3_table, (0,), L)


class TestBlockPartitionIndicators:
    def test_class_sum_not_constant_on_a_coset(self, s3_table):
        # span{(1, 1, 0), (1, 0, 1)} has the dimension of the A3 partition
        # ((0, 1), (2,)) and holds the indicator of (0, 1), but (1, 0, 1)
        # differs on the coset (0, 1).
        L = s3_table.entry((0, 1)).subalgebra
        sums = np.array([[1.0, 1, 0], [1.0, 0, 1]], dtype=complex)
        with pytest.raises(PartitionMismatch, match=r"class sum of \(0, 1\) is not constant"):
            checked_partition(s3_table, (0, 1), dataclasses.replace(L, ce_sums=sums))


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


class TestReferenceGroupEqualRows:
    """The clustering kept as the partition's reference follows the per-row rule."""

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
        assert reference_group_equal_rows(rows, tol) == expected
        assert reference_group_equal_rows(rows.real.copy(), tol) == group_equal_rows_reference(
            rows.real.copy(), tol
        )

    def test_restriction_rows_of_a_table(self, vec_s3_table):
        for e in vec_s3_table.entries:
            rows = subalg._normalized_restrictions(e.subalgebra).T
            assert reference_group_equal_rows(rows, subalg.PARTITION_TOL) == (
                group_equal_rows_reference(rows, subalg.PARTITION_TOL)
            )


@pytest.fixture(scope="module")
def s3_live(s3_ring, s3_blocks):
    """The Rep(S3) table with each entry's live arrays (``live_table``)."""
    return live_table(s3_ring, s3_blocks)


def pi_down_all(z, live, keys):
    """Projections of the central element z onto the central subspaces of
    the entries of some subcategories, one row per subcategory."""
    table, arrays = live
    sums = np.array([arrays[k][1] for k in keys])
    keep = np.array([table.entry(k).subalgebra.selected for k in keys])
    return subalg._pi_down_rows(sums, keep, z.coeffs)


class TestPiDown:
    def test_unit_retained(self, s3_ring, s3_live):
        out = pi_down_all(unit_central_element(s3_ring), s3_live, [(0,), (0, 1), (0, 1, 2)])
        assert np.allclose(out, 1.0)

    def test_integral_projects_to_scaled_unit_idempotent(self, s3_ring, s3_live):
        # projection of the integral onto the A3 subalgebra is half the
        # unit idempotent: (1/6)(K_e + K_3cyc) = (1/2)(E_0 + E_sgn); onto
        # the whole algebra it is the integral, onto the unit subalgebra
        # (1/6) times the unit
        keys = [(0, 1), (0,), (0, 1, 2)]
        out = pi_down_all(integral(s3_ring), s3_live, keys)
        assert np.allclose(out, [[0.5, 0.5, 0], [1, 0, 0], [1 / 6, 1 / 6, 1 / 6]])

    def test_whole_algebra_identity(self, s3_ring, s3_live):
        rng = np.random.default_rng(11)
        z = CentralElement(s3_ring, rng.standard_normal(3) + 1j * rng.standard_normal(3))
        out = pi_down_all(z, s3_live, [(0,)])
        assert np.allclose(out[0], z.coeffs)


class TestLatticeOps:
    def test_product_with_unit_subalgebra(self, s3_table):
        one = s3_table.entry((0, 1, 2))  # the unit subalgebra
        for e in s3_table.entries:
            product, _ = product_and_intersection(s3_table, e, one)
            assert product.subalgebra.rows == e.subalgebra.rows

    def test_intersect_with_whole(self, s3_table):
        whole = s3_table.entry((0,))
        for e in s3_table.entries:
            _, intersection = product_and_intersection(s3_table, e, whole)
            assert intersection.subalgebra.rows == e.subalgebra.rows

    def test_vec_s3_reflection_pair(self, vec_s3_table):
        a, b = [e for e in vec_s3_table.entries if len(e.subcategory) == 2][:2]
        product, intersection = product_and_intersection(vec_s3_table, a, b)
        assert product.subalgebra.dim_l == pytest.approx(6)
        assert intersection.subalgebra.dim_l == pytest.approx(1)

    def test_rep_s3_idempotence_and_nesting(self, s3_table):
        a3 = s3_table.entry((0, 1))
        s3 = s3_table.entry((0,))  # the whole group algebra
        assert product_and_intersection(s3_table, a3, a3)[0] is a3
        assert product_and_intersection(s3_table, a3, s3)[1].subalgebra.dim_l == pytest.approx(3)

    @pytest.mark.parametrize("name", sorted(LATTICE_RINGS))
    def test_meet_join_identities(self, name):
        # Order meets and joins against the index-set meet and the closure of
        # the union; the partition join against the join's cosets, whose
        # class count is the float intersection of the two central subspaces.
        ring = LATTICE_RINGS[name]()
        table = build_lattice(ring, wedderburn.compute_blocks(ring))
        entries = table.entries
        a, b = np.triu_indices(len(entries))
        meets, joins = table.meets_and_joins(a, b)
        for x, y, meet, join in zip(a, b, meets, joins):
            A, B = entries[x].subcategory, entries[y].subcategory
            assert entries[meet].subcategory.indices == subcategory_meet(A, B).indices
            assert entries[join].subcategory.indices == subcategory_join(A, B).indices
        ids = subalg._coset_joins(table.cosets, a, b)
        assert np.array_equal(ids, table.cosets[joins])
        classes = [len(set(row)) for row in ids.tolist()]
        spans = [ce_span(e.subalgebra) for e in entries]
        ce_dim = np.array([e.subalgebra.ce_dim for e in entries])
        assert classes == intersection_dims(spans, a, b).tolist() == ce_dim[joins].tolist()


# The rings of the lookup test: LATTICE_RINGS and (Z_2)^4, with 67 subcategories.
LOOKUP_RINGS = dict(LATTICE_RINGS)
LOOKUP_RINGS["vec:(Z_2)^4"] = lambda: parse_source("vec:product:" + "*".join(["cyclic:2"] * 4), 0, DEFAULT_TOL)[0]


@pytest.mark.parametrize("name", sorted(LOOKUP_RINGS))
def test_lookup_matches_the_order_search(name):
    # Every pair has a meet and a join in a complete table, and the exact
    # lookup lands where the inclusion order's search does, whether the
    # pairs come all at once or one per call.
    ring = LOOKUP_RINGS[name]()
    table = build_lattice(ring, wedderburn.compute_blocks(ring))
    a, b = np.triu_indices(len(table.entries))
    expected = np.array(reference_meets_and_joins(table, a, b))
    assert (expected >= 0).all()
    assert np.array_equal(table.meets_and_joins(a, b), expected)
    one_pair = [table.meets_and_joins(a[k : k + 1], b[k : k + 1]) for k in range(len(a))]
    assert np.array_equal(np.hstack(one_pair), expected)


@pytest.mark.parametrize("name", sorted(LATTICE_RINGS))
def test_entry_matches_a_dict_over_the_entries(name):
    # entry() reads the membership row its indices mark; it agrees with a
    # dict keyed by each entry's indices, one set per call or all at once,
    # and finds nothing for a set that is no subcategory, is not sorted or
    # holds an index outside the ring.
    ring = LATTICE_RINGS[name]()
    table = build_lattice(ring, wedderburn.compute_blocks(ring))
    by_indices = {e.subcategory.indices: e for e in table.entries}
    r = ring.rank
    sets = [*by_indices, (), tuple(range(1, r)), (r,), (0, r), (-1,), (0, 0)]
    if r > 1:
        sets.append((1, 0))
    for indices in sets:
        assert table.entry(indices) is by_indices.get(indices), indices
    assert table.entries_of(sets) == [by_indices.get(indices) for indices in sets]
    assert table.entries_of([]) == []


def relabelled(ring, p):
    """The ring whose simple i is simple p[i] of ``ring``; p[0] = 0."""
    back = np.argsort(p)
    dual = back[np.array(ring.dual)[p]]
    return fusion_ring.build_ring([ring.labels[x] for x in p], ring.N[np.ix_(p, p, p)], dual.tolist())


RELABEL_RINGS = {
    "vec:symmetric:4": lambda: parse_source("vec:symmetric:4", 0, DEFAULT_TOL)[0],
    "rep:symmetric:4": lambda: parse_source("rep:symmetric:4", 0, DEFAULT_TOL)[0],
    "hi:3": lambda: haagerup_izumi_ring(3),
    "su2:2*su2:2": lambda: deligne_product(su2_fusion_ring(2), su2_fusion_ring(2)),
}


@pytest.mark.parametrize("name", sorted(RELABEL_RINGS))
def test_tables_commute_with_relabelling(name):
    # Permuting the simples, with the unit fixed, permutes the table: the
    # subcategories, their cosets and subalgebras, the meets and the joins.
    ring = RELABEL_RINGS[name]()
    table = build_lattice(ring, wedderburn.compute_blocks(ring))
    rng = np.random.default_rng(0)
    for _ in range(3):
        p = np.concatenate(([0], 1 + rng.permutation(ring.rank - 1)))
        other = relabelled(ring, p)
        moved = build_lattice(other, wedderburn.compute_blocks(other))
        # Position in ``table`` of each entry of ``moved``.
        old = np.array([
            table.entries.index(table.entry(tuple(sorted(p[list(e.subcategory.indices)].tolist()))))
            for e in moved.entries
        ])
        assert sorted(old.tolist()) == list(range(len(table.entries)))
        for e, o in zip(moved.entries, old):
            f = table.entries[o]
            assert {frozenset(p[list(c)].tolist()) for c in e.partition} == set(map(frozenset, f.partition))
            assert e.subalgebra.ce_dim == f.subalgebra.ce_dim
            assert e.subalgebra.dim_l == pytest.approx(f.subalgebra.dim_l, rel=1e-6)
        a, b = np.triu_indices(len(moved.entries))
        meets, joins = moved.meets_and_joins(a, b)
        assert np.array_equal(np.array([old[meets], old[joins]]), table.meets_and_joins(old[a], old[b]))
        assert all(c.passed for c in verify.verify_ring(other))


def test_pointwise_products_of_central_subspaces_miss_the_meet():
    # The product of two subalgebras is not the span of the pointwise
    # products of their central subspaces beyond groups.  In
    # SU(2)_2 x SU(2)_2, A = {(0,0), (0,2)} and the diagonal
    # B = {(0,0), (2,2)} meet in the trivial subcategory, whose central
    # subspace is everything, yet the products span one dimension less.
    ring = deligne_product(su2_fusion_ring(2), su2_fusion_ring(2))
    table = build_lattice(ring, wedderburn.compute_blocks(ring))
    A, B = table.entry((0, 2)), table.entry((0, 8))
    QA, QB = ce_span(A.subalgebra), ce_span(B.subalgebra)
    assert (QA.shape[1], QB.shape[1]) == (6, 5)
    products = (QA[:, :, None] * QB[:, None, :]).reshape(ring.rank, -1)
    assert np.linalg.matrix_rank(products, tol=1e-6) == 8
    meets, _ = table.meets_and_joins(np.array([table.entries.index(A)]), np.array([table.entries.index(B)]))
    meet = table.entries[meets[0]]
    assert meet.subcategory.indices == (0,) and meet.subalgebra.ce_dim == 9


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


def trace_sum_residuals(table):
    """Cointegral trace-sum residual of every entry, keyed by subcategory."""
    _, block = live_block(table.ring, table.blocks)
    res = subalg._cointegral_trace_sums(block)
    return {e.subcategory.indices: r for e, r in zip(block.entries, res)}


class TestCointegralTraceSum:
    def test_trivial_subcategory(self, s3_ring, s3_table):
        D = subcategory_closure(s3_ring, [])
        assert trace_sum_residuals(s3_table)[D.indices] < 1e-8

    def test_rep_c2_value(self, s3_ring, s3_table):
        # diagonal coefficients of F^e + F^3cyc weighted by summand dims:
        # 1*1 + 1*2 = 3 = 6/2
        D = subcategory_closure(s3_ring, [1])
        assert trace_sum_residuals(s3_table)[D.indices] < 1e-8

    def test_whole_category(self, s3_ring, s3_table):
        D = subcategory_closure(s3_ring, [2])
        assert trace_sum_residuals(s3_table)[D.indices] < 1e-8


class TestRestrictionPairing:
    def test_pairing_preserved_on_ce_elements(self, s3_ring, s3_subalgebras):
        for L in s3_subalgebras.values():
            for z in (CentralElement(s3_ring, v) for v in L.ce_sums):
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
                P = subalg._projector(e.subalgebra)
                assert np.allclose(P @ P, P)
                assert np.trace(P) == pytest.approx(e.subalgebra.ce_dim)

    def test_restriction_reads_only_the_projector(
        self, s3_ring, s3_blocks, s3_subalgebras, monkeypatch
    ):
        def no_expand(self, coeffs):
            raise AssertionError("expand called")

        monkeypatch.setattr(wedderburn.BlockStructure, "expand", no_expand)
        L = s3_subalgebras[(0, 1)]
        assert np.allclose(restrict(chi(s3_ring, 0), L).coeffs, epsilon_L(L).coeffs)
        assert subcategory_from_subalgebra(L).indices == (0, 1)
        assert build_lattice(s3_ring, s3_blocks).entry((0, 1)).partition == ((0, 1), (2,))


class TestVerifyReadsTable:
    def test_correspondence_computed_once(self, vec_s3_ring, s3_group, monkeypatch):
        # One stacked adaptation covers the cointegrals of all subcategories.
        calls = {"adapt": [], "blocks": 0}
        real_adapt = subalg._adapt_stack
        real_blocks = wedderburn.compute_blocks

        def counted_adapt(B, coeffs, tol):
            calls["adapt"].append(len(coeffs))
            return real_adapt(B, coeffs, tol)

        def counted_blocks(*args, **kwargs):
            calls["blocks"] += 1
            return real_blocks(*args, **kwargs)

        monkeypatch.setattr(subalg, "_adapt_stack", counted_adapt)
        monkeypatch.setattr(wedderburn, "_adapt_stack", counted_adapt)
        for mod in (wedderburn, subalg, groups, verify):
            monkeypatch.setattr(mod, "compute_blocks", counted_blocks, raising=False)
        checks = verify.verify_ring(vec_s3_ring, group=s3_group, kind="vec")
        assert all(c.passed for c in checks)
        n_subcats = len(enumerate_subcategories(vec_s3_ring))
        assert calls == {"adapt": [n_subcats], "blocks": 1}

    @pytest.mark.parametrize("source", ["vec:symmetric:4", "vec:alternating:5"])
    def test_one_adaptation_over_all_row_blocks(self, monkeypatch, source):
        # The per-entry checks run on the row blocks of the one streamed
        # table: one stacked adaptation, however many blocks there are.
        ring = parse_source(source, 0, DEFAULT_TOL)[0]
        adapted, blocks = [], []
        real_adapt, real_residuals = subalg._adapt_stack, verify._entry_residuals

        def counted_adapt(B, coeffs, tol):
            adapted.append(len(coeffs))
            return real_adapt(B, coeffs, tol)

        def counted_residuals(ring, block):
            blocks.append(len(block.entries))
            return real_residuals(ring, block)

        monkeypatch.setattr(subalg, "_adapt_stack", counted_adapt)
        monkeypatch.setattr(verify, "_entry_residuals", counted_residuals)
        assert all(c.passed for c in verify.verify_ring(ring))
        n_subcats = len(enumerate_subcategories(ring))
        assert adapted == [n_subcats] and sum(blocks) == n_subcats and len(blocks) >= 10

    def test_missing_meet_fails_the_check(self, vec_s3_ring, monkeypatch):
        def without_trivial(t):
            return dataclasses.replace(
                t,
                entries=t.entries[1:],
                membership=t.membership[1:],
                inside=t.inside[1:, 1:],
                cosets=t.cosets[1:],
            )

        patch_table(monkeypatch, without_trivial)
        checks = {c.name: c for c in verify.verify_ring(vec_s3_ring)}
        assert not checks["meet and join correspondence"].passed
