import numpy as np
import pytest

from fuscat.groups import (
    BadTable,
    NotNormal,
    OracleMismatch,
    UnknownBuiltin,
    build_group,
    character_table,
    crosscheck_rep,
    crosscheck_vec,
    normal_subgroups,
    parse_group,
    rep_fusion_ring,
    subgroups,
    trivial_action_subcategory,
    vec_fusion_ring,
)
from fuscat.subalg import build_lattice
from fuscat.wedderburn import compute_blocks


def lattice_of(ring):
    return build_lattice(ring, compute_blocks(ring))


class TestParse:
    def test_cyclic_2(self):
        G = parse_group("cyclic:2")
        assert G.order == 2
        assert len(G.classes) == 2

    def test_symmetric_3(self):
        G = parse_group("symmetric:3")
        assert G.order == 6
        assert sorted(len(c) for c in G.classes) == [1, 2, 3]
        assert G.classes[0] == (G.identity,)

    def test_dihedral_orders(self):
        assert parse_group("dihedral:8").order == 8
        assert parse_group("dihedral:10").order == 10

    def test_quaternion(self):
        G = parse_group("quaternion:8")
        assert G.order == 8
        assert sorted(len(c) for c in G.classes) == [1, 1, 2, 2, 2]

    def test_product(self):
        G = parse_group("product:cyclic:2*cyclic:3")
        assert G.order == 6
        assert len(normal_subgroups(G)) == len(subgroups(G))  # abelian

    def test_product_unicode_separator(self):
        assert parse_group("product:cyclic:2×cyclic:2").order == 4

    def test_unknown(self):
        with pytest.raises(UnknownBuiltin):
            parse_group("sporadic:monster")

    def test_bad_table_rejected(self):
        # break associativity in a 3-element table
        table = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
        table[2][2] = 2
        with pytest.raises(BadTable):
            build_group("broken", ["e", "a", "b"], table)

    def test_missing_inverse_rejected(self):
        table = [[0, 1], [1, 1]]
        with pytest.raises(BadTable):
            build_group("broken", ["e", "a"], table)


class TestCharacterTable:
    def test_c2(self):
        T = character_table(parse_group("cyclic:2"))
        assert np.allclose(T.rows, [[1, 1], [1, -1]])
        assert T.degrees == (1, 1)

    def test_s3_classical_values(self, s3_group):
        T = character_table(s3_group)
        assert T.degrees == (1, 1, 2)
        # classes ordered (e, 3-cycles, transpositions)
        assert np.allclose(T.rows[0], [1, 1, 1])
        assert np.allclose(T.rows[1], [1, 1, -1])
        assert np.allclose(T.rows[2], [2, -1, 0])

    def test_q8_degrees(self):
        T = character_table(parse_group("quaternion:8"))
        assert sorted(T.degrees) == [1, 1, 1, 1, 2]

    def test_d5_irrational_values(self):
        T = character_table(parse_group("dihedral:10"))
        assert sorted(T.degrees) == [1, 1, 2, 2]
        # the 2-dimensional characters take values 2cos(2 pi k/5), golden-ratio
        # related irrationals
        golden = (np.sqrt(5) - 1) / 2
        vals = {round(float(x.real), 6) for x in np.asarray(T.rows).ravel()}
        assert round(float(golden), 6) in vals or round(float(-golden - 1), 6) in vals

    def test_a4_has_complex_characters(self):
        T = character_table(parse_group("alternating:4"))
        assert sorted(T.degrees) == [1, 1, 1, 3]
        assert np.max(np.abs(np.asarray(T.rows).imag)) > 0.5


class TestRepRing:
    def test_c2_group_ring(self):
        ring = rep_fusion_ring(parse_group("cyclic:2"))
        assert ring.N[1, 1].tolist() == [1, 0]

    def test_s3_rho_squared(self, s3_group):
        ring = rep_fusion_ring(s3_group)
        assert ring.N[2, 2].tolist() == [1, 1, 1]
        assert np.allclose(ring.dims, [1, 1, 2])

    def test_c3_dual_swaps_conjugates(self):
        ring = rep_fusion_ring(parse_group("cyclic:3"))
        assert ring.dual[0] == 0
        assert sorted(ring.dual[1:]) == [1, 2]
        assert ring.dual[1] == 2  # the two nontrivial characters are conjugate

    def test_always_commutative(self, s3_group):
        assert rep_fusion_ring(s3_group).commutative
        assert rep_fusion_ring(parse_group("quaternion:8")).commutative


class TestVecRing:
    def test_shape(self, s3_group):
        ring = vec_fusion_ring(s3_group)
        assert ring.rank == 6
        assert np.allclose(ring.dims, 1)
        assert abs(ring.global_dim - 6) < 1e-9

    def test_s3_noncommutative(self, vec_s3_ring):
        assert not vec_s3_ring.commutative

    def test_c2_matches_rep_ring(self):
        G = parse_group("cyclic:2")
        vec = vec_fusion_ring(G)
        rep = rep_fusion_ring(G)
        assert np.array_equal(vec.N, rep.N)
        assert vec.dual == rep.dual

    def test_abelian_commutative(self):
        assert vec_fusion_ring(parse_group("cyclic:6")).commutative


class TestSubgroups:
    def test_s3(self, s3_group):
        subs = subgroups(s3_group)
        assert len(subs) == 6
        assert sorted(len(H) for H in subs) == [1, 2, 2, 2, 3, 6]
        assert len(normal_subgroups(s3_group)) == 3

    def test_q8_all_normal(self):
        G = parse_group("quaternion:8")
        assert len(subgroups(G)) == 6
        assert len(normal_subgroups(G)) == 6

    def test_c4(self):
        G = parse_group("cyclic:4")
        subs = subgroups(G)
        assert len(subs) == 3
        assert normal_subgroups(G) == subs

    def test_closure_property(self, s3_group):
        for H in subgroups(s3_group):
            members = set(H)
            for a in H:
                assert s3_group.inverse[a] in members
                for b in H:
                    assert s3_group.mul(a, b) in members


class TestTrivialAction:
    def test_trivial_subgroup(self, s3_group):
        D = trivial_action_subcategory(s3_group, (s3_group.identity,))
        assert D.indices == (0, 1, 2)

    def test_whole_group(self, s3_group):
        D = trivial_action_subcategory(s3_group, tuple(range(6)))
        assert D.indices == (0,)

    def test_a3_kernel(self, s3_group):
        a3 = next(H for H in normal_subgroups(s3_group) if len(H) == 3)
        D = trivial_action_subcategory(s3_group, a3)
        assert D.indices == (0, 1)

    def test_not_normal_rejected(self, s3_group):
        reflection = next(H for H in subgroups(s3_group) if len(H) == 2)
        with pytest.raises(NotNormal):
            trivial_action_subcategory(s3_group, reflection)


class TestCrosschecks:
    def test_rep_s3(self, s3_group):
        report = crosscheck_rep(s3_group, lattice_of(rep_fusion_ring(s3_group)))
        assert report["normal_subgroups"] == 3
        assert report["subcategories"] == 3
        assert sorted(round(e["subalgebra_dim"]) for e in report["entries"]) == [1, 3, 6]
        assert report["mismatches"] == []

    def test_vec_s3(self, s3_group):
        report = crosscheck_vec(s3_group, lattice_of(vec_fusion_ring(s3_group)))
        assert report["subgroups"] == 6
        assert sorted(round(e["subalgebra_dim"]) for e in report["entries"]) == [1, 2, 3, 3, 3, 6]

    def test_rep_c2(self):
        G = parse_group("cyclic:2")
        report = crosscheck_rep(G, lattice_of(rep_fusion_ring(G)))
        assert report["normal_subgroups"] == 2

    def test_rep_q8(self):
        G = parse_group("quaternion:8")
        report = crosscheck_rep(G, lattice_of(rep_fusion_ring(G)))
        assert report["normal_subgroups"] == 6
        assert report["mismatches"] == []

    def test_vec_a4(self):
        G = parse_group("alternating:4")
        report = crosscheck_vec(G, lattice_of(vec_fusion_ring(G)))
        assert report["subgroups"] == 10
