import ast
import dataclasses
import inspect
import re
import tracemalloc

import numpy as np
import pytest

from fuscat import groups
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
from fuscat.linalg import common_eigenbasis
from fuscat.subalg import build_lattice
from fuscat.verify import battery_groups
from fuscat.wedderburn import compute_blocks

from conftest import reference_group


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

    @pytest.mark.parametrize("source", ["symmetric:4", "product:dihedral:8*cyclic:3"])
    def test_associativity_failure_in_a_later_block(self, monkeypatch, source):
        # Swapping two products in one row keeps the identity and the
        # inverses but breaks associativity at every i other than the
        # identity (index 0), so with one row of i per block the first
        # block passes and a later one fails, at the (i, j, k) that the
        # whole |G|^3 comparison finds first.
        G = parse_group(source)
        table = np.array(G.table)
        row = table[3]
        b, c = np.flatnonzero(row != G.identity)[[2, 5]]
        row[[b, c]] = row[[c, b]]
        lhs, rhs = table[table, :], table[:, table]
        first = tuple(int(x) for x in np.argwhere(lhs != rhs)[0])
        assert first[0] > 0 and np.array_equal(lhs[0], rhs[0])
        n = G.order
        for rows in (1, 2, n - 1, n):
            monkeypatch.setattr(groups, "_ASSOC_BLOCK_ENTRIES", rows * n * n)
            with pytest.raises(BadTable, match=re.escape("associativity fails at ({},{},{})".format(*first))):
                build_group("broken", G.elements, table)

    def test_associativity_check_forms_no_cubic_array(self):
        tracemalloc.start()
        try:
            G = parse_group("product:symmetric:5*cyclic:2")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Two (240, 240, 240) int64 slabs took 225 MB; a block of rows, 24 MB.
        assert G.order == 240 and peak < 64 * 2**20

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
        with pytest.raises(NotNormal, match=f"^{re.escape(str(reflection))} is not a normal subgroup$"):
            trivial_action_subcategory(s3_group, reflection)

    def test_out_of_range_rejected(self, s3_group):
        with pytest.raises(ValueError, match="subgroup indices out of range"):
            trivial_action_subcategory(s3_group, (0, 6))


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

    def test_vec_partition_must_be_the_cosets_gh(self, s3_group):
        # The left cosets D⊗x, read from N, differ from the right cosets x⊗D
        # for an order-2 subgroup of S3, which is not normal.
        table = lattice_of(vec_fusion_ring(s3_group))
        e = next(e for e in table.entries if len(e.subcategory) == 2)
        left = np.any(table.ring.N[list(e.subcategory.indices)] > 0, axis=0)  # [x, y]: y ⊂ d⊗x
        wrong = tuple(sorted({tuple(np.flatnonzero(row).tolist()) for row in left}))
        assert wrong != e.partition
        bad = dataclasses.replace(e, partition=wrong)
        entries = tuple(bad if f is e else f for f in table.entries)
        with pytest.raises(OracleMismatch, match="differs from the cosets gH"):
            crosscheck_vec(s3_group, dataclasses.replace(table, entries=entries))

    def test_rep_partition_must_follow_clifford_theory(self, s3_group):
        # Rep(S3/A3) must split the simples as ((0, 1), (2,)), not as singletons.
        table = lattice_of(rep_fusion_ring(s3_group))
        e = table.entry((0, 1))
        assert e.partition == ((0, 1), (2,))
        bad = dataclasses.replace(e, partition=((0,), (1,), (2,)))
        entries = tuple(bad if f is e else f for f in table.entries)
        with pytest.raises(OracleMismatch, match="partition for N="):
            crosscheck_rep(s3_group, dataclasses.replace(table, entries=entries))

    @pytest.mark.parametrize("skew", ["random", "repeated"])
    def test_rep_central_subspace_must_be_the_class_sums_in_n(self, skew):
        # Random class sums leave the span of the class sums in N; one class
        # sum repeated in place of another stays inside it, one direction short.
        G = parse_group("symmetric:4")
        table = lattice_of(rep_fusion_ring(G))
        e = next(e for e in table.entries if 1 < e.subalgebra.ce_dim < table.ring.rank)
        L = e.subalgebra
        V = L.ce_sums.copy()
        if skew == "random":
            V = np.random.default_rng(0).standard_normal(V.shape) + 0j
        else:
            V[-1] = V[0]
        bad = dataclasses.replace(e, subalgebra=dataclasses.replace(L, ce_sums=V))
        entries = tuple(bad if f is e else f for f in table.entries)
        with pytest.raises(OracleMismatch, match=r"central subspace for N=\(.*\) is not the class sums in N"):
            crosscheck_rep(G, dataclasses.replace(table, entries=entries))


@pytest.mark.parametrize(
    "kind, name", [("rep", "alternating:5"), ("vec", "alternating:5"), ("rep", "symmetric:5")]
)
def test_partition_oracles_beyond_the_battery(kind, name):
    # Clifford theory and the cosets gH, from the character table and the
    # multiplication table alone, give every partition of the table.
    G = parse_group(name)
    ring, check = {"rep": (rep_fusion_ring, crosscheck_rep), "vec": (vec_fusion_ring, crosscheck_vec)}[kind]
    assert check(G, lattice_of(ring(G)))["mismatches"] == []


@pytest.mark.parametrize("name", battery_groups(large=True) + ["alternating:5"])
def test_normal_subgroups_are_conjugation_closed_subgroups(name):
    G = parse_group(name)
    t = G.table

    def conjugation_closed(H):
        members = set(H)
        return all(int(t[t[g, h], G.inverse[g]]) in members for g in range(G.order) for h in H)

    assert normal_subgroups(G) == [H for H in subgroups(G) if conjugation_closed(H)]


def _reference_closure(G, seed):
    """Subgroup generated by the seed, one element product at a time."""
    members = {G.identity, *seed}
    while True:
        grown = members | {G.mul(a, b) for a in members for b in members}
        if grown == members:
            return frozenset(members)
        members = grown


def _reference_extension(G, pieces):
    """Every closure of unions of the pieces, one candidate at a time."""
    trivial = _reference_closure(G, ())
    found, frontier = {trivial}, [trivial]
    while frontier:
        nxt = []
        for H in frontier:
            for piece in pieces:
                if not set(piece) <= H:
                    H2 = _reference_closure(G, H | set(piece))
                    if H2 not in found:
                        found.add(H2)
                        nxt.append(H2)
        frontier = nxt
    return sorted((tuple(sorted(H)) for H in found), key=lambda h: (len(h), h))


class TestSubgroupKernel:
    @pytest.mark.parametrize("name", battery_groups(large=True) + ["cyclic:1", "alternating:5"])
    def test_matches_element_by_element_reference(self, name):
        G = parse_group(name)
        assert subgroups(G) == _reference_extension(G, [(g,) for g in range(G.order)])
        assert normal_subgroups(G) == _reference_extension(G, G.classes)

    @pytest.mark.parametrize(
        "name, n_subgroups, n_cyclic",
        [("symmetric:4", 30, 17), ("alternating:5", 59, 32), ("symmetric:5", 156, 67)],
    )
    def test_counts(self, name, n_subgroups, n_cyclic):
        G = parse_group(name)
        subs = subgroups(G)
        cyclic = {tuple(sorted(_reference_closure(G, (g,)))) for g in range(G.order)}
        assert len(subs) == n_subgroups
        assert len(cyclic) == n_cyclic
        assert cyclic <= set(subs)

    def test_independent_of_the_fusion_ring_closure(self):
        tree = ast.parse(inspect.getsource(groups))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {
            a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names
        }
        assert not names & {"_close_rows", "_fusion_hit", "_right_cosets", "_coset_tables", "support"}


def _reference_trivial_action(G, N, table):
    """Irreducibles whose average over N equals their degree, one element at a time."""
    class_of = {g: c for c, cls in enumerate(G.classes) for g in cls}
    return tuple(
        i
        for i, d in enumerate(table.degrees)
        if abs(sum(table.rows[i][class_of[h]] for h in N) / len(N) - d) <= 1e-7 * max(1, d)
    )


@pytest.mark.parametrize("name", battery_groups(large=True) + ["alternating:5", "symmetric:5"])
def test_trivial_action_matches_reference(name):
    G = parse_group(name)
    table = character_table(G)
    for N in normal_subgroups(G):
        assert trivial_action_subcategory(G, N).indices == _reference_trivial_action(G, N, table)


@pytest.mark.parametrize(
    "name",
    battery_groups(large=True) + ["alternating:5", "symmetric:5", "product:symmetric:5*cyclic:2"],
)
def test_builtin_groups_match_the_pairwise_reference(name):
    # The array constructors against the closure called once per pair.
    G = parse_group(name)
    ref = reference_group(name)
    assert G.elements == ref.elements
    assert np.array_equal(G.table, ref.table)
    assert G.identity == ref.identity
    assert G.inverse == ref.inverse
    assert G.classes == ref.classes


def _reference_class_constants(G):
    k = len(G.classes)
    a = np.zeros((k, k, k), dtype=int)
    for c, cls_c in enumerate(G.classes):
        for d, cls_d in enumerate(G.classes):
            for e, cls_e in enumerate(G.classes):
                a[c, d, e] = sum(G.mul(x, y) == cls_e[0] for x in cls_c for y in cls_d)
    return a


def _reference_vec_n(G):
    perm = list(range(G.order))
    perm[0], perm[G.identity] = perm[G.identity], perm[0]
    pos = {g: i for i, g in enumerate(perm)}
    N = np.zeros((G.order,) * 3, dtype=int)
    for i in range(G.order):
        for j in range(G.order):
            N[i, j, pos[G.mul(perm[i], perm[j])]] = 1
    return N


def _identity_moved(G):
    """G with its elements relabelled so that the identity is not at index 0."""
    sigma = np.roll(np.arange(G.order), -1)  # element x becomes x + 1 (mod |G|)
    table = np.empty_like(G.table)
    table[np.ix_(sigma, sigma)] = sigma[G.table]
    elements = [G.elements[x] for x in np.argsort(sigma)]
    return build_group(G.name, elements, table)


@pytest.mark.parametrize("name", battery_groups(large=True) + ["alternating:5"])
def test_class_constants_and_graded_ring_match_the_loops(name):
    G = parse_group(name)
    assert np.array_equal(groups._class_constants(G), _reference_class_constants(G))
    for H in (G, _identity_moved(G)):
        assert np.array_equal(vec_fusion_ring(H).N, _reference_vec_n(H))
    assert _identity_moved(G).identity == 1


def _reference_character_table(G, seed):
    """Rows and degrees one common eigenvector at a time, sorted by a key
    that tests each row with np.allclose: the loop the arrays replaced."""
    sizes = np.array([len(cls) for cls in G.classes], dtype=float)
    mats = [m.astype(float) for m in groups._class_constants(G)]
    rows, degrees = [], []
    for v in common_eigenbasis(mats, seed=seed):
        omega = np.array([complex(np.vdot(v, M @ v) / np.vdot(v, v)) for M in mats])
        d = round(float(np.sqrt(G.order / np.sum(np.abs(omega) ** 2 / sizes))))
        rows.append(d * omega / sizes)
        degrees.append(d)
    order = sorted(
        range(len(rows)),
        key=lambda i: (
            not np.allclose(rows[i], 1.0, atol=1e-7),
            degrees[i],
            tuple((round(float(c.real), 7), round(float(c.imag), 7)) for c in rows[i]),
        ),
    )
    return np.array([rows[i] for i in order]), tuple(degrees[i] for i in order)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize(
    "name", battery_groups(large=True) + ["alternating:5", "symmetric:5", "product:symmetric:5*cyclic:2"]
)
def test_character_table_matches_the_loop_reference(name, seed):
    # The eigenvalues are summed in another order, so the rows agree to
    # rounding; the degrees, the row order and the duals agree exactly.
    G = parse_group(name)
    T = character_table(G, seed=seed)
    rows, degrees = _reference_character_table(G, seed)
    assert T.degrees == degrees
    assert np.allclose(T.rows, rows, rtol=0, atol=1e-12)
    conj = [
        [j for j in range(len(rows)) if np.max(np.abs(rows[j] - rows[i].conj())) < 1e-7]
        for i in range(len(rows))
    ]
    assert [[j] for j in rep_fusion_ring(G, seed).dual] == conj
