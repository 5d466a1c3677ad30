import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuscat import fusion_ring, groups
from fuscat.cli import parse_source
from fuscat.fusion_ring import (
    MAX_MULTIPLICITY,
    FusionRingData,
    RingDataError,
    build_ring,
    enumerate_subcategories,
    fp_dims,
    ring_from_dict,
    ring_to_dict,
    subcategory_closure,
    subcategory_join,
    subcategory_meet,
    subcategory_product,
    validate,
)
from fuscat.linalg import DEFAULT_TOL
from fuscat.verify import battery_sources

from conftest import su2_fusion_ring


class TestValidate:
    def test_trivial_ring_ok(self, trivial_ring):
        assert validate(trivial_ring) == []

    def test_rep_s3_ok(self, s3_ring):
        # oracle: products of the classical S3 characters decompose as
        # sgn*sgn = 1, sgn*rho = rho, rho*rho = 1 + sgn + rho
        assert validate(s3_ring) == []
        assert s3_ring.N[2, 2].tolist() == [1, 1, 1]

    def test_unit_axiom_violation(self):
        N = np.zeros((2, 2, 2), dtype=int)
        N[0] = np.eye(2, dtype=int)
        N[:, 0] = np.eye(2, dtype=int)
        N[0, 1, 1] = 0  # break the unit axiom
        N[1, 1, 0] = 1
        bad = FusionRingData(("1", "x"), N, (0, 1), np.ones(2), 2.0)
        violations = validate(bad)
        assert any("unit axiom" in v for v in violations)

    def test_build_rejects_bad_dual(self):
        N = np.zeros((2, 2, 2), dtype=int)
        N[0] = np.eye(2, dtype=int)
        N[:, 0] = np.eye(2, dtype=int)
        N[1, 1, 0] = 1
        with pytest.raises(RingDataError):
            build_ring(["1", "x"], N, [1, 0])  # dual(0) != 0


def _reference_associativity(N):
    """The full r^4 two-einsum check, as an independent oracle."""
    lhs = np.einsum("ijk,klp->ijlp", N, N)
    rhs = np.einsum("jlk,ikp->ijlp", N, N)
    if np.array_equal(lhs, rhs):
        return []
    bad = np.argwhere(lhs != rhs)[0]
    return ["associativity fails at (i,j,l,p)=({},{},{},{})".format(*(int(x) for x in bad))]


class TestStructureCheck:
    @pytest.mark.parametrize("entry", [(1, 1, 2), (1, 2, 1), (2, 1, 2)])
    def test_perturbed_s3_matches_reference(self, s3_ring, entry):
        N = s3_ring.N.copy()
        N[entry] += 1
        expected = _reference_associativity(N)
        assert expected
        with pytest.raises(RingDataError) as exc:
            build_ring(s3_ring.labels, N, s3_ring.dual)
        assert exc.value.violations == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_perturbed_vec_s3_matches_reference(self, vec_s3_ring, seed):
        rng = np.random.default_rng(seed)
        N = vec_s3_ring.N.copy()
        i, j, k = (int(x) for x in rng.integers(1, vec_s3_ring.rank, 3))
        N[i, j, k] += 1
        expected = _reference_associativity(N)
        assert expected
        with pytest.raises(RingDataError) as exc:
            build_ring(vec_s3_ring.labels, N, vec_s3_ring.dual)
        assert exc.value.violations == expected

    def test_build_checks_structure_once(self, s3_ring, monkeypatch):
        calls = []
        original = fusion_ring._structure_violations

        def spy(N, dual):
            calls.append(1)
            return original(N, dual)

        monkeypatch.setattr(fusion_ring, "_structure_violations", spy)
        build_ring(s3_ring.labels, s3_ring.N, s3_ring.dual)
        assert len(calls) == 1

    def test_validate_still_checks_structure(self, s3_ring):
        N = s3_ring.N.copy()
        N[1, 1, 2] = 1
        bad = FusionRingData(s3_ring.labels, N, s3_ring.dual, s3_ring.dims, s3_ring.global_dim)
        assert _reference_associativity(N)[0] in validate(bad)

    def test_multiplicity_bound(self, s3_ring):
        N = s3_ring.N.copy()
        N[1, 1, 2] = 2**21
        with pytest.raises(RingDataError) as exc:
            build_ring(s3_ring.labels, N, s3_ring.dual)
        assert exc.value.violations == [f"multiplicity N[1][1][2] exceeds {MAX_MULTIPLICITY}"]
        N[1, 1, 2] = MAX_MULTIPLICITY
        with pytest.raises(RingDataError) as exc:
            build_ring(s3_ring.labels, N, s3_ring.dual)
        assert exc.value.violations == _reference_associativity(N)

    def test_float64_path_for_large_multiplicities(self):
        # lhs(0,0,0,0) = 2**40 + 1 and rhs(0,0,0,0) = 2**40 + 2: float32
        # rounds both to 2**40, so r * max|N|**2 >= 2**24 must select float64.
        N = np.zeros((2, 2, 2), dtype=int)
        N[0, 0, 0] = 2**20
        N[0, 0, 1] = N[1, 0, 0] = 1
        N[0, 1, 0] = 2
        assert np.float32(2**40 + 1) == np.float32(2**40 + 2)
        assert _reference_associativity(N)[0].endswith("=(0,0,0,0)")
        assert fusion_ring._associativity_failure(N) == (0, 0, 0, 0)

    @pytest.mark.parametrize("value", [2000, 2400, MAX_MULTIPLICITY])
    def test_large_entry_matches_reference(self, s3_ring, value):
        # r * value**2 is below 2**24 for 2000 (the float32 path near its
        # limit) and above it for 2400 and MAX_MULTIPLICITY.
        N = s3_ring.N.copy()
        N[1, 2, 2] = value
        expected = _reference_associativity(N)
        assert expected
        with pytest.raises(RingDataError) as exc:
            build_ring(s3_ring.labels, N, s3_ring.dual)
        assert exc.value.violations == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_perturbed_su2_matches_reference(self, seed):
        ring = su2_fusion_ring(20)
        rng = np.random.default_rng(seed)
        N = ring.N.copy()
        i, j, k = (int(x) for x in rng.integers(1, ring.rank, 3))
        N[i, j, k] += 3
        assert ring.rank * int(N.max()) ** 2 < 2**24
        expected = _reference_associativity(N)
        assert expected
        with pytest.raises(RingDataError) as exc:
            build_ring(ring.labels, N, ring.dual)
        assert exc.value.violations == expected

    def test_structure_check_memory_on_su2_60(self):
        ring = su2_fusion_ring(60)
        r = ring.rank
        tracemalloc.start()
        try:
            assert fusion_ring._structure_violations(ring.N, ring.dual) == []
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < r**3 * 20  # N itself, as int64, takes r^3 * 8 bytes

    def test_associativity_memory_below_r4(self, vec_a5_ring):
        N = vec_a5_ring.N
        r = vec_a5_ring.rank
        tracemalloc.start()
        try:
            assert fusion_ring._structure_violations(N, vec_a5_ring.dual) == []
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < r**4 * 8 / 8  # an r^4 float64 tensor would need r^4 * 8 bytes


class TestFpDims:
    def test_pointed_ring_dims_all_one(self, vec_s3_ring):
        assert np.allclose(vec_s3_ring.dims, 1.0)
        assert abs(vec_s3_ring.global_dim - 6) < 1e-9

    def test_rep_s3(self, s3_ring):
        dims, gd = fp_dims(s3_ring.N)
        assert np.allclose(dims, [1, 1, 2])
        assert abs(gd - 6) < 1e-9

    def test_rep_c2(self, rep_c2_ring):
        assert np.allclose(rep_c2_ring.dims, [1, 1])
        assert abs(rep_c2_ring.global_dim - 2) < 1e-9


class TestClosure:
    def test_empty_seed(self, s3_ring):
        assert subcategory_closure(s3_ring, []).indices == (0,)

    def test_sgn_generates_rep_c2(self, s3_ring):
        assert subcategory_closure(s3_ring, [1]).indices == (0, 1)

    def test_rho_generates_everything(self, s3_ring):
        assert subcategory_closure(s3_ring, [2]).indices == (0, 1, 2)


class TestEnumerate:
    def test_rep_c2(self, rep_c2_ring):
        subs = enumerate_subcategories(rep_c2_ring)
        assert [S.indices for S in subs] == [(0,), (0, 1)]

    def test_rep_s3(self, s3_ring):
        subs = enumerate_subcategories(s3_ring)
        assert [S.indices for S in subs] == [(0,), (0, 1), (0, 1, 2)]
        assert [round(S.fpdim) for S in subs] == [1, 2, 6]

    def test_vec_s3_has_six(self, vec_s3_ring):
        subs = enumerate_subcategories(vec_s3_ring)
        assert len(subs) == 6
        assert sorted(len(S.indices) for S in subs) == [1, 2, 2, 2, 3, 6]

    def test_lattice_closed_under_meet_join(self, vec_s3_ring):
        subs = enumerate_subcategories(vec_s3_ring)
        keys = {S.indices for S in subs}
        for A in subs:
            for B in subs:
                assert subcategory_meet(A, B).indices in keys
                assert subcategory_join(A, B).indices in keys

    def test_fpdim_ratio_at_least_one(self, vec_s3_ring):
        for S in enumerate_subcategories(vec_s3_ring):
            assert vec_s3_ring.global_dim / S.fpdim >= 1 - 1e-9


def _reference_closure(ring, seeds):
    """Closure by re-slicing the support on every pass, as an independent oracle."""
    member = np.zeros(ring.rank, dtype=bool)
    member[0] = True
    member[list(seeds)] = True
    dual = np.array(ring.dual)
    while True:
        new = member.copy()
        new[dual[member]] = True
        idx = np.flatnonzero(new)
        new |= np.any(ring.N[np.ix_(idx, idx)] > 0, axis=(0, 1))
        if np.array_equal(new, member):
            return tuple(int(i) for i in np.flatnonzero(member))
        member = new


def _reference_subcategories(ring):
    """The subcategories by one closure per candidate, and the number of closures."""
    found = {_reference_closure(ring, [])}
    frontier = list(found)
    calls = 0
    while frontier:
        nxt = []
        for D in frontier:
            for i in range(ring.rank):
                if i not in D:
                    calls += 1
                    D2 = _reference_closure(ring, D + (i,))
                    if D2 not in found:
                        found.add(D2)
                        nxt.append(D2)
        frontier = nxt
    return found, calls


class TestEnumerateAgainstReference:
    @pytest.mark.parametrize("source", battery_sources(large=True))
    def test_battery(self, source):
        ring, _group, _kind = parse_source(source, 0, DEFAULT_TOL)
        subs = [S.indices for S in enumerate_subcategories(ring)]
        assert len(subs) == len(set(subs))
        assert set(subs) == _reference_subcategories(ring)[0]

    def test_vec_alternating_5(self, vec_a5_ring):
        subs = [S.indices for S in enumerate_subcategories(vec_a5_ring)]
        assert len(subs) == 59
        assert set(subs) == _reference_subcategories(vec_a5_ring)[0]

    @pytest.mark.parametrize("block_bytes", [None, 1], ids=["default_blocks", "one_row_blocks"])
    @pytest.mark.parametrize("source", ["vec:symmetric:4", "rep:symmetric:4", "vec:dihedral:8"])
    def test_close_rows_matches_reference_row_by_row(self, source, block_bytes, monkeypatch):
        if block_bytes is not None:
            monkeypatch.setattr(fusion_ring, "_CLOSURE_BLOCK_BYTES", block_bytes)
        ring, _group, _kind = parse_source(source, 0, DEFAULT_TOL)
        rng = np.random.default_rng(5)
        seeds = [tuple(rng.choice(ring.rank, size=k, replace=False)) for k in rng.integers(0, 3, size=40)]
        seeds += seeds[::4]  # repeated rows are closed once and copied back to each
        member = np.zeros((len(seeds), ring.rank), dtype=bool)
        member[:, 0] = True
        for row, seed in zip(member, seeds):
            row[list(seed)] = True
        closed = fusion_ring._close_rows(ring, member)
        assert [tuple(np.flatnonzero(row).tolist()) for row in closed] == [
            _reference_closure(ring, seed) for seed in seeds
        ]

    @pytest.mark.parametrize("source", ["vec:symmetric:3", "rep:symmetric:4", "vec:dihedral:8"])
    def test_max_closures_counts_one_per_candidate(self, source):
        ring, _group, _kind = parse_source(source, 0, DEFAULT_TOL)
        found, calls = _reference_subcategories(ring)
        assert {S.indices for S in enumerate_subcategories(ring, max_closures=calls)} == found
        with pytest.raises(RuntimeError, match=f"exceeded {calls - 1} closure calls"):
            enumerate_subcategories(ring, max_closures=calls - 1)

    def test_blocked_closure_matches_reference(self, vec_a5_ring, monkeypatch):
        monkeypatch.setattr(fusion_ring, "_CLOSURE_BLOCK_BYTES", 1)
        subs = [S.indices for S in enumerate_subcategories(vec_a5_ring)]
        assert set(subs) == _reference_subcategories(vec_a5_ring)[0]

    def test_enumeration_memory_below_r3(self, vec_a5_ring):
        r = vec_a5_ring.rank
        vec_a5_ring.support  # cached before tracing
        tracemalloc.start()
        try:
            subs = enumerate_subcategories(vec_a5_ring)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(subs) == 59
        assert peak < r**3 * 8  # one (K, r, r) product over a whole frontier level takes K * r^2 * 4


class TestMeetJoinProduct:
    def test_idempotence(self, s3_ring):
        for S in enumerate_subcategories(s3_ring):
            assert subcategory_meet(S, S).indices == S.indices
            assert subcategory_join(S, S).indices == S.indices

    def _order_two_subcats(self, vec_s3_ring):
        subs = enumerate_subcategories(vec_s3_ring)
        return [S for S in subs if len(S.indices) == 2]

    def test_vec_s3_reflections_generate(self, vec_s3_ring):
        pair = self._order_two_subcats(vec_s3_ring)[:2]
        assert subcategory_join(pair[0], pair[1]).indices == tuple(range(6))
        assert subcategory_meet(pair[0], pair[1]).indices == (0,)

    def test_vec_s3_coset_product_not_closed(self, vec_s3_ring):
        pair = self._order_two_subcats(vec_s3_ring)[:2]
        prod_ab, closed_ab = subcategory_product(pair[0], pair[1])
        prod_ba, closed_ba = subcategory_product(pair[1], pair[0])
        assert len(prod_ab) == 4 and not closed_ab
        assert len(prod_ba) == 4 and not closed_ba
        assert prod_ab != prod_ba

    def test_product_with_trivial(self, s3_ring):
        subs = enumerate_subcategories(s3_ring)
        triv = subs[0]
        for S in subs:
            prod, closed = subcategory_product(S, triv)
            assert prod == S.indices and closed

    def test_rep_s3_product_closed(self, s3_ring):
        rep_c2 = subcategory_closure(s3_ring, [1])
        prod, closed = subcategory_product(rep_c2, rep_c2)
        assert prod == (0, 1) and closed

    def test_product_inside_join(self, vec_s3_ring):
        subs = enumerate_subcategories(vec_s3_ring)
        for A in subs:
            for B in subs:
                prod, _ = subcategory_product(A, B)
                assert set(prod) <= set(subcategory_join(A, B).indices)

    def test_commutative_ring_products_symmetric(self, s3_ring):
        subs = enumerate_subcategories(s3_ring)
        assert s3_ring.commutative
        for A in subs:
            for B in subs:
                assert subcategory_product(A, B) == subcategory_product(B, A)


class TestJson:
    def test_roundtrip(self, s3_ring):
        ring2 = ring_from_dict(ring_to_dict(s3_ring))
        assert np.array_equal(ring2.N, s3_ring.N)
        assert ring2.dual == s3_ring.dual
        assert np.allclose(ring2.dims, s3_ring.dims)

    def test_missing_field(self):
        with pytest.raises(RingDataError):
            ring_from_dict({"labels": ["1"]})

    def test_non_integer_entries(self):
        with pytest.raises(RingDataError):
            ring_from_dict({"labels": ["1"], "dual": [0], "N": [[[1.5]]]})


@given(st.integers(min_value=1, max_value=8))
@settings(max_examples=8, deadline=None)
def test_cyclic_vec_ring_subcategories_match_divisors(n):
    # subgroups of a cyclic group = divisors of n
    G = groups.parse_group(f"cyclic:{n}")
    ring = groups.vec_fusion_ring(G)
    subs = enumerate_subcategories(ring)
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    assert sorted(len(S.indices) for S in subs) == divisors
