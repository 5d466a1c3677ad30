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
    validate,
)
from fuscat.linalg import DEFAULT_TOL
from fuscat.verify import battery_sources

from conftest import deligne_product, haagerup_izumi_ring, su2_fusion_ring


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

    @pytest.mark.parametrize("sign", [-1, 1])
    def test_sign_and_magnitude_name_the_offender_as_before(self, s3_ring, sign):
        # The index named is argmin(N) for a negative entry and the first
        # entry above the bound in C order, as the r^3 masks found them.
        N = s3_ring.N.copy()
        N[2, 1, 2] = sign * 2**21
        N[1, 2, 1] = sign * 2**22
        N[2, 2, 1] = -1
        with pytest.raises(RingDataError) as exc:
            build_ring(s3_ring.labels, N, s3_ring.dual)
        i, j, k = np.unravel_index(int(np.argmin(N)), N.shape)
        a, b, c = np.argwhere(np.abs(N) > MAX_MULTIPLICITY)[0]
        assert exc.value.violations == [
            f"negative multiplicity N[{i}][{j}][{k}]",
            f"multiplicity N[{a}][{b}][{c}] exceeds {MAX_MULTIPLICITY}",
        ]

    def test_sign_and_magnitude_form_no_r3_temporaries(self, monkeypatch):
        ring = su2_fusion_ring(60)
        monkeypatch.setattr(fusion_ring, "_associative_by_words", lambda N: True)
        tracemalloc.start()
        try:
            assert fusion_ring._structure_violations(ring.N, ring.dual) == []
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < ring.rank**3  # one byte per entry; an r^3 bool mask alone takes that

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



def _dense_violation(N):
    """The violation the dense scan reports for N, the reference above the cut."""
    bad = fusion_ring._associativity_failure(N)
    assert bad is not None
    return "associativity fails at (i,j,l,p)=({},{},{},{})".format(*bad)


def _rank_mod_p(M, p):
    """Rank of an integer matrix mod a prime p, by plain Gaussian elimination."""
    M = np.array(M, dtype=np.int64) % p
    rank = 0
    for c in range(M.shape[1]):
        rows = rank + np.flatnonzero(M[rank:, c])
        if not rows.size:
            continue
        M[[rank, rows[0]]] = M[[rows[0], rank]]
        M[rank] = M[rank] * pow(int(M[rank, c]), -1, p) % p
        factors = M[:, c].copy()
        factors[rank] = 0
        M = (M - np.outer(factors, M[rank])) % p
        rank += 1
    return rank


def _word_vectors(N, gens, p):
    """e_0 and its left-normed words over gens mod p, breadth first by length,
    repeated vectors dropped; at most rank many lengths."""
    r = N.shape[0]
    seen = {}
    level = [np.eye(1, r, dtype=np.int64)[0]]
    for _ in range(r):
        fresh = []
        for v in level:
            key = v.tobytes()
            if key not in seen:
                seen[key] = v
                fresh.append(v)
        if len(seen) > 4 * r:
            break
        level = [v @ N[:, g, :] % p for v in fresh for g in gens]
    return np.array(list(seen.values()))


@pytest.fixture(scope="module")
def vec_s5_ring():
    """Group ring of S5: rank 120, non-commutative, four generating simples."""
    return groups.vec_fusion_ring(groups.parse_group("symmetric:5"))


@pytest.fixture(scope="module")
def su2_60_ring():
    return su2_fusion_ring(60)


class TestWordCertificate:
    """Light's test from a few generating simples, with the dense scan as the
    only reporter of a failure."""

    @pytest.fixture
    def dense_calls(self, monkeypatch):
        calls = []
        original = fusion_ring._associativity_failure

        def spy(N):
            calls.append(N.shape[0])
            return original(N)

        monkeypatch.setattr(fusion_ring, "_associativity_failure", spy)
        return calls

    @pytest.mark.parametrize("name", ["su2_ring", "su2_60_ring", "vec_a5_ring", "vec_s5_ring"])
    def test_valid_rings_above_cut_skip_dense_scan(self, name, request, dense_calls):
        ring = request.getfixturevalue(name)
        assert ring.rank >= fusion_ring._WORD_PROOF_MIN_RANK
        assert fusion_ring._structure_violations(ring.N, ring.dual) == []
        assert dense_calls == []

    @pytest.mark.parametrize("source", battery_sources(large=True))
    def test_battery_rings_below_cut_use_dense_scan(self, source, dense_calls):
        ring, _group, _kind = parse_source(source, 0, DEFAULT_TOL)
        dense_calls.clear()
        assert ring.rank < fusion_ring._WORD_PROOF_MIN_RANK
        assert fusion_ring._structure_violations(ring.N, ring.dual) == []
        assert dense_calls == [ring.rank]

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", ["su2_ring", "su2_60_ring", "vec_a5_ring"])
    def test_perturbed_ring_gets_dense_violation(self, name, seed, request, dense_calls):
        ring = request.getfixturevalue(name)
        rng = np.random.default_rng(seed)
        N = ring.N.copy()
        i, j, k = (int(x) for x in rng.integers(1, ring.rank, 3))
        N[i, j, k] += 1
        expected = [_dense_violation(N)]
        dense_calls.clear()
        assert fusion_ring._structure_violations(N, ring.dual) == expected
        assert dense_calls == [ring.rank]  # the certificate failed and handed over
        with pytest.raises(RingDataError) as exc:
            build_ring(ring.labels, N, ring.dual)
        assert exc.value.violations == expected

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("name", ["su2_ring", "vec_a5_ring"])
    def test_unit_and_associativity_broken_together(self, name, seed, request):
        ring = request.getfixturevalue(name)
        rng = np.random.default_rng(seed)
        j, k = (int(x) for x in rng.choice(np.arange(1, ring.rank), 2, replace=False))
        N = ring.N.copy()
        N[0, j, k] += 1
        assert fusion_ring._structure_violations(N, ring.dual) == [
            f"unit axiom fails: N[0][{j}][{k}] != delta",
            _dense_violation(N),
        ]

    def test_broken_unit_never_trusts_the_certificate(self, monkeypatch):
        # e_0 e_0 = e_0 + e_2 and e_0 e_2 = 0: the unit axiom fails, the ring
        # is not associative, and yet the one generator e_1 passes Light's
        # test, because e_0 no longer lies in the set the test builds on.
        N = np.array(
            [
                [[1, 0, 1], [0, 1, 0], [0, 0, 0]],
                [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
                [[0, 0, 0], [0, 1, 0], [1, 0, 1]],
            ]
        )
        monkeypatch.setattr(fusion_ring, "_WORD_PROOF_MIN_RANK", 1)
        assert fusion_ring._word_generators(N) == [1]
        assert fusion_ring._associative_by_words(N)
        violations = fusion_ring._structure_violations(N, [0, 1, 2])
        assert violations[0].startswith("unit axiom fails")
        assert violations[-1] == _dense_violation(N)

    @pytest.mark.parametrize(
        "name, count",
        [("su2_ring", 1), ("su2_60_ring", 1), ("vec_a5_ring", 3), ("vec_s5_ring", 4), ("vec_s3_ring", 2)],
    )
    def test_words_over_generators_span(self, name, count, request):
        ring = request.getfixturevalue(name)
        p = fusion_ring._WORD_PRIME
        assert p > 2 and all(p % q for q in range(2, int(p**0.5) + 1))
        gens = fusion_ring._word_generators(ring.N)
        assert len(gens) == count
        assert _rank_mod_p(_word_vectors(ring.N, gens, p), p) == ring.rank
        # No generator is redundant in the search: without the last one the
        # words span less.
        assert _rank_mod_p(_word_vectors(ring.N, gens[:-1], p), p) < ring.rank

    def test_structure_check_memory_on_s5(self, vec_s5_ring):
        r = vec_s5_ring.rank
        tracemalloc.start()
        try:
            assert fusion_ring._structure_violations(vec_s5_ring.N, vec_s5_ring.dual) == []
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < r**3 * 20


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

    @pytest.mark.parametrize(
        "block_bytes", [None, 1, 1 << 40], ids=["default_blocks", "one_row_blocks", "one_block"]
    )
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


class TestEnumerateBeyondGroups:
    @pytest.mark.parametrize("n", [3, 5])
    def test_haagerup_izumi(self, n):
        ring = haagerup_izumi_ring(n)
        assert not ring.commutative
        assert ring.dims[n] == pytest.approx((n + np.sqrt(n * n + 4)) / 2)
        subs = [S.indices for S in enumerate_subcategories(ring)]
        # n prime: the trivial subcategory, Z_n and the whole ring.
        assert subs == [(0,), tuple(range(n)), tuple(range(2 * n))]
        assert set(subs) == _reference_subcategories(ring)[0]

    def test_su2_2_squared_has_the_diagonal(self):
        su2_2 = su2_fusion_ring(2)
        ring = deligne_product(su2_2, su2_2)
        subs = [S.indices for S in enumerate_subcategories(ring)]
        assert len(subs) == len(set(subs))
        assert set(subs) == _reference_subcategories(ring)[0]
        assert (0, 8) in subs  # {(0,0), (2,2)}, not a product of subcategories

    def test_haagerup_izumi_3_times_su2_3(self):
        ring = deligne_product(haagerup_izumi_ring(3), su2_fusion_ring(3))
        assert not ring.commutative
        subs = [S.indices for S in enumerate_subcategories(ring)]
        assert len(subs) == len(set(subs))
        assert set(subs) == _reference_subcategories(ring)[0]


def _double_coset_minima(ring, D):
    """For each simple j, the smallest y with y ⊂ d⊗j⊗d′ for d, d′ in D, from N."""
    idx = list(D)
    left = np.any(ring.N[idx] > 0, axis=0)  # [j, x]: x ⊂ d⊗j
    right = np.any(ring.N[:, idx, :] > 0, axis=1)  # [x, y]: y ⊂ x⊗d′
    coset = (left.astype(int) @ right.astype(int)) > 0
    return np.argmax(coset, axis=1)


@pytest.mark.parametrize("source", battery_sources(large=True) + ["vec:alternating:5"])
def test_skipped_candidates_close_like_their_representative(source):
    # Every subcategory is a frontier row once; each simple j outside it
    # closes with it to the row that the smallest index of D·j·D gives.
    ring, _group, _kind = parse_source(source, 0, DEFAULT_TOL)
    subs = enumerate_subcategories(ring)
    member = np.zeros((len(subs), ring.rank), dtype=bool)
    for row, D in zip(member, subs):
        row[list(D.indices)] = True
    heads = fusion_ring._coset_heads(ring, member)
    skipped = 0
    for row, head_row, D in zip(member, heads, subs):
        outside = np.flatnonzero(~row)
        rep = _double_coset_minima(ring, D.indices)[outside]
        assert np.array_equal(head_row[outside], rep)
        candidates = np.repeat(row[None], 2 * len(outside), axis=0)
        candidates[np.arange(len(outside)), outside] = True
        candidates[len(outside) + np.arange(len(outside)), rep] = True
        closed = fusion_ring._close_rows(ring, candidates)
        assert np.array_equal(closed[: len(outside)], closed[len(outside) :])
        skipped += int(np.count_nonzero(rep != outside))
    assert not heads[member].any()  # the head of a simple in D is the unit
    if ring.rank > 6:
        assert skipped > 0


def test_coset_heads_in_one_row_blocks(vec_a5_ring, monkeypatch):
    subs = enumerate_subcategories(vec_a5_ring)
    member = np.zeros((len(subs), vec_a5_ring.rank), dtype=bool)
    for row, D in zip(member, subs):
        row[list(D.indices)] = True
    heads = fusion_ring._coset_heads(vec_a5_ring, member)
    cosets = fusion_ring._right_cosets(vec_a5_ring, member)
    monkeypatch.setattr(fusion_ring, "_CLOSURE_BLOCK_BYTES", 1)
    assert np.array_equal(fusion_ring._coset_heads(vec_a5_ring, member), heads)
    assert np.array_equal(fusion_ring._right_cosets(vec_a5_ring, member), cosets)


RIGHT_COSET_RINGS = {
    **{s: lambda s=s: parse_source(s, 0, DEFAULT_TOL)[0] for s in battery_sources(large=True)},
    "vec:alternating:5": lambda: parse_source("vec:alternating:5", 0, DEFAULT_TOL)[0],
    "HI(Z_3)": lambda: haagerup_izumi_ring(3),
    "HI(Z_5)": lambda: haagerup_izumi_ring(5),
    "HI(Z_3)xSU(2)_3": lambda: deligne_product(haagerup_izumi_ring(3), su2_fusion_ring(3)),
    "SU(2)_2xSU(2)_2": lambda: deligne_product(su2_fusion_ring(2), su2_fusion_ring(2)),
}


@pytest.mark.parametrize("name", sorted(RIGHT_COSET_RINGS))
def test_right_cosets_partition_the_simples(name):
    # For every subcategory D and simple x: the class id is the smallest y
    # with y ⊂ x⊗d for some d in D, read from N, and the simples sharing it
    # are exactly x⊗D, so the cosets are the classes of an equivalence.
    ring = RIGHT_COSET_RINGS[name]()
    subs = enumerate_subcategories(ring)
    member = np.zeros((len(subs), ring.rank), dtype=bool)
    for row, D in zip(member, subs):
        row[list(D.indices)] = True
    for head, D in zip(fusion_ring._right_cosets(ring, member), subs):
        coset = np.any(ring.N[:, list(D.indices), :] > 0, axis=1)  # [x, y]: y ⊂ x⊗d
        assert np.array_equal(head, np.argmax(coset, axis=1))
        assert np.array_equal(coset, head[:, None] == head[None, :])


def _spy_block_rows(monkeypatch):
    """Record the number of rows of every block that ``_fusion_hit`` multiplies."""
    sizes = []
    hit = fusion_ring._fusion_hit

    def spy(ring, a, b):
        sizes.append(len(a))
        return hit(ring, a, b)

    monkeypatch.setattr(fusion_ring, "_fusion_hit", spy)
    return sizes


def _seed_rows(r, n_rows, seed):
    """(n_rows, r) membership rows: the unit and one or two random simples."""
    rng = np.random.default_rng(seed)
    member = np.zeros((n_rows, r), dtype=bool)
    member[:, 0] = True
    for row in member:
        row[rng.choice(np.arange(1, r), size=rng.integers(1, 3), replace=False)] = True
    return member


class TestClosureBlocks:
    @pytest.mark.parametrize("r", [1, 6, 24, 32, 40])
    def test_budget_unchanged_up_to_rank_40(self, r):
        assert fusion_ring._closure_rows_per_block(r, r * r) == max(1, (1 << 16) // (4 * r * r))

    @pytest.mark.parametrize("r, rows", [(60, 27), (120, 59)])
    def test_budget_grows_with_rank(self, r, rows):
        assert fusion_ring._closure_rows_per_block(r, r * r) == rows

    @pytest.mark.parametrize("r", [6, 41, 60, 120, 1000])
    def test_one_byte_budget_gives_one_row(self, r, monkeypatch):
        monkeypatch.setattr(fusion_ring, "_CLOSURE_BLOCK_BYTES", 1)
        assert fusion_ring._closure_rows_per_block(r, r * r) == 1
        assert fusion_ring._closure_rows_per_block(r, r * (r + 156)) == 1

    def test_one_byte_budget_closes_one_row_per_block_at_rank_60(self, vec_a5_ring, monkeypatch):
        monkeypatch.setattr(fusion_ring, "_CLOSURE_BLOCK_BYTES", 1)
        sizes = _spy_block_rows(monkeypatch)
        member = _seed_rows(vec_a5_ring.rank, 8, seed=3)
        expected = [_reference_closure(vec_a5_ring, np.flatnonzero(row)) for row in member]
        closed = fusion_ring._close_rows(vec_a5_ring, member)
        assert sizes and set(sizes) == {1}
        assert [tuple(np.flatnonzero(row).tolist()) for row in closed] == expected

    def test_default_budget_closes_many_rows_per_block_at_rank_120(self, monkeypatch):
        ring, _group, _kind = parse_source("vec:symmetric:5", 0, DEFAULT_TOL)
        r = ring.rank
        sizes = _spy_block_rows(monkeypatch)
        member = _seed_rows(r, 40, seed=4)
        expected = [_reference_closure(ring, np.flatnonzero(row)) for row in member]
        closed = fusion_ring._close_rows(ring, member)
        assert sizes[0] >= r / 4
        assert max(sizes) <= fusion_ring._closure_rows_per_block(r, r * r) == 59
        assert [tuple(np.flatnonzero(row).tolist()) for row in closed] == expected


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

    @staticmethod
    def _raw_products(ring, subs):
        """raw[a][b]: the simples k with N_ijk > 0 for some i in subs[a], j in subs[b]."""
        return [
            [tuple(np.flatnonzero(np.any(ring.N[np.ix_(A.indices, B.indices)] > 0, axis=(0, 1))).tolist()) for B in subs]
            for A in subs
        ]

    def test_vec_s3_coset_product_not_closed(self, vec_s3_ring):
        subs = enumerate_subcategories(vec_s3_ring)
        a, b = [k for k, S in enumerate(subs) if len(S.indices) == 2][:2]
        raw = self._raw_products(vec_s3_ring, subs)
        prod_ab, prod_ba = raw[a][b], raw[b][a]
        closed = {S.indices for S in subs}
        assert len(prod_ab) == 4 and prod_ab not in closed
        assert len(prod_ba) == 4 and prod_ba not in closed
        assert prod_ab != prod_ba

    def test_product_with_trivial(self, s3_ring):
        subs = enumerate_subcategories(s3_ring)
        assert subs[0].indices == (0,)
        raw = self._raw_products(s3_ring, subs)
        for k, S in enumerate(subs):
            assert raw[k][0] == raw[0][k] == S.indices

    def test_rep_s3_product_closed(self, s3_ring):
        subs = enumerate_subcategories(s3_ring)
        k = subs.index(subcategory_closure(s3_ring, [1]))
        assert self._raw_products(s3_ring, subs)[k][k] == (0, 1)

    def test_product_inside_join(self, vec_s3_ring):
        subs = enumerate_subcategories(vec_s3_ring)
        raw = self._raw_products(vec_s3_ring, subs)
        for a, A in enumerate(subs):
            for b, B in enumerate(subs):
                assert set(raw[a][b]) <= set(subcategory_join(A, B).indices)

    def test_commutative_ring_products_symmetric(self, s3_ring):
        subs = enumerate_subcategories(s3_ring)
        assert s3_ring.commutative
        raw = self._raw_products(s3_ring, subs)
        for a in range(len(subs)):
            for b in range(len(subs)):
                assert raw[a][b] == raw[b][a]


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
