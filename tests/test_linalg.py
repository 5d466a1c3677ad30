import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuscat import linalg, wedderburn
from fuscat.linalg import (
    DEFAULT_TOL,
    DegenerateSeed,
    NotCommuting,
    NotNearInteger,
    Tolerance,
    common_eigenbasis,
    joint_eigenspaces,
    orthonormal_basis,
    snap_integer,
    subspace_contains,
    subspace_intersection,
)

from conftest import s3_mult_table, su2_fusion_ring


def s3_class_matrices():
    """Class-multiplication matrices of S3, brute-forced from the group law.

    Classes ordered (identity, 3-cycles, transpositions) by (size, min index).
    Entry [c][d][e] counts products x*y = rep_e with x in class c, y in class d.
    """
    perms, table = s3_mult_table()
    inv = [min(j for j in range(6) if table[i][j] == 0) for i in range(6)]
    classes = []
    seen = set()
    for i in range(6):
        if i in seen:
            continue
        orbit = sorted({table[table[g][i]][inv[g]] for g in range(6)})
        seen.update(orbit)
        classes.append(orbit)
    classes.sort(key=lambda c: (0 not in c, len(c), c[0]))
    reps = [c[0] for c in classes]
    mats = []
    for c in classes:
        M = np.zeros((3, 3))
        for d_idx, d in enumerate(classes):
            for x in c:
                for y in d:
                    z = table[x][y]
                    if z in reps:
                        M[d_idx, reps.index(z)] += 1
        mats.append(M)
    return classes, mats


class TestCommonEigenbasis:
    def test_identity_returns_standard_basis(self):
        vecs = common_eigenbasis([np.eye(3)], seed=0)
        assert len(vecs) == 3
        assert np.allclose(np.column_stack(vecs), np.eye(3))

    def test_s3_class_matrices_give_central_characters(self):
        classes, mats = s3_class_matrices()
        vecs = common_eigenbasis(mats, seed=0)
        assert len(vecs) == 3
        # Classical S3 table over classes (e, 3-cycles, transpositions);
        # eigenvectors are the central character rows |c| chi(c) / chi(1).
        expected = {
            (1, 2, 3),    # trivial
            (1, 2, -3),   # sign
            (1, -1, 0),   # two-dimensional
        }
        got = set()
        for v in vecs:
            w = v / v[0]
            assert np.max(np.abs(w.imag)) < 1e-9
            got.add(tuple(round(x) for x in w.real))
        assert got == expected

    def test_non_commuting_rejected(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.diag([1.0, 2.0])
        with pytest.raises(NotCommuting):
            common_eigenbasis([A, B])

    def test_eigenvector_property(self):
        classes, mats = s3_class_matrices()
        vecs = common_eigenbasis(mats, seed=0)
        for v in vecs:
            for M in mats:
                mu = np.vdot(v, M @ v) / np.vdot(v, v)
                assert np.max(np.abs(M @ v - mu * v)) <= 10 * DEFAULT_TOL.abs_tol

    def test_joint_eigenspaces_fill_space(self):
        rng = np.random.default_rng(7)
        # commuting family: polynomials in one diagonalizable matrix
        D = np.diag([1.0, 1.0, 2.0, 5.0])
        Q = rng.standard_normal((4, 4))
        A = Q @ D @ np.linalg.inv(Q)
        spaces = joint_eigenspaces([A, A @ A], seed=0)
        assert sorted(V.shape[1] for V in spaces) == [1, 1, 2]


def _first_noncommuting_pair(mats, tol=DEFAULT_TOL):
    """Reference: the pairwise loop, i-major, with the documented bound."""
    for i, j in itertools.combinations(range(len(mats)), 2):
        A, B = mats[i], mats[j]
        bound = 10 * (tol.abs_tol + tol.rel_tol * max(1.0, np.max(np.abs(A)) * np.max(np.abs(B))))
        if np.max(np.abs(A @ B - B @ A)) > bound:
            return i, j
    return None


def _family(m, bad_pairs, complex_, seed=3):
    """m matrices of size 6 in which exactly the given pairs fail to commute.

    In a random basis every matrix is block diagonal over the coordinate
    pairs {0,1}, {2,3}, {4,5}.  Pair number b of bad_pairs gets two
    non-commuting 2x2 blocks on coordinates {2b, 2b+1}; every other matrix
    is a scalar there.
    """
    rng = np.random.default_rng(seed)

    def draw(*shape):
        out = rng.standard_normal(shape)
        return out + 1j * rng.standard_normal(shape) if complex_ else out

    P = draw(6, 6)
    blocks = [[np.eye(2) * draw(1)[0] for _ in range(3)] for _ in range(m)]
    for b, (i, j) in enumerate(bad_pairs):
        blocks[i][b] = draw(2, 2)
        blocks[j][b] = draw(2, 2)
    mats = []
    for blk in blocks:
        D = np.zeros((6, 6), dtype=complex if complex_ else float)
        for b in range(3):
            D[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = blk[b]
        mats.append(P @ D @ np.linalg.inv(P))
    return mats


@pytest.fixture(params=[None, 1], ids=["one_block", "one_matrix_blocks"])
def block_bytes(request, monkeypatch):
    """Run once with the default row blocks and once with one matrix per block."""
    if request.param is not None:
        monkeypatch.setattr(linalg, "_BLOCK_BYTES", request.param)


class TestBatchedChecks:
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize(
        "bad_pairs", [[(9, 11)], [(5, 6), (3, 10)], [(2, 7), (2, 8)]], ids=["last", "i_major", "shared_i"]
    )
    def test_commutation_names_reference_pair(self, complex_, bad_pairs, block_bytes):
        mats = _family(12, bad_pairs, complex_)
        expected = _first_noncommuting_pair(mats)
        assert expected is not None
        with pytest.raises(NotCommuting, match=rf"^matrices {expected[0]} and {expected[1]} do not"):
            linalg._commuting_or_raise(linalg._as_stack(mats), DEFAULT_TOL)

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_commuting_family_passes(self, complex_):
        mats = _family(12, [], complex_)
        assert _first_noncommuting_pair(mats) is None
        linalg._commuting_or_raise(linalg._as_stack(mats), DEFAULT_TOL)

    @staticmethod
    def _diagonal_stack(m=9):
        # Only the last matrix separates coordinates 0 and 1.
        S = np.stack([np.diag([1.0, 1.0, 2.0, 3.0]) * (t + 1) for t in range(m)])
        S[-1, 1, 1] = 5.0
        return S

    def test_verify_joint_accepts_joint_eigenspaces(self, block_bytes):
        spaces = [np.eye(4, dtype=complex)[:, [k]] for k in range(4)]
        linalg._verify_joint(spaces, self._diagonal_stack(), DEFAULT_TOL)

    def test_verify_joint_rejects_non_scalar_space(self, block_bytes):
        eye = np.eye(4, dtype=complex)
        spaces = [eye[:, [2]], eye[:, [3]], eye[:, [0, 1]]]
        with pytest.raises(linalg._SplitFailed, match="non-scalar"):
            linalg._verify_joint(spaces, self._diagonal_stack(), DEFAULT_TOL)

    def test_verify_joint_rejects_non_invariant_space(self, block_bytes):
        eye = np.eye(4, dtype=complex)
        mixed = (eye[:, [0]] + eye[:, [1]]) / np.sqrt(2)
        spaces = [eye[:, [2]], eye[:, [3]], mixed]
        with pytest.raises(linalg._SplitFailed, match="not invariant"):
            linalg._verify_joint(spaces, self._diagonal_stack(), DEFAULT_TOL)

    def test_su2_60_centre_split_memory_below_r3(self):
        ring = su2_fusion_ring(60)
        r = ring.rank
        center, left = wedderburn._center_basis(ring, DEFAULT_TOL)
        lz = [np.tensordot(center[:, b], left, axes=(0, 0)) for b in range(center.shape[1])]
        tracemalloc.start()
        try:
            spaces = joint_eigenspaces(lz)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(spaces) == r
        assert peak < r**3 * 16  # per-matrix complex copies of the family alone take m * r^2 * 16


class TestSubspaces:
    def test_same_vector(self):
        e1 = np.array([1.0, 0.0])
        assert len(subspace_intersection([e1], [e1])) == 1

    def test_disjoint(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        assert len(subspace_intersection([e1], [e2])) == 0

    def test_central_subspaces_inside_rep_s3(self):
        # CE spans in idempotent coordinates; oracle = class sums in A3.
        # K_e = (1,1,1); K_3cyc = (2,2,-1); K_transp = (3,-3,0).
        ce_a3 = [np.array([1.0, 1, 1]), np.array([2.0, 2, -1])]
        ce_s3 = ce_a3 + [np.array([3.0, -3, 0])]
        inter = subspace_intersection(ce_a3, ce_s3)
        assert len(inter) == 2

    def test_intersection_of_self_is_rank(self):
        rng = np.random.default_rng(3)
        B = [rng.standard_normal(5) for _ in range(3)]
        B.append(B[0] + B[1])  # dependent vector: rank stays 3
        assert orthonormal_basis(B).shape[1] == 3
        assert len(subspace_intersection(B, B)) == 3

    @pytest.mark.parametrize("shared", range(4))
    @pytest.mark.parametrize("gap", [0.0, 0.5, 2.0, 1e4])
    def test_intersection_dim_of_orthonormal_spans(self, shared, gap):
        # Two spans in C^9 share `shared` directions and have one more pair
        # of directions at principal-angle cosine 1 - gap * 1e-7; the default
        # cosine floor 1 - 1e-7 counts the pair for gap 0 and 0.5 only.
        rng = np.random.default_rng(shared)
        Q, _ = np.linalg.qr(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
        delta = gap * 100 * DEFAULT_TOL.abs_tol
        c = 1.0 - delta
        tilted = c * Q[:, shared] + np.sqrt(1.0 - c * c) * Q[:, shared + 1]
        B1 = np.column_stack([Q[:, :shared], Q[:, shared : shared + 1], Q[:, 6:8]])
        B2 = np.column_stack([Q[:, :shared], tilted, Q[:, shared + 2 : shared + 4] + Q[:, 8:9]])
        Q1, Q2 = orthonormal_basis(B1), orthonormal_basis(B2)
        expected = len(subspace_intersection(B1, B2))
        assert expected == shared + (gap < 1)
        assert linalg._intersection_dim(Q1, Q2, DEFAULT_TOL) == expected
        assert linalg._intersection_dim(Q1, Q2[:, :0], DEFAULT_TOL) == 0


def reference_contains(big, vectors, tol=DEFAULT_TOL):
    """Per-vector containment test: one projection per vector."""
    Q = orthonormal_basis(big, tol)
    for v in vectors:
        nrm = np.linalg.norm(v)
        if nrm == 0:
            continue
        res = v - Q @ (Q.conj().T @ v)
        if np.max(np.abs(res)) > tol.abs_tol * 100 + tol.rel_tol * nrm:
            return False
    return True


class TestSubspaceContainsBatched:
    @pytest.fixture(scope="class")
    def mixed(self):
        """A 3-dim span in C^8 and vectors inside it, on both sides of the bound, and zero."""
        rng = np.random.default_rng(11)
        big = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        Q = orthonormal_basis(big)
        inside = [big @ (rng.standard_normal(3) + 1j * rng.standard_normal(3)) for _ in range(3)]
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        w = x - Q @ (Q.conj().T @ x)
        w /= np.max(np.abs(w))  # orthogonal to the span, largest entry of modulus 1
        base = inside[0]
        bound = DEFAULT_TOL.abs_tol * 100 + DEFAULT_TOL.rel_tol * np.linalg.norm(base)
        vectors = {
            "inside": inside,
            "within": [base + 0.99 * bound * w],
            "past": [base + 1.01 * bound * w],
            "zero": [np.zeros(8, dtype=complex)],
        }
        return big, vectors

    def test_single_vectors(self, mixed):
        big, vectors = mixed
        Q = orthonormal_basis(big)
        expected = {"inside": True, "within": True, "past": False, "zero": True}
        for kind, vecs in vectors.items():
            for v in vecs:
                assert reference_contains(big, [v]) is expected[kind], kind
                assert subspace_contains(big, [v]) is expected[kind], kind
                assert linalg._span_contains(Q, v[:, None], DEFAULT_TOL) is expected[kind], kind

    def test_every_mixture_agrees_with_reference(self, mixed):
        big, vectors = mixed
        Q = orthonormal_basis(big)
        pool = [v for vecs in vectors.values() for v in vecs]
        for k in range(1, len(pool) + 1):
            for combo in itertools.combinations(pool, k):
                want = reference_contains(big, combo)
                assert subspace_contains(big, list(combo)) is want
                assert subspace_contains(big, np.column_stack(combo)) is want
                assert linalg._span_contains(Q, np.column_stack(combo), DEFAULT_TOL) is want

    def test_zero_span(self, mixed):
        _, vectors = mixed
        empty = np.zeros((8, 1))
        assert subspace_contains(empty, vectors["zero"])
        assert not subspace_contains(empty, vectors["inside"][:1])
        assert subspace_contains(empty, [])
        no_columns = np.zeros((8, 0), dtype=complex)
        assert linalg._span_contains(no_columns, vectors["zero"][0][:, None], DEFAULT_TOL)
        assert not linalg._span_contains(no_columns, vectors["inside"][0][:, None], DEFAULT_TOL)


class TestSnap:
    def test_close_to_integer(self):
        assert snap_integer(2.0000000001) == 2

    def test_half_rejected(self):
        with pytest.raises(NotNearInteger):
            snap_integer(0.5)

    def test_block_scale_example(self):
        # n value recovered numerically for the transposition block of Rep(S3)
        assert snap_integer(1.9999999) == 2

    def test_imaginary_rejected(self):
        with pytest.raises(NotNearInteger):
            snap_integer(2.0 + 0.1j)


@given(st.complex_numbers(max_magnitude=1e6), st.complex_numbers(max_magnitude=1e6))
@settings(max_examples=50, deadline=None)
def test_tolerance_close_symmetric(a, b):
    tol = Tolerance()
    assert tol.close(a, b) == tol.close(b, a)


@given(st.integers(min_value=-10**6, max_value=10**6), st.floats(min_value=-5e-7, max_value=5e-7))
@settings(max_examples=50, deadline=None)
def test_snap_roundtrip(n, eps):
    assert snap_integer(n + eps) == n
