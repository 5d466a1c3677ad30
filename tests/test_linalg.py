import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    subspace_intersection,
)

from conftest import s3_mult_table


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
