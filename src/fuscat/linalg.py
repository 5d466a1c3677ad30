"""Tolerance-aware dense linear algebra over complex double precision.

Every other module sits on top of these kernels: simultaneous
diagonalization of commuting families, orthonormal bases, subspace
containment and intersection, and integer snapping.  Matrices and vectors are plain
``numpy`` arrays of ``complex128``; all randomness flows through one explicit
seed and all comparisons go through a :class:`Tolerance`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "NotCommuting",
    "DegenerateSeed",
    "NotNearInteger",
    "common_eigenbasis",
    "joint_eigenspaces",
    "orthonormal_basis",
    "subspace_intersection",
    "subspace_contains",
    "snap_integer",
    "snap_integer_array",
]


class NotCommuting(Exception):
    """Input matrices do not commute within tolerance."""


class DegenerateSeed(Exception):
    """Random splitting failed for every retried seed."""


class NotNearInteger(Exception):
    """Value is not within snapping distance of an integer."""


@dataclass(frozen=True)
class Tolerance:
    """Comparison thresholds shared across the package.

    Equality of scalars a, b is ``|a-b| <= abs_tol + rel_tol*max(|a|,|b|)``
    (symmetric in a and b); snapping succeeds only within ``snap_tol`` of an
    integer.
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    snap_tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.abs_tol < 0 or self.rel_tol < 0 or self.snap_tol < 0:
            raise ValueError("tolerances must be non-negative")

    def close(self, a: complex, b: complex) -> bool:
        a, b = complex(a), complex(b)
        return abs(a - b) <= self.abs_tol + self.rel_tol * max(abs(a), abs(b))

    def allclose(self, a, b) -> bool:
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex)
        if a.shape != b.shape:
            return False
        bound = self.abs_tol + self.rel_tol * np.maximum(np.abs(a), np.abs(b))
        return bool(np.all(np.abs(a - b) <= bound))

    def zero(self, a) -> bool:
        return bool(np.max(np.abs(np.atleast_1d(np.asarray(a)))) <= self.abs_tol)


DEFAULT_TOL = Tolerance()

_MAX_SEED_TRIES = 8


class _SplitFailed(Exception):
    """Internal: a subspace could not be split cleanly; retry with new seed."""


def _as_stack(mats) -> np.ndarray:
    """The family as one (m, n, n) array, float64 for real input, else complex128."""
    mats = [np.asarray(M) for M in mats]
    if not mats:
        raise ValueError("need at least one matrix")
    for M in mats:
        if M.ndim != 2:
            raise ValueError(f"expected a matrix, got ndim={M.ndim}")
    n = mats[0].shape[0]
    if any(M.shape != (n, n) for M in mats):
        raise ValueError("all matrices must be square of equal dimension")
    return np.stack(mats, dtype=np.result_type(float, *mats))


def _as_vector(b) -> np.ndarray:
    b = np.asarray(b, dtype=complex)
    if b.ndim != 1:
        raise ValueError(f"expected a vector, got ndim={b.ndim}")
    return b


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    """Normalize and rotate so the largest-magnitude entry is real positive."""
    nrm = np.linalg.norm(v)
    if nrm == 0:
        return v
    v = v / nrm
    piv = v[int(np.argmax(np.abs(v)))]
    if abs(piv) > 0:
        v = v * (abs(piv) / piv)
    return v


def _orthonormal_columns(vectors, tol: Tolerance) -> np.ndarray:
    """Orthonormal basis (as columns) of the span, in the SVD's own phases."""
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        M = np.asarray(vectors, dtype=complex)
    else:
        vecs = [_as_vector(v) for v in vectors]
        if not vecs:
            return np.zeros((0, 0), dtype=complex)
        M = np.column_stack(vecs)
    if M.shape[1] == 0:
        return M
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0:
        return np.zeros((M.shape[0], 0), dtype=complex)
    thr = max(tol.abs_tol, s[0] * max(tol.rel_tol, M.shape[0] * np.finfo(float).eps))
    rank = int(np.sum(s > thr))
    return U[:, :rank]


def orthonormal_basis(vectors, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (as columns) of the span of the given vectors."""
    Q = _orthonormal_columns(vectors, tol)
    for k in range(Q.shape[1]):
        Q[:, k] = _canonical_phase(Q[:, k])
    return Q


def subspace_contains(big, vectors, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when every given vector lies in span(big) within tolerance.

    ``vectors`` is a sequence of vectors or a matrix whose columns are the
    vectors.  ``big`` is orthonormalized once and all vectors are tested by
    one projection; zero vectors are skipped.
    """
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        V = np.asarray(vectors, dtype=complex)
    else:
        vecs = [_as_vector(v) for v in vectors]
        if not vecs:
            return True
        V = np.column_stack(vecs)
    return _span_contains(_orthonormal_columns(big, tol), V, tol)


def _span_contains(Q: np.ndarray, V: np.ndarray, tol: Tolerance) -> bool:
    """:func:`subspace_contains` for a ``big`` already given by orthonormal columns Q."""
    nrm = np.linalg.norm(V, axis=0)
    R = V - Q @ (Q.conj().T @ V) if Q.shape[1] else V
    res = np.max(np.abs(R), axis=0, initial=0.0)
    outside = (nrm > 0) & (res > tol.abs_tol * 100 + tol.rel_tol * nrm)
    return not bool(np.any(outside))


def _unit_cosine_floor(tol: Tolerance) -> float:
    """Principal-angle cosines at or above this count as 1: a shared direction."""
    return 1.0 - max(100 * tol.abs_tol, 1e-8)


def subspace_intersection(B1, B2, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis of span(B1) ∩ span(B2), via principal angles."""
    Q1 = _orthonormal_columns(B1, tol)
    Q2 = _orthonormal_columns(B2, tol)
    if Q1.shape[1] == 0 or Q2.shape[1] == 0:
        return []
    if Q1.shape[0] != Q2.shape[0]:
        raise ValueError("vectors must have equal length")
    U, s, _ = np.linalg.svd(Q1.conj().T @ Q2, full_matrices=False)
    basis = Q1 @ U[:, s >= _unit_cosine_floor(tol)]
    return [_canonical_phase(basis[:, k]) for k in range(basis.shape[1])]


def _intersection_dim(Q1: np.ndarray, Q2: np.ndarray, tol: Tolerance) -> int:
    """``len(subspace_intersection(Q1, Q2))`` for spans given by orthonormal columns."""
    if Q1.shape[1] == 0 or Q2.shape[1] == 0:
        return 0
    s = np.linalg.svd(Q1.conj().T @ Q2, compute_uv=False)
    return int(np.count_nonzero(s >= _unit_cosine_floor(tol)))


def snap_integer(x, tol: Tolerance = DEFAULT_TOL) -> int:
    """Nearest integer when x is within snap_tol of one, else raise."""
    xc = complex(x)
    n = round(xc.real)
    if abs(xc.real - n) <= tol.snap_tol and abs(xc.imag) <= tol.snap_tol:
        return int(n)
    raise NotNearInteger(f"{x!r} is not within {tol.snap_tol} of an integer")


def snap_integer_array(arr, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Entrywise integer snapping of an array; raises on the worst offender."""
    arr = np.asarray(arr, dtype=complex)
    rounded = np.round(arr.real)
    dev = np.abs(arr.real - rounded) + np.abs(arr.imag)
    worst = int(np.argmax(dev))
    if dev.flat[worst] > 2 * tol.snap_tol:
        raise NotNearInteger(
            f"entry {arr.flat[worst]!r} at flat index {worst} is not near an integer"
        )
    return rounded.astype(int)


# Largest temporary, in bytes, that the batched checks of joint_eigenspaces
# allocate at once; a few hundred KB keeps them well below the family itself.
_BLOCK_BYTES = 1 << 18


def _max_abs(S: np.ndarray) -> np.ndarray:
    """max |S[i]| for each matrix of the stack, without a full-size temporary."""
    return np.array([float(np.max(np.abs(M))) for M in S])


def _commuting_or_raise(S: np.ndarray, tol: Tolerance) -> None:
    """Raise NotCommuting naming the first pair (i, j), i < j, that fails.

    Each matrix is tested against all later ones, one row block of the stack
    at a time, with the pairwise bound
    ``10 * (abs_tol + rel_tol * max(1, max|A| * max|B|))``.
    """
    m, n, _ = S.shape
    scale = _max_abs(S)
    step = max(1, _BLOCK_BYTES // (n * n * S.itemsize))
    for i in range(m - 1):
        A = S[i]
        for lo in range(i + 1, m, step):
            blk = S[lo : lo + step]
            comm = np.matmul(A, blk)
            comm -= np.matmul(blk, A)
            res = np.max(np.abs(comm), axis=(1, 2))
            bound = 10 * (
                tol.abs_tol + tol.rel_tol * np.maximum(1.0, scale[i] * scale[lo : lo + step])
            )
            bad = np.flatnonzero(res > bound)
            if bad.size:
                j = lo + int(bad[0])
                raise NotCommuting(f"matrices {i} and {j} do not commute within tolerance")


def _cluster_indices(values: np.ndarray, ctol: float) -> list[np.ndarray]:
    """Group indices of near-equal complex values; clusters in descending order."""
    order = np.lexsort((-values.imag, -values.real))
    clusters: list[list[int]] = []
    reps: list[complex] = []
    for idx in order:
        v = values[idx]
        placed = False
        for c, rep in enumerate(reps):
            if abs(v - rep) <= ctol:
                clusters[c].append(int(idx))
                placed = True
                break
        if not placed:
            clusters.append([int(idx)])
            reps.append(v)
    return [np.array(c) for c in clusters]


def _split_space(V: np.ndarray, A: np.ndarray, tol: Tolerance) -> list[np.ndarray]:
    """Split an invariant subspace by the eigenspaces of A restricted to it.

    Returns [V] unchanged when A acts as a scalar on V; raises _SplitFailed
    when A is non-scalar but its restricted eigenvalues cannot be separated.
    """
    k = V.shape[1]
    Ap = V.conj().T @ A @ V
    mu = np.trace(Ap) / k
    scale = max(1.0, float(np.max(np.abs(Ap))))
    if np.max(np.abs(Ap - mu * np.eye(k))) <= max(tol.abs_tol, 1e-9 * scale):
        return [V]
    w, U = np.linalg.eig(Ap)
    ctol = max(tol.abs_tol, 1e-7 * max(1.0, float(np.max(np.abs(w)))))
    clusters = _cluster_indices(w, ctol)
    if len(clusters) == 1:
        raise _SplitFailed("non-scalar action with unsplittable spectrum")
    return [orthonormal_basis(V @ U[:, c], tol) for c in clusters]


def _refine(V: np.ndarray, mats: Sequence[np.ndarray], tol: Tolerance) -> list[np.ndarray]:
    if V.shape[1] == 1:
        return [V]
    for A in mats:
        pieces = _split_space(V, A, tol)
        if len(pieces) > 1:
            out = []
            for piece in pieces:
                out.extend(_refine(piece, mats, tol))
            return out
    return [V]


def _verify_joint(spaces: Sequence[np.ndarray], S: np.ndarray, tol: Tolerance) -> None:
    """Every matrix of the stack acts on every space as a scalar.

    Per space, ``S @ V`` is formed once per row block of matrices and both
    tests (restriction is scalar; space is invariant) run on the whole block.
    The first failing matrix of the first failing space names the failure.
    """
    m, n, _ = S.shape
    bounds = 10 * tol.abs_tol * np.maximum(1.0, _max_abs(S))
    flat = S.reshape(m * n, n)
    for V in spaces:
        k = V.shape[1]
        step = max(1, _BLOCK_BYTES // (n * k * 16))
        for lo in range(0, m, step):
            hi = min(m, lo + step)
            rows = flat[lo * n : hi * n]
            if np.iscomplexobj(rows):
                SV = rows @ V
            else:
                SV = np.empty((rows.shape[0], k), dtype=complex)
                SV.real = rows @ V.real
                SV.imag = rows @ V.imag
            SV = SV.reshape(hi - lo, n, k)
            Ap = np.matmul(V.conj().T, SV)
            mu = np.trace(Ap, axis1=1, axis2=2) / k
            non_scalar = np.max(np.abs(Ap - mu[:, None, None] * np.eye(k)), axis=(1, 2))
            SV -= np.matmul(V, Ap)
            not_invariant = np.max(np.abs(SV), axis=(1, 2))
            bound = bounds[lo:hi]
            bad = np.flatnonzero((non_scalar > bound) | (not_invariant > bound))
            if bad.size:
                if non_scalar[bad[0]] > bound[bad[0]]:
                    raise _SplitFailed("joint eigenspace verification failed (non-scalar)")
                raise _SplitFailed("joint eigenspace verification failed (not invariant)")


def joint_eigenspaces(
    mats, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> list[np.ndarray]:
    """Joint eigenspace decomposition of a commuting diagonalizable family.

    Eigendecomposes a seeded random real linear combination, then refines any
    degenerate cluster recursively with the individual matrices.  Each
    returned array holds an orthonormal basis of one maximal joint eigenspace
    (every input matrix acts on it as a scalar).  Deterministic given seed.
    """
    S = _as_stack(mats)
    n = S.shape[1]
    if n == 0:
        return []
    _commuting_or_raise(S, tol)
    last = None
    for attempt in range(_MAX_SEED_TRIES):
        rng = np.random.default_rng(seed + attempt)
        coeffs = rng.standard_normal(len(S))
        # Summed in the stack's dtype: for a real stack the real part is the
        # same, bit for bit, as the sum of the complex casts.
        Y = sum(c * M for c, M in zip(coeffs, S)).astype(complex, copy=False)
        try:
            w, U = np.linalg.eig(Y)
            ctol = max(tol.abs_tol, 1e-7 * max(1.0, float(np.max(np.abs(w)))))
            spaces: list[np.ndarray] = []
            for c in _cluster_indices(w, ctol):
                V = orthonormal_basis(U[:, c], tol)
                if V.shape[1] != len(c):
                    raise _SplitFailed("eigenvector cluster is rank deficient")
                spaces.extend(_refine(V, S, tol))
            if sum(V.shape[1] for V in spaces) != n:
                raise _SplitFailed("joint eigenspaces do not fill the space")
            _verify_joint(spaces, S, tol)
            return spaces
        except _SplitFailed as exc:
            last = exc
    raise DegenerateSeed(f"no seed in [{seed}, {seed + _MAX_SEED_TRIES}) split cleanly: {last}")


def common_eigenbasis(mats, seed: int = 0, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Basis of simultaneous eigenvectors of a commuting family.

    Columns of the joint eigenspaces in deterministic order; every returned
    vector is an eigenvector of every input matrix.
    """
    spaces = joint_eigenspaces(mats, seed=seed, tol=tol)
    return [spaces[j][:, k] for j in range(len(spaces)) for k in range(spaces[j].shape[1])]
