"""Tolerance-aware dense linear algebra over complex double precision.

Every other module sits on top of these kernels: simultaneous
diagonalization of commuting families, orthonormal bases, subspace
containment, and integer snapping.  Matrices and vectors are plain
``numpy`` arrays of ``complex128``; all randomness flows through one explicit
seed and all comparisons go through a :class:`Tolerance`.

:func:`joint_eigenspaces` works in four steps: split (eigenspaces of a seeded
random combination, refined by the single matrices), verify (every matrix
acts as a scalar on every space, within its bound), certify (the residuals of
that verification bound every commutator below the pairwise commutation
bound, see :func:`_commutation_certified`) and fall back (the dense pairwise
scan :func:`_commuting_or_raise` runs only when the certificate declines or
no seed splits; it alone raises :class:`NotCommuting`).  Each step takes the
spaces of one width as one stack, so one-dimensional spaces take no loop.
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
        # Written so that NaN, which compares false, is rejected too.
        if not (self.abs_tol >= 0 and self.rel_tol >= 0 and self.snap_tol >= 0):
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


DEFAULT_TOL = Tolerance()

_MAX_SEED_TRIES = 8


class _SplitFailed(Exception):
    """Internal: a subspace could not be split cleanly; retry with new seed."""


def _as_stack(mats) -> np.ndarray:
    """The family as one contiguous (m, n, n) array, float64 for real input,
    else complex128; a stack that is that already comes back uncopied."""
    S = np.asarray(mats)
    if S.ndim != 3 or not len(S) or S.shape[1] != S.shape[2]:
        raise ValueError(f"expected a non-empty stack of square matrices, got shape {S.shape}")
    return np.ascontiguousarray(S, dtype=np.result_type(float, S))


def _as_vector(b) -> np.ndarray:
    b = np.asarray(b, dtype=complex)
    if b.ndim != 1:
        raise ValueError(f"expected a vector, got ndim={b.ndim}")
    return b


def _canonical_phases(Q: np.ndarray) -> np.ndarray:
    """Each non-zero column of the (..., n, k) stack Q normalized and rotated
    so that its largest-magnitude entry is real positive, C-ordered, to the
    bits of one column at a time: ``|piv|`` is ``hypot``, as for a scalar."""
    W = np.ascontiguousarray(np.swapaxes(Q, -1, -2), dtype=complex)
    W /= _row_norms(W)[..., None]
    piv = np.take_along_axis(W, np.argmax(np.abs(W), axis=-1)[..., None], axis=-1)
    W *= np.hypot(piv.real, piv.imag) / piv
    return np.ascontiguousarray(np.swapaxes(W, -1, -2))


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
    return U[:, : _rank_of(s, M.shape[0], tol)]


def _rank_of(s: np.ndarray, rows: int, tol: Tolerance):
    """Number of the descending singular values ``s`` of a matrix with
    ``rows`` rows above ``max(abs_tol, s_max * max(rel_tol, rows * eps))``;
    for a stack of such rows of values, one count per row."""
    scale = max(tol.rel_tol, rows * np.finfo(float).eps)
    if s.ndim == 1:
        return int(np.sum(s > max(tol.abs_tol, s[0] * scale))) if s.size else 0
    return np.count_nonzero(s > np.maximum(tol.abs_tol, s[:, :1] * scale), axis=1)


def _numerical_rank(M: np.ndarray, tol: Tolerance):
    """The width of :func:`_orthonormal_columns` of the matrix M, from its
    singular values alone: no singular vector is formed.  A stack of
    matrices takes one batched SVD and gets one width per matrix."""
    return _rank_of(np.linalg.svd(M, compute_uv=False), M.shape[-2], tol)


def orthonormal_basis(vectors, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (as columns) of the span of the given vectors."""
    return _canonical_phases(_orthonormal_columns(vectors, tol))


def _span_contains(Q: np.ndarray, V: np.ndarray, tol: Tolerance) -> bool:
    """True when every column of V lies in span(Q) within tolerance.

    Q holds orthonormal columns; all columns of V are tested by one
    projection, and zero columns are skipped.
    """
    nrm = np.linalg.norm(V, axis=0)
    R = V - Q @ (Q.conj().T @ V) if Q.shape[1] else V
    return not bool(np.any(_outside_span(np.max(np.abs(R), axis=0, initial=0.0), nrm, tol)))


def _outside_span(residual: np.ndarray, norm: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Which columns leave a span: those of nonzero ``norm`` whose largest
    absolute ``residual`` from their projection onto it is above
    ``abs_tol * 100 + rel_tol * norm``."""
    return (norm > 0) & (residual > tol.abs_tol * 100 + tol.rel_tol * norm)


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


def _row_norms(X: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of X, to the bits of ``np.linalg.norm`` of it alone."""
    parts = (X.real, X.imag) if np.iscomplexobj(X) else (X,)
    return np.sqrt(sum(np.matmul(x[..., None, :], x[..., :, None])[..., 0, 0] for x in parts))


def _row_blocks(S: np.ndarray):
    """(start, block) over the stack in blocks of at most ``_BLOCK_BYTES``."""
    step = max(1, _BLOCK_BYTES // (S[0].size * S.itemsize))
    return ((lo, S[lo : lo + step]) for lo in range(0, len(S), step))


def _family_norms(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``max|A|`` and ``||A||_F`` of each matrix of the stack."""
    peak, fro = np.empty(len(S)), np.empty(len(S))
    for lo, blk in _row_blocks(S):
        flat = blk.reshape(len(blk), -1)
        peak[lo : lo + len(blk)], fro[lo : lo + len(blk)] = np.abs(flat).max(axis=1), _row_norms(flat)
    return peak, fro


def _commuting_or_raise(S: np.ndarray, peak: np.ndarray, tol: Tolerance) -> None:
    """Raise NotCommuting naming the first pair (i, j), i < j, that fails.

    The dense fallback of :func:`joint_eigenspaces`, run only when the
    certificate declines or no seed splits.  Each matrix is tested against
    all later ones, a row block at a time, with the pairwise bound
    ``10 * (abs_tol + rel_tol * max(1, max|A| * max|B|))`` (``peak``) on the
    largest entry of ``A @ B - B @ A``: c(c-1) n x n products for c matrices.
    """
    for i in range(len(S) - 1):
        A = S[i]
        for lo, blk in _row_blocks(S[i + 1 :]):
            lo += i + 1
            comm = np.matmul(A, blk)
            comm -= np.matmul(blk, A)
            res = np.max(np.abs(comm), axis=(1, 2))
            bound = 10 * (
                tol.abs_tol + tol.rel_tol * np.maximum(1.0, peak[i] * peak[lo : lo + len(blk)])
            )
            bad = np.flatnonzero(res > bound)
            if bad.size:
                j = lo + int(bad[0])
                raise NotCommuting(f"matrices {i} and {j} do not commute within tolerance")


def _commutation_certified(spaces: list, e2: np.ndarray, peak: np.ndarray, fro: np.ndarray, tol: Tolerance) -> bool:
    """True when the split's residuals prove that every pair of the stack
    passes the commutation bound of :func:`_commuting_or_raise`.

    Put the spaces side by side as P and let D_A hold A's block scalars, so
    that ``A P = P D_A + E_A``, with ``e2[A] = ||E_A||_F^2`` from
    :func:`_verify_joint`.  The ``P D_A P^-1`` commute, so with ``X = E P^-1``::

        [A, B] = [A, X_B] + [X_A, B] - [X_A, X_B]
        max|[A, B]| <= ||[A, B]||_2 <= 2 (a_A x_B + a_B x_A + x_A x_B)

    where ``a = ||A||_F`` (``fro``), ``x = (||E||_F + 10 n eps a) / s`` and
    ``s = s_min(P) - n eps s_max(P)``, P's smallest singular value less its
    rounding.  The ``10 n eps a`` term covers the rounding of the residuals
    and of the spaces' orthonormality, on which the split of ``||E||_F^2``
    rests; as ``s <= 1`` (P's columns have unit norm), it adds at least
    ``40 n eps a_A a_B``, more than the ``2 n eps a_A a_B`` by which rounding
    can move the scan's commutator, so a passing certificate bounds what the
    scan would measure.  It declines when P is too ill-conditioned, and the
    caller falls back to the scan.  The only new work is P's singular values.
    """
    n = len(spaces[0])
    eps = np.finfo(float).eps
    sv = np.linalg.svd(np.concatenate(spaces, axis=1), compute_uv=False)
    floor = sv[-1] - n * eps * sv[0]
    if not floor > 0:
        return False
    x = (np.sqrt(e2) + 10 * n * eps * fro) / floor
    lhs = 2 * (np.outer(fro, x) + np.outer(x, fro) + np.outer(x, x))
    bound = 10 * (tol.abs_tol + tol.rel_tol * np.maximum(1.0, np.outer(peak, peak)))
    pairs = np.triu_indices(len(fro), 1)
    # Written so that a NaN residual declines.
    return bool(np.all(lhs[pairs] <= bound[pairs]))


def _cluster_indices(values: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """Indices of near-equal eigenvalues, cluster by cluster, and the widths.
    In descending order each value joins the first cluster whose first value
    is within ``ctol`` (``hypot``, as the scalar ``abs``), else starts one;
    the loop visits only values near earlier ones but near no sure start."""
    ctol = max(tol.abs_tol, 1e-7 * max(1.0, float(np.max(np.abs(values)))))
    order = np.lexsort((-values.imag, -values.real))
    v = values[order]
    diff = v[:, None] - v
    near = np.hypot(diff.real, diff.imag) <= ctol
    earlier = np.tril(near, -1)
    first = ~earlier.any(axis=1)  # certainly starts a cluster
    for i in np.flatnonzero(~first & ~(earlier & first).any(axis=1)).tolist():
        first[i] = not (earlier[i] & first).any()
    label = np.argmax(near & first, axis=1)
    return order[np.argsort(label, kind="stable")], np.bincount(label, minlength=len(v))[first]


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
    idx, widths = _cluster_indices(w, tol)
    if len(widths) == 1:
        raise _SplitFailed("non-scalar action with unsplittable spectrum")
    return [orthonormal_basis(V @ U[:, c], tol) for c in np.split(idx, np.cumsum(widths)[:-1])]


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


def _space_residuals(rows: np.ndarray, Vs: np.ndarray) -> tuple[np.ndarray, ...]:
    """The verification residuals of h matrices on Q spaces of one width k.

    ``rows`` holds the h (n, n) matrices stacked as (h n, n) rows and ``Vs``
    the (Q, n, k) spaces.  With ``Ap = V^H A V`` and ``mu = tr(Ap) / k``,
    returns the (h, Q) arrays ``max|Ap - mu I|`` and ``max|A V - V Ap|`` and,
    per matrix, the sum over the spaces of both squared Frobenius norms.
    """
    Q, n, k = Vs.shape
    h = rows.shape[0] // n
    W = Vs.transpose(1, 0, 2).reshape(n, Q * k)
    if np.iscomplexobj(rows):
        SV = rows @ W
    else:
        SV = np.empty((h * n, Q * k), dtype=complex)
        SV.real = rows @ W.real
        SV.imag = rows @ W.imag
    SV = np.ascontiguousarray(SV.reshape(h, n, Q, k).transpose(0, 2, 1, 3))
    Ap = np.matmul(Vs.conj().transpose(0, 2, 1), SV)
    mu = np.trace(Ap, axis1=2, axis2=3) / k
    dev = np.abs(Ap - mu[:, :, None, None] * np.eye(k))
    SV -= np.matmul(Vs, Ap)
    res = np.abs(SV)
    e2 = np.einsum("hqij,hqij->h", dev, dev) + np.einsum("hqnk,hqnk->h", res, res)
    return np.max(dev, axis=(2, 3)), np.max(res, axis=(2, 3)), e2


def _verify_joint(spaces: list[np.ndarray], S: np.ndarray, peak: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Every matrix of the stack acts on every space as a scalar.

    For a space V and a matrix A, the restriction is scalar when
    ``max|Ap - mu I|`` and the space invariant when ``max|A V - V Ap|`` is
    within ``10 * abs_tol * max(1, max|A|)``, ``max|A|`` from ``peak``
    (:func:`_space_residuals`).  The spaces of one width are tested as one
    stack, a row block of matrices at a time, with at most ``_BLOCK_BYTES``
    in ``S @ [V_1 ... V_Q]``.  The first failing matrix of the first failing
    space in ``spaces`` order names the failure.

    Returns ``||E_A||_F^2`` for every A, column block q of E_A being
    ``A V_q - mu_q V_q = V_q (Ap - mu I) + (A V_q - V_q Ap)``, whose parts are
    orthogonal: the sum of both tests' squared Frobenius norms.
    """
    m, n, _ = S.shape
    bounds = 10 * tol.abs_tol * np.maximum(1.0, peak)
    flat = S.reshape(m * n, n)
    widths = np.array([V.shape[1] for V in spaces])
    # 0 passes, 1 is not scalar, 2 is scalar but not invariant.
    failed = np.zeros((m, len(spaces)), dtype=np.int8)
    e2 = np.zeros(m)
    for k in sorted(set(widths.tolist())):
        group = np.flatnonzero(widths == k)
        Vs = np.stack([spaces[q] for q in group])
        step = max(1, _BLOCK_BYTES // (n * len(group) * k * 16))
        for lo in range(0, m, step):
            hi = min(m, lo + step)
            non_scalar, not_invariant, part = _space_residuals(flat[lo * n : hi * n], Vs)
            bound = bounds[lo:hi, None]
            failed[lo:hi, group] = np.where(non_scalar > bound, 1, np.where(not_invariant > bound, 2, 0))
            e2[lo:hi] += part
    if failed.any():
        q = int(np.flatnonzero(failed.any(axis=0))[0])
        i = int(np.flatnonzero(failed[:, q])[0])
        if failed[i, q] == 1:
            raise _SplitFailed("joint eigenspace verification failed (non-scalar)")
        raise _SplitFailed("joint eigenspace verification failed (not invariant)")
    return e2


def _split(w: np.ndarray, U: np.ndarray, S: np.ndarray, tol: Tolerance) -> list[np.ndarray]:
    """Step 1 of :func:`joint_eigenspaces` from the eigenpairs (w, U): the
    :func:`orthonormal_basis` of each cluster's eigenvectors, to its bits by
    one batched SVD per cluster width, each wider one refined in order."""
    idx, widths = _cluster_indices(w, tol)
    starts = np.cumsum(widths) - widths
    bases = [None] * len(widths)  # None where the cluster is rank deficient
    for k in sorted(set(widths.tolist())):
        group = np.flatnonzero(widths == k)
        Q, s, _ = np.linalg.svd(U[:, idx[starts[group, None] + np.arange(k)]].transpose(1, 0, 2), full_matrices=False)
        for c, V, full in zip(group.tolist(), _canonical_phases(Q), _rank_of(s, len(U), tol) == k):
            bases[c] = V if full else None
    spaces, done = [], 0
    for c in [*np.flatnonzero(widths > 1).tolist(), len(widths)]:
        if any(V is None for V in bases[done : c + 1]):
            raise _SplitFailed("eigenvector cluster is rank deficient")
        spaces += bases[done:c] + (_refine(bases[c], S, tol) if c < len(widths) else [])
        done = c + 1
    return spaces


def joint_eigenspaces(mats, seed: int = 0, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Joint eigenspace decomposition of a commuting diagonalizable family.

    Each returned array holds an orthonormal basis of one maximal joint
    eigenspace (every input matrix acts on it as a scalar).  Deterministic
    given seed.  The steps, for c matrices of size n:

    1. split (:func:`_split`): eigendecompose a seeded random real linear
       combination, then refine any wider cluster with the single matrices;
    2. verify: :func:`_verify_joint` tests every matrix on every space,
       O(c n^3) work, and measures each matrix's residual ``||E_A||_F``;
    3. certify: :func:`_commutation_certified` turns those residuals into a
       proven bound on every pairwise commutator and compares it with the
       pairwise bound ``10 * (abs_tol + rel_tol * max(1, max|A| * max|B|))``;
    4. fall back: when the certificate declines, the dense O(c^2 n^3) scan
       :func:`_commuting_or_raise` runs, and passes the spaces or raises.

    A split or verification failure retries the next seed.  When all
    ``_MAX_SEED_TRIES`` seeds fail, the dense scan runs before raising
    :class:`DegenerateSeed`, so a family that does not commute raises
    :class:`NotCommuting` naming its first failing pair.
    """
    S = _as_stack(mats)
    n = S.shape[1]
    if n == 0:
        return []
    peak, fro = _family_norms(S)
    last = None
    for attempt in range(_MAX_SEED_TRIES):
        rng = np.random.default_rng(seed + attempt)
        # c_0 A_0 + c_1 A_1 + ... in order, to the bits of Python's sum, in the
        # stack's dtype: for a real stack, the real part of the complex sum.
        Y, coeffs = 0.0, rng.standard_normal(len(S))
        for lo, blk in _row_blocks(S):
            T = coeffs[lo : lo + len(blk), None, None] * blk
            T[0] += Y
            Y = np.add.reduce(T, axis=0)
        Y = Y.astype(complex, copy=False)
        try:
            w, U = np.linalg.eig(Y)
            spaces = _split(w, U, S, tol)
            if sum(V.shape[1] for V in spaces) != n:
                raise _SplitFailed("joint eigenspaces do not fill the space")
            e2 = _verify_joint(spaces, S, peak, tol)
        except _SplitFailed as exc:
            last = exc
            continue
        if not _commutation_certified(spaces, e2, peak, fro, tol):
            _commuting_or_raise(S, peak, tol)
        return spaces
    _commuting_or_raise(S, peak, tol)
    raise DegenerateSeed(f"no seed in [{seed}, {seed + _MAX_SEED_TRIES}) split cleanly: {last}")


def common_eigenbasis(mats, seed: int = 0, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Basis of simultaneous eigenvectors of a commuting family.

    Columns of the joint eigenspaces in deterministic order; every returned
    vector is an eigenvector of every input matrix.
    """
    spaces = joint_eigenspaces(mats, seed=seed, tol=tol)
    return [spaces[j][:, k] for j in range(len(spaces)) for k in range(spaces[j].shape[1])]
