"""Fusion-ring data model and the lattice of fusion subcategories.

A fusion ring is given by non-negative integer structure constants
``N[i][j][k]`` (multiplicity of the k-th simple in the product of the i-th and
j-th), a duality involution, and a distinguished unit at index 0.  Dimensions
are always the Frobenius-Perron dimensions, recomputed from N and never
trusted from input.  Subcategories are represented as sorted index sets closed
under duality and fusion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance

__all__ = [
    "EnumerationLimit",
    "PerronFailure",
    "RingDataError",
    "FusionRingData",
    "FusionSubcategory",
    "build_ring",
    "validate",
    "fp_dims",
    "subcategory_closure",
    "enumerate_subcategories",
    "subcategory_meet",
    "subcategory_join",
    "ring_to_dict",
    "ring_from_dict",
    "load_ring_json",
]

MAX_CLOSURE_CALLS = 10**6
# Multiplicities above this are rejected.  The associativity check sums r
# products of two entries in BLAS; with entries of magnitude at most 2**20
# every partial sum is an integer below r * 2**40, which float64 holds
# exactly (r * 2**40 < 2**53) for every rank r < 8192.
MAX_MULTIPLICITY = 2**20


class PerronFailure(Exception):
    """The Perron eigenvector is not positive or residuals are too large."""


class EnumerationLimit(RuntimeError):
    """Subcategory enumeration passed its bound on closure candidates."""


class RingDataError(Exception):
    """Fusion-ring data violates the ring axioms."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass(frozen=True, eq=False)
class FusionRingData:
    """Grothendieck-ring skeleton of a fusion category.

    Immutable after construction; compare by identity.  ``N[i, j, k]`` is the
    multiplicity of simple k in the product of simples i and j, ``dual`` the
    duality involution, ``dims`` the Frobenius-Perron dimensions with
    ``dims[0] == 1`` and ``global_dim == sum(dims**2)``.
    """

    labels: tuple[str, ...]
    N: np.ndarray
    dual: tuple[int, ...]
    dims: np.ndarray
    global_dim: float

    def __post_init__(self) -> None:
        N = np.ascontiguousarray(np.asarray(self.N, dtype=int))
        dims = np.ascontiguousarray(np.asarray(self.dims, dtype=float))
        N.setflags(write=False)
        dims.setflags(write=False)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "dual", tuple(int(i) for i in self.dual))
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))

    @property
    def rank(self) -> int:
        return len(self.labels)

    @cached_property
    def commutative(self) -> bool:
        return bool(np.array_equal(self.N, self.N.transpose(1, 0, 2)))

    @cached_property
    def N_float(self) -> np.ndarray:
        out = self.N.astype(float)
        out.setflags(write=False)
        return out

    @cached_property
    def support(self) -> np.ndarray:
        """0/1 matrix of shape (r, r*r): entry [i, j*r + k] is [N_ijk > 0].

        float32 halves the memory traffic of the closure products; a sum of
        non-negative terms of which one is 1 stays positive after rounding, so
        the ``> 0`` test on those products is exact at any rank.
        """
        out = (self.N > 0).astype(np.float32).reshape(self.rank, -1)
        out.setflags(write=False)
        return out

    def __repr__(self) -> str:
        return f"FusionRingData(rank={self.rank}, labels={list(self.labels)})"


@dataclass(frozen=True)
class FusionSubcategory:
    """Fusion subcategory as a sorted index set; compared by indices only."""

    indices: tuple[int, ...]
    fpdim: float = field(compare=False)
    ring: FusionRingData = field(compare=False, repr=False)

    def __contains__(self, i: int) -> bool:
        return i in self.indices

    def __len__(self) -> int:
        return len(self.indices)

    def __repr__(self) -> str:
        names = ",".join(self.ring.labels[i] for i in self.indices)
        return f"FusionSubcategory({{{names}}}, fpdim={self.fpdim:.6g})"


def _structure_violations(N: np.ndarray, dual: Sequence[int]) -> list[str]:
    """Unit, duality, and associativity axioms on raw structure constants."""
    out: list[str] = []
    r = N.shape[0]
    if N.shape != (r, r, r):
        return [f"N must be rank x rank x rank, got {N.shape}"]
    if len(dual) != r:
        return [f"dual must have length {r}, got {len(dual)}"]
    # Sign and magnitude from two reductions; the offender is located only
    # when there is one.
    lo, hi = int(N.min(initial=0)), int(N.max(initial=0))
    if lo < 0:
        i, j, k = np.unravel_index(int(np.argmin(N)), N.shape)
        out.append(f"negative multiplicity N[{i}][{j}][{k}]")
    eye = np.eye(r, dtype=int)
    if not np.array_equal(N[0], eye):
        bad = np.argwhere(N[0] != eye)[0]
        out.append(f"unit axiom fails: N[0][{bad[0]}][{bad[1]}] != delta")
    if not np.array_equal(N[:, 0, :], eye):
        bad = np.argwhere(N[:, 0, :] != eye)[0]
        out.append(f"unit axiom fails: N[{bad[0]}][0][{bad[1]}] != delta")
    dual = [int(x) for x in dual]
    if sorted(dual) != list(range(r)):
        out.append("dual is not a permutation of the index set")
    else:
        if dual[0] != 0:
            out.append("dual(0) != 0")
        for i in range(r):
            if dual[dual[i]] != i:
                out.append(f"dual is not an involution at index {i}")
                break
        expected = np.zeros((r, r), dtype=int)
        for i in range(r):
            expected[i, dual[i]] = 1
        if not np.array_equal(N[:, :, 0], expected):
            bad = np.argwhere(N[:, :, 0] != expected)[0]
            out.append(f"duality axiom fails: N[{bad[0]}][{bad[1]}][0]")
    if max(hi, -lo) > MAX_MULTIPLICITY:
        i, j, k = np.argwhere((N > MAX_MULTIPLICITY) | (N < -MAX_MULTIPLICITY))[0]
        out.append(f"multiplicity N[{i}][{j}][{k}] exceeds {MAX_MULTIPLICITY}")
        return out
    # The certificate is sound only when e_0 is a two-sided unit, so it runs
    # only on data that passed every check above; the dense scan stays the
    # only reporter of a failure.
    if not out and r >= _WORD_PROOF_MIN_RANK and _associative_by_words(N):
        return out
    bad = _associativity_failure(N)
    if bad is not None:
        out.append("associativity fails at (i,j,l,p)=({},{},{},{})".format(*bad))
    return out


def _exact_float(N: np.ndarray) -> np.ndarray:
    """N as the narrowest float type in which every sum of r products of two
    entries is exact: every partial sum, in any order, is an integer of
    magnitude at most r * max|N|**2, which float32 holds when that is below
    2**24 and float64 otherwise (below 2**53, see ``MAX_MULTIPLICITY``)."""
    r = N.shape[0]
    peak = max(int(N.max(initial=0)), -int(N.min(initial=0)))
    return N.astype(np.float32 if r * peak**2 < 2**24 else np.float64)


def _associativity_failure(N: np.ndarray) -> tuple[int, int, int, int] | None:
    """First (i,j,l,p) with sum_k N_ijk N_klp != sum_k N_jlk N_ikp, if any.

    One i at a time as two matrix products in the exact float type of
    :func:`_exact_float`, so memory stays O(r^3).  Blocks are scanned in i
    order and each block is laid out as [j, l, p], so the index found is the
    lexicographically first.
    """
    r = N.shape[0]
    F = _exact_float(N)
    right = F.reshape(r, r * r)
    left = F.reshape(r * r, r)
    # Two (r, r*r) buffers reused for every i; rhs is written through the
    # (r*r, r) view that left @ F[i] produces.
    lhs = np.empty((r, r * r), dtype=F.dtype)
    rhs = np.empty((r, r * r), dtype=F.dtype)
    for i in range(r):
        np.matmul(F[i], right, out=lhs)
        np.matmul(left, F[i], out=rhs.reshape(r * r, r))
        if not np.array_equal(lhs, rhs):
            j, l, p = np.argwhere((lhs != rhs).reshape(r, r, r))[0]
            return i, int(j), int(l), int(p)
    return None


def _associative_by_words(N: np.ndarray) -> bool:
    """True only if the ring is associative; False means "not proved".

    Light's test.  A = {a : (x a) y = x (a y) for all simples x, y} is a
    linear subspace, holds e_0 by the unit axioms, and is closed under
    products: (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).  So when
    every generator g of :func:`_word_generators` lies in A, A holds every
    word over them, and the words span the ring.  Per g this compares
    lhs[x, y, p] = sum_k N_xgk N_kyp with rhs[x, y, p] = sum_k N_gyk N_xkp,
    two (r, r, r) products in the exact float type of :func:`_exact_float`:
    |G| r^4 multiply-adds per side instead of the dense scan's r^5.
    """
    r = N.shape[0]
    # The search's working arrays are freed before the float buffers exist,
    # so the peak memory is the dense scan's.
    gens = _word_generators(N)
    F = _exact_float(N)
    right = F.reshape(r, r * r)
    lhs = np.empty((r, r * r), dtype=F.dtype)
    rhs = np.empty((r, r, r), dtype=F.dtype)
    for g in gens:
        np.matmul(F[:, g, :], right, out=lhs)
        np.matmul(F[g], F, out=rhs)
        if not np.array_equal(lhs, rhs.reshape(r, r * r)):
            return False
    return True


# Prime modulus of the word search; float64 holds its products of residues exactly.
_WORD_PRIME = 65521
# Rank from which build_ring proves associativity by words before any dense
# scan.  With one BLAS thread the word proof costs 1.8x the scan on
# vec:symmetric:4 (rank 24), 0.9x on SU(2)_23, 0.35x on SU(2)_29 (rank 30).
_WORD_PROOF_MIN_RANK = 29


def _word_generators(N: np.ndarray) -> list[int]:
    """Simples G whose left-normed words (e_0 g_1 g_2 ... g_n) span Q^r.

    A Krylov search mod ``_WORD_PRIME``: the span starts as {e_0} and is
    closed under right multiplication by the generators found so far
    (v -> v N[:, g, :]); once closed, the first simple outside it joins G
    and the span owes its products with it (e_0 g = g).  Each round doubles
    the owed rows v of each generator M into v M, ..., v M^n, with n rows
    per v for the r - k missing dimensions, and reduces all chains by one
    :func:`_extend_mod`; the rows that entered are owed to every generator.
    Rank r mod p implies rank r over Q, since some r x r minor of the
    integer word vectors is non-zero mod p and so non-zero.
    """
    p, r = _WORD_PRIME, N.shape[0]
    # The span's reduced basis and pivots, and per generator g the matrix N[:, g, :] to the 2**i.
    basis, pivots, powers, gens = np.eye(1, r), [0], [], []
    while len(pivots) < r:
        # The first simple outside the span: a row of I the basis does not clear.
        outside = np.eye(r)
        outside[pivots] -= basis
        g = int(np.flatnonzero(outside.any(axis=1))[0])
        gens.append(g)
        powers.append([(N[:, g, :] % p).astype(float)])
        owed = [basis[:0]] * (len(gens) - 1) + [basis]
        while len(owed[-1]) and len(pivots) < r:
            chains = []
            for rows, squares in zip(owed, powers):
                chain, i = _mod(rows @ squares[0], p), 0
                while 0 < len(chain) < r - len(pivots):
                    if i == len(squares):
                        squares.append(_mod(squares[-1] @ squares[-1], p))
                    chain, i = np.concatenate([chain, _mod(chain @ squares[i], p)]), i + 1
                chains.append(chain)
            basis, pivots, new = _extend_mod(basis, pivots, np.concatenate(chains), p)
            owed = [new] * len(gens)
    return gens


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x less a multiple of p, of magnitude at most p, for float integers
    below 2**53: exact, and 0 exactly on multiples of p (x / p is then exact)."""
    return x - np.rint(x / p) * p


def _extend_mod(basis: np.ndarray, pivots: list[int], rows: np.ndarray, p: int) -> tuple:
    """The reduced basis of the span of ``basis`` and ``rows`` mod p (row i
    is 1 at ``pivots[i]``, 0 at the other pivots), and the rows that entered.
    Each pass takes one row per distinct last non-zero column, triangular on
    those columns, reduces them by the triangle's inverse and clears their
    columns from the rest: Krylov rows take a pass or two.
    """
    r = rows.shape[1]
    rows = _mod(rows - rows[:, pivots] @ basis, p)
    entered = [rows[:0]]
    while len(rows := rows[rows.any(axis=1)]):
        last = r - 1 - np.argmax(rows[:, ::-1] != 0, axis=1)
        order = np.argsort(last, kind="stable")
        first = order[np.diff(last[order], prepend=-1) != 0]
        cols = last[first].tolist()
        inv = np.array([pow(int(x), -1, p) for x in rows[first, cols].tolist()], dtype=float)
        P = _mod(rows[first] * inv[:, None], p)
        # P[:, cols] is I + L, L strictly lower: its inverse is (I - L)(I + L^2)(I + L^4)...
        eye = np.eye(len(cols))
        L = P[:, cols] - eye
        T = _mod(eye - L, p)
        while (L := _mod(L @ L, p)).any():
            T = _mod(T @ (eye + L), p)
        P = _mod(T @ P, p)
        rows = _mod(rows - rows[:, cols] @ P, p)
        basis = np.concatenate([_mod(basis - basis[:, cols] @ P, p), P])
        pivots = pivots + cols
        entered.append(P)
    return basis, pivots, np.concatenate(entered)


def fp_dims(N) -> tuple[np.ndarray, float]:
    """Frobenius-Perron dimensions and global dimension from the N tensor.

    The dimension vector is the Perron eigenvector of the total left
    multiplication matrix, normalized so the unit has dimension 1.
    """
    N = np.asarray(N, dtype=float)
    M = N.sum(axis=0)
    w, V = np.linalg.eig(M)
    idx = int(np.argmax(w.real))
    v = V[:, idx]
    if abs(v[0]) < 1e-12:
        raise PerronFailure("Perron eigenvector vanishes at the unit index")
    v = v / v[0]
    if np.max(np.abs(v.imag)) > 1e-8 or np.any(v.real <= 0):
        raise PerronFailure("Perron eigenvector is not strictly positive")
    dims = v.real
    prod = np.einsum("ijk,k->ij", N, dims)
    outer = np.outer(dims, dims)
    residual = float(np.max(np.abs(prod - outer)))
    if residual > 1e-8 * max(1.0, float(np.max(np.abs(outer)))):
        raise PerronFailure(f"dimension homomorphism residual {residual:.3e}")
    return dims, float(np.sum(dims**2))


def build_ring(
    labels: Sequence[str], N, dual: Sequence[int], tol: Tolerance = DEFAULT_TOL
) -> FusionRingData:
    """Validate structure constants and build a ring with computed dimensions."""
    N = np.asarray(N, dtype=int)
    violations = _structure_violations(N, dual)
    if violations:
        raise RingDataError(violations)
    if len(labels) != N.shape[0]:
        raise RingDataError([f"{len(labels)} labels for rank {N.shape[0]}"])
    dims, global_dim = fp_dims(N)
    ring = FusionRingData(tuple(labels), N, tuple(dual), dims, global_dim)
    post = _dimension_violations(ring, tol)
    if post:
        raise RingDataError(post)
    return ring


def validate(ring: FusionRingData, tol: Tolerance = DEFAULT_TOL) -> list[str]:
    """Check every ring axiom; returns a list of violations (empty = ok)."""
    return _structure_violations(ring.N, ring.dual) + _dimension_violations(ring, tol)


def _dimension_violations(ring: FusionRingData, tol: Tolerance) -> list[str]:
    """Unit dimension, positivity, homomorphism, sphericality and global dimension."""
    out: list[str] = []
    d = ring.dims
    if not tol.close(d[0], 1.0):
        out.append(f"d_0 = {d[0]!r} != 1")
    if np.any(d < 1.0 - 1e-8):
        out.append(f"dimension below 1 at index {int(np.argmin(d))}")
    prod = np.einsum("ijk,k->ij", ring.N_float, d)
    outer = np.outer(d, d)
    if not tol.allclose(prod, outer):
        bad = np.unravel_index(int(np.argmax(np.abs(prod - outer))), prod.shape)
        out.append(f"dimension homomorphism fails at (i,j)=({bad[0]},{bad[1]})")
    for i in range(ring.rank):
        if not tol.close(d[i], d[ring.dual[i]]):
            out.append(f"sphericality fails: d_{i} != d_{ring.dual[i]}")
    if not tol.close(ring.global_dim, float(np.sum(d**2))):
        out.append("global_dim != sum of squared dimensions")
    return out


# Byte budget of the float32 products that one closure block forms up to
# rank 40; above it the budget grows as r^3 (_closure_rows_per_block).
_CLOSURE_BLOCK_BYTES = 1 << 16


def _closure_rows_per_block(r: int, row_floats: int) -> int:
    """Rows per closure block at rank r, for blocks that form ``row_floats``
    float32 values per row.

    Every block multiplies its rows by the whole (r, r^2) ``support`` table,
    so one-row blocks stream that table once per row.  The budget is
    ``_CLOSURE_BLOCK_BYTES`` times r^3 // 2^15, at least once (up to rank 40),
    so a block stays below 2 r^3 bytes: with r^2 values per row that is about
    r / 2 rows (27 at r = 60, 59 at r = 120).  A budget of 1 byte gives
    one-row blocks at every rank.
    """
    budget = _CLOSURE_BLOCK_BYTES * max(1, r**3 // 2**15)
    return max(1, budget // (4 * row_floats))


def _fusion_hit(ring: FusionRingData, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row by row, simples k with N_ijk > 0 for some i in a, j in b.

    ``a`` and ``b`` are (K, r) float32 0/1 rows; the result is (K, r) bool.
    """
    r = ring.rank
    prods = (a @ ring.support).reshape(len(a), r, r)
    return np.matmul(b[:, None, :], prods)[:, 0, :] > 0


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """(K,) keys of the rows of a (K, r) bool matrix, equal exactly when the rows are."""
    packed = np.packbits(rows, axis=1)
    return packed.view(f"V{packed.shape[1]}").ravel()


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For a (K, r) bool matrix: the first index of each distinct row, and
    for every row the position of its distinct row in that list."""
    if len(rows) == 1:
        return np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp)
    _, first, inverse = np.unique(_row_keys(rows), return_index=True, return_inverse=True)
    return first, inverse.ravel()


def _close_rows(ring: FusionRingData, member: np.ndarray) -> np.ndarray:
    """Close every row of a (K, r) bool membership matrix under duality and fusion.

    Only the rows that changed on the last pass are iterated again; equal
    rows close equally, so each distinct one is computed once per pass, in
    row blocks of :func:`_closure_rows_per_block` rows.
    """
    r = ring.rank
    dual = np.array(ring.dual)
    step = _closure_rows_per_block(r, r * r)
    active = np.arange(len(member))
    while active.size:
        rows = member[active]
        first, inverse = _distinct_rows(rows)
        cur = rows[first]
        new = cur | cur[:, dual]
        for lo in range(0, len(new), step):
            m = new[lo : lo + step].astype(np.float32)
            new[lo : lo + step] |= _fusion_hit(ring, m, m)
        changed = np.any(new != cur, axis=1)
        member[active] = new[inverse]
        active = active[changed[inverse]]
    return member


def _closure_indices(ring: FusionRingData, seeds: Iterable[int]) -> tuple[int, ...]:
    member = np.zeros((1, ring.rank), dtype=bool)
    member[0, 0] = True
    for s in seeds:
        if not 0 <= int(s) < ring.rank:
            raise ValueError(f"seed index {s} out of range")
        member[0, int(s)] = True
    return tuple(np.flatnonzero(_close_rows(ring, member)[0]).tolist())


def _make_subcategory(ring: FusionRingData, indices: tuple[int, ...]) -> FusionSubcategory:
    fpdim = float(np.sum(ring.dims[list(indices)] ** 2))
    return FusionSubcategory(indices, fpdim, ring)


def subcategory_closure(ring: FusionRingData, seeds: Iterable[int]) -> FusionSubcategory:
    """Smallest fusion subcategory containing the unit and the seed simples."""
    return _make_subcategory(ring, _closure_indices(ring, seeds))


def _coset_tables(ring: FusionRingData, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (k, r, r) float32 coset tables of a block of (k, r) bool rows D.

    ``left[j, x] > 0`` when x ⊂ d⊗j and ``right[x, y] > 0`` when y ⊂ x⊗d′,
    for some d, d′ in D.  ``left`` is one product with ``support``; since
    y ⊂ x⊗d′ exactly when x* ⊂ d′⊗y* (the trace is cyclic, see
    :func:`enumerate_subcategories`), ``right[x, y] = left[y*, x*]``.
    """
    r = ring.rank
    dual = np.array(ring.dual)
    left = (rows.astype(np.float32) @ ring.support).reshape(-1, r, r)
    return left, left[:, dual][:, :, dual].transpose(0, 2, 1)


def _coset_heads(ring: FusionRingData, member: np.ndarray) -> np.ndarray:
    """For each row D of a (K, r) bool matrix of subcategories, the simples
    j outside D that are the smallest index of their double coset D·j·D.

    Row j of ``left @ right`` (:func:`_coset_tables`) marks D·j·D.  Row
    blocks form three (r, r) float32 arrays per row.
    """
    K, r = member.shape
    heads = np.empty((K, r), dtype=bool)
    step = _closure_rows_per_block(r, 3 * r * r)
    for lo in range(0, K, step):
        left, right = _coset_tables(ring, member[lo : lo + step])
        coset = np.matmul(left, right) > 0
        heads[lo : lo + step] = np.argmax(coset, axis=2) == np.arange(r)
    return heads & ~member


def _right_cosets(ring: FusionRingData, member: np.ndarray) -> np.ndarray:
    """Class ids of the right cosets x⊗D, for each row D of a (K, r) bool
    matrix of subcategories: entry x is the smallest simple of x⊗D.

    They partition the simples: x ⊂ x⊗1, and z ⊂ y⊗d″ with y ⊂ x⊗d′ lies
    in x⊗d′⊗d″ ⊂ x⊗D as D is closed.  For symmetry let T[x, y] =
    Σ_{d∈D} d_d N_xd^y, positive exactly when y ⊂ x⊗D.  T d = dim(D)·d, and
    since N_xd^y = N_dy*^x* (cyclic trace) and d_x* = d_x, also dᵀT =
    dim(D)·dᵀ.  Summed over U = y⊗D, which holds the coset of each of its
    members, the two leave Σ_{x∉U, u∈U} d_x T[x, u] d_u = 0, so y ⊂ x⊗D
    puts x in U.  Row blocks form two (r, r) float32 arrays per row.
    """
    K, r = member.shape
    out = np.empty((K, r), dtype=np.intp)
    step = _closure_rows_per_block(r, 2 * r * r)
    for lo in range(0, K, step):
        right = _coset_tables(ring, member[lo : lo + step])[1]
        out[lo : lo + step] = np.argmax(right > 0, axis=2)
    return out


def enumerate_subcategories(
    ring: FusionRingData, max_closures: int = MAX_CLOSURE_CALLS
) -> list[FusionSubcategory]:
    """All fusion subcategories, by breadth-first closure of extensions.

    Complete because every fusion subcategory is the closure of a finite
    generating set.  Each breadth-first level extends every subcategory D
    found on the level before by one simple i outside it, but closes only
    one candidate D + {i} per double coset D·i·D: the i that is the smallest
    index of its coset.  ``max_closures`` bounds the number of candidates
    D + {i}, closed or skipped.  Sorted by (fpdim, lexicographic indices).

    Lemma: if j ⊂ d⊗i⊗d′ for some d, d′ in D, then closure(D + {j}) =
    closure(D + {i}).  Write τ for the coefficient of the unit, so that
    N_ab^c = τ(a b c*) because N_kc*^0 = δ_{c,k}.  On simples τ(ab) =
    N_ab^0 = δ_{b,a*} is symmetric, so with associativity τ(xyz) = τ(yzx).
    closure(D + {i}) holds d, i and d′, so it holds j.  Conversely, let
    E = closure(D + {j}) and x a simple with N_di^x > 0 and N_xd′^j > 0.
    Then N_d′j*^x* = τ(d′ j* x) = τ(x d′ j*) = N_xd′^j > 0, so x* ⊂ d′⊗j*
    lies in E, hence x does; and N_x*d^i* = τ(x* d i) = τ(d i x*) = N_di^x
    > 0, so i* and i lie in E.  The axioms used (unit, duality,
    associativity) are the ones :func:`build_ring` validates.  With d = d′ = 1 the relation "j lies in
    D·i·D" is reflexive, the lemma's second half makes it symmetric and D
    being closed makes it transitive, so the double cosets partition the
    simples, and each skipped candidate closes to the row of its coset's
    smallest index.
    """
    trivial = subcategory_closure(ring, [])
    found: dict[tuple[int, ...], FusionSubcategory] = {trivial.indices: trivial}
    frontier = np.zeros((1, ring.rank), dtype=bool)
    frontier[0, list(trivial.indices)] = True
    calls = 0
    while len(frontier):
        # Every candidate D + {i} counts; one per double coset is closed.
        calls += int(np.count_nonzero(~frontier))
        if calls > max_closures:
            raise EnumerationLimit(f"subcategory enumeration exceeded {max_closures} closure calls")
        rows, cols = np.nonzero(_coset_heads(ring, frontier))
        candidates = frontier[rows]
        candidates[np.arange(len(rows)), cols] = True
        closed = _close_rows(ring, candidates)
        new = []
        for row in closed[_distinct_rows(closed)[0]]:
            indices = tuple(np.flatnonzero(row).tolist())
            if indices not in found:
                found[indices] = _make_subcategory(ring, indices)
                new.append(row)
        frontier = np.array(new, dtype=bool).reshape(len(new), ring.rank)
    return sorted(found.values(), key=lambda D: (round(D.fpdim, 9), D.indices))


def _check_same_ring(D1: FusionSubcategory, D2: FusionSubcategory) -> FusionRingData:
    if D1.ring is not D2.ring:
        raise ValueError("subcategories belong to different rings")
    return D1.ring


def subcategory_meet(D1: FusionSubcategory, D2: FusionSubcategory) -> FusionSubcategory:
    """Intersection of index sets (automatically a fusion subcategory)."""
    ring = _check_same_ring(D1, D2)
    return _make_subcategory(ring, tuple(sorted(set(D1.indices) & set(D2.indices))))


def subcategory_join(D1: FusionSubcategory, D2: FusionSubcategory) -> FusionSubcategory:
    """Closure of the union of index sets."""
    ring = _check_same_ring(D1, D2)
    return subcategory_closure(ring, set(D1.indices) | set(D2.indices))


def ring_to_dict(ring: FusionRingData) -> dict:
    return {
        "labels": list(ring.labels),
        "dual": list(ring.dual),
        "N": ring.N.tolist(),
    }


def ring_from_dict(data: dict, tol: Tolerance = DEFAULT_TOL) -> FusionRingData:
    """Ring from parsed JSON; shape and entry types are checked before any cast."""
    labels, dual, N = _json_fields(data, _RING_FIELDS)
    r = len(N)
    cube = all(
        isinstance(row, list)
        and len(row) == r
        and all(isinstance(v, list) and len(v) == r for v in row)
        for row in N
    )
    if not cube:
        raise RingDataError([f"N must be a {r} x {r} x {r} nested list"])
    N = _integer_array(N, 3, MAX_MULTIPLICITY)
    if N is None:
        raise RingDataError([f"N entries must be integers of magnitude at most {MAX_MULTIPLICITY}"])
    return _json_ring(labels, dual, N, tol)


_RING_FIELDS = ("labels", "dual", "N")


def _json_fields(data, names: tuple[str, ...]) -> list:
    """The values of the fields ``names`` (labels first) of parsed ring JSON:
    an object holding them as lists, with distinct string labels."""
    if not isinstance(data, dict):
        raise RingDataError([f"ring JSON must be an object with fields {', '.join(_RING_FIELDS)}"])
    missing = [f for f in names if f not in data]
    if missing:
        raise RingDataError([f"missing field: {', '.join(missing)}"])
    values = [data[f] for f in names]
    if not all(isinstance(x, list) for x in values):
        raise RingDataError(["labels, dual and N must be lists"])
    labels = values[0]
    if not all(isinstance(x, str) for x in labels):
        raise RingDataError(["labels must be strings"])
    if len(set(labels)) != len(labels):
        raise RingDataError(["labels must be distinct"])
    return values


def _json_ring(labels: list, dual: list, N: np.ndarray, tol: Tolerance) -> FusionRingData:
    """:func:`build_ring` on checked labels and an integer N, once the dual
    entries pass their type check."""
    dual = _integer_array(dual, 1, MAX_MULTIPLICITY)
    if dual is None:
        raise RingDataError([f"dual entries must be integers of magnitude at most {MAX_MULTIPLICITY}"])
    return build_ring(labels, N, dual.tolist(), tol)


def _integer_array(values: list, depth: int, bound: int) -> np.ndarray | None:
    """A regular nested list of JSON integers as an int64 array, else None.

    One C-level scan of the entry types (booleans are not numbers here), then
    one cast checked as a whole.  Integer-valued floats are accepted; NaN,
    infinities, fractions and magnitudes above ``bound`` are not.
    """
    flat = values
    for _ in range(depth - 1):
        flat = chain.from_iterable(flat)
    types = set(map(type, flat))
    if not types <= {int, float}:
        return None
    try:
        if float in types:
            real = np.array(values, dtype=float)
            if not np.all(np.abs(real) <= bound) or not np.all(real == np.trunc(real)):
                return None
            arr = real.astype(np.int64)
        else:
            arr = np.array(values, dtype=np.int64)
    except OverflowError:
        return None
    if arr.size and (arr.max() > bound or arr.min() < -bound):
        return None
    return arr


def load_ring_json(path, tol: Tolerance = DEFAULT_TOL) -> FusionRingData:
    """Ring from a ``ring:`` JSON file.

    A file whose ``N`` is a cube of one-digit entries (:func:`_digit_cube`)
    is read without a Python int per entry.  Every other file is read again
    through ``json.load`` and :func:`ring_from_dict`, and that path alone
    words the errors about the file's syntax and its N.
    """
    with open(path, "rb") as fh:
        scanned = _scan_ring(fh.read())
    if scanned is None:
        with open(path, "r", encoding="utf-8") as fh:
            return ring_from_dict(json.load(fh), tol)
    fields, N = scanned
    # The scan read N as a list, so only labels and dual are left to check.
    labels, dual = _json_fields(fields, ("labels", "dual"))
    return _json_ring(labels, dual, N, tol)


def _scan_ring(raw: bytes) -> tuple[dict, np.ndarray] | None:
    """The top-level fields of a ring file but N, and its N as an int64
    array, or None when the file is not UTF-8 JSON whose last ``N`` is a cube
    of one-digit entries.

    The walk follows ``json``'s own object parser: keys through
    ``scanstring``, every value but N through ``raw_decode``, so every other
    field, and which of repeated keys wins, is exactly what ``json.loads``
    gives.  N ends at the last ``]`` before the next ``"`` or ``}``; if that
    is not where the value ends, the bytes up to it are no cube.
    """
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        return None
    ws = json.decoder.WHITESPACE.match
    decode = json.JSONDecoder().raw_decode
    ascii_only = len(text) == len(raw)
    fields: dict = {}
    try:
        i = ws(text, 0).end()
        if text[i : i + 1] != "{":
            return None
        i = ws(text, i + 1).end()
        while text[i : i + 1] == '"':
            key, i = json.decoder.scanstring(text, i + 1)
            i = ws(text, i).end()
            if text[i : i + 1] != ":":
                return None
            i = ws(text, i + 1).end()
            if key == "N" and text[i : i + 1] == "[":
                start = i if ascii_only else len(text[:i].encode("utf-8"))
                stops = [k for k in (raw.find(b'"', start), raw.find(b"}", start)) if k >= 0]
                end = raw.rfind(b"]", start, min(stops, default=len(raw))) + 1
                value = _digit_cube(raw, start, end) if end else None
                if value is None:
                    return None
                i += end - start
            else:
                value, i = decode(text, i)
            fields[key] = value
            i = ws(text, i).end()
            if text[i : i + 1] == ",":
                i = ws(text, i + 1).end()
            elif text[i : i + 1] == "}":
                break
            else:
                return None
        else:
            return None
    except (ValueError, RecursionError):
        return None
    cube = fields.pop("N", None)
    if ws(text, i + 1).end() != len(text) or not isinstance(cube, _Cube):
        return None
    # The file's bytes and text go before N is built (the caller passes the
    # bytes without keeping them), so only the cube's compact copy is left.
    del raw, text
    # Entry (i, j, k) is one digit at a fixed stride of the compact text.
    r = cube.r
    digits = np.lib.stride_tricks.as_strided(
        np.frombuffer(cube.compact, np.uint8)[3:],
        shape=(r, r, r),
        strides=(2 * r * r + 2 * r + 2, 2 * r + 2, 2),
        writeable=False,
    )
    return fields, np.subtract(digits, ord("0"), dtype=np.int64)


# JSON whitespace, and the digits mapped to "0" for the comparison with the
# cube's template.
_JSON_WS = b" \t\n\r"
_DIGITS_TO_ZERO = bytes.maketrans(b"123456789", b"000000000")
# Bytes of the span whitespace is deleted from at a time.
_SCAN_BLOCK = 1 << 16


class _Cube(NamedTuple):
    """N's text without whitespace, checked as an r x r x r cube of
    one-digit entries."""

    compact: bytearray
    r: int


def _is_template(buf, r: int) -> bool:
    """Whether ``buf`` with its digits mapped to ``0`` is the compact JSON of
    the r x r x r cube of zeros, compared one r x r row at a time."""
    inner = b"[" + b"0," * (r - 1) + b"0]"
    row = b"[" + (inner + b",") * (r - 1) + inner + b"]"
    step = len(row) + 1
    if len(buf) != 1 + r * step or buf[:1] != b"[":
        return False
    # Row i fills buf[1 + i * step : (i + 1) * step]; a "," follows each row
    # but the last, which the closing "]" follows.
    if any(buf[a : a + len(row)].translate(_DIGITS_TO_ZERO) != row for a in range(1, len(buf), step)):
        return False
    return buf[step::step] == b"," * (r - 1) + b"]"


def _digit_cube(raw: bytes, start: int, end: int) -> _Cube | None:
    """The JSON array ``raw[start:end]`` as a :class:`_Cube` when it nests
    exactly r x r x r entries of one digit each, with JSON whitespace
    anywhere between them, else None.

    With the whitespace deleted such a cube is its template, the compact
    zero cube, with digits in place of the zeros.  Anything else, a sign, a
    second digit, a fraction or an exponent included, is no such cube.
    """
    compact = bytearray()
    for a in range(start, end, _SCAN_BLOCK):
        compact += raw[a : min(a + _SCAN_BLOCK, end)].translate(None, _JSON_WS)
    # r is the length of the first innermost list; the template's size
    # bounds it by the length of the text before any template row is built.
    first = compact.find(b"]")
    r = compact.count(b",", 0, first) + 1
    if first < 0 or 2 * r**3 + 2 * r**2 + 2 * r + 1 > len(compact):
        return None
    return _Cube(compact, r) if _is_template(compact, r) else None
