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
from typing import Iterable, Sequence

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance

__all__ = [
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
    "subcategory_product",
    "subcategory_product_set",
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
    if np.any(N < 0):
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
    too_big = np.abs(N) > MAX_MULTIPLICITY
    if np.any(too_big):
        i, j, k = np.argwhere(too_big)[0]
        out.append(f"multiplicity N[{i}][{j}][{k}] exceeds {MAX_MULTIPLICITY}")
        return out
    bad = _associativity_failure(N)
    if bad is not None:
        out.append("associativity fails at (i,j,l,p)=({},{},{},{})".format(*bad))
    return out


def _associativity_failure(N: np.ndarray) -> tuple[int, int, int, int] | None:
    """First (i,j,l,p) with sum_k N_ijk N_klp != sum_k N_jlk N_ikp, if any.

    One i at a time as two matrix products, so memory stays O(r^3).  Exact
    because every partial sum, in any order, is an integer of magnitude at
    most r * max|N|**2: float32 holds all of them when that is below 2**24,
    float64 otherwise (below 2**53, see ``MAX_MULTIPLICITY``).  Blocks are
    scanned in i order and each block is laid out as [j, l, p], so the index
    found is the lexicographically first.
    """
    r = N.shape[0]
    peak = max(int(N.max(initial=0)), -int(N.min(initial=0)))
    F = N.astype(np.float32 if r * peak**2 < 2**24 else np.float64)
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


# Largest (k, r, r) float32 product, in bytes, that one closure block forms.
_CLOSURE_BLOCK_BYTES = 1 << 16


def _indicator(ring: FusionRingData, indices: Iterable[int]) -> np.ndarray:
    m = np.zeros(ring.rank, dtype=np.float32)
    m[list(indices)] = 1.0
    return m


def _fusion_hit(ring: FusionRingData, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row by row, simples k with N_ijk > 0 for some i in a, j in b.

    ``a`` and ``b`` are (K, r) float32 0/1 rows; the result is (K, r) bool.
    """
    r = ring.rank
    prods = (a @ ring.support).reshape(len(a), r, r)
    return np.matmul(b[:, None, :], prods)[:, 0, :] > 0


def _raw_product_table(ring: FusionRingData, member: np.ndarray) -> np.ndarray:
    """Raw products of all ordered pairs of rows of a (S, r) bool membership matrix.

    ``out[a, b]`` is the (r,) bool row of :func:`_fusion_hit` for rows a and b.
    The product with ``support`` depends on the left row alone, so it is
    formed once per row, in row blocks whose (k, r, r) product stays below
    ``_CLOSURE_BLOCK_BYTES``, and meets every right row in one batched product.
    """
    S, r = member.shape
    m = member.astype(np.float32)
    out = np.empty((S, S, r), dtype=bool)
    step = max(1, _CLOSURE_BLOCK_BYTES // (4 * r * r))
    for lo in range(0, S, step):
        prods = (m[lo : lo + step] @ ring.support).reshape(-1, r, r)
        out[lo : lo + step] = np.matmul(m, prods) > 0
    return out


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For a (K, r) bool matrix: the first index of each distinct row, and
    for every row the position of its distinct row in that list."""
    if len(rows) == 1:
        return np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp)
    packed = np.packbits(rows, axis=1)
    keys = packed.view(f"V{packed.shape[1]}").ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse.ravel()


def _close_rows(ring: FusionRingData, member: np.ndarray) -> np.ndarray:
    """Close every row of a (K, r) bool membership matrix under duality and fusion.

    Only the rows that changed on the last pass are iterated again; equal
    rows close equally, so each distinct one is computed once per pass, in
    row blocks whose (k, r, r) product stays below ``_CLOSURE_BLOCK_BYTES``.
    """
    r = ring.rank
    dual = np.array(ring.dual)
    step = max(1, _CLOSURE_BLOCK_BYTES // (4 * r * r))
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


def enumerate_subcategories(
    ring: FusionRingData, max_closures: int = MAX_CLOSURE_CALLS
) -> list[FusionSubcategory]:
    """All fusion subcategories, by breadth-first closure of extensions.

    Complete because every fusion subcategory is the closure of a finite
    generating set.  The extensions D + {i} of one breadth-first level are
    closed together; ``max_closures`` bounds their total number.  Sorted by
    (fpdim, lexicographic indices).
    """
    trivial = subcategory_closure(ring, [])
    found: dict[tuple[int, ...], FusionSubcategory] = {trivial.indices: trivial}
    frontier = np.zeros((1, ring.rank), dtype=bool)
    frontier[0, list(trivial.indices)] = True
    calls = 0
    while len(frontier):
        # One candidate D + {i} per frontier row D and simple i outside it.
        rows, cols = np.nonzero(~frontier)
        calls += len(rows)
        if calls > max_closures:
            raise RuntimeError(f"subcategory enumeration exceeded {max_closures} closure calls")
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


def subcategory_product(
    D1: FusionSubcategory, D2: FusionSubcategory
) -> tuple[tuple[int, ...], bool]:
    """Raw product set {k : N[i][j][k] > 0, i in D1, j in D2} and closedness.

    Order matters when the ring is noncommutative; the flag reports whether
    the product set is itself a fusion subcategory.
    """
    indices = subcategory_product_set(D1, D2)
    return indices, indices == _closure_indices(D1.ring, indices)


def subcategory_product_set(D1: FusionSubcategory, D2: FusionSubcategory) -> tuple[int, ...]:
    """Raw product set {k : N[i][j][k] > 0, i in D1, j in D2}, without the closedness test."""
    ring = _check_same_ring(D1, D2)
    hit = _fusion_hit(ring, _indicator(ring, D1.indices)[None], _indicator(ring, D2.indices)[None])
    return tuple(int(k) for k in np.flatnonzero(hit[0]))


def ring_to_dict(ring: FusionRingData) -> dict:
    return {
        "labels": list(ring.labels),
        "dual": list(ring.dual),
        "N": ring.N.tolist(),
    }


def ring_from_dict(data: dict, tol: Tolerance = DEFAULT_TOL) -> FusionRingData:
    """Ring from parsed JSON; shape and entry types are checked before any cast."""
    fields = ("labels", "dual", "N")
    if not isinstance(data, dict):
        raise RingDataError([f"ring JSON must be an object with fields {', '.join(fields)}"])
    missing = [f for f in fields if f not in data]
    if missing:
        raise RingDataError([f"missing field: {', '.join(missing)}"])
    labels, dual, N = (data[f] for f in fields)
    if not all(isinstance(x, list) for x in (labels, dual, N)):
        raise RingDataError(["labels, dual and N must be lists"])
    if not all(isinstance(x, str) for x in labels):
        raise RingDataError(["labels must be strings"])
    if len(set(labels)) != len(labels):
        raise RingDataError(["labels must be distinct"])
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
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return ring_from_dict(data, tol)
