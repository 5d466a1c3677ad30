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
import math
from dataclasses import dataclass, field
from functools import cached_property
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
    "ring_to_dict",
    "ring_from_dict",
    "load_ring_json",
]

MAX_CLOSURE_CALLS = 10**6
# Input multiplicities above this are rejected: the bound keeps the r^4
# associativity sums exact in int64 at any rank that fits in memory.
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
    lhs = np.einsum("ijk,klp->ijlp", N, N)
    rhs = np.einsum("jlk,ikp->ijlp", N, N)
    if not np.array_equal(lhs, rhs):
        bad = np.argwhere(lhs != rhs)[0]
        out.append(
            "associativity fails at (i,j,l,p)=({},{},{},{})".format(*(int(x) for x in bad))
        )
    return out


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
    post = validate(ring, tol)
    if post:
        raise RingDataError(post)
    return ring


def validate(ring: FusionRingData, tol: Tolerance = DEFAULT_TOL) -> list[str]:
    """Check every ring axiom; returns a list of violations (empty = ok)."""
    out = _structure_violations(ring.N, ring.dual)
    d = ring.dims
    if not tol.close(d[0], 1.0):
        out.append(f"d_0 = {d[0]!r} != 1")
    if np.any(d < 1.0 - 1e-8):
        out.append(f"dimension below 1 at index {int(np.argmin(d))}")
    prod = np.einsum("ijk,k->ij", ring.N.astype(float), d)
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


def _closure_indices(ring: FusionRingData, seeds: Iterable[int]) -> tuple[int, ...]:
    member = np.zeros(ring.rank, dtype=bool)
    member[0] = True
    for s in seeds:
        if not 0 <= int(s) < ring.rank:
            raise ValueError(f"seed index {s} out of range")
        member[int(s)] = True
    dual = np.array(ring.dual)
    while True:
        new = member.copy()
        new[dual[member]] = True
        idx = np.flatnonzero(new)
        hit = np.any(ring.N[np.ix_(idx, idx)] > 0, axis=(0, 1))
        new = new | hit
        if np.array_equal(new, member):
            return tuple(int(i) for i in np.flatnonzero(member))
        member = new


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
    generating set.  Sorted by (fpdim, lexicographic indices).
    """
    trivial = subcategory_closure(ring, [])
    found: dict[tuple[int, ...], FusionSubcategory] = {trivial.indices: trivial}
    frontier = [trivial]
    calls = 0
    while frontier:
        nxt = []
        for D in frontier:
            for i in range(ring.rank):
                if i in D.indices:
                    continue
                calls += 1
                if calls > max_closures:
                    raise RuntimeError(
                        f"subcategory enumeration exceeded {max_closures} closure calls"
                    )
                D2 = subcategory_closure(ring, D.indices + (i,))
                if D2.indices not in found:
                    found[D2.indices] = D2
                    nxt.append(D2)
        frontier = nxt
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
    ring = _check_same_ring(D1, D2)
    i1 = list(D1.indices)
    i2 = list(D2.indices)
    hit = np.any(ring.N[np.ix_(i1, i2)] > 0, axis=(0, 1))
    indices = tuple(int(k) for k in np.flatnonzero(hit))
    closed = indices == _closure_indices(ring, indices)
    return indices, closed


def ring_to_dict(ring: FusionRingData) -> dict:
    return {
        "labels": list(ring.labels),
        "dual": list(ring.dual),
        "N": ring.N.tolist(),
    }


def ring_from_dict(data: dict, tol: Tolerance = DEFAULT_TOL) -> FusionRingData:
    """Ring from parsed JSON; shape and entry types are checked before any cast."""
    try:
        labels = data["labels"]
        dual = data["dual"]
        N = data["N"]
    except (KeyError, TypeError) as exc:
        raise RingDataError([f"missing or malformed field: {exc}"]) from exc
    if not all(isinstance(x, list) for x in (labels, dual, N)):
        raise RingDataError(["labels, dual and N must be lists"])
    r = len(N)
    cube = all(
        isinstance(row, list)
        and len(row) == r
        and all(isinstance(v, list) and len(v) == r for v in row)
        for row in N
    )
    if not cube:
        raise RingDataError([f"N must be a {r} x {r} x {r} nested list"])
    if not all(_is_integer(x) and abs(x) <= MAX_MULTIPLICITY for row in N for v in row for x in v):
        raise RingDataError([f"N entries must be integers of magnitude at most {MAX_MULTIPLICITY}"])
    if not all(_is_integer(x) for x in dual):
        raise RingDataError(["dual entries must be integers"])
    return build_ring(labels, np.array(N, dtype=int), [int(x) for x in dual], tol)


def _is_integer(x) -> bool:
    """A JSON number with an integer value; booleans are not numbers here."""
    if isinstance(x, bool):
        return False
    return isinstance(x, int) or (isinstance(x, float) and math.isfinite(x) and x.is_integer())


def load_ring_json(path, tol: Tolerance = DEFAULT_TOL) -> FusionRingData:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return ring_from_dict(data, tol)
