"""Finite groups as multiplication tables, and the classical cross-check oracle.

Groups enter either as explicit multiplication tables or through builtin
constructors (cyclic, dihedral, symmetric, alternating, quaternion, and direct
products).  From a group we build two fusion rings: the representation ring
(simples = irreducible characters, computed by simultaneous diagonalization of
the class-sum matrices) and the group-graded ring (simples = group elements).
Classical group theory then predicts everything the correspondence machinery
computes: normal subgroups, quotient representation categories, class sums,
and subgroup lattices.  The subgroups are enumerated from the multiplication
table alone, never through the fusion-ring closure that they cross-check:
breadth-first joins with cyclic subgroups (or conjugacy classes), each level
closed as one batch of rows grown by right multiplication.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import subalg
from .char_theory import chi
from .fusion_ring import FusionRingData, FusionSubcategory, build_ring
from .linalg import (
    DEFAULT_TOL,
    NotNearInteger,
    Tolerance,
    _numerical_rank,
    _orthonormal_columns,
    _span_contains,
    common_eigenbasis,
    snap_integer,
    snap_integer_array,
)

__all__ = [
    "BadTable",
    "UnknownBuiltin",
    "DegenerationFailure",
    "SnapFailure",
    "NotNormal",
    "OracleMismatch",
    "FiniteGroup",
    "CharacterTable",
    "build_group",
    "parse_group",
    "character_table",
    "rep_fusion_ring",
    "vec_fusion_ring",
    "subgroups",
    "normal_subgroups",
    "trivial_action_subcategory",
    "crosscheck_rep",
    "crosscheck_vec",
]

# Groups are built as dense (|G|, |G|) tables, and their rings as |G|^3
# arrays, so cyclic, dihedral and product orders above that of
# symmetric:5 × cyclic:2 are refused beforehand.
MAX_GROUP_ORDER = 240
# Entries of each (rows, n, n) slab that the associativity check compares.
_ASSOC_BLOCK_ENTRIES = 2**20


class BadTable(Exception):
    """Multiplication table violates the group axioms."""


class UnknownBuiltin(Exception):
    """Unrecognized builtin group name."""


class DegenerationFailure(Exception):
    """Character extraction failed to separate the irreducibles."""


class SnapFailure(Exception):
    """A quantity that must be an integer failed to snap."""


class NotNormal(Exception):
    """The given subgroup is not normal."""


class OracleMismatch(Exception):
    """Computed correspondence data disagrees with classical group theory."""


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Multiplication-table group with conjugacy classes.

    ``table[i][j]`` is the index of the product of elements i and j; classes
    are ordered with the identity class first, then by (size, minimal index).
    """

    name: str
    elements: tuple[str, ...]
    table: np.ndarray
    identity: int
    inverse: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        table = np.ascontiguousarray(np.asarray(self.table, dtype=int))
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    @cached_property
    def class_index(self) -> np.ndarray:
        """Conjugacy class of every element, as a (|G|,) index array."""
        out = np.empty(self.order, dtype=np.intp)
        for c, cls in enumerate(self.classes):
            out[list(cls)] = c
        out.setflags(write=False)
        return out

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


def build_group(name: str, elements, table) -> FiniteGroup:
    """Validate a multiplication table and assemble the group data."""
    elements = tuple(str(e) for e in elements)
    table = np.asarray(table, dtype=int)
    n = len(elements)
    if table.shape != (n, n):
        raise BadTable(f"table must be {n}x{n}, got {table.shape}")
    if np.any(table < 0) or np.any(table >= n):
        raise BadTable("table entries out of range")
    idx = np.arange(n)
    units = np.flatnonzero(np.all(table == idx, axis=1) & np.all(table.T == idx, axis=1))
    if not units.size:
        raise BadTable("no identity element")
    identity = int(units[0])
    # The first j with ij = ji = e.
    unit_pairs = (table == identity) & (table.T == identity)
    lonely = np.flatnonzero(~unit_pairs.any(axis=1))
    if lonely.size:
        raise BadTable(f"element {lonely[0]} has no inverse")
    inverse = np.argmax(unit_pairs, axis=1)
    # associativity: table[table[i,j],k] == table[i,table[j,k]], compared
    # one block of i at a time, in i order, so no |G|^3 array is formed.
    step = max(1, _ASSOC_BLOCK_ENTRIES // (n * n))
    for lo in range(0, n, step):
        rows = table[lo : lo + step]
        lhs = table[rows]
        rhs = rows[:, table]
        if not np.array_equal(lhs, rhs):
            i, j, k = np.argwhere(lhs != rhs)[0]
            raise BadTable(f"associativity fails at ({lo + i},{j},{k})")

    # conjugates[g, i] = g i g^-1; each class is named by its least element,
    # and classes are ordered with the identity's first, then by (size, least).
    least = table[table, inverse[:, None]].min(axis=0)
    sizes = np.bincount(least, minlength=n)
    heads = np.flatnonzero(sizes)
    heads = heads[np.lexsort((heads, sizes[heads], heads != least[identity]))]
    members = np.argsort(least, kind="stable")
    cuts = np.cumsum(sizes)
    classes = tuple(
        tuple(members[cuts[h] - sizes[h] : cuts[h]].tolist()) for h in heads.tolist()
    )
    return FiniteGroup(name, elements, table, identity, tuple(inverse.tolist()), classes)


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise UnknownBuiltin("cyclic group order must be positive")
    k = np.arange(n)
    labels = ["e" if i == 0 else f"g{i}" for i in range(n)]
    return build_group(f"cyclic:{n}", labels, (k[:, None] + k) % n)


def dihedral_group(order: int) -> FiniteGroup:
    """Dihedral group of the given (even) order 2n.

    Element f * n + k is s^f r^k, where (f1, k1)(f2, k2) = (f1 + f2, k2 ± k1)
    with + when f2 = 0.
    """
    if order < 2 or order % 2:
        raise UnknownBuiltin("dihedral order must be even and at least 2")
    n = order // 2
    f, k = np.divmod(np.arange(order), n)
    labels = [("e" if i == 0 else f"r{i}") for i in range(n)]
    labels += [("s" if i == 0 else f"sr{i}") for i in range(n)]
    flip = (f[:, None] + f) % 2
    turn = (k + np.where(f == 0, 1, -1) * k[:, None]) % n
    return build_group(f"dihedral:{order}", labels, flip * n + turn)


def _perm_label(p: tuple[int, ...]) -> str:
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = p[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = p[nxt]
        cycles.append("(" + " ".join(str(x) for x in cyc) + ")")
    return "".join(cycles) if cycles else "e"


def _perm_sign(p: tuple[int, ...]) -> int:
    sign = 1
    seen = [False] * len(p)
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _permutation_group(name: str, perms: list[tuple[int, ...]]) -> FiniteGroup:
    """Group of the given permutations, sorted lexicographically, under
    composition (ab)(i) = a(b(i))."""
    P = np.array(perms)
    # Read as base-n numbers, the permutations are ascending.
    code = P.shape[1] ** np.arange(P.shape[1] - 1, -1, -1)
    table = np.searchsorted(P @ code, P[:, P] @ code)  # P[:, P][a, b] = a∘b
    return build_group(name, [_perm_label(p) for p in perms], table)


def symmetric_group(n: int) -> FiniteGroup:
    if not 1 <= n <= 5:
        raise UnknownBuiltin("symmetric group supported for 1 <= n <= 5")
    return _permutation_group(f"symmetric:{n}", sorted(itertools.permutations(range(n))))


def alternating_group(n: int) -> FiniteGroup:
    if not 1 <= n <= 5:
        raise UnknownBuiltin("alternating group supported for 1 <= n <= 5")
    perms = sorted(p for p in itertools.permutations(range(n)) if _perm_sign(p) == 1)
    return _permutation_group(f"alternating:{n}", perms)


def quaternion_group() -> FiniteGroup:
    """The quaternion group of order 8 on {±1, ±i, ±j, ±k}.

    Element 2u + s is (-1)^s times the unit u of 1, i, j, k.  The unit of a
    product is u XOR v, and two units other than 1 contribute a sign -1
    unless they are cyclic (ij = k, jk = i, ki = j).
    """
    u, s = np.divmod(np.arange(8), 2)
    a, b = u[:, None], u[None, :]
    sign = s[:, None] ^ s ^ ((a != 0) & (b != 0) & ((b - a) % 3 != 1))
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return build_group("quaternion:8", names, 2 * (a ^ b) + sign)


def product_group(factors: list[FiniteGroup]) -> FiniteGroup:
    """Direct product; element tuples in lexicographic order, the last factor fastest."""
    if len(factors) < 2:
        raise UnknownBuiltin("product needs at least two factors")
    orders = tuple(G.order for G in factors)
    coords = np.unravel_index(np.arange(int(np.prod(orders))), orders)
    table = np.ravel_multi_index([G.table[c[:, None], c] for G, c in zip(factors, coords)], orders)
    labels = ["(" + "|".join(t) + ")" for t in itertools.product(*(G.elements for G in factors))]
    name = "product:" + "*".join(G.name for G in factors)
    return build_group(name, labels, table)


def _check_order(order: int, source: str) -> None:
    if order > MAX_GROUP_ORDER:
        raise UnknownBuiltin(f"{source!r} has order {order}, above the limit {MAX_GROUP_ORDER}")


def parse_group(source: str) -> FiniteGroup:
    """Builtin group grammar: cyclic:n, dihedral:2n, symmetric:n, alternating:n,
    quaternion:8, product:A*B (also '×' or 'x' as separators)."""
    source = source.strip()
    if source.startswith("product:"):
        body = source[len("product:") :]
        for sep in ("×", "*", "x"):
            if sep in body:
                parts = [p for p in body.split(sep) if p]
                if len(parts) >= 2:
                    factors = [parse_group(p) for p in parts]
                    _check_order(int(np.prod([G.order for G in factors])), source)
                    return product_group(factors)
        raise UnknownBuiltin(f"cannot split product spec {body!r}")
    kind, _, arg = source.partition(":")
    try:
        n = int(arg) if arg else -1
    except ValueError as exc:
        raise UnknownBuiltin(f"bad group parameter in {source!r}") from exc
    if kind in ("cyclic", "dihedral"):
        _check_order(n, source)
        return cyclic_group(n) if kind == "cyclic" else dihedral_group(n)
    if kind == "symmetric":
        return symmetric_group(n)
    if kind == "alternating":
        return alternating_group(n)
    if kind == "quaternion":
        if n != 8:
            raise UnknownBuiltin("only quaternion:8 is available")
        return quaternion_group()
    raise UnknownBuiltin(f"unknown builtin group {source!r}")


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """Complex character table: rows are irreducibles over conjugacy classes."""

    group: FiniteGroup
    rows: np.ndarray
    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        rows = np.ascontiguousarray(np.asarray(self.rows, dtype=complex))
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)


def _class_constants(G: FiniteGroup) -> np.ndarray:
    """a[c, d, e] = #{(x, y) in class_c x class_d : xy = rep_e}."""
    k = len(G.classes)
    rep_of = np.full(G.order, -1)
    rep_of[[cls[0] for cls in G.classes]] = np.arange(k)
    e = rep_of[G.table]
    x, y = np.nonzero(e >= 0)
    a = np.zeros((k, k, k), dtype=int)
    np.add.at(a, (G.class_index[x], G.class_index[y], e[x, y]), 1)
    return a


def character_table(G: FiniteGroup, seed: int = 0, tol: Tolerance = DEFAULT_TOL) -> CharacterTable:
    """Character table by simultaneous diagonalization of the class-sum matrices.

    Common eigenvectors of the class-multiplication matrices give the central
    character values; degrees follow from the norm relation
    d = sqrt(|G| / sum_c |omega_c|^2 / |c|) and are snapped to integers.
    """
    k = len(G.classes)
    sizes = np.array([len(cls) for cls in G.classes], dtype=float)
    A = _class_constants(G).astype(float)
    try:
        vecs = common_eigenbasis(A, seed=seed, tol=tol)
    except Exception as exc:
        raise DegenerationFailure(f"class-sum diagonalization failed: {exc}") from exc
    if len(vecs) != k:
        raise DegenerationFailure(f"found {len(vecs)} common eigenvectors, expected {k}")

    V = np.array(vecs)
    if np.any(np.abs(V[:, 0]) < 1e-8):
        raise DegenerationFailure("central character vanishes on the identity class")
    # omega[i, c]: the eigenvalue of class matrix c on common eigenvector i,
    # as a Rayleigh quotient; one BLAS product per class.
    W = V.conj()
    omega = np.stack([np.sum((W @ A[c]) * V, axis=1) for c in range(k)], axis=1)
    omega /= np.sum(W * V, axis=1)[:, None]
    norm = np.sum(np.abs(omega) ** 2 / sizes, axis=1)
    degrees = []
    for x in np.sqrt(G.order / norm).tolist():
        try:
            degrees.append(snap_integer(x, tol))
        except Exception as exc:
            raise SnapFailure(f"degree {x} did not snap") from exc
    rows = np.array(degrees)[:, None] * omega / sizes

    # The trivial character first, then by degree and by values rounded to 7 places.
    trivial = np.all(np.abs(rows - 1.0) <= 1e-7 + 1e-5, axis=1)
    values = [
        tuple(zip((round(x, 7) for x in re), (round(y, 7) for y in im)))
        for re, im in zip(rows.real.tolist(), rows.imag.tolist())
    ]
    order = sorted(range(k), key=lambda i: (not trivial[i], degrees[i], values[i]))
    rows = rows[order]
    degrees = tuple(degrees[i] for i in order)

    if sum(d * d for d in degrees) != G.order:
        raise SnapFailure("squared degrees do not sum to the group order")
    gram = (rows * sizes) @ rows.conj().T
    if np.max(np.abs(gram - G.order * np.eye(k))) > 1e-7:
        raise DegenerationFailure("row orthogonality failed")
    col = rows.conj().T @ rows
    expected = np.diag(G.order / sizes)
    if np.max(np.abs(col - expected)) > 1e-7:
        raise DegenerationFailure("column orthogonality failed")
    return CharacterTable(G, rows, degrees)


@lru_cache(maxsize=None)
def _rep_data(G: FiniteGroup, seed: int) -> tuple[CharacterTable, FusionRingData]:
    table = character_table(G, seed=seed)
    ring = _rep_ring_from_table(table)
    return table, ring


def _rep_ring_from_table(T: CharacterTable) -> FusionRingData:
    G = T.group
    k = len(G.classes)
    sizes = np.array([len(cls) for cls in G.classes], dtype=float)
    rows = T.rows
    raw = np.einsum("c,ic,jc,kc->ijk", sizes, rows, rows, rows.conj()) / G.order
    try:
        N = snap_integer_array(raw)
    except Exception as exc:
        raise SnapFailure(f"fusion multiplicities did not snap: {exc}") from exc
    if np.any(N < 0):
        raise SnapFailure("negative fusion multiplicity")
    # dual[i]: the one j with chi_j = conj(chi_i).
    conjugate = np.max(np.abs(rows[None, :, :] - rows.conj()[:, None, :]), axis=2) < 1e-7
    unmatched = np.flatnonzero(np.count_nonzero(conjugate, axis=1) != 1)
    if unmatched.size:
        raise SnapFailure(f"conjugate of character {unmatched[0]} is not unique")
    dual = np.argmax(conjugate, axis=1).tolist()
    labels = [f"chi{i}" for i in range(k)]
    ring = build_ring(labels, N, dual)
    if np.max(np.abs(ring.dims - np.array(T.degrees, dtype=float))) > 1e-7:
        raise SnapFailure("ring dimensions disagree with character degrees")
    return ring


def character_table_cached(G: FiniteGroup, seed: int = 0) -> CharacterTable:
    return _rep_data(G, seed)[0]


def rep_fusion_ring(G: FiniteGroup, seed: int = 0) -> FusionRingData:
    """Fusion ring of the representation category: simples are the irreducibles."""
    return _rep_data(G, seed)[1]


def _vec_perm(G: FiniteGroup) -> np.ndarray:
    """Element order for the graded ring: identity first, else unchanged.

    At most one transposition, so the array is its own inverse: it maps a
    ring index to its element and an element to its ring index.
    """
    perm = np.arange(G.order)
    perm[[0, G.identity]] = perm[[G.identity, 0]]
    return perm


def vec_fusion_ring(G: FiniteGroup) -> FusionRingData:
    """Group-graded fusion ring: simples are elements, fusion is multiplication.

    Elements are permuted so the identity sits at index 0 when necessary.
    """
    n = G.order
    p = _vec_perm(G)
    N = np.zeros((n * n, n), dtype=int)
    N[np.arange(n * n), p[G.table[p[:, None], p]].ravel()] = 1
    labels = [G.elements[g] for g in p.tolist()]
    dual = p[np.asarray(G.inverse)[p]].tolist()
    return build_ring(labels, N.reshape(n, n, n), dual)


def _first_distinct(packed: np.ndarray) -> np.ndarray:
    """Indices of the first occurrence of each distinct row of a packed
    (K, bytes) uint8 matrix, in row order."""
    first: dict[bytes, int] = {}
    for i, row in enumerate(packed):
        first.setdefault(row.tobytes(), i)
    return np.fromiter(first.values(), dtype=np.intp, count=len(first))


def _close_by_generators(G: FiniteGroup, packed: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """Subgroup generated by each row's generators, for rows that hold the identity.

    ``packed`` is a bit-packed (K, |G|) membership matrix and ``gens`` (K, L)
    holds element indices; the closed rows come back packed.  Every row grows
    by right multiplication, M <- M u M g for each of its generators g, until
    no row changes: from the identity this reaches every product of
    generators, which in a finite group is the generated subgroup.  Each pass
    multiplies, per generator g, all rows that hold g at once.
    """
    # right[g, k] = k g^-1, so k lies in M g exactly when M[right[g, k]].
    right = G.table[:, np.asarray(G.inverse)].T
    member = np.unpackbits(packed, axis=1, count=G.order).view(bool)
    used = np.zeros(G.order, dtype=bool)
    used[gens] = True
    used[G.identity] = False
    moves = [(np.flatnonzero((gens == g).any(axis=1)), right[g]) for g in np.flatnonzero(used)]
    # Rows only grow, so a pass that adds no element changes nothing.
    size = None
    while size != np.count_nonzero(member):
        size = np.count_nonzero(member)
        for rows, perm in moves:
            block = member[rows]
            block |= block[:, perm]
            member[rows] = block
    return np.packbits(member, axis=1)


def _extension_closure(
    G: FiniteGroup, pieces: np.ndarray, piece_gens: np.ndarray
) -> list[tuple[int, ...]]:
    """Every subgroup generated by a union of pieces, by breadth-first extension.

    ``pieces`` is a (P, |G|) bool matrix of subgroups and ``piece_gens`` (P, L)
    generates each of them.  One level joins every frontier subgroup with
    every piece it does not contain, drops repeated rows and closes the rest
    together; each subgroup found keeps the generators it was closed from.
    Rows are held bit-packed.
    """
    n = G.order
    pieces = np.packbits(pieces, axis=1)
    frontier = np.zeros((1, n), dtype=bool)
    frontier[0, G.identity] = True
    frontier = np.packbits(frontier, axis=1)
    frontier_gens = np.full((1, 0), G.identity, dtype=np.intp)
    found = {frontier[0].tobytes()}
    while len(frontier):
        outside = np.any(pieces[None, :, :] & ~frontier[:, None, :], axis=2)
        rows, cols = np.nonzero(outside)
        candidates = frontier[rows] | pieces[cols]
        first = _first_distinct(candidates)
        rows, cols = rows[first], cols[first]
        gens = np.hstack([frontier_gens[rows], piece_gens[cols]])
        closed = _close_by_generators(G, candidates[first], gens)
        new = [k for k in _first_distinct(closed) if closed[k].tobytes() not in found]
        found.update(closed[k].tobytes() for k in new)
        frontier, frontier_gens = closed[new], gens[new]
    subs = (np.flatnonzero(np.unpackbits(np.frombuffer(H, np.uint8), count=n)) for H in found)
    return sorted((tuple(H.tolist()) for H in subs), key=lambda h: (len(h), h))


def subgroups(G: FiniteGroup) -> list[tuple[int, ...]]:
    """All subgroups, as sorted element index tuples, sorted by (order, indices).

    Every subgroup is generated by the cyclic subgroups it contains, so
    extending by the distinct cyclic subgroups <g>, each generated by one g,
    reaches every subgroup (67 pieces for the 120 elements of S5).
    """
    n = G.order
    idx = np.arange(n)
    powers = np.zeros((n, n), dtype=bool)
    cur = np.full(n, G.identity)
    while not powers[idx, cur].all():
        powers[idx, cur] = True
        cur = G.table[cur, idx]
    first = _first_distinct(np.packbits(powers, axis=1))
    return _extension_closure(G, powers[first], first[:, None])


def normal_subgroups(G: FiniteGroup) -> list[tuple[int, ...]]:
    """Normal subgroups, ordered like :func:`subgroups`.

    A normal subgroup is a union of conjugacy classes, and the subgroup
    generated by a union of classes is normal, so extending by whole classes,
    each generated by all of its elements, reaches every normal subgroup and
    nothing else.
    """
    width = max(len(cls) for cls in G.classes)
    pieces = np.zeros((len(G.classes), G.order), dtype=bool)
    gens = np.full((len(G.classes), width), G.identity, dtype=np.intp)
    for c, cls in enumerate(G.classes):
        pieces[c, list(cls)] = True
        gens[c, : len(cls)] = cls
    return _extension_closure(G, pieces, gens)


def trivial_action_subcategory(
    G: FiniteGroup, N: tuple[int, ...], seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> FusionSubcategory:
    """Irreducibles of G whose kernel contains the normal subgroup N.

    Character-level test: the average of chi over N equals the degree exactly
    when N acts trivially.  The result is the representation category of the
    quotient, as a subcategory of the representation ring of G.
    """
    if not set(N) <= set(range(G.order)):
        raise ValueError("subgroup indices out of range")
    h = np.asarray(N, dtype=np.intp)
    members = np.zeros(G.order, dtype=bool)
    members[h] = True
    # conjugates[g, k] = g h_k g^-1
    conjugates = G.table[G.table[:, h], np.asarray(G.inverse)[:, None]]
    if not members[conjugates].all():
        raise NotNormal(f"{N} is not a normal subgroup")
    table, ring = _rep_data(G, seed)
    degrees = np.array(table.degrees, dtype=float)
    avg = table.rows[:, G.class_index[h]].sum(axis=1) / len(N)
    indices = np.flatnonzero(np.abs(avg - degrees) <= 1e-7 * np.maximum(1, degrees)).tolist()
    fpdim = float(np.sum(ring.dims[indices] ** 2))
    return FusionSubcategory(tuple(indices), fpdim, ring)


def _class_sum_columns(T: CharacterTable) -> np.ndarray:
    """The class sums in idempotent coordinates: column c is |c| chi_i(g_c) / d_i."""
    sizes = np.array([len(cls) for cls in T.group.classes])
    return sizes * T.rows / np.array(T.degrees)[:, None]


def _expected_class_sum_span(omega: np.ndarray, G: FiniteGroup, N: tuple[int, ...]) -> np.ndarray:
    """Orthonormal columns spanning the class sums ``omega`` of the classes inside N."""
    members = set(N)
    inside = [c for c, cls in enumerate(G.classes) if set(cls) <= members]
    return _orthonormal_columns(omega[:, inside], DEFAULT_TOL)


def _snapped_sorted(values, tol: Tolerance) -> list:
    """The values, sorted, each as the integer it snaps to or, when it is
    not within ``snap_tol`` of one, as itself: it then matches no integer
    list, and the mismatch line shows it."""
    out = []
    for x in values:
        try:
            out.append(snap_integer(x, tol))
        except NotNearInteger:
            out.append(float(x))
    return sorted(out)


def crosscheck_rep(
    G: FiniteGroup, lattice: subalg.LatticeTable, tol: Tolerance = DEFAULT_TOL
) -> dict:
    """Check the correspondence table of Rep(G) against normal-subgroup theory.

    Subcategories must biject with normal subgroups N, with subalgebra
    dimension |N|, matching trivial-action subcategory, the partition of
    Clifford theory, and central subspace spanned by the class sums inside N;
    the blocks must have summand dimensions the class sizes |c| and n the
    centralizer orders |G|/|c|.
    Raises :class:`OracleMismatch` with the full diff on any disagreement.
    """
    seed = lattice.blocks.seed
    table = character_table_cached(G, seed)
    normals = normal_subgroups(G)
    mismatches: list[str] = []
    if len(lattice.entries) != len(normals):
        mismatches.append(
            f"{len(lattice.entries)} subcategories vs {len(normals)} normal subgroups"
        )
    entries = []
    seen = set()
    omega = _class_sum_columns(table)
    subcats = [trivial_action_subcategory(G, N, seed, tol) for N in normals]
    for N, D, e in zip(normals, subcats, lattice.entries_of(D.indices for D in subcats)):
        if D.indices in seen:
            mismatches.append(f"duplicate subcategory for N={N}")
        seen.add(D.indices)
        if e is None:
            mismatches.append(f"subcategory of N={N} missing from enumeration")
            continue
        L = e.subalgebra
        if abs(L.dim_l - len(N)) > 1e-6 * max(1, len(N)):
            mismatches.append(f"dim of subalgebra for N={N} is {L.dim_l}, expected {len(N)}")
        # Clifford theory: chi_i and chi_j restrict to N with a common constituent
        # exactly when sum_{n in N} chi_i(n) conj chi_j(n), |N| times an integer, is not 0.
        values = table.rows[:, G.class_index[list(N)]]
        related = (values @ values.conj().T).real > len(N) / 2
        clifford = tuple(sorted({tuple(i for i, x in enumerate(row) if x) for row in related.tolist()}))
        if e.partition != clifford:
            mismatches.append(f"partition for N={N} is {e.partition}, expected {clifford}")
        # The selected class sums span the expected ones when they lie in
        # their span and have full rank c against them.
        expected_span = _expected_class_sum_span(omega, G, N)
        sums = L.ce_sums.T
        n_classes = expected_span.shape[1]
        if L.ce_dim != n_classes:
            mismatches.append(
                f"central dimension for N={N} is {L.ce_dim}, expected {n_classes}"
            )
        elif not (
            _span_contains(expected_span, sums, tol)
            and _numerical_rank(expected_span.conj().T @ sums, tol) == n_classes
        ):
            mismatches.append(f"central subspace for N={N} is not the class sums in N")
        entries.append(
            {
                "normal_subgroup": list(N),
                "subcategory_indices": list(D.indices),
                "subalgebra_dim": L.dim_l,
            }
        )
    if len(seen) != len(normals):
        mismatches.append("trivial-action map is not injective on normal subgroups")
    class_sizes = sorted(len(c) for c in G.classes)
    centralizers = sorted(G.order // size for size in class_sizes)
    block_dims = _snapped_sorted([blk.summand_dim for blk in lattice.blocks.blocks], tol)
    block_ns = _snapped_sorted([blk.n for blk in lattice.blocks.blocks], tol)
    if block_dims != class_sizes or block_ns != centralizers:
        mismatches.append(
            f"block summand dims {block_dims} / n {block_ns} vs class sizes {class_sizes}"
            f" / centralizer orders {centralizers}"
        )
    report = {
        "group": G.name,
        "normal_subgroups": len(normals),
        "subcategories": len(lattice.entries),
        "entries": entries,
        "mismatches": mismatches,
    }
    if mismatches:
        raise OracleMismatch(json.dumps(report, indent=2, sort_keys=True))
    return report


def crosscheck_vec(
    G: FiniteGroup, lattice: subalg.LatticeTable, tol: Tolerance = DEFAULT_TOL
) -> dict:
    """Check the correspondence table of the group-graded ring against subgroups.

    Subcategories must be exactly the subgroups, with subalgebra dimensions
    |G|/|H| and partitions the cosets gH, and block summand dimensions the
    irreducible degrees of G.
    """
    p = _vec_perm(G)
    subs = subgroups(G)
    sub_indices = {H: tuple(sorted(p[list(H)].tolist())) for H in subs}
    mismatches: list[str] = []
    if len(lattice.entries) != len(subs):
        mismatches.append(f"{len(lattice.entries)} subcategories vs {len(subs)} subgroups")
    if {e.subcategory.indices for e in lattice.entries} != set(sub_indices.values()):
        mismatches.append("subcategory index sets differ from subgroups")
    entries = []
    for H, e in zip(subs, lattice.entries_of(sub_indices[H] for H in subs)):
        if e is None:
            continue
        L = e.subalgebra
        expected = G.order / len(H)
        if abs(L.dim_l - expected) > 1e-6 * expected:
            mismatches.append(
                f"dim of subalgebra for H={H} is {L.dim_l}, expected {expected}"
            )
        cosets = p[G.table[:, list(H)]].tolist()  # row g: the coset gH
        if e.partition != tuple(sorted({tuple(sorted(c)) for c in cosets})):
            mismatches.append(f"partition for H={H} differs from the cosets gH")
        entries.append({"subgroup": list(H), "subalgebra_dim": L.dim_l})
    degrees = sorted(character_table(G, seed=lattice.blocks.seed).degrees)
    block_dims = _snapped_sorted([blk.summand_dim for blk in lattice.blocks.blocks], tol)
    mults = sorted(blk.m for blk in lattice.blocks.blocks)
    if block_dims != degrees or mults != degrees:
        mismatches.append(
            f"block summand dims {block_dims} / multiplicities {mults} vs degrees {degrees}"
        )
    report = {
        "group": G.name,
        "subgroups": len(subs),
        "subcategories": len(lattice.entries),
        "entries": entries,
        "mismatches": mismatches,
    }
    if mismatches:
        raise OracleMismatch(json.dumps(report, indent=2, sort_keys=True))
    return report
