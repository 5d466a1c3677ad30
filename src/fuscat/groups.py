"""Finite groups as multiplication tables, and the classical cross-check oracle.

Groups enter either as explicit multiplication tables or through builtin
constructors (cyclic, dihedral, symmetric, alternating, quaternion, and direct
products).  From a group we build two fusion rings: the representation ring
(simples = irreducible characters, computed by simultaneous diagonalization of
the class-sum matrices) and the group-graded ring (simples = group elements).
Classical group theory then predicts everything the correspondence machinery
computes: normal subgroups, quotient representation categories, class sums,
and subgroup lattices.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import subalg
from .char_theory import chi
from .fusion_ring import FusionRingData, FusionSubcategory, build_ring
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _span_contains,
    common_eigenbasis,
    orthonormal_basis,
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

    def class_of(self, i: int) -> int:
        for c, cls in enumerate(self.classes):
            if i in cls:
                return c
        raise ValueError(f"element {i} not found in any class")

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
    identity = None
    for e in range(n):
        if all(table[e, j] == j and table[j, e] == j for j in range(n)):
            identity = e
            break
    if identity is None:
        raise BadTable("no identity element")
    inverse = [-1] * n
    for i in range(n):
        for j in range(n):
            if table[i, j] == identity and table[j, i] == identity:
                inverse[i] = j
                break
        if inverse[i] < 0:
            raise BadTable(f"element {i} has no inverse")
    # associativity: table[table[i,j],k] == table[i,table[j,k]]
    lhs = table[table, :]
    rhs = table[:, table]
    if not np.array_equal(lhs, rhs):
        bad = np.argwhere(lhs != rhs)[0]
        raise BadTable("associativity fails at ({},{},{})".format(*(int(x) for x in bad)))

    seen = [False] * n
    classes = []
    for i in range(n):
        if seen[i]:
            continue
        orbit = sorted({int(table[table[g, i], inverse[g]]) for g in range(n)})
        for x in orbit:
            seen[x] = True
        classes.append(tuple(orbit))
    classes.sort(key=lambda cls: (identity not in cls, len(cls), cls[0]))
    return FiniteGroup(name, elements, table, identity, tuple(inverse), tuple(classes))


def _group_from_pairs(name, items, mul):
    """Build a group from abstract elements and a multiplication callable."""
    index = {e: i for i, (e, _label) in enumerate(items)}
    labels = [label for _e, label in items]
    n = len(items)
    table = np.zeros((n, n), dtype=int)
    for i, (a, _la) in enumerate(items):
        for j, (b, _lb) in enumerate(items):
            table[i, j] = index[mul(a, b)]
    return build_group(name, labels, table)


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise UnknownBuiltin("cyclic group order must be positive")
    items = [(k, "e" if k == 0 else f"g{k}") for k in range(n)]
    return _group_from_pairs(f"cyclic:{n}", items, lambda a, b: (a + b) % n)


def dihedral_group(order: int) -> FiniteGroup:
    """Dihedral group of the given (even) order 2n."""
    if order < 2 or order % 2:
        raise UnknownBuiltin("dihedral order must be even and at least 2")
    n = order // 2
    items = []
    for f in range(2):
        for k in range(n):
            label = ("e" if k == 0 else f"r{k}") if f == 0 else (f"s" if k == 0 else f"sr{k}")
            items.append(((f, k), label))

    def mul(a, b):
        (f1, k1), (f2, k2) = a, b
        return ((f1 + f2) % 2, (k2 + (k1 if f2 == 0 else -k1)) % n)

    return _group_from_pairs(f"dihedral:{order}", items, mul)


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


def symmetric_group(n: int) -> FiniteGroup:
    if not 1 <= n <= 5:
        raise UnknownBuiltin("symmetric group supported for 1 <= n <= 5")
    perms = sorted(itertools.permutations(range(n)))
    items = [(p, _perm_label(p)) for p in perms]
    compose = lambda a, b: tuple(a[b[i]] for i in range(n))
    return _group_from_pairs(f"symmetric:{n}", items, compose)


def alternating_group(n: int) -> FiniteGroup:
    if not 1 <= n <= 5:
        raise UnknownBuiltin("alternating group supported for 1 <= n <= 5")
    perms = sorted(p for p in itertools.permutations(range(n)) if _perm_sign(p) == 1)
    items = [(p, _perm_label(p)) for p in perms]
    compose = lambda a, b: tuple(a[b[i]] for i in range(n))
    return _group_from_pairs(f"alternating:{n}", items, compose)


def quaternion_group() -> FiniteGroup:
    """The quaternion group of order 8 on {±1, ±i, ±j, ±k}."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    base = {"1": (1, "1"), "i": (1, "i"), "j": (1, "j"), "k": (1, "k")}

    def unit_mul(a, b):
        order = "ijk"
        if a == "1":
            return 1, b
        if b == "1":
            return 1, a
        if a == b:
            return -1, "1"
        ia, ib = order.index(a), order.index(b)
        sign = 1 if (ib - ia) % 3 == 1 else -1
        return sign, order[3 - ia - ib]

    def mul(x, y):
        sx, ux = (1, x) if not x.startswith("-") else (-1, x[1:])
        sy, uy = (1, y) if not y.startswith("-") else (-1, y[1:])
        s, u = unit_mul(ux, uy)
        s *= sx * sy
        return u if s == 1 else f"-{u}"

    items = [(nm, nm) for nm in names]
    return _group_from_pairs("quaternion:8", items, mul)


def product_group(factors: list[FiniteGroup]) -> FiniteGroup:
    if len(factors) < 2:
        raise UnknownBuiltin("product needs at least two factors")
    tuples = list(itertools.product(*(range(G.order) for G in factors)))
    items = [
        (t, "(" + "|".join(G.elements[i] for G, i in zip(factors, t)) + ")") for t in tuples
    ]

    def mul(a, b):
        return tuple(G.mul(i, j) for G, i, j in zip(factors, a, b))

    name = "product:" + "*".join(G.name for G in factors)
    return _group_from_pairs(name, items, mul)


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
                    return product_group([parse_group(p) for p in parts])
        raise UnknownBuiltin(f"cannot split product spec {body!r}")
    kind, _, arg = source.partition(":")
    try:
        n = int(arg) if arg else -1
    except ValueError as exc:
        raise UnknownBuiltin(f"bad group parameter in {source!r}") from exc
    if kind == "cyclic":
        return cyclic_group(n)
    if kind == "dihedral":
        return dihedral_group(n)
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
    cls_index = np.zeros(G.order, dtype=int)
    for c, cls in enumerate(G.classes):
        for x in cls:
            cls_index[x] = c
    a = np.zeros((k, k, k), dtype=int)
    reps = [cls[0] for cls in G.classes]
    rep_pos = {rep: e for e, rep in enumerate(reps)}
    for c, cls_c in enumerate(G.classes):
        for d, cls_d in enumerate(G.classes):
            for x in cls_c:
                for y in cls_d:
                    z = G.mul(x, y)
                    e = rep_pos.get(z)
                    if e is not None and G.classes[e][0] == z:
                        a[c, d, e] += 1
    return a


def character_table(G: FiniteGroup, seed: int = 0, tol: Tolerance = DEFAULT_TOL) -> CharacterTable:
    """Character table by simultaneous diagonalization of the class-sum matrices.

    Common eigenvectors of the class-multiplication matrices give the central
    character values; degrees follow from the norm relation
    d = sqrt(|G| / sum_c |omega_c|^2 / |c|) and are snapped to integers.
    """
    k = len(G.classes)
    sizes = np.array([len(cls) for cls in G.classes], dtype=float)
    a = _class_constants(G)
    mats = [a[c].astype(float) for c in range(k)]
    try:
        vecs = common_eigenbasis(mats, seed=seed, tol=tol)
    except Exception as exc:
        raise DegenerationFailure(f"class-sum diagonalization failed: {exc}") from exc
    if len(vecs) != k:
        raise DegenerationFailure(f"found {len(vecs)} common eigenvectors, expected {k}")

    rows = []
    degrees = []
    for v in vecs:
        if abs(v[0]) < 1e-8:
            raise DegenerationFailure("central character vanishes on the identity class")
        omega = np.array([complex(np.vdot(v, mats[c] @ v) / np.vdot(v, v)) for c in range(k)])
        norm = float(np.sum(np.abs(omega) ** 2 / sizes).real)
        try:
            d = snap_integer(np.sqrt(G.order / norm), tol)
        except Exception as exc:
            raise SnapFailure(f"degree {np.sqrt(G.order / norm)} did not snap") from exc
        rows.append(d * omega / sizes)
        degrees.append(d)

    order = sorted(
        range(k),
        key=lambda i: (
            not np.allclose(rows[i], 1.0, atol=1e-7),
            degrees[i],
            tuple((round(float(c.real), 7), round(float(c.imag), 7)) for c in rows[i]),
        ),
    )
    rows = np.array([rows[i] for i in order])
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
    dual = []
    for i in range(k):
        matches = [
            j for j in range(k) if np.max(np.abs(rows[j] - rows[i].conj())) < 1e-7
        ]
        if len(matches) != 1:
            raise SnapFailure(f"conjugate of character {i} is not unique")
        dual.append(matches[0])
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


def _vec_perm(G: FiniteGroup) -> tuple[list[int], dict[int, int]]:
    """Element order for the graded ring: identity first, else unchanged."""
    perm = list(range(G.order))
    if G.identity != 0:
        perm[0], perm[G.identity] = perm[G.identity], perm[0]
    return perm, {g: i for i, g in enumerate(perm)}


def vec_fusion_ring(G: FiniteGroup) -> FusionRingData:
    """Group-graded fusion ring: simples are elements, fusion is multiplication.

    Elements are permuted so the identity sits at index 0 when necessary.
    """
    n = G.order
    perm, pos = _vec_perm(G)
    N = np.zeros((n, n, n), dtype=int)
    for i in range(n):
        for j in range(n):
            N[i, j, pos[G.mul(perm[i], perm[j])]] = 1
    labels = [G.elements[g] for g in perm]
    dual = [pos[G.inverse[g]] for g in perm]
    return build_ring(labels, N, dual)


def _closure_of(G: FiniteGroup, seed) -> frozenset[int]:
    """Subgroup generated by the seed: close under products read from the table.

    A finite set that contains the identity and is closed under the product is
    a subgroup.
    """
    member = np.zeros(G.order, dtype=bool)
    member[G.identity] = True
    member[list(seed)] = True
    while True:
        idx = np.flatnonzero(member)
        member[G.table[np.ix_(idx, idx)].ravel()] = True
        if np.count_nonzero(member) == len(idx):
            return frozenset(int(g) for g in idx)


def _extension_closure(G: FiniteGroup, pieces) -> list[tuple[int, ...]]:
    """Every closure of unions of the pieces, by breadth-first extension."""
    trivial = _closure_of(G, ())
    found = {trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for H in frontier:
            for piece in pieces:
                if set(piece) <= H:
                    continue
                H2 = _closure_of(G, H | set(piece))
                if H2 not in found:
                    found.add(H2)
                    nxt.append(H2)
        frontier = nxt
    return sorted((tuple(sorted(H)) for H in found), key=lambda h: (len(h), h))


def subgroups(G: FiniteGroup) -> list[tuple[int, ...]]:
    """All subgroups, as sorted element index tuples, by closure extension."""
    return _extension_closure(G, [(g,) for g in range(G.order)])


def normal_subgroups(G: FiniteGroup) -> list[tuple[int, ...]]:
    """Normal subgroups, ordered like :func:`subgroups`.

    A normal subgroup is a union of conjugacy classes, and the subgroup
    generated by a union of classes is normal, so extending by whole classes
    reaches every normal subgroup and nothing else.
    """
    return _extension_closure(G, G.classes)


def trivial_action_subcategory(
    G: FiniteGroup, N: tuple[int, ...], seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> FusionSubcategory:
    """Irreducibles of G whose kernel contains the normal subgroup N.

    Character-level test: the average of chi over N equals the degree exactly
    when N acts trivially.  The result is the representation category of the
    quotient, as a subcategory of the representation ring of G.
    """
    members = set(N)
    if not members <= set(range(G.order)):
        raise ValueError("subgroup indices out of range")
    if not all(
        G.mul(G.mul(g, h), G.inverse[g]) in members for g in range(G.order) for h in N
    ):
        raise NotNormal(f"{N} is not a normal subgroup")
    table, ring = _rep_data(G, seed)
    indices = []
    for i in range(len(G.classes)):
        avg = sum(table.rows[i][G.class_of(h)] for h in N) / len(N)
        if abs(avg - table.degrees[i]) <= 1e-7 * max(1, table.degrees[i]):
            indices.append(i)
    fpdim = float(np.sum(ring.dims[indices] ** 2))
    return FusionSubcategory(tuple(indices), fpdim, ring)


def _expected_class_sum_span(
    T: CharacterTable, N: tuple[int, ...]
) -> np.ndarray:
    """Span of the class sums of the classes inside N, in idempotent coordinates."""
    G = T.group
    members = set(N)
    vecs = []
    for c, cls in enumerate(G.classes):
        if set(cls) <= members:
            omega = np.array(
                [len(cls) * T.rows[i][c] / T.degrees[i] for i in range(len(G.classes))]
            )
            vecs.append(omega)
    return orthonormal_basis(vecs)


def crosscheck_rep(
    G: FiniteGroup, lattice: subalg.LatticeTable, tol: Tolerance = DEFAULT_TOL
) -> dict:
    """Check the correspondence table of Rep(G) against normal-subgroup theory.

    Subcategories must biject with normal subgroups N, with subalgebra
    dimension |N|, matching trivial-action subcategory, matching unit block of
    the partition, and central subspace spanned by the class sums inside N.
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
    for N in normals:
        D = trivial_action_subcategory(G, N, seed, tol)
        if D.indices in seen:
            mismatches.append(f"duplicate subcategory for N={N}")
        seen.add(D.indices)
        e = lattice.entry(D.indices)
        if e is None:
            mismatches.append(f"subcategory of N={N} missing from enumeration")
            continue
        L = e.subalgebra
        if abs(L.dim_l - len(N)) > 1e-6 * max(1, len(N)):
            mismatches.append(f"dim of subalgebra for N={N} is {L.dim_l}, expected {len(N)}")
        if tuple(sorted(e.partition[0])) != D.indices:
            mismatches.append(
                f"unit partition block for N={N} is {e.partition[0]}, expected {D.indices}"
            )
        expected_span = _expected_class_sum_span(table, N)
        span = L.ce_span
        n_classes = expected_span.shape[1]
        if L.ce_dim != n_classes:
            mismatches.append(
                f"central dimension for N={N} is {L.ce_dim}, expected {n_classes}"
            )
        elif not (
            _span_contains(expected_span, span, tol)
            and _span_contains(span, expected_span, tol)
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
    |G|/|H|, and block summand dimensions the irreducible degrees of G.
    """
    _, pos = _vec_perm(G)
    subs = subgroups(G)
    sub_indices = {H: tuple(sorted(pos[g] for g in H)) for H in subs}
    mismatches: list[str] = []
    if len(lattice.entries) != len(subs):
        mismatches.append(f"{len(lattice.entries)} subcategories vs {len(subs)} subgroups")
    if {e.subcategory.indices for e in lattice.entries} != set(sub_indices.values()):
        mismatches.append("subcategory index sets differ from subgroups")
    entries = []
    for H in subs:
        e = lattice.entry(sub_indices[H])
        if e is None:
            continue
        L = e.subalgebra
        expected = G.order / len(H)
        if abs(L.dim_l - expected) > 1e-6 * expected:
            mismatches.append(
                f"dim of subalgebra for H={H} is {L.dim_l}, expected {expected}"
            )
        entries.append({"subgroup": list(H), "subalgebra_dim": L.dim_l})
    degrees = sorted(character_table_cached(G, lattice.blocks.seed).degrees)
    block_dims = sorted(snap_integer(blk.summand_dim, tol) for blk in lattice.blocks.blocks)
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
