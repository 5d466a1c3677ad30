"""The bijection between fusion subcategories and unitary subalgebras.

A unitary subalgebra of the adjoint algebra is encoded by block-row selections
relative to an adapted block structure: the subcategory's cointegral is an
idempotent of CF(C), the blocks are re-based so it becomes a diagonal 0/1
pattern, and the rows carrying 1 name the simple summands of the subalgebra.
Each subalgebra also stores its restriction projector, from which restriction
of class functions, the inverse map to subcategories and the induced
partition of the simples are read.  The central subspace with its class-sum
basis lives here too, and so does the correspondence table of a ring, which
is built once and answers the lattice operations by lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .char_theory import (
    CentralElement,
    ClassFunction,
    subcategory_cointegral,
    unit_central_element,
)
from .fusion_ring import (
    FusionRingData,
    FusionSubcategory,
    _close_rows,
    enumerate_subcategories,
    subcategory_closure,
    subcategory_join,
    subcategory_meet,
)
from .linalg import DEFAULT_TOL, Tolerance, _span_contains, orthonormal_basis
from .wedderburn import BlockStructure, adapt_to_idempotent

__all__ = [
    "ClosureViolation",
    "PartitionMismatch",
    "ClosureFailure",
    "RoundTripFailure",
    "MonotonicityFailure",
    "InequalityViolation",
    "SubalgebraIndex",
    "LatticeEntry",
    "LatticeTable",
    "subalgebra_from_subcategory",
    "epsilon_L",
    "restrict",
    "subcategory_from_subalgebra",
    "block_partition",
    "ce_basis",
    "pi_down",
    "verify_dim_inequality",
    "verify_cointegral_trace_sum",
    "build_lattice",
]

# Comparison of restriction vectors divides by dimensions, which amplifies
# noise; partition-level comparisons therefore run at a looser tolerance.
PARTITION_TOL = 1e-7


class ClosureViolation(Exception):
    """The computed simple-object set is not closed under fusion."""


class PartitionMismatch(Exception):
    """Character-side and central-side partitions of the simples disagree."""


class ClosureFailure(Exception):
    """The class-sum span of a subalgebra is not multiplicatively closed."""


class RoundTripFailure(Exception):
    """A subcategory does not survive the round trip through its subalgebra."""


class MonotonicityFailure(Exception):
    """The correspondence failed to reverse an inclusion."""


class InequalityViolation(Exception):
    """The product-dimension bound failed."""


@dataclass(frozen=True, eq=False)
class SubalgebraIndex:
    """A unitary subalgebra of the adjoint algebra, as block-row data.

    ``rows[j]`` lists the selected rows of block j in the adapted structure
    ``blocks``; ``dim_l`` is the subalgebra dimension (a sum of summand
    dimensions) and ``ce_dim`` the dimension of its central subspace.
    ``projector`` is the restriction projector ``U diag(mask) U^-1`` on
    chi-basis coefficients, where U has the adapted matrix units as columns
    and the mask keeps the units F^j_st whose column t is a selected row.
    ``cointegral_components`` holds the subcategory cointegral expanded in
    the adapted matrix units, one read-only m x m array per block.
    """

    base: BlockStructure
    blocks: BlockStructure
    rows: tuple[tuple[int, ...], ...]
    dim_l: float
    ce_dim: int
    projector: np.ndarray
    cointegral_components: tuple[np.ndarray, ...]

    @property
    def ring(self) -> FusionRingData:
        return self.blocks.ring

    @property
    def block_indices(self) -> tuple[int, ...]:
        return tuple(j for j, r in enumerate(self.rows) if r)

    def selected_pairs(self) -> list[tuple[int, int]]:
        return [(j, s) for j, r in enumerate(self.rows) for s in r]

    @cached_property
    def ce_span(self) -> np.ndarray:
        """Orthonormal basis of the central subspace, in idempotent coordinates."""
        vecs = [b.coeffs for b in ce_basis(self, check=False)]
        return orthonormal_basis(vecs)

    def __repr__(self) -> str:
        return f"SubalgebraIndex(rows={self.rows}, dim={self.dim_l:.6g})"


def subalgebra_from_subcategory(
    D: FusionSubcategory, B: BlockStructure, tol: Tolerance = DEFAULT_TOL
) -> SubalgebraIndex:
    """The unitary subalgebra whose trivial-restriction subcategory is D.

    Adapts the block structure to the subcategory's cointegral and reads off
    the diagonal 0/1 pattern as the block-row selection.
    """
    if D.ring is not B.ring:
        raise ValueError("subcategory and block structure belong to different rings")
    lam = subcategory_cointegral(D)
    adapted = adapt_to_idempotent(B, lam, tol)
    comps = adapted.expand(lam.coeffs)
    for P in comps:
        P.setflags(write=False)
    rows = []
    for blk, P in zip(adapted.blocks, comps):
        selected = []
        for s in range(blk.m):
            val = complex(P[s, s])
            if abs(val - 1) <= tol.snap_tol:
                selected.append(s)
            elif abs(val) > tol.snap_tol:
                raise ClosureViolation(f"diagonal coefficient {val!r} is not 0 or 1")
        off = P - np.diag(np.diag(P))
        if np.max(np.abs(off)) > tol.snap_tol:
            raise ClosureViolation("adapted cointegral has off-diagonal coefficients")
        rows.append(tuple(selected))
    if not rows or 0 not in rows[0]:
        raise ClosureViolation("unit summand is missing from the subalgebra")
    dim_l = float(
        sum(adapted.blocks[j].summand_dim * len(r) for j, r in enumerate(rows))
    )
    ce_dim = int(sum(len(r) * adapted.blocks[j].m for j, r in enumerate(rows)))
    mask = np.array([t in rows[j] for j, _s, t in adapted.unit_index()])
    projector = adapted._unit_matrix[:, mask] @ adapted._unit_matrix_inv[mask]
    projector.setflags(write=False)
    # Keep the adapted blocks without the unit matrix and inverse cached on
    # ``adapted``: only this construction reads them, and kept for every
    # subalgebra of a table they would make up a third of its memory.
    blocks = BlockStructure(B.ring, adapted.blocks, adapted.seed)
    return SubalgebraIndex(B, blocks, tuple(rows), dim_l, ce_dim, projector, tuple(comps))


def epsilon_L(L: SubalgebraIndex) -> ClassFunction:
    """Restriction of the unit class function: the sum of selected diagonal units."""
    return ClassFunction(L.ring, L.projector[:, 0])


def restrict(f: ClassFunction, L: SubalgebraIndex) -> ClassFunction:
    """Component of f in the subalgebra's character space, embedded in CF(C)."""
    return ClassFunction(L.ring, L.projector @ f.coeffs)


def _normalized_restrictions(L: SubalgebraIndex) -> np.ndarray:
    """Column i is the restriction of chi_i divided by d_i; column 0 is epsilon_L."""
    return L.projector / L.ring.dims


def subcategory_from_subalgebra(
    L: SubalgebraIndex, tol: Tolerance = DEFAULT_TOL
) -> FusionSubcategory:
    """Simples whose characters restrict to dimension multiples of epsilon_L."""
    ring = L.ring
    Q = _normalized_restrictions(L)
    close = np.max(np.abs(Q - Q[:, :1]), axis=0) <= PARTITION_TOL
    indices = tuple(int(i) for i in np.flatnonzero(close))
    closed = subcategory_closure(ring, indices)
    if closed.indices != indices:
        raise ClosureViolation(
            f"computed simple set {indices} is not fusion closed (closure {closed.indices})"
        )
    return closed


def block_partition(
    L: SubalgebraIndex, tol: Tolerance = DEFAULT_TOL
) -> tuple[tuple[int, ...], ...]:
    """Partition of the simples by normalized restriction, unit class first.

    Cross-checked against the partition induced by the central subspace: the
    indicator idempotents of both partitions must agree and lie in the span of
    the class-sum basis.
    """
    ring = L.ring
    classes = _group_equal_rows(_normalized_restrictions(L).T, PARTITION_TOL)

    # Central-side partition: coordinates i, i' are equivalent when every
    # element of the central subspace has equal i and i' coordinates.
    span = L.ce_span
    scale = max(1.0, float(np.max(np.abs(span)))) if span.size else 1.0
    ce_classes = _group_equal_rows(span, PARTITION_TOL * scale)
    if classes != ce_classes:
        raise PartitionMismatch(
            f"character partition {classes} differs from central partition {ce_classes}"
        )

    indicators = np.zeros((ring.rank, len(classes)))
    for c, cls in enumerate(classes):
        indicators[cls, c] = 1.0
    if not _span_contains(span, indicators, tol):
        bad = next(
            cls
            for c, cls in enumerate(classes)
            if not _span_contains(span, indicators[:, c : c + 1], tol)
        )
        raise PartitionMismatch(
            f"indicator idempotent of class {bad} is outside the central subspace"
        )
    return tuple(tuple(c) for c in classes)


def _group_equal_rows(rows: np.ndarray, tol: float) -> list[list[int]]:
    """Partition of the row indices by near-equal rows.

    Each row joins the first class whose first row is within ``tol`` of it in
    the max norm, or starts a new class.  The class of row 0 comes first, the
    rest in order of their smallest member.  Computed one class at a time:
    the first row not yet placed starts a class and takes every unplaced row
    near it, which are exactly the rows that no earlier first row took.
    """
    classes: list[list[int]] = []
    rest = np.arange(len(rows))
    while rest.size:
        near = np.max(np.abs(rows[rest] - rows[rest[0]]), axis=1) <= tol
        classes.append(rest[near].tolist())
        rest = rest[~near]
    classes.sort(key=lambda cls: (0 not in cls, cls[0]))
    return classes


def ce_basis(
    L: SubalgebraIndex, tol: Tolerance = DEFAULT_TOL, check: bool = True
) -> list[CentralElement]:
    """Class-sum basis of the subalgebra's central subspace.

    The listed class sums are C^j_st with j selected, s a selected row, and t
    arbitrary.  When ``check`` is set, verifies that the span contains the
    unit and is closed under multiplication.
    """
    ring = L.ring
    out = []
    for j, r in enumerate(L.rows):
        blk = L.blocks.blocks[j]
        for s in r:
            for t in range(blk.m):
                out.append(CentralElement(ring, blk.class_sums[s, t]))
    if check:
        vecs = np.array([b.coeffs for b in out]).reshape(len(out), ring.rank).T
        span = orthonormal_basis(vecs)
        if span.shape[1] != L.ce_dim:
            raise ClosureFailure(
                f"class-sum span has dimension {span.shape[1]}, expected {L.ce_dim}"
            )
        if not _span_contains(span, unit_central_element(ring).coeffs[:, None], tol):
            raise ClosureFailure("central subspace does not contain the unit")
        for k in range(vecs.shape[1]):
            if not _span_contains(span, vecs * vecs[:, k : k + 1], tol):
                raise ClosureFailure("central subspace is not closed under product")
    return out


def pi_down(z: CentralElement, L: SubalgebraIndex, tol: Tolerance = DEFAULT_TOL) -> CentralElement:
    """Projection of a central element onto the subalgebra's central subspace.

    Expands z in the full class-sum basis of the adapted structure and zeroes
    every coefficient outside the subalgebra's index set.
    """
    if z.ring is not L.ring:
        raise ValueError("central element and subalgebra belong to different rings")
    ring = L.ring
    B = L.blocks
    index = B.unit_index()
    cols = np.column_stack([B.blocks[j].class_sums[s, t] for j, s, t in index])
    coeffs = np.linalg.solve(cols, z.coeffs)
    keep = np.zeros(len(index), dtype=bool)
    for pos, (j, s, _t) in enumerate(index):
        keep[pos] = s in L.rows[j]
    return CentralElement(ring, cols[:, keep] @ coeffs[keep])


@dataclass(frozen=True, eq=False)
class LatticeEntry:
    subcategory: FusionSubcategory
    subalgebra: SubalgebraIndex
    partition: tuple[tuple[int, ...], ...]


@dataclass(frozen=True, eq=False)
class LatticeTable:
    """The correspondence of one ring under one block structure.

    Entries are in enumeration order and are looked up by subcategory
    indices; the lattice operations on subalgebras are lookups of the meet
    and the join of the subcategories, one pair at a time or, through the
    membership matrix, for many pairs at once.
    """

    ring: FusionRingData
    blocks: BlockStructure
    entries: tuple[LatticeEntry, ...]
    hasse_edges: tuple[tuple[int, int], ...]

    @cached_property
    def _by_indices(self) -> dict[tuple[int, ...], LatticeEntry]:
        return {e.subcategory.indices: e for e in self.entries}

    def entry(self, indices: tuple[int, ...]) -> LatticeEntry | None:
        """The entry of the subcategory with these indices, if it is in the table."""
        return self._by_indices.get(indices)

    @cached_property
    def membership(self) -> np.ndarray:
        """(S, r) bool matrix: row e marks the simples of entry e's subcategory."""
        out = np.zeros((len(self.entries), self.ring.rank), dtype=bool)
        for e, entry in enumerate(self.entries):
            out[e, list(entry.subcategory.indices)] = True
        out.setflags(write=False)
        return out

    @cached_property
    def _by_row(self) -> dict[bytes, int]:
        return {row.tobytes(): e for e, row in enumerate(self.membership)}

    def _lookup(self, rows: np.ndarray) -> np.ndarray:
        """Entry position of each (K, r) bool membership row, -1 where none has it."""
        return np.array([self._by_row.get(row.tobytes(), -1) for row in rows], dtype=np.intp)

    def meets_and_joins(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Entry positions of the meet and the join of each pair (a[k], b[k]).

        Meets are row intersections; the joins close all the row unions at
        once.  -1 marks a result missing from the table.
        """
        M = self.membership
        return self._lookup(M[a] & M[b]), self._lookup(_close_rows(self.ring, M[a] | M[b]))

    def product(self, a: LatticeEntry, b: LatticeEntry) -> LatticeEntry | None:
        """Smallest subalgebra containing both: the entry of the meet."""
        return self.entry(subcategory_meet(a.subcategory, b.subcategory).indices)

    def intersection(self, a: LatticeEntry, b: LatticeEntry) -> LatticeEntry | None:
        """Intersection of the two subalgebras: the entry of the join."""
        return self.entry(subcategory_join(a.subcategory, b.subcategory).indices)


def verify_dim_inequality(
    a: LatticeEntry,
    b: LatticeEntry,
    product: LatticeEntry,
    intersection: LatticeEntry,
    raw_ab: tuple[int, ...],
    raw_ba: tuple[int, ...],
) -> tuple[float, float, bool]:
    """Check dim(LM) <= dim(L) dim(M) / dim(L n M), with equality diagnostics.

    ``product`` and ``intersection`` are the table entries of the meet and the
    join of the two subcategories; ``raw_ab`` and ``raw_ba`` are their raw
    products in both orders (:func:`subcategory_product_set`).  Returns (lhs,
    rhs, orders_agree) where orders_agree reports whether the two raw products
    coincide.  On a commutative ring the two sides must agree within tolerance.
    """
    L, M = a.subalgebra, b.subalgebra
    lhs = product.subalgebra.dim_l
    rhs = L.dim_l * M.dim_l / intersection.subalgebra.dim_l
    bound = 1e-8 * max(1.0, rhs)
    if lhs > rhs + bound:
        raise InequalityViolation(f"dim(LM) = {lhs} exceeds bound {rhs}")
    if L.ring.commutative and abs(lhs - rhs) > bound:
        raise InequalityViolation(
            f"commutative ring but dim(LM) = {lhs} differs from {rhs}"
        )
    return lhs, rhs, raw_ab == raw_ba


def verify_cointegral_trace_sum(e: LatticeEntry) -> float:
    """Residual of dim(C)/fpdim(D) = weighted diagonal sum of the cointegral.

    Expands the subcategory cointegral in the (not necessarily adapted) unit
    basis and sums diagonal coefficients weighted by summand dimension; also
    asserts that its adapted components vanish on unselected rows.
    """
    D, L = e.subcategory, e.subalgebra
    lam = subcategory_cointegral(D)
    comps = L.base.expand(lam.coeffs)
    total = 0.0 + 0.0j
    for blk, P in zip(L.base.blocks, comps):
        total += np.trace(P) * blk.summand_dim
    residual = abs(total - D.ring.global_dim / D.fpdim)

    for j, P in enumerate(L.cointegral_components):
        selected = set(L.rows[j])
        for s in range(P.shape[0]):
            if s not in selected:
                residual = max(residual, float(np.max(np.abs(P[s, :]))))
    return float(residual)


def build_lattice(
    ring: FusionRingData, B: BlockStructure, tol: Tolerance = DEFAULT_TOL
) -> LatticeTable:
    """Full correspondence table between subcategories and subalgebras.

    The one place where subalgebras are built from subcategories; every
    consumer of the correspondence reads this table.  Verifies, for every
    enumerated subcategory: the round trip through its
    subalgebra, injectivity of the central subspaces, and anti-monotonicity of
    the correspondence.  Emits Hasse edges of the subcategory inclusion order.
    """
    entries = []
    for D in enumerate_subcategories(ring):
        L = subalgebra_from_subcategory(D, B, tol)
        back = subcategory_from_subalgebra(L, tol)
        if back.indices != D.indices:
            raise RoundTripFailure(f"{D.indices} round-tripped to {back.indices}")
        entries.append(LatticeEntry(D, L, block_partition(L, tol)))

    for a in range(len(entries)):
        for b in range(a + 1, len(entries)):
            La, Lb = entries[a].subalgebra, entries[b].subalgebra
            same_dim = La.ce_span.shape[1] == Lb.ce_span.shape[1]
            if same_dim and _span_contains(La.ce_span, Lb.ce_span, tol):
                raise RoundTripFailure(
                    "distinct subcategories produced identical central subspaces: "
                    f"{entries[a].subcategory.indices} vs {entries[b].subcategory.indices}"
                )

    for a, ea in enumerate(entries):
        for b, eb in enumerate(entries):
            if a == b:
                continue
            if set(ea.subcategory.indices) <= set(eb.subcategory.indices):
                inner = eb.subalgebra.ce_span
                outer = ea.subalgebra.ce_span
                if not _span_contains(outer, inner, tol):
                    raise MonotonicityFailure(
                        f"inclusion {ea.subcategory.indices} <= {eb.subcategory.indices} "
                        "was not reversed by the central subspaces"
                    )

    edges = []
    sets = [set(e.subcategory.indices) for e in entries]
    for a in range(len(entries)):
        for b in range(len(entries)):
            if a == b or not sets[a] < sets[b]:
                continue
            if any(sets[a] < sets[c] < sets[b] for c in range(len(entries))):
                continue
            edges.append((a, b))
    return LatticeTable(ring, B, tuple(entries), tuple(sorted(edges)))
