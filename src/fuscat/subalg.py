"""The bijection between fusion subcategories and unitary subalgebras.

A unitary subalgebra of the adjoint algebra is encoded by block-row selections
relative to an adapted basis: the subcategory's cointegral is an idempotent
of CF(C), each block is re-based so it becomes a diagonal 0/1 pattern, and
the rows carrying 1 name the simple summands of the subalgebra (the m = 1
blocks need no basis and are read as one slab).
Each subalgebra also stores its snapped cointegral, from which its
restriction projector is rebuilt, and from that the restriction of class
functions and the inverse map to subcategories are read.  The
partition of the simples that a subcategory D induces is the right cosets
x⊗D, on which both sides have closed forms: restriction is f ↦ f·λ_D with
χ_x·λ_D / d_x = Σ_{Y∈x⊗D} d_Y χ_Y / Σ_{Y∈x⊗D} d_Y², and the central
subspace is spanned by the indicators of the cosets.  These indicators are
the one representation of a central subspace: its class-sum basis is
checked against them, and no float basis of it is kept.  The
correspondence table of a ring lives here too; it is built once, checks
the float data against these closed forms and looks the lattice
operations up by their exact membership rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .char_theory import ClassFunction, subcategory_cointegral
from .fusion_ring import (
    FusionRingData,
    FusionSubcategory,
    _right_cosets,
    _row_keys,
    enumerate_subcategories,
    subcategory_closure,
)
from .linalg import (
    _BLOCK_BYTES,
    DEFAULT_TOL,
    Tolerance,
    _numerical_rank,
    _outside_span,
)
from .wedderburn import BlockStructure, _adapt_stack, _adapted_class_sums, _readonly

__all__ = [
    "ClosureViolation",
    "PartitionMismatch",
    "RoundTripFailure",
    "SubalgebraIndex",
    "LatticeEntry",
    "LatticeTable",
    "epsilon_L",
    "restrict",
    "subcategory_from_subalgebra",
    "build_lattice",
]

# Comparison of restriction vectors divides by dimensions, which amplifies
# noise; partition-level comparisons therefore run at a looser tolerance.
PARTITION_TOL = 1e-7


class ClosureViolation(Exception):
    """The computed simple-object set is not closed under fusion."""


class PartitionMismatch(Exception):
    """Character-side and central-side partitions of the simples disagree."""


class RoundTripFailure(Exception):
    """A subcategory does not survive the round trip through its subalgebra."""


@dataclass(frozen=True, eq=False)
class SubalgebraIndex:
    """A unitary subalgebra of the adjoint algebra, as block-row data.

    Every block of the base structure ``base`` is re-based so that the
    subcategory cointegral is diagonal; the adapted matrix units F'^j_st are
    never formed, only arrays over them, in the base's (block, row, column)
    order.  ``rows[j]`` lists the selected rows of block j; ``dim_l`` is the
    subalgebra dimension (a sum of summand dimensions) and ``ce_dim`` the
    dimension of its central subspace.  ``ce_sums`` (ce_dim, r) holds the
    E-basis coefficients of the class sums of the units at :attr:`selected`,
    a basis of the central subspace that :func:`build_lattice` proves to be
    the span of the coset indicators of the subcategory; no other basis of
    it is stored.  ``cointegral_components`` (r,) is the subcategory
    cointegral expanded in the adapted units, and ``idempotent`` (r,) the
    same cointegral snapped to its 0/1 pattern, ``U diag(mask) U^-1`` per
    block, in the base units.

    The (r, r) arrays of a subalgebra, its restriction projector and the
    class sums of all adapted units, live only while the table checks its
    row block of entries (:func:`_subalgebra_blocks`).  A one-entry read
    rebuilds the projector from ``idempotent`` (:func:`_projector`), to the
    same bits.
    """

    base: BlockStructure
    rows: tuple[tuple[int, ...], ...]
    dim_l: float
    ce_dim: int
    ce_sums: np.ndarray
    cointegral_components: np.ndarray
    idempotent: np.ndarray

    @property
    def ring(self) -> FusionRingData:
        return self.base.ring

    @cached_property
    def selected(self) -> np.ndarray:
        """(r,) bool: the adapted units F'^j_st whose row s is selected, in (block, row, column) order."""
        ms = np.array([blk.m for blk in self.base.blocks])
        first = np.cumsum(ms) - ms
        lay = self.base._layout
        rows = np.zeros(ms.sum(), dtype=bool)
        rows[[first[j] + s for j, sel in enumerate(self.rows) for s in sel]] = True
        return rows[first[lay.block] + lay.s]

    def __repr__(self) -> str:
        return f"SubalgebraIndex(rows={self.rows}, dim={self.dim_l:.6g})"


class _SubalgebraBlock(NamedTuple):
    """A row block of :func:`_subalgebra_blocks`: the subalgebra of each of
    its subcategories, or the exception building it raised, and the arrays
    they were built from, stacked along axis 0, with unit positions in the
    (block, row, column) order of the base structure."""

    subalgebras: list[SubalgebraIndex | Exception]
    projectors: np.ndarray  # (k, r, r) restriction projectors
    class_sums: np.ndarray  # (k, r, r) adapted class sums, one row per adapted unit
    cointegrals: np.ndarray  # (k, r) subcategory cointegrals
    expansions: np.ndarray  # (k, r) the cointegrals in the base units
    components: np.ndarray  # (k, r) adapted cointegral components
    keep: np.ndarray  # (k, r) bool: the selected units, :attr:`SubalgebraIndex.selected`


def _subalgebra_blocks(
    subcats: list[FusionSubcategory], B: BlockStructure, tol: Tolerance, step: int
) -> Iterator[_SubalgebraBlock]:
    """The unitary subalgebra of each subcategory, ``step`` subcategories at a time.

    Entry s is the subalgebra whose trivial-restriction subcategory is
    ``subcats[s]``, or the exception that building it raises: each block is
    adapted to the subcategory's cointegral and its diagonal 0/1 pattern is
    read off as the block-row selection.  All cointegrals are adapted by one
    :func:`_adapt_stack`; per block, their adapted components are
    ``U^-1 Lambda_j U`` and the snapping tests run on all of them at once.
    The m = 1 blocks, tested by the adaptation, are their own adapted
    components, with the 0/1 masks as snapped idempotents: one (S, q) slab.
    Then, for each row block of entries, yields a :class:`_SubalgebraBlock`
    with their (k, r, r) restriction projectors (:func:`_projectors`) and
    adapted class sums (:func:`_adapted_class_sums`); each entry keeps only
    its selected class sums.  No adapted unit is formed or inverted.
    """
    ring = B.ring
    if any(D.ring is not ring for D in subcats):
        raise ValueError("subcategory and block structure belong to different rings")
    cointegrals = _readonly(np.array([subcategory_cointegral(D).coeffs for D in subcats]))
    adapted = _adapt_stack(B, cointegrals, tol)
    errors = list(adapted.errors)
    ok = np.array([e is None for e in errors], dtype=bool)
    S, q = len(subcats), B._ones
    ones, later = B._split_rows(adapted.rows)
    chosen = np.abs(ones - 1) <= tol.snap_tol
    comps, idems, keep = [ones], [chosen.astype(complex)], [chosen]
    # Each entry's selected rows per block, (0,) or () for an m = 1 block.
    rows = [[((), (0,))[on] for on in sel] for sel in chosen.tolist()]
    for blk, P, U, Uinv in zip(B.blocks[q:], later, adapted.bases, adapted.inverses):
        A = Uinv @ P @ U
        diag = np.diagonal(A, axis1=1, axis2=2)
        selected = np.abs(diag - 1) <= tol.snap_tol
        bad = ~selected & (np.abs(diag) > tol.snap_tol)
        off = np.max(np.abs(np.where(np.eye(blk.m, dtype=bool), 0, A)), axis=(1, 2))
        # A row keeps the error of the first block it fails in.
        for s in np.flatnonzero(ok & (bad.any(axis=1) | (off > tol.snap_tol))):
            if bad[s].any():
                val = complex(diag[s, int(np.argmax(bad[s]))])
                errors[s] = ClosureViolation(f"diagonal coefficient {val!r} is not 0 or 1")
            else:
                errors[s] = ClosureViolation("adapted cointegral has off-diagonal coefficients")
            ok[s] = False
        for s, on in enumerate(selected.tolist()):
            rows[s].append(tuple(i for i, x in enumerate(on) if x))
        comps.append(A.reshape(S, -1))
        # The snapped idempotent U diag(mask) U^-1 of the block.
        idems.append(((U * selected[:, None, :]) @ Uinv).reshape(S, -1))
        keep.append(np.repeat(selected, blk.m, axis=1))
    for s in np.flatnonzero(ok & ~chosen[:, 0]):
        errors[s] = ClosureViolation("unit summand is missing from the subalgebra")
    summand_dims = [blk.summand_dim for blk in B.blocks]
    expansions = _readonly(adapted.rows)
    components = _readonly(np.concatenate(comps, axis=1))
    idempotents = _readonly(np.concatenate(idems, axis=1))
    keep = _readonly(np.concatenate(keep, axis=1))
    ce_dims = np.count_nonzero(keep, axis=1).tolist()
    for lo in range(0, S, step):
        k = slice(lo, lo + step)
        projectors = _projectors(B, idempotents[k])
        sums = _adapted_class_sums(B, adapted.take(k))
        out: list[SubalgebraIndex | Exception] = []
        for s in range(lo, lo + len(sums)):
            if errors[s] is not None:
                out.append(errors[s])
                continue
            dim_l = float(sum(d * len(r) for d, r in zip(summand_dims, rows[s])))
            ce_sums = _readonly(sums[s - lo][keep[s]])
            out.append(SubalgebraIndex(B, tuple(rows[s]), dim_l, ce_dims[s], ce_sums, components[s], idempotents[s]))
        yield _SubalgebraBlock(out, projectors, sums, cointegrals[k], expansions[k], components[k], keep[k])


def _projectors(B: BlockStructure, idems: np.ndarray) -> np.ndarray:
    """(S, r, r) projectors ``U blockdiag_j(I_m (x) L_j^T) U^-1`` from the base units.

    Row s of ``idems`` holds the snapped idempotents L_j of every block j in
    (block, row, column) order, and U is the base unit matrix.  This equals
    ``U' diag(mask) U'^-1`` for the adapted units U', without forming U'.
    The m = 1 blocks' columns are their units times the 0/1 masks, in one
    product.  The output and the one temporary take S r^2 complex numbers
    each; a caller with many rows passes a row block of them.
    """
    r, q = B.rank, B._ones
    G = np.empty((len(idems), r, r), dtype=complex)
    np.multiply(B._unit_matrix[:, :q], idems[:, None, :q], out=G[:, :, :q])
    pos = q
    for blk in B.blocks[q:]:
        m, width = blk.m, blk.m * blk.m
        # Rows (k, a), columns b: the coefficient k of the base unit F^j_ab.
        F = blk.units.transpose(2, 0, 1).reshape(r * m, m)
        L = idems[:, pos : pos + width].reshape(-1, m, m)
        G[:, :, pos : pos + width] = np.matmul(F, L.transpose(0, 2, 1)).reshape(len(G), r, width)
        pos += width
    return _readonly(np.matmul(G, B._unit_matrix_inv))


def _projector(L: SubalgebraIndex) -> np.ndarray:
    """(r, r) restriction projector ``U' diag(mask) U'^-1`` of one subalgebra,
    rebuilt from its idempotent on each call, to the bits of its row block's."""
    return _projectors(L.base, L.idempotent[None])[0]


def epsilon_L(L: SubalgebraIndex) -> ClassFunction:
    """Restriction of the unit class function: the sum of selected diagonal units."""
    return ClassFunction(L.ring, _projector(L)[:, 0])


def restrict(f: ClassFunction, L: SubalgebraIndex) -> ClassFunction:
    """Component of f in the subalgebra's character space, embedded in CF(C)."""
    return ClassFunction(L.ring, _projector(L) @ f.coeffs)


def _normalized_restrictions(L: SubalgebraIndex) -> np.ndarray:
    """Column i is the restriction of chi_i divided by d_i; column 0 is epsilon_L."""
    return _projector(L) / L.ring.dims


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


def _pi_down_rows(sums: np.ndarray, keep: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Projection of the central element z onto the central subspace of each
    of a stack of subalgebras, given their (k, n, r) adapted class sums and
    (k, n) selected-unit masks: z is expanded in each full class-sum basis,
    in one batched solve, and every coefficient outside the selection is
    zeroed."""
    cols = sums.transpose(0, 2, 1)
    coeffs = np.linalg.solve(cols, np.broadcast_to(np.asarray(z)[:, None], (len(sums), len(z), 1)))
    return np.matmul(cols, coeffs * keep[:, :, None])[:, :, 0]


@dataclass(frozen=True, eq=False)
class LatticeEntry:
    subcategory: FusionSubcategory
    subalgebra: SubalgebraIndex
    partition: tuple[tuple[int, ...], ...]


@dataclass(frozen=True, eq=False)
class LatticeTable:
    """The correspondence of one ring under one block structure.

    Entries are in enumeration order and are looked up by subcategory
    indices; exact arrays over them hold the membership, the inclusion order
    and the coset class ids.  The lattice operations on subalgebras are looked
    up by membership row (:meth:`meets_and_joins`): the product of two
    subalgebras is the entry of the meet, their intersection that of the join.
    """

    ring: FusionRingData
    blocks: BlockStructure
    entries: tuple[LatticeEntry, ...]
    hasse_edges: tuple[tuple[int, int], ...]
    membership: np.ndarray  # (S, r) bool: row e marks the simples of entry e's subcategory
    inside: np.ndarray  # (S, S) bool: (a, b) when entry a's subcategory lies in entry b's
    cosets: np.ndarray  # (S, r) class ids: entry x of row e is the smallest simple of x⊗D_e

    def entry(self, indices: tuple[int, ...]) -> LatticeEntry | None:
        """The entry of the subcategory with these indices, if it is in the table."""
        return self.entries_of([indices])[0]

    def entries_of(self, index_sets) -> list[LatticeEntry | None]:
        """:meth:`entry` of each of a sequence of index tuples, by one lookup
        of the membership rows they mark: an entry is found when its sorted
        indices are the tuple."""
        r = self.ring.rank
        sets = [tuple(indices) for indices in index_sets]
        valid = [all(0 <= i < r for i in indices) for indices in sets]
        rows = np.zeros((len(sets), r), dtype=bool)
        owner = [k for k, indices in enumerate(sets) if valid[k] for _ in indices]
        rows[owner, [i for k, indices in enumerate(sets) if valid[k] for i in indices]] = True
        found = self._lookup(rows).tolist()
        return [
            self.entries[e] if ok and e >= 0 and self.entries[e].subcategory.indices == indices else None
            for indices, ok, e in zip(sets, valid, found)
        ]

    @cached_property
    def _keys(self) -> tuple[np.ndarray, np.ndarray]:
        """The packed membership rows in sorted order, and the entry of each."""
        keys = _row_keys(self.membership)
        order = np.argsort(keys, kind="stable")
        return keys[order], order

    def _lookup(self, rows: np.ndarray) -> np.ndarray:
        """The entry whose membership row is each of the (K, r) bool rows, or -1."""
        keys, order = self._keys
        wanted = _row_keys(rows)
        pos = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        return np.where(keys[pos] == wanted, order[pos], -1)

    def meets_and_joins(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Entry positions of the meet and the join of each pair (a[k], b[k]),
        or -1 where the table has none; O(r) work and memory per pair.  The
        meet holds the intersection of the index sets, and the join the
        unit's class of the join of the two coset partitions, which its
        cosets must be (:func:`_coset_joins`: the class of x is x⊗(A∨B))."""
        M, cosets = self.membership, self.cosets
        meets = self._lookup(M[a] & M[b])
        ids = _coset_joins(cosets, a, b)
        joins = self._lookup(ids == 0)
        joins[np.any(cosets[joins] != ids, axis=1)] = -1
        return meets, joins


def _coset_joins(cosets: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(K, r) class ids of the join of the partitions ``cosets[a[k]]`` and
    ``cosets[b[k]]``, each the smallest simple of its class as in ``cosets``.

    From the ids of A, the least label over each class of B, then of A, is
    taken until nothing changes: the labels are then constant on the classes
    of the join, and the smallest simple of each keeps its own id."""
    K, r = len(a), cosets.shape[1]
    sides = []
    for ids in (cosets[b], cosets[a]):
        key = (ids + np.arange(K)[:, None] * r).ravel()
        at = np.argsort(key, kind="stable")
        starts = np.diff(key[at], prepend=-1) != 0
        seg = np.empty_like(at)
        seg[at] = np.cumsum(starts) - 1
        sides.append((at, np.flatnonzero(starts), seg))
    label = cosets[a].ravel()
    while True:
        before = label
        for at, starts, seg in sides:
            label = np.minimum.reduceat(label[at], starts)[seg]
        if np.array_equal(label, before):
            return label.reshape(K, r)


class _LiveBlock(NamedTuple):
    """A row block of checked table entries with the arrays of its
    :class:`_SubalgebraBlock` and its rows of the coset class ids, alive
    only while :func:`_stream_lattice` visits it."""

    entries: list[LatticeEntry]
    projectors: np.ndarray  # (k, r, r) restriction projectors
    class_sums: np.ndarray  # (k, r, r) adapted class sums, one row per adapted unit
    cointegrals: np.ndarray  # (k, r) subcategory cointegrals
    expansions: np.ndarray  # (k, r) the cointegrals in the base units
    components: np.ndarray  # (k, r) adapted cointegral components
    keep: np.ndarray  # (k, r) bool: the selected units
    cosets: np.ndarray  # (k, r) class ids, as in :attr:`LatticeTable.cosets`


def _cointegral_trace_sums(block: _LiveBlock) -> np.ndarray:
    """Residual of dim(C)/fpdim(D) = weighted diagonal sum of the cointegral,
    for each entry of a row block.

    Each cointegral's diagonal coefficients in the base units, as
    :meth:`BlockStructure._expand_rows` expanded it, are summed weighted by
    summand dimension.  The residual also covers the adapted components on
    unselected rows, which must vanish.
    """
    base = block.entries[0].subalgebra.base
    ones, later = base._split_rows(block.expansions)
    total = np.cumsum(ones * base._layout.summand_dim[: base._ones], axis=1)[:, -1]  # in block order
    for blk, P in zip(base.blocks[base._ones :], later):
        total = total + np.trace(P, axis1=1, axis2=2) * blk.summand_dim
    fpdim = np.array([e.subcategory.fpdim for e in block.entries])
    residual = np.abs(total - base.ring.global_dim / fpdim)
    outside = np.max(np.abs(np.where(block.keep, 0.0, block.components)), axis=1)
    return np.maximum(residual, outside)


def build_lattice(
    ring: FusionRingData, B: BlockStructure, tol: Tolerance = DEFAULT_TOL
) -> LatticeTable:
    """Full correspondence table between subcategories and subalgebras.

    The one place where subalgebras are built from subcategories, all of them
    adapted in one stacked pass; every consumer of the correspondence reads
    this table.  Each entry's partition is exact, the right cosets x⊗D
    (:func:`fusion_ring._right_cosets`), and its float data are checked
    against their closed forms on them (:func:`_checked_partitions`); then no
    subcategory may occur twice.  The error of the first failing entry, else
    of the first repeated pair, is the one raised.  Keeps the inclusion order
    and the coset class ids, and emits the Hasse edges of the order.

    The (r, r) projectors and class sums are formed for a row block of
    entries at a time, at most ``_BLOCK_BYTES`` each (at least one entry),
    and dropped once the block is checked; an entry keeps its selected class
    sums and two (r,) arrays (:class:`SubalgebraIndex`).

    Injectivity and anti-monotonicity follow without a test of their own.
    Each central subspace is the span of the coset indicators of its D, and
    D is the class of the unit, so only a repeated subcategory can repeat a
    central subspace.  If D ⊆ D′ then x⊗D ⊆ x⊗D′: the cosets of D refine
    those of D′, each indicator of D′ is a sum of indicators of D, and the
    central subspace of D′ lies in that of D.
    """
    step = max(1, _BLOCK_BYTES // (16 * ring.rank * ring.rank))
    return _stream_lattice(ring, B, tol, step, lambda block: None)


def _stream_lattice(
    ring: FusionRingData,
    B: BlockStructure,
    tol: Tolerance,
    step: int,
    visit: Callable[[_LiveBlock], object],
) -> LatticeTable:
    """:func:`build_lattice` in row blocks of ``step`` entries, each handed
    to ``visit`` with its live arrays once its partitions are checked."""
    subcats = enumerate_subcategories(ring)
    M = _membership(ring, subcats)
    cosets = _right_cosets(ring, M)
    cosets.setflags(write=False)
    entries: list[LatticeEntry] = []
    for block in _subalgebra_blocks(subcats, B, tol, step):
        lo, hi = len(entries), len(entries) + len(block.subalgebras)
        partitions = _checked_partitions(subcats[lo:hi], block.subalgebras, block.projectors, cosets[lo:hi], tol)
        checked = [LatticeEntry(*e) for e in zip(subcats[lo:hi], block.subalgebras, partitions)]
        visit(_LiveBlock(checked, *block[1:], cosets[lo:hi]))
        entries.extend(checked)
    inside = _inclusions(M)
    twins = np.argwhere(np.triu(inside & inside.T, 1))
    if len(twins):
        a, b = twins[0]
        raise RoundTripFailure(
            "distinct subcategories produced identical central subspaces: "
            f"{entries[a].subcategory.indices} vs {entries[b].subcategory.indices}"
        )
    return LatticeTable(ring, B, tuple(entries), _hasse_edges(inside), M, inside, cosets)


def _checked_partitions(
    subcats: list[FusionSubcategory],
    subalgebras: list[SubalgebraIndex | Exception],
    projectors: np.ndarray,
    heads: np.ndarray,
    tol: Tolerance,
) -> list[tuple[tuple[int, ...], ...]]:
    """The right cosets of each subcategory D of a row block, class ids
    ``heads`` (k, r), once its subalgebra L's float data agree with them.

    ``projectors`` (k, r, r) holds the restriction projectors.  Restriction
    is f ↦ f·λ_D with λ_D = Σ_{d∈D} d_d χ_d / dim(D) idempotent, so
    c = χ_x·λ_D = c·λ_D lives on x⊗D, where it is a left eigenvector of the
    matrix T of :func:`fusion_ring._right_cosets`; T is positive there with
    the positive left eigenvector d, so by Perron–Frobenius, and taking
    dimensions, χ_x·λ_D / d_x =
    Σ_{Y∈x⊗D} d_Y χ_Y / Σ_{Y∈x⊗D} d_Y².  The central subspace, the inverse
    Fourier image of λ_D·CF, is then the span of the coset indicators.
    Divided by the square roots of the class sizes, the indicators are
    exactly orthonormal, as the classes are disjoint; the c selected class
    sums V span them when V lies in their span and their inner products
    with V, a (c × c) matrix, have rank c.

    The round trip and the closed forms are tested on the (k, r, r) stack
    at once, the span on all the entries' class sums at once, and the width
    by one batched SVD per count of cosets (and of kept class sums), so
    that each (c × c) matrix and its rank threshold are those of the entry
    alone.  The first entry that fails
    raises: the exception building its subalgebra, or else, in
    this order, the round trip's error when the restrictions within
    ``PARTITION_TOL`` of epsilon_L are not D; :class:`PartitionMismatch`
    when a restriction is further than that from its closed form, when
    ``ce_dim`` is not the number of cosets, when a class sum is not constant
    on the cosets, or when the class sums span fewer directions than there
    are cosets.  A false closed form fails; a passing central subspace is
    closed under pointwise product and holds the unit, as the coset
    indicators do.
    """
    built = [not isinstance(L, Exception) for L in subalgebras]
    n = built.index(False) if False in built else len(built)  # the entries checked here
    d = subcats[0].ring.dims
    r = len(d)
    H = heads[:n]
    # The round trip and the closed forms, on the restrictions P / d; the
    # closed forms are subtracted in place, so that the two tests hold one
    # complex and one real (k, r, r) array besides their temporaries.
    R = projectors[:n] / d
    dev = np.abs(R - R[:, :, :1])
    trip = np.any((dev.max(axis=1) <= PARTITION_TOL) != (H == 0), axis=1)
    same = H[:, :, None] == H[:, None, :]  # (e, x, y): x and y lie in one coset
    R -= same * (d[:, None] / (same @ (d * d))[:, None, :])  # d_x / Σ d_z² over y's coset
    gap = np.abs(R, out=dev).max(axis=1)
    far = gap.max(axis=1) > PARTITION_TOL
    del R, dev, same
    cosets = np.count_nonzero(H == np.arange(r), axis=1)
    ce_dims = np.array([L.ce_dim for L in subalgebras[:n]], dtype=int)
    miscount = ce_dims != cosets
    # V holds each entry's kept class sums as columns, padded with zero
    # columns, which the span test skips.  Its rows (e, x) are sorted by
    # entry and then coset id, each coset a run: the inner products with the
    # orthonormal coset indicators are the run sums over the square roots of
    # the run lengths, and the projection onto their span repeats each run's
    # mean over the run.
    kept = [len(L.ce_sums) for L in subalgebras[:n]]
    m = max(kept, default=0)
    V = np.zeros((n, r, m), dtype=complex)
    for e, L in enumerate(subalgebras[:n]):
        V[e, :, : kept[e]] = L.ce_sums.T
    norms = np.linalg.norm(V, axis=1)
    run = (H + r * np.arange(n)[:, None]).ravel()
    order = np.argsort(run, kind="stable")
    starts = np.flatnonzero(np.diff(run[order], prepend=-1))
    sizes = np.diff(starts, append=n * r)
    root = np.sqrt(sizes)[:, None]
    V = V.reshape(n * r, m)[order]
    G = np.add.reduceat(V, starts) / root
    V -= np.repeat(G / root, sizes, axis=0)
    skew = _outside_span(np.abs(V).reshape(n, r, m).max(axis=1, initial=0.0), norms, tol).any(axis=1)
    del V
    # The width is the rank of the (c × m) inner products of the c
    # indicators with the m kept class sums, entry e's run of rows of G.
    first_run = np.cumsum(cosets) - cosets
    width = cosets.copy()
    groups: dict[tuple[int, int], list[int]] = {}
    for e in np.flatnonzero(~(trip | far | miscount | skew)).tolist():
        groups.setdefault((int(cosets[e]), kept[e]), []).append(e)
    for (c, count), members in groups.items():
        rows = first_run[members][:, None] + np.arange(c)
        width[members] = _numerical_rank(G[rows, :count], tol)
    failed = trip | far | miscount | skew | (width != cosets)
    first = int(np.argmax(failed)) if failed.any() else n
    if first < len(subalgebras):
        D, L = subcats[first], subalgebras[first]
        if first == n:
            raise L
        if trip[first]:
            back = subcategory_from_subalgebra(L, tol)
            raise RoundTripFailure(f"{D.indices} round-tripped to {back.indices}")
        if far[first]:
            x = int(np.argmax(gap[first]))
            raise PartitionMismatch(f"restriction of simple {x} is {gap[first, x]:.3g} from its closed form")
        if miscount[first]:
            raise PartitionMismatch(f"ce_dim is {L.ce_dim}, {D.indices} has {cosets[first]} right cosets")
        if skew[first]:
            raise PartitionMismatch(f"a class sum of {D.indices} is not constant on its right cosets")
        raise PartitionMismatch(
            f"central subspace has dimension {width[first]}, {D.indices} has {cosets[first]} right cosets"
        )
    partitions = []
    for head in H.tolist():
        classes: dict[int, list[int]] = {}
        for x, h in enumerate(head):
            classes.setdefault(h, []).append(x)
        # Each class first appears at its smallest simple, its id: in order of ids.
        partitions.append(tuple(map(tuple, classes.values())))
    return partitions


def _membership(ring: FusionRingData, subcats) -> np.ndarray:
    """(S, r) bool matrix: row e marks the simples of subcategory e."""
    out = np.zeros((len(subcats), ring.rank), dtype=bool)
    for e, D in enumerate(subcats):
        out[e, list(D.indices)] = True
    out.setflags(write=False)
    return out


def _inclusions(M: np.ndarray) -> np.ndarray:
    """(S, S) bool matrix: entry (a, b) when row a of M is a subset of row b."""
    Mf = M.astype(float)
    return Mf @ Mf.T == Mf.sum(axis=1)[:, None]


def _hasse_edges(inside: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Covering pairs (a, b) of the strict inclusions, in sorted order.

    ``inside`` is :func:`_inclusions`; a pair is strict when the inclusion
    does not hold both ways, and covering when no c lies strictly between.
    """
    strict = inside & ~inside.T
    Sf = strict.astype(float)
    cover = strict & ~(Sf @ Sf > 0)
    return tuple((int(a), int(b)) for a, b in np.argwhere(cover))
