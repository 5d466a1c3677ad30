"""Wedderburn block decomposition of the class-function algebra.

CF(C) is semisimple, so it splits as a direct sum of full matrix algebras.
This module finds that splitting numerically: the center is computed from the
regular representation, its joint eigenspaces are the blocks, and matrix units
inside each block are built by splitting the block idempotent with a seeded
random element.  Each matrix unit has an inverse Fourier image, its conjugacy
class sum.  The blocks with m = 1, all of them for a commutative ring, come
first, and arrays over their units are handled as one (S, q) slab.

Block data recorded per block j: the multiplicity m_j (so the block is an
m_j x m_j matrix algebra), the scale n_j with tau(F^j_ss) = 1/n_j, and the
dimension dim(C)/n_j of the underlying simple summand of the adjoint algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .char_theory import (
    _fourier_inverse_raw,
    _star_factors,
    cf_star_blocks,
    cf_star_table,
    cointegral,
    unit_central_element,
)
from .fusion_ring import FusionRingData
from .linalg import DEFAULT_TOL, Tolerance, joint_eigenspaces

__all__ = [
    "SplitFailure",
    "NotSemisimple",
    "NotIdempotent",
    "Block",
    "BlockStructure",
    "compute_blocks",
    "verify_class_sum_pairings",
    "verify_dual_bases",
    "verify_integral_classsum",
]

_MAX_SPLIT_TRIES = 12


class SplitFailure(Exception):
    """Matrix-unit construction did not converge for any retried seed."""


class NotSemisimple(Exception):
    """Center dimension and the number of found blocks disagree."""


class NotIdempotent(Exception):
    """A claimed idempotent has a block eigenvalue away from {0, 1}."""


@dataclass(frozen=True, eq=False)
class Block:
    """One matrix-algebra summand of CF(C).

    ``units[s, t]`` holds the chi-basis coefficients of the matrix unit at row
    s, column t; ``class_sums[s, t]`` the E-basis coefficients of its inverse
    Fourier image.
    """

    m: int
    n: float
    summand_dim: float
    units: np.ndarray
    class_sums: np.ndarray

    def __post_init__(self) -> None:
        for name in ("units", "class_sums"):
            object.__setattr__(self, name, _readonly(np.ascontiguousarray(getattr(self, name), dtype=complex)))


class _UnitLayout(NamedTuple):
    """Per matrix unit F^j_st, in (block, row, column) order: its block j,
    row s and column t, the position of F^j_ts, and the scale n_j and
    summand dimension of its block."""

    block: np.ndarray
    s: np.ndarray
    t: np.ndarray
    transpose: np.ndarray
    n: np.ndarray
    summand_dim: np.ndarray


@dataclass(frozen=True, eq=False)
class BlockStructure:
    """The full Wedderburn data of CF(C) for one fusion ring.

    Every array over all matrix units lists them block by block, each block
    row by row and each row column by column: (block, row, column) order.
    The q blocks with m = 1 come first (:attr:`_ones`), so an (S, q) slab
    of such an array covers them, and only later blocks are visited singly.
    """

    ring: FusionRingData
    blocks: tuple[Block, ...]
    seed: int

    @property
    def rank(self) -> int:
        return self.ring.rank

    @cached_property
    def _ones(self) -> int:
        """The number q of leading blocks with m = 1."""
        return next((j for j, blk in enumerate(self.blocks) if blk.m != 1), len(self.blocks))

    @cached_property
    def _unit_rows(self) -> np.ndarray:
        """The ``units`` of all blocks as (r, r) rows, in (block, row, column) order."""
        return _readonly(np.concatenate([blk.units.reshape(-1, self.rank) for blk in self.blocks]))

    @cached_property
    def _class_sum_rows(self) -> np.ndarray:
        """The ``class_sums`` of all blocks as (r, r) rows, in (block, row, column) order."""
        return _readonly(np.concatenate([blk.class_sums.reshape(-1, self.rank) for blk in self.blocks]))

    @cached_property
    def _layout(self) -> _UnitLayout:
        """Index arrays of the matrix units, in (block, row, column) order,
        formed on first use and read-only."""
        ms = np.array([blk.m for blk in self.blocks])
        block = np.repeat(np.arange(len(ms)), ms * ms)
        start = np.repeat(np.cumsum(ms * ms) - ms * ms, ms * ms)
        m = ms[block]
        s, t = np.divmod(np.arange(len(block)) - start, m)
        n = np.array([blk.n for blk in self.blocks])[block]
        summand_dim = np.array([blk.summand_dim for blk in self.blocks])[block]
        return _UnitLayout(*map(_readonly, (block, s, t, start + t * m + s, n, summand_dim)))

    @cached_property
    def _unit_matrix(self) -> np.ndarray:
        return np.ascontiguousarray(self._unit_rows.T)

    @cached_property
    def _unit_matrix_inv(self) -> np.ndarray:
        return np.linalg.inv(self._unit_matrix)

    def expand(self, coeffs: np.ndarray) -> list[np.ndarray]:
        """Coefficients of a chi-basis vector in the matrix-unit basis, per block."""
        ones, later = self._split_rows(self._expand_rows(np.asarray(coeffs)[None]))
        return list(ones[0].reshape(-1, 1, 1)) + [P[0] for P in later]

    def _expand_rows(self, coeffs: np.ndarray) -> np.ndarray:
        """Each row of an (S, rank) array in the matrix-unit basis, as (S, r) rows.

        Each row is multiplied by the inverse on its own, so it expands to the
        same bits as it does alone; one matrix product for all rows would
        round differently.
        """
        inv = self._unit_matrix_inv
        return np.stack([inv @ c for c in np.asarray(coeffs, dtype=complex)])

    def _split_rows(self, rows: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """(S, r) rows over all matrix units as the (S, q) slab of the m = 1
        blocks and one (S, m, m) view per later block."""
        later, pos = [], self._ones
        for blk in self.blocks[self._ones :]:
            later.append(rows[:, pos : pos + blk.m * blk.m].reshape(-1, blk.m, blk.m))
            pos += blk.m * blk.m
        return rows[:, : self._ones], later


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _center_basis(ring: FusionRingData, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """Center of CF(C) as chi-basis columns, plus the (center_dim, r, r)
    stack of their left multiplications, contiguous.

    The centre is the null space of the (r^2, r) commutator stack.  A
    commutative ring, by the exact integer test, is its own centre: its
    stack is zero, the SVD of a zero stack returns exactly the identity, and
    the identity's left multiplications are the ring's own, copied once.
    Otherwise the SVD is taken of the R of the stack's QR: LAPACK's SVD of
    a tall matrix runs the same QR and bidiagonalizes the same R, so the
    singular values and right vectors are those of the stack, bit for bit,
    and its unread (r^2, r) left vectors are never formed.
    """
    N = ring.N_float
    r = ring.rank
    left = N.transpose(0, 2, 1)  # left[a][k, j] = N[a, j, k]
    if ring.commutative:
        return np.eye(r), np.ascontiguousarray(left)
    right = N.transpose(1, 2, 0)  # right[a][k, j] = N[j, a, k]
    R = np.linalg.qr((left - right).reshape(r, -1).T, mode="r")
    _, s, Vh = np.linalg.svd(R, full_matrices=False)
    smax = s[0] if s.size else 0.0
    thr = max(tol.abs_tol, smax * r**2 * np.finfo(float).eps, smax * 1e-10)
    null_dim = r - int(np.sum(s > thr))
    center = Vh[r - null_dim :].conj().T
    # One copy of the transposed view, then one product for all centre vectors.
    lz = center.T @ np.ascontiguousarray(left).reshape(r, r * r)
    return center, lz.reshape(null_dim, r, r)


def _left_mult_matrix(ring: FusionRingData, x: np.ndarray) -> np.ndarray:
    """Matrix L_x of left star multiplication by the chi-basis vector x: x * p = L_x @ p."""
    return _star_factors(ring, x[None])[0].T


def _lagrange_idempotents(L: np.ndarray, unit: np.ndarray, lambdas: list[complex]) -> np.ndarray:
    """Spectral idempotents of x inside its block, by Lagrange interpolation,
    as (len(lambdas), rank) rows, given x's left multiplication matrix L.

    Each factor p * (x - lambda_t u) is taken as L @ p - lambda_t p, an r^2
    product: p is a polynomial in x and the block unit u, so it commutes with
    x and p * u = p.
    """
    out = np.empty((len(lambdas), len(unit)), dtype=complex)
    for s, ls in enumerate(lambdas):
        p = unit
        for t, lt in enumerate(lambdas):
            if t != s:
                p = (L @ p - lt * p) / (ls - lt)
        out[s] = p
    return out


def _unit_relation_residual(ring: FusionRingData, unit_blocks) -> float:
    """Max residual of F^j_st F^i_uv = delta_ij delta_ut F^j_sv over the given blocks.

    ``unit_blocks`` is a sequence of (m, m, rank) unit arrays.  All units are
    stacked in (block, row, column) order and multiplied against all of them
    by :func:`cf_star_blocks`; in the products of F^j_st the expected units
    F^j_s0..F^j_s(m-1) occupy consecutive columns and are subtracted in place.
    """
    U = np.concatenate([units.reshape(-1, ring.rank) for units in unit_blocks])
    expected = []
    col = 0
    for units in unit_blocks:
        m = units.shape[0]
        expected.extend((col + t * m, units[s]) for s in range(m) for t in range(m))
        col += m * m
    worst = 0.0
    for lo, prods in cf_star_blocks(ring, U, U):
        for a, (start, row) in enumerate(expected[lo : lo + len(prods)]):
            prods[a, start : start + len(row)] -= row
        worst = max(worst, float(np.max(np.abs(prods))))
    return worst


def _build_block_units(
    ring: FusionRingData,
    space: np.ndarray,
    block_unit: np.ndarray,
    m: int,
    rng: np.random.Generator,
    tol: Tolerance,
) -> np.ndarray:
    """Matrix units of one block with m > 1, as an (m, m, rank) coefficient array."""
    dim = space.shape[1]
    check_tol = max(100 * tol.abs_tol, 1e-10)
    for _ in range(_MAX_SPLIT_TRIES):
        x = space @ (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        L = _left_mult_matrix(ring, x)
        X = space.conj().T @ L @ space
        w = np.linalg.eigvals(X)
        order = np.lexsort((-w.imag, -w.real))
        w = w[order]
        ctol = 1e-6 * max(1.0, float(np.max(np.abs(w))))
        groups: list[list[complex]] = []
        for val in w:
            if groups and abs(val - groups[-1][0]) <= ctol:
                groups[-1].append(val)
            else:
                groups.append([val])
        if len(groups) != m or any(len(g) != m for g in groups):
            continue
        lambdas = [complex(np.mean(g)) for g in groups]
        sep = min(
            abs(a - b) for i, a in enumerate(lambdas) for b in lambdas[i + 1 :]
        )
        if sep < 1e-3:
            continue
        E = _lagrange_idempotents(L, block_unit, lambdas)
        # E[s] * g = g @ TE[s]: one stack of factors serves the idempotent
        # test and the products E[s] * y.
        TE = _star_factors(ring, E)
        square_error = np.max(np.abs(np.matmul(E[:, None], TE)[:, 0] - E))
        sum_error = np.max(np.abs(E.sum(axis=0) - block_unit))
        if not (square_error <= check_tol and sum_error <= check_tol):
            continue
        y = space @ (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        EY = y @ TE
        e0 = E[0]
        a = cf_star_table(ring, EY[:1], E[1:])[0]  # (e0 * y) * E[s]
        b = cf_star_table(ring, EY[1:], E[:1])[:, 0]  # (E[s] * y) * e0
        z = np.matmul(b[:, None], _star_factors(ring, a))[:, 0]  # a[s] * b[s]
        c = (z @ e0.conj()) / np.vdot(e0, e0)
        degenerate = (np.abs(c) < 1e-8) | (
            np.max(np.abs(z - c[:, None] * e0), axis=1) > check_tol * np.maximum(1.0, np.abs(c))
        )
        if degenerate.any():
            continue
        scale = np.abs(c) ** 0.5
        units = np.zeros((m, m, ring.rank), dtype=complex)
        units[0, 0] = e0
        units[0, 1:] = a / scale[:, None]
        units[1:, 0] = b / (c / scale)[:, None]
        units[1:, 1:] = cf_star_table(ring, units[1:, 0], units[0, 1:])
        if _unit_relation_residual(ring, [units]) <= check_tol:
            return units
    raise SplitFailure(f"could not build matrix units for an m={m} block")


def _round9(x) -> np.ndarray:
    """``round(v, 9)`` of every entry of a float array, as Python computes it.

    ``np.round(x, 9)`` is ``rint(x * 1e9) / 1e9``; the division is correctly
    rounded like ``round``'s decimal conversion, so the two agree unless the
    rounding error of ``x * 1e9`` (at most |x|·1e9·2^-53) moves it across a
    half-integer.  Entries within 1e-6 of one, with a margin that grows with
    |x| and covers all non-finite products, take ``round`` itself.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = x * 1e9
        out = np.round(x, 9)
        margin = np.maximum(1e-6, np.abs(scaled) * 2.0**-50)
        near = ~(np.abs(scaled - np.floor(scaled) - 0.5) > margin)
    if near.any():
        out[near] = [round(v, 9) for v in x[near].tolist()]
    return out


def _lex_order(keys: np.ndarray) -> np.ndarray:
    """Stable sorting order of the rows of ``keys`` (..., n, k), each row
    compared as a tuple of its k entries, along the n axis."""
    return np.lexsort(np.moveaxis(keys, -1, 0)[::-1], axis=-1)


def compute_blocks(ring: FusionRingData, seed: int = 0, tol: Tolerance = DEFAULT_TOL) -> BlockStructure:
    """Full Wedderburn decomposition of CF(C), deterministic given seed.

    The block containing the cointegral comes first; the remaining blocks are
    ordered by (m ascending, n ascending, idempotent coefficient signature),
    so the m = 1 blocks lead, views of two read-only (q, r) slabs made by one
    product and one inverse Fourier image.  Errors are those of the first failing block.
    """
    center, lz = _center_basis(ring, tol)
    spaces = joint_eigenspaces(lz, seed=seed, tol=tol)
    if len(spaces) != center.shape[1]:
        raise NotSemisimple(f"center has dimension {center.shape[1]} but {len(spaces)} blocks were found")

    basis = np.column_stack(spaces)
    unit_coords = np.linalg.solve(basis, np.eye(1, ring.rank, dtype=complex)[0])
    lam = cointegral(ring).coeffs
    lam_coords = np.linalg.solve(basis, lam)

    # Exact: the widths sum to r, so the multiplicities fill the rank.
    widths = np.array([V.shape[1] for V in spaces])
    ms = np.array([math.isqrt(w) for w in widths.tolist()])
    if np.any(ms * ms != widths):
        raise NotSemisimple(f"block dimension {widths[np.argmax(ms * ms != widths)]} is not a perfect square")

    # Block units and cointegral parts V @ coords, in products of one space's shape.
    units1, lam_parts = np.empty((2, len(spaces), ring.rank), dtype=complex)
    for w in sorted(set(widths.tolist())):
        group = np.flatnonzero(widths == w)
        at = np.cumsum(widths)[group, None] - w + np.arange(w)
        V = np.stack([spaces[j] for j in group])
        units1[group] = np.matmul(V, unit_coords[at, None])[:, :, 0]
        lam_parts[group] = np.matmul(V, lam_coords[at, None])[:, :, 0]

    # The first failure as (block, step): 0 the cointegral, 1 the units, 2 the trace.
    hits = np.flatnonzero(np.max(np.abs(lam_parts), axis=1) > 1e-6)
    tau = units1[:, 0]
    bad_tau = np.flatnonzero((np.abs(tau.imag) > 1e-6) | (tau.real <= 0))[:1]
    fails = [(len(spaces), 1, "")] + [(j, 2, f"block trace {complex(tau[j])!r} is not real positive") for j in bad_tau]
    if len(hits) > 1:
        fails.append((hits[1], 0, "cointegral spreads over more than one block"))
    if len(hits) and (ms[hits[0]] != 1 or np.max(np.abs(lam_parts[hits[0]] - lam)) > 1e-6):
        fails.append((hits[0], 0, "cointegral block is not one dimensional"))
    first = min(fails)
    rng = np.random.default_rng(seed)
    wide = [j for j in np.flatnonzero(ms > 1).tolist() if (j, 1) < first[:2]]
    units = {j: _build_block_units(ring, spaces[j], units1[j], int(ms[j]), rng, tol) for j in wide}
    if first[2]:
        raise NotSemisimple(first[2])
    if not len(hits):
        raise NotSemisimple("no block contains the cointegral")

    ns = ms / tau.real
    idems = units1.copy()
    for j in wide:
        idems[j] = units[j][range(ms[j]), range(ms[j])].sum(axis=0)
    # Sort keys: m, n and the idempotent's coefficients as re/im pairs, the
    # last two rounded to 9 places.
    rest = np.delete(np.arange(len(spaces)), hits[0])
    pairs = np.stack([idems.real, idems.imag], axis=-1)[rest].reshape(len(rest), 2 * ring.rank)
    order = [hits[0], *rest[_lex_order(np.column_stack([ms[rest], _round9(ns[rest]), _round9(pairs)]))]]
    q = int(np.count_nonzero(ms == 1))
    slab = _readonly(units1[order[:q]])
    units.update(zip(order[:q], slab[:, None, None]))
    sums = dict(zip(order[:q], _readonly(_fourier_inverse_raw(ring, slab))[:, None, None]))
    sums.update((j, _fourier_inverse_raw(ring, units[j])) for j in wide)
    dims = ring.global_dim / ns
    blocks = tuple(Block(int(ms[j]), float(ns[j]), float(dims[j]), units[j], sums[j]) for j in order)
    return BlockStructure(ring, blocks, seed)


@dataclass(frozen=True, eq=False)
class _Adaptation:
    """S idempotents adapted at once (:func:`_adapt_stack`).

    ``rows`` (S, r) holds their components in the base matrix units.  Per
    block j after the m = 1 ones, which need no change of basis, ``bases[j]``
    holds the (S, m, m) eigenbases U that adapt it and ``inverses[j]`` their
    inverses.  ``errors[s]`` is the exception that adapting idempotent s
    alone raises; where that is set, the arrays of row s are placeholders.
    """

    rows: np.ndarray
    bases: tuple[np.ndarray, ...]
    inverses: tuple[np.ndarray, ...]
    errors: tuple[Exception | None, ...]

    def take(self, rows: slice) -> _Adaptation:
        """The adaptation of the idempotents in ``rows`` alone."""
        pick = tuple(tuple(U[rows] for U in Us) for Us in (self.bases, self.inverses))
        return _Adaptation(self.rows[rows], *pick, self.errors[rows])


def _stacked(fn, A: np.ndarray, errors: list):
    """``fn`` on a stack of matrices; matrix by matrix if the stacked call fails.

    A matrix whose own call raises ``LinAlgError`` records it as its row's
    error, unless the row has one, and gets the result for the identity.
    """
    try:
        return fn(A)
    except np.linalg.LinAlgError:
        pass
    eye = np.eye(A.shape[-1], dtype=A.dtype)
    outs = []
    for s, X in enumerate(A):
        try:
            outs.append(fn(X))
        except np.linalg.LinAlgError as exc:
            if errors[s] is None:
                errors[s] = exc
            outs.append(fn(eye))
    if isinstance(outs[0], tuple):
        return tuple(np.stack(parts) for parts in zip(*outs))
    return np.stack(outs)


def _adapt_stack(B: BlockStructure, coeffs: np.ndarray, tol: Tolerance) -> _Adaptation:
    """Re-diagonalize each block for each row of an (S, rank) array of idempotents.

    Per block, the eigenbasis U of the idempotent's component makes it
    diag(1..1, 0..0): eigenvalue-1 columns first, each group ordered by
    eigenvector signature.  The m = 1 blocks' components are eigenvalues,
    tested as one (S, q) slab; per later block, one stacked eigvals, SVD,
    signature sort and inverse serve all S components.  A row with a block
    eigenvalue outside the {0, 1} tolerance band gets :class:`NotIdempotent`,
    the first it would raise alone; its later blocks are computed on the
    identity so that they cannot fail in its place.
    """
    rows = B._expand_rows(coeffs)
    ones, comps = B._split_rows(rows)
    S = len(rows)
    errors: list[Exception | None] = [None] * S
    bad = np.minimum(np.abs(ones), np.abs(ones - 1)) > tol.snap_tol
    for s in np.flatnonzero(bad.any(axis=1)).tolist():
        val = complex(ones[s, np.argmax(bad[s])])
        errors[s] = NotIdempotent(f"block eigenvalue {val!r} is not in {{0, 1}}")
    bases, inverses = [], []
    for P in comps:
        m = P.shape[1]
        eye = np.eye(m, dtype=complex)
        failed = np.array([e is not None for e in errors])
        w = _stacked(np.linalg.eigvals, np.where(failed[:, None, None], eye, P), errors)
        ones = np.count_nonzero(np.abs(w - 1) <= tol.snap_tol, axis=1)
        zeros = np.count_nonzero(np.abs(w) <= tol.snap_tol, axis=1)
        # A row that failed before is the identity here, so cannot fail again.
        for s in np.flatnonzero(ones + zeros != m):
            bad = w[s][int(np.argmax(np.minimum(np.abs(w[s] - 1), np.abs(w[s]))))]
            errors[s] = NotIdempotent(f"block eigenvalue {bad!r} is not in {{0, 1}}")
        failed = np.array([e is not None for e in errors])
        ones[failed] = m
        # Eigenbasis without eigenvector ambiguity: the eigenvalue-1 space is
        # the column space of P, the eigenvalue-0 space its kernel.
        Us, _, Vh = _stacked(np.linalg.svd, np.where(failed[:, None, None], eye, P), errors)
        image = np.arange(m) < ones[:, None]
        cols = np.where(image[:, None, :], Us, Vh.conj().transpose(0, 2, 1))
        piv = np.take_along_axis(cols, np.argmax(np.abs(cols), axis=1)[:, None, :], axis=1)
        phase = np.ones_like(piv)
        np.divide(np.abs(piv), piv, out=phase, where=np.abs(piv) > 0)
        cols *= phase
        # Column k's sort key: k >= ones, then its negated entries as re/im
        # pairs rounded to 9 places.
        signature = _round9(np.stack([-cols.real, -cols.imag], axis=-1).transpose(0, 2, 1, 3))
        keys = np.concatenate(
            [(np.arange(m) >= ones[:, None])[:, :, None], signature.reshape(S, m, 2 * m)], axis=2
        )
        U = np.take_along_axis(cols, _lex_order(keys)[:, None, :], axis=2)
        U[failed] = eye
        Uinv = _stacked(np.linalg.inv, U, errors)
        bases.append(U)
        inverses.append(Uinv)
    return _Adaptation(rows, tuple(bases), tuple(inverses), tuple(errors))


def _adapted_class_sums(B: BlockStructure, adapted: _Adaptation) -> np.ndarray:
    """(S, r, r) class sums of each row's adapted matrix units, in (block, row, column) order.

    The adapted unit F'^j_st is ``sum_ab U[a, s] Uinv[t, b] F^j_ab`` for the
    eigenbasis U of block j, and the inverse Fourier image is linear, so the
    base class sums are conjugated the same way; no adapted unit is formed,
    and the m = 1 blocks keep theirs.  The output takes S r^2 complex
    numbers; a caller with many rows passes a row block of them
    (:meth:`_Adaptation.take`), and no temporary is larger than the output.
    """
    S, r, q = len(adapted.errors), B.rank, B._ones
    out = np.empty((S, r, r), dtype=complex)
    out[:, :q] = B._class_sum_rows[:q]
    pos = q
    for blk, U, Uinv in zip(B.blocks[q:], adapted.bases, adapted.inverses):
        m = blk.m
        sums = out[:, pos : pos + m * m].reshape(S, m, m, r)
        pos += m * m
        Y = np.matmul(U.transpose(0, 2, 1), blk.class_sums.reshape(m, m * r))
        np.matmul(Uinv[:, None], Y.reshape(S, m, m, r), out=sums)
    out.setflags(write=False)
    return out


def verify_class_sum_pairings(B: BlockStructure) -> float:
    """Max residual of the unit/class-sum pairing identities.

    <F^j_st, C^i_uv> = delta_ij delta_vs delta_ut dim_j and
    <eps_1, C^j_st> = delta_st dim_j, over all index tuples: the first is one
    product of all units against all class sums.
    """
    lay = B._layout
    sums = B._class_sum_rows
    vals = (B._unit_rows * B.ring.dims) @ sums.T
    vals[np.arange(len(vals)), lay.transpose] -= lay.summand_dim
    # <eps_1, C> picks the E_0 coefficient, d_0 = 1
    unit = sums[:, 0] - np.where(lay.s == lay.t, lay.summand_dim, 0.0)
    return max(float(np.max(np.abs(vals))), float(np.max(np.abs(unit))))


def verify_dual_bases(B: BlockStructure) -> float:
    """Max entry deviation of sum_j n_j F^j_st (x) F^j_ts = sum_i chi_i (x) chi_{i*}."""
    lay = B._layout
    units = B._unit_rows
    lhs = (units * lay.n[:, None]).T @ units[lay.transpose]
    return float(np.max(np.abs(lhs - np.eye(B.rank)[list(B.ring.dual)])))


def verify_integral_classsum(B: BlockStructure) -> float:
    """Residual of dim(C) * Lambda = sum of the diagonal class sums."""
    lay = B._layout
    total = B._class_sum_rows[lay.s == lay.t].sum(axis=0)
    total[0] -= B.ring.global_dim
    u = unit_central_element(B.ring).coeffs
    return max(float(np.max(np.abs(total))), float(np.max(np.abs(B.blocks[0].class_sums[0, 0] - u))))
