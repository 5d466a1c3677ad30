"""Wedderburn block decomposition of the class-function algebra.

CF(C) is semisimple, so it splits as a direct sum of full matrix algebras.
This module finds that splitting numerically: the center is computed from the
regular representation, its joint eigenspaces are the blocks, and matrix units
inside each block are built by splitting the block idempotent with a seeded
random element.  Each matrix unit has an inverse Fourier image, its conjugacy
class sum.

Block data recorded per block j: the multiplicity m_j (so the block is an
m_j x m_j matrix algebra), the scale n_j with tau(F^j_ss) = 1/n_j, and the
dimension dim(C)/n_j of the underlying simple summand of the adjoint algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .char_theory import (
    CentralElement,
    ClassFunction,
    _fourier_inverse_raw,
    cf_star,
    cf_star_blocks,
    cf_star_table,
    cointegral,
    unit_central_element,
)
from .fusion_ring import FusionRingData
from .linalg import DEFAULT_TOL, Tolerance, joint_eigenspaces, snap_integer

__all__ = [
    "SplitFailure",
    "NotSemisimple",
    "NotIdempotent",
    "Block",
    "BlockStructure",
    "compute_blocks",
    "adapt_to_idempotent",
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
        units = np.ascontiguousarray(np.asarray(self.units, dtype=complex))
        sums = np.ascontiguousarray(np.asarray(self.class_sums, dtype=complex))
        units.setflags(write=False)
        sums.setflags(write=False)
        object.__setattr__(self, "units", units)
        object.__setattr__(self, "class_sums", sums)

    @property
    def central_idempotent(self) -> np.ndarray:
        return self.units[range(self.m), range(self.m)].sum(axis=0)


@dataclass(frozen=True, eq=False)
class BlockStructure:
    """The full Wedderburn data of CF(C) for one fusion ring."""

    ring: FusionRingData
    blocks: tuple[Block, ...]
    seed: int

    @property
    def rank(self) -> int:
        return self.ring.rank

    def unit_index(self) -> list[tuple[int, int, int]]:
        """(block, row, col) triples in the fixed enumeration order."""
        return [
            (j, s, t)
            for j, blk in enumerate(self.blocks)
            for s in range(blk.m)
            for t in range(blk.m)
        ]

    @cached_property
    def _unit_matrix(self) -> np.ndarray:
        cols = [self.blocks[j].units[s, t] for j, s, t in self.unit_index()]
        return np.column_stack(cols)

    @cached_property
    def _unit_matrix_inv(self) -> np.ndarray:
        return np.linalg.inv(self._unit_matrix)

    def unit(self, j: int, s: int, t: int) -> ClassFunction:
        return ClassFunction(self.ring, self.blocks[j].units[s, t])

    def class_sum(self, j: int, s: int, t: int) -> CentralElement:
        return CentralElement(self.ring, self.blocks[j].class_sums[s, t])

    def expand(self, coeffs: np.ndarray) -> list[np.ndarray]:
        """Coefficients of a chi-basis vector in the matrix-unit basis, per block."""
        alpha = self._unit_matrix_inv @ np.asarray(coeffs, dtype=complex)
        out = []
        pos = 0
        for blk in self.blocks:
            out.append(alpha[pos : pos + blk.m * blk.m].reshape(blk.m, blk.m))
            pos += blk.m * blk.m
        return out


def _center_basis(ring: FusionRingData, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """Center of CF(C) as chi-basis columns, plus the left-multiplication tensor."""
    N = ring.N_float
    left = N.transpose(0, 2, 1)  # left[a][k, j] = N[a, j, k]
    right = N.transpose(1, 2, 0)  # right[a][k, j] = N[j, a, k]
    diff = (left - right).reshape(ring.rank, -1).T
    _, s, Vh = np.linalg.svd(diff, full_matrices=False)
    smax = s[0] if s.size else 0.0
    thr = max(tol.abs_tol, smax * ring.rank**2 * np.finfo(float).eps, smax * 1e-10)
    null_dim = ring.rank - int(np.sum(s > thr))
    return Vh[ring.rank - null_dim :].conj().T, left


def _left_mult_matrix(ring: FusionRingData, x: np.ndarray) -> np.ndarray:
    """Matrix of left star multiplication by the chi-basis vector x."""
    return np.einsum("i,ijk->kj", x, ring.N_float)


def _lagrange_idempotents(
    ring: FusionRingData,
    x: np.ndarray,
    unit: np.ndarray,
    lambdas: list[complex],
) -> list[np.ndarray]:
    """Spectral idempotents of x inside its block, by Lagrange interpolation."""
    out = []
    for s, ls in enumerate(lambdas):
        p = unit
        for t, lt in enumerate(lambdas):
            if t == s:
                continue
            p = cf_star(ring, p, (x - lt * unit)) / (ls - lt)
        out.append(p)
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
    """Matrix units of one block, as an (m, m, rank) coefficient array."""
    if m == 1:
        return block_unit[None, None, :]
    dim = space.shape[1]
    check_tol = max(100 * tol.abs_tol, 1e-10)
    for _ in range(_MAX_SPLIT_TRIES):
        x = space @ (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        X = space.conj().T @ _left_mult_matrix(ring, x) @ space
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
        idems = _lagrange_idempotents(ring, x, block_unit, lambdas)
        ok = all(
            np.max(np.abs(cf_star(ring, e, e) - e)) <= check_tol for e in idems
        ) and np.max(np.abs(sum(idems) - block_unit)) <= check_tol
        if not ok:
            continue
        y = space @ (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        units = np.zeros((m, m, ring.rank), dtype=complex)
        units[0, 0] = idems[0]
        degenerate = False
        for s in range(1, m):
            a = cf_star(ring, cf_star(ring, idems[0], y), idems[s])
            b = cf_star(ring, cf_star(ring, idems[s], y), idems[0])
            z = cf_star(ring, a, b)
            e0 = idems[0]
            c = complex(np.vdot(e0, z) / np.vdot(e0, e0))
            if abs(c) < 1e-8 or np.max(np.abs(z - c * e0)) > check_tol * max(1.0, abs(c)):
                degenerate = True
                break
            scale = abs(c) ** 0.5
            units[0, s] = a / scale
            units[s, 0] = b / (c / scale)
        if degenerate:
            continue
        units[1:, 1:] = cf_star_table(ring, units[1:, 0], units[0, 1:])
        if _unit_relation_residual(ring, [units]) <= check_tol:
            return units
    raise SplitFailure(f"could not build matrix units for an m={m} block")


def _block_sort_signature(idem: np.ndarray) -> tuple:
    return tuple((round(float(c.real), 9), round(float(c.imag), 9)) for c in idem)


def compute_blocks(
    ring: FusionRingData, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> BlockStructure:
    """Full Wedderburn decomposition of CF(C), deterministic given seed.

    The block containing the cointegral comes first; the remaining blocks are
    ordered by (m ascending, n ascending, idempotent coefficient signature).
    """
    center, left = _center_basis(ring, tol)
    center_dim = center.shape[1]
    lz = [np.tensordot(center[:, b], left, axes=(0, 0)) for b in range(center_dim)]
    spaces = joint_eigenspaces(lz, seed=seed, tol=tol)
    if len(spaces) != center_dim:
        raise NotSemisimple(
            f"center has dimension {center_dim} but {len(spaces)} blocks were found"
        )

    basis = np.column_stack(spaces)
    eps1 = np.zeros(ring.rank, dtype=complex)
    eps1[0] = 1.0
    unit_coords = np.linalg.solve(basis, eps1)
    lam = cointegral(ring).coeffs
    lam_coords = np.linalg.solve(basis, lam)

    ms = []
    for V in spaces:
        try:
            ms.append(snap_integer(np.sqrt(V.shape[1]), tol))
        except Exception as exc:
            raise NotSemisimple(f"block dimension {V.shape[1]} is not a perfect square") from exc

    rng = np.random.default_rng(seed)
    raw = []
    pos = 0
    lam_block = -1
    for j, (V, m) in enumerate(zip(spaces, ms)):
        width = V.shape[1]
        block_unit = V @ unit_coords[pos : pos + width]
        lam_part = V @ lam_coords[pos : pos + width]
        if np.max(np.abs(lam_part)) > 1e-6:
            if lam_block >= 0:
                raise NotSemisimple("cointegral spreads over more than one block")
            lam_block = j
            if m != 1 or np.max(np.abs(lam_part - lam)) > 1e-6:
                raise NotSemisimple("cointegral block is not one dimensional")
        pos += width
        units = _build_block_units(ring, V, block_unit, m, rng, tol)
        tau_f = complex(block_unit[0])
        if abs(tau_f.imag) > 1e-6 or tau_f.real <= 0:
            raise NotSemisimple(f"block trace {tau_f!r} is not real positive")
        n = m / tau_f.real
        raw.append(Block(m, n, ring.global_dim / n, units, _fourier_inverse_raw(ring, units)))
    if lam_block < 0:
        raise NotSemisimple("no block contains the cointegral")

    rest = [blk for j, blk in enumerate(raw) if j != lam_block]
    rest.sort(key=lambda blk: (blk.m, round(blk.n, 9), _block_sort_signature(blk.central_idempotent)))
    return BlockStructure(ring, (raw[lam_block], *rest), seed)


def adapt_to_idempotent(
    B: BlockStructure, p: ClassFunction, tol: Tolerance = DEFAULT_TOL
) -> BlockStructure:
    """Re-diagonalize each block so the idempotent p becomes diag(1..1, 0..0).

    Conjugates the matrix units of every block by an eigenbasis of p's block
    component: eigenvalue-1 rows first, ordered by eigenvector signature.
    Raises :class:`NotIdempotent` if a block eigenvalue is outside the {0, 1}
    tolerance band.
    """
    if p.ring is not B.ring:
        raise ValueError("idempotent and block structure belong to different rings")
    ring = B.ring
    comps = B.expand(p.coeffs)
    new_blocks = []
    for blk, P in zip(B.blocks, comps):
        m = blk.m
        if m == 1:
            val = complex(P[0, 0])
            if min(abs(val), abs(val - 1)) > tol.snap_tol:
                raise NotIdempotent(f"block eigenvalue {val!r} is not in {{0, 1}}")
            new_blocks.append(blk)
            continue
        w = np.linalg.eigvals(P)
        ones = int(np.sum(np.abs(w - 1) <= tol.snap_tol))
        zeros = int(np.sum(np.abs(w) <= tol.snap_tol))
        if ones + zeros != m:
            bad = w[int(np.argmax(np.minimum(np.abs(w - 1), np.abs(w))))]
            raise NotIdempotent(f"block eigenvalue {bad!r} is not in {{0, 1}}")
        # Eigenbasis without eigenvector ambiguity: the eigenvalue-1 space is
        # the column space of P, the eigenvalue-0 space its kernel.
        Us, _, Vh = np.linalg.svd(P)
        image = [Us[:, k] for k in range(ones)]
        kernel = [Vh[k].conj() for k in range(ones, m)]
        cols = []
        for one, group in ((0, image), (1, kernel)):
            for v in group:
                piv = v[int(np.argmax(np.abs(v)))]
                if abs(piv) > 0:
                    v = v * (abs(piv) / piv)
                sig = tuple((round(float(-c.real), 9), round(float(-c.imag), 9)) for c in v)
                cols.append((one, sig, v))
        cols.sort(key=lambda item: item[:2])
        U = np.column_stack([item[2] for item in cols])
        Uinv = np.linalg.inv(U)
        units = np.einsum("as,tb,abk->stk", U, Uinv, blk.units)
        new_blocks.append(
            Block(blk.m, blk.n, blk.summand_dim, units, _fourier_inverse_raw(ring, units))
        )
    return BlockStructure(ring, tuple(new_blocks), B.seed)


def verify_class_sum_pairings(B: BlockStructure) -> float:
    """Max residual of the unit/class-sum pairing identities.

    <F^j_st, C^i_uv> = delta_ij delta_vs delta_ut dim_j and
    <eps_1, C^j_st> = delta_st dim_j, over all index tuples.
    """
    ring = B.ring
    d = ring.dims
    worst = 0.0
    for j, bj in enumerate(B.blocks):
        for i, bi in enumerate(B.blocks):
            # pairing of all units of block j against all class sums of block i
            vals = np.einsum("stk,uvk,k->stuv", bj.units, bi.class_sums, d.astype(complex))
            expected = np.zeros_like(vals)
            if i == j:
                for s in range(bj.m):
                    for t in range(bj.m):
                        expected[s, t, t, s] = bj.summand_dim
            worst = max(worst, float(np.max(np.abs(vals - expected))))
    for bj in B.blocks:
        vals = bj.class_sums[:, :, 0]  # <eps_1, C> picks the E_0 coefficient, d_0 = 1
        expected = np.eye(bj.m) * bj.summand_dim
        worst = max(worst, float(np.max(np.abs(vals - expected))))
    return worst


def verify_dual_bases(B: BlockStructure) -> float:
    """Max entry deviation of sum_j n_j F^j_st (x) F^j_ts = sum_i chi_i (x) chi_{i*}."""
    ring = B.ring
    lhs = np.zeros((ring.rank, ring.rank), dtype=complex)
    for blk in B.blocks:
        lhs += blk.n * np.einsum("sta,tsb->ab", blk.units, blk.units)
    rhs = np.zeros((ring.rank, ring.rank), dtype=complex)
    for i in range(ring.rank):
        rhs[i, ring.dual[i]] += 1.0
    return float(np.max(np.abs(lhs - rhs)))


def verify_integral_classsum(B: BlockStructure) -> float:
    """Residual of dim(C) * Lambda = sum of the diagonal class sums."""
    ring = B.ring
    total = np.zeros(ring.rank, dtype=complex)
    for blk in B.blocks:
        for s in range(blk.m):
            total += blk.class_sums[s, s]
    expected = np.zeros(ring.rank, dtype=complex)
    expected[0] = ring.global_dim
    residual = float(np.max(np.abs(total - expected)))
    u = unit_central_element(ring).coeffs
    residual = max(residual, float(np.max(np.abs(B.blocks[0].class_sums[0, 0] - u))))
    return residual
