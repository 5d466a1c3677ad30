import dataclasses
import itertools
import json
import os
import sys
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fuscat import char_theory, fusion_ring, groups, linalg, subalg, verify, wedderburn  # noqa: E402


def s3_mult_table():
    """S3 as permutation tuples with composition, built from scratch.

    Independent of the groups module: used as the oracle for class-algebra
    and fusion-matrix tests.
    """
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms]
    return perms, table


class ReferenceGroup(NamedTuple):
    elements: tuple
    table: np.ndarray
    identity: int
    inverse: tuple
    classes: tuple

    def mul(self, i, j):
        return int(self.table[i, j])


def _reference_group(items, mul):
    """Labels, table, identity, inverses and conjugacy classes of the group
    of abstract elements ``items`` (element, label) under the callable
    ``mul``, built one pair at a time.  Classes are ordered with the
    identity's first, then by (size, least element)."""
    index = {e: i for i, (e, _label) in enumerate(items)}
    n = len(items)
    table = np.array([[index[mul(a, b)] for b, _ in items] for a, _ in items], dtype=int)
    identity = next(
        e for e in range(n) if all(table[e, j] == j and table[j, e] == j for j in range(n))
    )
    inverse = tuple(
        next(j for j in range(n) if table[i, j] == identity and table[j, i] == identity)
        for i in range(n)
    )
    seen = set()
    classes = []
    for i in range(n):
        if i in seen:
            continue
        orbit = sorted({int(table[table[g, i], inverse[g]]) for g in range(n)})
        seen.update(orbit)
        classes.append(tuple(orbit))
    classes.sort(key=lambda cls: (identity not in cls, len(cls), cls[0]))
    labels = tuple(label for _e, label in items)
    return ReferenceGroup(labels, table, identity, inverse, tuple(classes))


def _quaternion_mul(x, y):
    def unit_mul(a, b):
        order = "ijk"
        if a == "1":
            return 1, b
        if b == "1":
            return 1, a
        if a == b:
            return -1, "1"
        ia, ib = order.index(a), order.index(b)
        return (1 if (ib - ia) % 3 == 1 else -1), order[3 - ia - ib]

    sx, ux = (1, x) if not x.startswith("-") else (-1, x[1:])
    sy, uy = (1, y) if not y.startswith("-") else (-1, y[1:])
    sign, u = unit_mul(ux, uy)
    return u if sign * sx * sy == 1 else f"-{u}"


def reference_group(source):
    """The builtin group ``source`` from its elements and a multiplication
    callable, independent of the array constructors of ``groups``."""
    if source.startswith("product:"):
        factors = [reference_group(part) for part in source[len("product:"):].split("*")]
        items = [
            (t, "(" + "|".join(G.elements[i] for G, i in zip(factors, t)) + ")")
            for t in itertools.product(*(range(len(G.elements)) for G in factors))
        ]
        return _reference_group(
            items, lambda a, b: tuple(G.mul(i, j) for G, i, j in zip(factors, a, b))
        )
    kind, _, arg = source.partition(":")
    n = int(arg)
    if kind == "cyclic":
        items = [(k, "e" if k == 0 else f"g{k}") for k in range(n)]
        return _reference_group(items, lambda a, b: (a + b) % n)
    if kind == "dihedral":
        half = n // 2
        items = [
            ((f, k), ("e" if k == 0 else f"r{k}") if f == 0 else ("s" if k == 0 else f"sr{k}"))
            for f in range(2)
            for k in range(half)
        ]
        return _reference_group(
            items,
            lambda a, b: ((a[0] + b[0]) % 2, (b[1] + (a[1] if b[0] == 0 else -a[1])) % half),
        )
    if kind in ("symmetric", "alternating"):
        perms = sorted(itertools.permutations(range(n)))
        if kind == "alternating":
            perms = [p for p in perms if groups._perm_sign(p) == 1]
        items = [(p, groups._perm_label(p)) for p in perms]
        return _reference_group(items, lambda a, b: tuple(a[b[i]] for i in range(n)))
    if kind == "quaternion":
        names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
        return _reference_group([(x, x) for x in names], _quaternion_mul)
    raise ValueError(f"no reference for {source!r}")


def perturb_unit(B, s, t, k, eps):
    """B with eps added to coordinate k of the unit (s, t) of its first m = 2 block."""
    j = next(j for j, blk in enumerate(B.blocks) if blk.m == 2)
    blk = B.blocks[j]
    units = blk.units.copy()
    units[s, t, k] += eps
    bad = wedderburn.Block(blk.m, blk.n, blk.summand_dim, units, blk.class_sums)
    return wedderburn.BlockStructure(B.ring, B.blocks[:j] + (bad,) + B.blocks[j + 1 :], B.seed)


def su2_fusion_ring(k):
    """SU(2)_k Verlinde rules: spins 0..k, N[a][b][c] = 1 exactly when
    |a-b| <= c <= min(a+b, 2k-a-b) and a+b+c is even.  Non-integer dimensions."""
    r = k + 1
    N = np.zeros((r, r, r), dtype=int)
    for a in range(r):
        for b in range(r):
            N[a, b, abs(a - b) : min(a + b, 2 * k - a - b) + 1 : 2] = 1
    return fusion_ring.build_ring([f"j{a}" for a in range(r)], N, list(range(r)))


def haagerup_izumi_ring(n):
    """Haagerup-Izumi rules for Z_n: simples g and g·rho, with rho·g = (-g)·rho
    and (g rho)(h rho) = (g - h) + sum_k k·rho.  Non-commutative for n > 2,
    and d_rho = (n + sqrt(n^2 + 4)) / 2 is not an integer."""
    r = 2 * n
    N = np.zeros((r, r, r), dtype=int)
    for a in range(n):
        for b in range(n):
            N[a, b, (a + b) % n] = 1
            N[a, n + b, n + (a + b) % n] = 1
            N[n + a, b, n + (a - b) % n] = 1
            N[n + a, n + b, (a - b) % n] = 1
            N[n + a, n + b, n:] = 1
    labels = [f"g{a}" for a in range(n)] + [f"g{a}rho" for a in range(n)]
    dual = [(-a) % n for a in range(n)] + list(range(n, r))
    return fusion_ring.build_ring(labels, N, dual)


def deligne_product(R1, R2):
    """The ring with N = N1 (x) N2 on simples (i, a), index i * r2 + a."""
    N = np.einsum("ijk,abc->iajbkc", R1.N, R2.N).reshape((R1.rank * R2.rank,) * 3)
    labels = [f"{x}.{y}" for x in R1.labels for y in R2.labels]
    dual = [i * R2.rank + a for i in R1.dual for a in R2.dual]
    return fusion_ring.build_ring(labels, N, dual)


@pytest.fixture(scope="session")
def su2_ring():
    """SU(2)_40: rank 41, large enough for several row blocks of star products."""
    return su2_fusion_ring(40)


@pytest.fixture(scope="session")
def s3_ring():
    """Hand-built representation ring of S3: simples (1, sgn, rho)."""
    N = np.zeros((3, 3, 3), dtype=int)
    N[0] = np.eye(3, dtype=int)
    N[:, 0] = np.eye(3, dtype=int)
    N[1, 1] = [1, 0, 0]  # sgn (x) sgn = 1
    N[1, 2] = [0, 0, 1]  # sgn (x) rho = rho
    N[2, 1] = [0, 0, 1]
    N[2, 2] = [1, 1, 1]  # rho (x) rho = 1 + sgn + rho
    return fusion_ring.build_ring(["1", "sgn", "rho"], N, [0, 1, 2])


@pytest.fixture(scope="session")
def rep_c2_ring():
    return groups.rep_fusion_ring(groups.parse_group("cyclic:2"))


@pytest.fixture(scope="session")
def s3_group():
    return groups.parse_group("symmetric:3")


@pytest.fixture(scope="session")
def vec_s3_ring(s3_group):
    return groups.vec_fusion_ring(s3_group)


@pytest.fixture(scope="session")
def trivial_ring():
    return fusion_ring.build_ring(["1"], np.ones((1, 1, 1), dtype=int), [0])


@pytest.fixture(scope="session")
def vec_a5_ring():
    """Group ring of A5: rank 60, blocks of multiplicity 1, 3, 3, 4, 5."""
    return groups.vec_fusion_ring(groups.parse_group("alternating:5"))


@pytest.fixture(scope="session")
def s3_blocks(s3_ring):
    return wedderburn.compute_blocks(s3_ring)


@pytest.fixture(scope="session")
def vec_s3_blocks(vec_s3_ring):
    return wedderburn.compute_blocks(vec_s3_ring)


def reference_group_equal_rows(rows, tol):
    """Partition of the row indices by near-equal rows: the clustering that
    found the block partition before it was read off the right cosets.

    Each row joins the first class whose first row is within ``tol`` of it in
    the max norm, or starts a new class.  The class of row 0 comes first, the
    rest in order of their smallest member.

    Two rows within ``tol`` differ by at most ``bound`` in a fixed weighted
    sum of their real and imaginary parts, so sorting by that key and cutting
    where it jumps by more than ``bound`` never separates them, and the rule
    runs on each run of keys alone.  A run whose rows all lie within ``tol``
    of its smallest member is one class.  Any other run is split one class
    at a time: its first row not yet placed takes every unplaced row near it,
    which are exactly the rows that no earlier first row took.
    """
    parts = [rows.real, rows.imag] if np.iscomplexobj(rows) else [rows]
    flat = np.concatenate(parts, axis=1)
    weights = np.random.default_rng(0).uniform(1, 2, flat.shape[1])
    key = flat @ weights
    rounding = 2 * flat.shape[1] * np.finfo(float).eps * float(np.max(np.abs(flat), initial=0.0))
    bound = 2 * weights.sum() * (tol + rounding)
    order = np.argsort(key, kind="stable")
    run_of = np.empty(len(rows), dtype=np.intp)
    run_of[order] = np.concatenate(([0], np.cumsum(np.diff(key[order]) > bound)))
    members = np.lexsort((np.arange(len(rows)), run_of))
    starts = np.flatnonzero(np.diff(run_of[members], prepend=-1))
    heads = members[starts]
    near_head = np.max(np.abs(rows - rows[heads[run_of]]), axis=1, initial=0.0) <= tol
    whole = np.logical_and.reduceat(near_head[members], starts).tolist() if len(rows) else []
    ends = [*starts.tolist()[1:], len(rows)]
    members = members.tolist()
    classes = []
    for lo, hi, one_class in zip(starts.tolist(), ends, whole):
        if one_class:
            classes.append(members[lo:hi])
            continue
        rest = np.array(members[lo:hi])
        while rest.size:
            near = np.max(np.abs(rows[rest] - rows[rest[0]]), axis=1) <= tol
            classes.append(rest[near].tolist())
            rest = rest[~near]
    classes.sort(key=lambda cls: (0 not in cls, cls[0]))
    return classes


def ce_span(L, tol=linalg.DEFAULT_TOL):
    """Orthonormal basis of L's central subspace, in idempotent coordinates:
    the float basis that the table kept before its central subspaces were
    checked against the exact coset indicators, kept as the reference.

    The columns keep the SVD's own phases: every reader tests containment
    or counts columns, and neither sees a phase per column.
    """
    return linalg._orthonormal_columns(L.ce_sums.T, tol)


def reference_random_round_trips(ring, rng):
    """Worst residual of "right action adjointness, random round trips" over
    20 random triples drawn one at a time: the per-draw loop through the
    public class-function API, kept as the reference for the stacked draw."""
    r = ring.rank
    worst = 0.0
    for _ in range(20):
        f = char_theory.ClassFunction(ring, rng.standard_normal(r) + 1j * rng.standard_normal(r))
        a = np.asarray(rng.standard_normal(r) + 1j * rng.standard_normal(r))
        b = np.asarray(rng.standard_normal(r) + 1j * rng.standard_normal(r))
        ca, cb = char_theory.CentralElement(ring, a), char_theory.CentralElement(ring, b)
        lhs = char_theory.pairing(char_theory.cf_right_action(f, cb), ca)
        rhs = char_theory.pairing(f, char_theory.ce_multiply(cb, ca))
        scale = max(1.0, abs(lhs), abs(rhs))
        worst = max(worst, abs(lhs - rhs) / scale)
        back = char_theory.fourier_forward(char_theory.fourier_inverse(f))
        worst = max(worst, float(np.max(np.abs(back.coeffs - f.coeffs))))
    return worst


def reference_edges(sets):
    """Covering pairs (a, b) of a list of Python sets, sorted: a < b with no set strictly between."""
    edges = []
    for a in range(len(sets)):
        for b in range(len(sets)):
            if a == b or not sets[a] < sets[b]:
                continue
            if any(sets[a] < sets[c] < sets[b] for c in range(len(sets))):
                continue
            edges.append((a, b))
    return tuple(sorted(edges))


def inclusions(M):
    """(S, S) bool: entry (a, b) when row a of the (S, r) bool M lies in row b."""
    return np.all(M[:, None, :] <= M[None, :, :], axis=2)


def reference_meets_and_joins(table, a, b):
    """Entry positions of the meet and the join of each pair (a[k], b[k]),
    searched in the inclusion order of the membership rows: the lookup that
    the table made before it looked meets and joins up by their exact rows,
    kept as the reference.

    The meet is the lower bound with the most simples, as it holds every
    other one, and the join the upper bound with the fewest; -1 marks a pair
    with no common bound in the table.
    """
    size = table.membership.sum(axis=1)
    inside = inclusions(table.membership)
    orders = (np.argsort(-size, kind="stable"), np.argsort(size, kind="stable"))
    bounds = (inside.T[:, orders[0]], inside[:, orders[1]])
    out = []
    for order, inside in zip(orders, bounds):
        common = inside[a] & inside[b]
        out.append(np.where(common.any(axis=1), order[np.argmax(common, axis=1)], -1))
    return out[0], out[1]


def per_block_adaptation(B, adapted):
    """(comps, bases, inverses) of a ``wedderburn._Adaptation``, one (S, m, m)
    array per block of B; the m = 1 blocks, which it keeps as one slab of
    components, get the basis 1."""
    ones, later = B._split_rows(adapted.rows)
    unit = [np.ones((len(ones), 1, 1), dtype=complex)] * B._ones
    comps = list(ones.T.reshape(-1, len(ones), 1, 1)) + later
    return comps, unit + list(adapted.bases), unit + list(adapted.inverses)


def subalgebras_of(subcats, B, tol=linalg.DEFAULT_TOL):
    """The subalgebra of each subcategory, or the exception building it
    raises, from one row block of ``subalg._subalgebra_blocks``."""
    blocks = subalg._subalgebra_blocks(subcats, B, tol, max(1, len(subcats)))
    return [L for block in blocks for L in block.subalgebras]


def live_table(ring, B, tol=linalg.DEFAULT_TOL):
    """The table of ``subalg._stream_lattice`` in one-entry row blocks, with
    each entry's live (projector, adapted class sums) keyed by its
    subcategory indices."""
    live = {}

    def keep(block):
        for e, P, sums in zip(block.entries, block.projectors, block.class_sums):
            live[e.subcategory.indices] = (P, sums)

    return subalg._stream_lattice(ring, B, tol, 1, keep), live


def live_block(ring, B, tol=linalg.DEFAULT_TOL):
    """The table of ``subalg._stream_lattice`` in one row block, and that
    block as its visitor saw it, with its arrays alive."""
    blocks = []
    table = subalg._stream_lattice(ring, B, tol, sys.maxsize, blocks.append)
    (block,) = blocks
    return table, block


def patch_subalgebras(monkeypatch, change):
    """``subalg._subalgebra_blocks`` yields ``change(s, L)`` in place of the
    subalgebra L of entry s; entries that failed pass unchanged."""
    real = subalg._subalgebra_blocks

    def changed(subcats, B, tol, step):
        lo = 0
        for block in real(subcats, B, tol, step):
            out = [L if isinstance(L, Exception) else change(lo + k, L) for k, L in enumerate(block.subalgebras)]
            yield block._replace(subalgebras=out)
            lo += len(out)

    monkeypatch.setattr(subalg, "_subalgebra_blocks", changed)


def patch_table(monkeypatch, change):
    """``subalg._stream_lattice``, and so ``build_lattice`` and ``verify_ring``,
    return ``change(table)`` of the real table."""
    real = subalg._stream_lattice
    monkeypatch.setattr(subalg, "_stream_lattice", lambda *args: change(real(*args)))


def without_entries(t, keep):
    """The table t with only the entries where the (S,) bool ``keep`` holds;
    its extension table points at the kept entries, and at -1 for a dropped one."""
    keep = np.asarray(keep, dtype=bool)
    position = np.where(keep, np.cumsum(keep) - 1, -1)
    J = t.extensions[keep]
    return dataclasses.replace(
        t,
        entries=tuple(e for e, k in zip(t.entries, keep) if k),
        membership=t.membership[keep],
        extensions=np.where(J < 0, -1, position[J]).astype(np.int32),
        cosets=t.cosets[keep],
    )


def patch_leaky_products(monkeypatch, ring, indices):
    """``verify._fusion_hit`` finds every simple among the products of the
    subcategory of these indices with itself; every other product is real."""
    row = np.zeros(ring.rank, dtype=np.float32)
    row[list(indices)] = 1
    real = fusion_ring._fusion_hit

    def leaky(ring, a, b):
        hit = real(ring, a, b)
        hit[np.all(a == row, axis=1) & np.all(b == row, axis=1)] = True
        return hit

    monkeypatch.setattr(verify, "_fusion_hit", leaky)


def bump_0_1(P):
    """P with 1e-6 added to its entry (0, 1)."""
    P = P.copy()
    P[0, 1] += 1e-6
    return P


def patch_live_projector(monkeypatch, target, change):
    """The live projector that ``subalg._stream_lattice`` hands to its
    visitor for the subcategory ``target`` becomes ``change`` of it; the
    table's own checks see the real one."""
    real = subalg._stream_lattice

    def visited(ring, B, tol, step, visit):
        def perturbed(block):
            projectors = np.array(block.projectors)
            for k, e in enumerate(block.entries):
                if e.subcategory.indices == target:
                    projectors[k] = change(projectors[k])
            visit(block._replace(projectors=projectors))

        return real(ring, B, tol, step, perturbed)

    monkeypatch.setattr(subalg, "_stream_lattice", visited)


def reference_block_partition(L, tol=linalg.DEFAULT_TOL):
    """Partition of the simples by clustering both float sides, unit class first.

    The character side clusters the columns of P_L / d, the central side the
    rows of the central subspace; the two must agree, and every class
    indicator must lie in the central subspace.
    """
    classes = reference_group_equal_rows(subalg._normalized_restrictions(L).T, subalg.PARTITION_TOL)
    span = ce_span(L, tol)
    scale = max(1.0, float(np.max(np.abs(span)))) if span.size else 1.0
    ce_classes = reference_group_equal_rows(span, subalg.PARTITION_TOL * scale)
    if classes != ce_classes:
        raise subalg.PartitionMismatch(
            f"character partition {classes} differs from central partition {ce_classes}"
        )
    indicators = np.zeros((L.ring.rank, len(classes)))
    for c, cls in enumerate(classes):
        indicators[cls, c] = 1.0
    if not linalg._span_contains(span, indicators, tol):
        bad = next(
            cls
            for c, cls in enumerate(classes)
            if not linalg._span_contains(span, indicators[:, c : c + 1], tol)
        )
        raise subalg.PartitionMismatch(
            f"indicator idempotent of class {bad} is outside the central subspace"
        )
    return tuple(tuple(c) for c in classes)


def reference_checked_partition(D, L, P, head, tol=linalg.DEFAULT_TOL):
    """The right cosets of D, class ids ``head``, once L's float data
    (projector P) agree with them: the check of one entry at a time that
    ``subalg._checked_partitions`` runs over a row block, kept as its
    reference.  Raises what the block check raises for a first failing
    entry, in the same order: the round trip, the closed forms, ``ce_dim``
    against the count of cosets, the span of the kept class sums and their
    width."""
    d = L.ring.dims
    Q = P / d
    if not np.array_equal(np.max(np.abs(Q - Q[:, :1]), axis=0) <= subalg.PARTITION_TOL, head == 0):
        back = subalg.subcategory_from_subalgebra(L, tol)
        raise subalg.RoundTripFailure(f"{D.indices} round-tripped to {back.indices}")
    mass = np.bincount(head, weights=d * d, minlength=len(d))
    closed = np.where(head[:, None] == head, d[:, None] / mass[head], 0.0)
    gap = np.max(np.abs(Q - closed), axis=0)
    if gap.max() > subalg.PARTITION_TOL:
        x = int(np.argmax(gap))
        raise subalg.PartitionMismatch(f"restriction of simple {x} is {gap[x]:.3g} from its closed form")
    order = np.argsort(head, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(head[order])) + 1).tolist(), len(d)]
    heads = order[cuts[:-1]]
    partition = tuple(tuple(order[lo:hi].tolist()) for lo, hi in zip(cuts, cuts[1:]))
    if L.ce_dim != len(heads):
        raise subalg.PartitionMismatch(f"ce_dim is {L.ce_dim}, {D.indices} has {len(heads)} right cosets")
    indicators = (head[:, None] == heads) / np.sqrt(np.diff(cuts))
    sums = L.ce_sums.T
    if not linalg._span_contains(indicators, sums, tol):
        raise subalg.PartitionMismatch(f"a class sum of {D.indices} is not constant on its right cosets")
    width = linalg._numerical_rank(indicators.T @ sums, tol)
    if width != len(heads):
        raise subalg.PartitionMismatch(
            f"central subspace has dimension {width}, {D.indices} has {len(heads)} right cosets"
        )
    return partition


def unit_cosine_floor(tol):
    """Principal-angle cosines at or above this count as 1: a shared direction."""
    return 1.0 - max(100 * tol.abs_tol, 1e-8)


def intersection_dims(spans, a, b, tol=linalg.DEFAULT_TOL):
    """dim(span(spans[a[k]]) n span(spans[b[k]])) for every pair k, in floats:
    the count that verify's pair checks made before they compared coset
    partitions exactly, kept as the reference for them.

    Each span is given by orthonormal columns.  The dimension of a pair's
    intersection is the number of its principal-angle cosines at or above
    :func:`unit_cosine_floor`, and those cosines are the singular values
    of its block of the Gram matrix of all spans' columns.  The Gram matrix is
    formed for a row block of spans at a time, at most ``linalg._BLOCK_BYTES`` (at
    least one span), against the columns from the first span that a pair of
    the row block reads; within a row block, the pairs of each (width of a,
    width of b) share one batched SVD.
    """
    out = np.zeros(len(a), dtype=int)
    if not len(a):
        return out
    widths = np.array([Q.shape[1] for Q in spans])
    ends = np.cumsum(widths)
    starts = ends - widths
    Q = np.concatenate(spans, axis=1)
    floor = unit_cosine_floor(tol)
    limit = max(1, linalg._BLOCK_BYTES // (16 * max(1, Q.shape[1])))
    lo = 0
    while lo < len(spans):
        hi = max(lo + 1, int(np.searchsorted(ends, starts[lo] + limit, side="right")))
        pairs = np.flatnonzero((a >= lo) & (a < hi) & (widths[a] > 0) & (widths[b] > 0))
        if pairs.size:
            col0 = starts[b[pairs]].min()
            G = Q[:, starts[lo] : ends[hi - 1]].conj().T @ Q[:, col0:]
            keys = widths[a[pairs]] * (widths.max() + 1) + widths[b[pairs]]
            for key in set(keys.tolist()):
                k = pairs[keys == key]
                rows = starts[a[k]][:, None] - starts[lo] + np.arange(widths[a[k[0]]])
                cols = starts[b[k]][:, None] - col0 + np.arange(widths[b[k[0]]])
                s = np.linalg.svd(G[rows[:, :, None], cols[:, None, :]], compute_uv=False)
                out[k] = np.count_nonzero(s >= floor, axis=1)
        lo = hi
    return out


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=24,
)


@st.composite
def small_cubes(draw):
    """Ring-shaped objects of rank 1-3 with small entries: these reach the
    axiom checks, and now and then a valid ring that is analysed in full."""
    r = draw(st.integers(1, 3))
    entries = st.integers(-1, 2)
    N = draw(st.lists(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=r, max_size=r), min_size=r, max_size=r))
    dual = draw(st.lists(st.integers(-1, r), min_size=r, max_size=r))
    return {"labels": [f"s{i}" for i in range(r)], "dual": dual, "N": N}


# Contents of ``ring:`` files: arbitrary bytes, arbitrary JSON, objects with
# the three fields holding arbitrary JSON, and small ring-shaped objects.
RING_FILES = st.one_of(
    st.binary(max_size=64),
    JSON_VALUES.map(lambda v: json.dumps(v).encode()),
    st.fixed_dictionaries({"labels": JSON_VALUES, "dual": JSON_VALUES, "N": JSON_VALUES}).map(
        lambda v: json.dumps(v).encode()
    ),
    small_cubes().map(lambda v: json.dumps(v).encode()),
)


def reference_load_ring_json(path, tol=linalg.DEFAULT_TOL):
    """``json.load`` and ``ring_from_dict``: how every ``ring:`` file was read
    before one-digit cubes were scanned, kept as the reference for
    ``fusion_ring.load_ring_json``."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return fusion_ring.ring_from_dict(data, tol)
