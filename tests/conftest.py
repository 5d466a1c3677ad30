import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fuscat import fusion_ring, groups, wedderburn  # noqa: E402


def s3_mult_table():
    """S3 as permutation tuples with composition, built from scratch.

    Independent of the groups module: used as the oracle for class-algebra
    and fusion-matrix tests.
    """
    import itertools

    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms]
    return perms, table


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
