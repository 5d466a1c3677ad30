import dataclasses
import tracemalloc

import numpy as np
import pytest

from fuscat import subalg, verify
from fuscat.cli import parse_source
from fuscat.fusion_ring import (
    _raw_product_table,
    enumerate_subcategories,
    subcategory_join,
    subcategory_meet,
)
from fuscat.linalg import DEFAULT_TOL
from fuscat.verify import verify_ring

from conftest import bump_0_1, patch_live_projector, perturb_unit

MATRIX_UNIT_CHECK = "matrix unit relations and unit sum"
RESTRICTION_CHECK = "restriction compatible with pairing"


def by_name(checks):
    return {c.name: c for c in checks}


class _Stop(Exception):
    """Ends verify_ring once the check under test has run."""


class TestMatrixUnitCheck:
    def test_built_units_pass(self, vec_s3_ring):
        assert by_name(verify_ring(vec_s3_ring))[MATRIX_UNIT_CHECK].passed

    @pytest.mark.parametrize("s, t", [(0, 1), (1, 0)])
    def test_perturbed_unit_fails(self, monkeypatch, vec_s3_ring, vec_s3_blocks, s, t):
        # An off-diagonal unit does not enter the unit sum, so only the
        # relations can fail the check.
        bad = perturb_unit(vec_s3_blocks, s, t, 3, 1e-6)
        monkeypatch.setattr(verify, "compute_blocks", lambda ring, seed=0, tol=None: bad)
        assert not by_name(verify_ring(vec_s3_ring))[MATRIX_UNIT_CHECK].passed

    def test_memory_below_r3(self, monkeypatch, vec_a5_ring):
        original = verify._unit_relation_residual
        seen = []

        def traced(ring, unit_blocks):
            tracemalloc.start()
            try:
                original(ring, unit_blocks)
                _, peak = tracemalloc.get_traced_memory()
                seen.append((sum(len(u) ** 2 for u in unit_blocks), peak))
            finally:
                tracemalloc.stop()
            raise _Stop

        vec_a5_ring.N_float  # cached before tracing
        monkeypatch.setattr(verify, "_unit_relation_residual", traced)
        with pytest.raises(_Stop):
            verify_ring(vec_a5_ring)
        r = vec_a5_ring.rank
        [(units, peak)] = seen
        assert units == r  # every matrix unit against every other
        assert peak < r**3 * 16  # an r^3 complex table


def test_pair_loop_computes_each_ordered_product_once(monkeypatch, vec_s3_ring, vec_s3_blocks):
    # The batched tables the pair loop reads agree with the raw products
    # worked out from N on every ordered pair, and with the per-pair
    # meets and joins on every unordered pair; vec_s3 is noncommutative,
    # so order matters.
    table = subalg.build_lattice(vec_s3_ring, vec_s3_blocks)
    entries = table.entries
    S = len(entries)
    raw = _raw_product_table(vec_s3_ring, table.membership)
    assert raw.shape == (S, S, vec_s3_ring.rank)
    for a, ea in enumerate(entries):
        for b, eb in enumerate(entries):
            N = vec_s3_ring.N
            A, B = ea.subcategory.indices, eb.subcategory.indices
            expected = {int(k) for i in A for j in B for k in np.flatnonzero(N[i, j])}
            assert set(np.flatnonzero(raw[a, b]).tolist()) == expected
    pairs_a, pairs_b = np.triu_indices(S)
    meets, joins = table.meets_and_joins(pairs_a, pairs_b)
    assert len(meets) == len(joins) == S * (S + 1) // 2
    for a, b, m, j in zip(pairs_a, pairs_b, meets, joins):
        Da, Db = entries[a].subcategory, entries[b].subcategory
        assert m >= 0 and j >= 0
        assert entries[m].subcategory.indices == subcategory_meet(Da, Db).indices
        assert entries[j].subcategory.indices == subcategory_join(Da, Db).indices

    calls = []

    def spy(ring, member):
        calls.append(len(member))
        return _raw_product_table(ring, member)

    monkeypatch.setattr(verify, "_raw_product_table", spy)
    checks = by_name(verify_ring(vec_s3_ring))
    assert checks["meet and join correspondence"].passed
    assert calls == [S]


def test_perturbed_projector_fails_restriction_pairing(monkeypatch, vec_s3_ring):
    # Entry 1's live projector is perturbed after the table checked it, as
    # verify's per-entry checks read it.
    target = enumerate_subcategories(vec_s3_ring)[1].indices
    assert by_name(verify_ring(vec_s3_ring))[RESTRICTION_CHECK].passed
    patch_live_projector(monkeypatch, target, bump_0_1)
    assert not by_name(verify_ring(vec_s3_ring))[RESTRICTION_CHECK].passed


def test_pairing_check_uses_blocked_star_products(monkeypatch, su2_ring):
    original = verify.cf_star_blocks
    rows = []

    def spy(ring, F, G):
        for lo, table in original(ring, F, G):
            rows.append(len(table))
            yield lo, table

    monkeypatch.setattr(verify, "cf_star_blocks", spy)
    checks = by_name(verify_ring(su2_ring))
    assert checks["pairing against trace form"].passed
    assert sum(rows) == su2_ring.rank and max(rows) <= su2_ring.rank // 16


@pytest.mark.parametrize("offset", [1, 0.5])
@pytest.mark.parametrize(
    "source, crosscheck, field",
    [
        ("rep:symmetric:3", "crosscheck_rep", "n"),
        ("rep:symmetric:3", "crosscheck_rep", "summand_dim"),
        ("vec:symmetric:3", "crosscheck_vec", "summand_dim"),
    ],
)
def test_block_data_off_the_group_fails_only_the_oracle(
    monkeypatch, source, crosscheck, field, offset
):
    # The group oracle is handed the blocks with one value of block 1 off by
    # one, or off by a half, so that it is near no integer; every other
    # check reads the blocks as computed.
    ring, group, kind = parse_source(source, 0, DEFAULT_TOL)
    real = getattr(verify, crosscheck)

    def skewed(G, table, tol):
        B = table.blocks
        blocks = list(B.blocks)
        blocks[1] = dataclasses.replace(blocks[1], **{field: getattr(blocks[1], field) + offset})
        skewed_B = dataclasses.replace(B, blocks=tuple(blocks))
        return real(G, dataclasses.replace(table, blocks=skewed_B), tol)

    monkeypatch.setattr(verify, crosscheck, skewed)
    checks = verify_ring(ring, group, kind)
    assert {c.name for c in checks if not c.passed} == {"group oracle crosscheck"}
    assert "block summand dims" in by_name(checks)["group oracle crosscheck"].info
