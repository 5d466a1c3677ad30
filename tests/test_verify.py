import tracemalloc

import pytest

from fuscat import verify
from fuscat.fusion_ring import enumerate_subcategories
from fuscat.verify import verify_ring

from conftest import perturb_unit

MATRIX_UNIT_CHECK = "matrix unit relations and unit sum"


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


def test_pair_loop_computes_each_ordered_product_once(monkeypatch, vec_s3_ring):
    original = verify.subcategory_product_set
    calls = []

    def spy(D1, D2):
        calls.append((D1.indices, D2.indices))
        return original(D1, D2)

    monkeypatch.setattr(verify, "subcategory_product_set", spy)
    checks = by_name(verify_ring(vec_s3_ring))
    assert checks["meet and join correspondence"].passed
    S = len(enumerate_subcategories(vec_s3_ring))
    assert len(calls) == len(set(calls)) == S * S


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
