import dataclasses
import tracemalloc

import numpy as np
import pytest

from fuscat import subalg, verify, wedderburn
from fuscat.char_theory import cf_star_blocks
from fuscat.cli import parse_source
from fuscat.fusion_ring import enumerate_subcategories
from fuscat.linalg import DEFAULT_TOL
from fuscat.verify import verify_ring

from conftest import (
    bump_0_1,
    patch_leaky_products,
    patch_live_projector,
    patch_table,
    perturb_unit,
    without_entries,
)

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


def test_pair_checks_memory_below_one_product_per_pair():
    # (Z_2)^5: S = 374 subcategories of rank 32.  The pair checks keep
    # running maxima and counts over row blocks of pairs, so they stay below
    # one (r,) bool product row per ordered pair, the (S, S, r) table that
    # they no longer form.
    ring = parse_source("vec:product:" + "*".join(["cyclic:2"] * 5), 0, DEFAULT_TOL)[0]
    table = subalg.build_lattice(ring, verify.compute_blocks(ring))
    S, r = table.membership.shape
    assert (S, r) == (374, 32)
    ring.support  # cached before tracing
    tracemalloc.start()
    try:
        checks = verify._pair_checks(ring, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(c.passed for c in checks)
    assert peak < S * S * r


def _drop_entry(monkeypatch, indices):
    """The table that verify_ring reads lacks the entry of these indices."""
    patch_table(monkeypatch, lambda t: without_entries(t, [e.subcategory.indices != indices for e in t.entries]))


class TestMeetJoinInfo:
    def test_passing_row_has_no_info(self, vec_s3_ring):
        assert by_name(verify_ring(vec_s3_ring))["meet and join correspondence"].info == ""

    def test_names_the_first_pair_without_a_meet(self, monkeypatch):
        # In D8, {e, r^2} = (0, 2) is the meet of C4 and a Klein four-group.
        ring = parse_source("vec:dihedral:8", 0, DEFAULT_TOL)[0]
        _drop_entry(monkeypatch, (0, 2))
        check = by_name(verify_ring(ring))["meet and join correspondence"]
        assert (check.passed, check.info) == (False, "no meet of (0, 1, 2, 3) and (0, 2, 4, 6) in the table")

    def test_names_the_first_pair_without_a_join(self, monkeypatch, vec_s3_ring):
        # The two-element subgroups of S3 join to the whole group.
        _drop_entry(monkeypatch, tuple(range(vec_s3_ring.rank)))
        check = by_name(verify_ring(vec_s3_ring))["meet and join correspondence"]
        assert (check.passed, check.info) == (False, "no join of (0, 1) and (0, 2) in the table")

    def test_names_the_first_entry_that_is_not_closed(self, monkeypatch, vec_s3_ring):
        # Products of entry 1 with itself reach every simple.
        target = enumerate_subcategories(vec_s3_ring)[1].indices
        patch_leaky_products(monkeypatch, vec_s3_ring, target)
        check = by_name(verify_ring(vec_s3_ring))["meet and join correspondence"]
        assert (check.passed, check.info) == (False, f"products of {target} leave it")


def test_perturbed_projector_fails_restriction_pairing(monkeypatch, vec_s3_ring):
    # Entry 1's live projector is perturbed after the table checked it, as
    # verify's per-entry checks read it.
    target = enumerate_subcategories(vec_s3_ring)[1].indices
    assert by_name(verify_ring(vec_s3_ring))[RESTRICTION_CHECK].passed
    patch_live_projector(monkeypatch, target, bump_0_1)
    assert not by_name(verify_ring(vec_s3_ring))[RESTRICTION_CHECK].passed


@pytest.mark.parametrize(
    "source", ["vec:symmetric:4", "rep:symmetric:4", "vec:alternating:5", "rep:alternating:5", "vec:dihedral:8", "vec:quaternion:8"]
)
def test_pairing_check_reads_the_unit_column_of_n(source):
    # The star products of the basis vectors are N bit for bit, so the
    # check reads tau(chi_i * chi_j) = N_ij^0 without forming them.
    ring = parse_source(source, 0, DEFAULT_TOL)[0]
    eye = np.eye(ring.rank)
    for lo, prods in cf_star_blocks(ring, eye, eye):
        assert np.array_equal(prods, ring.N_float[lo : lo + len(prods)])
    assert by_name(verify_ring(ring))["pairing against trace form"].passed


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


@pytest.mark.parametrize(
    "failure",
    [
        subalg.ClosureViolation("closure witness"),
        subalg.PartitionMismatch("partition witness"),
        subalg.RoundTripFailure("round trip witness"),
        wedderburn.NotIdempotent("idempotent witness"),
    ],
)
def test_table_failures_fail_the_lattice_row(monkeypatch, vec_s3_ring, failure):
    # The failures of the correspondence table itself end the suite with a
    # failed lattice row that carries their message.
    def fail(*args):
        raise failure

    monkeypatch.setattr(subalg, "_checked_partitions", fail)
    checks = verify_ring(vec_s3_ring)
    assert checks[-1].name == verify.LATTICE_CHECK
    assert not checks[-1].passed and checks[-1].info == str(failure)


@pytest.mark.parametrize("fault", [AssertionError("no such entry"), IndexError("row 7"), TypeError("bad block")])
def test_program_faults_in_the_stream_propagate(monkeypatch, vec_s3_ring, fault):
    # Any other exception inside the streamed table is a fault of the
    # program: it propagates instead of reading as a failed lattice row.
    def visit_fails(block):
        raise fault

    real = subalg._stream_lattice
    monkeypatch.setattr(subalg, "_stream_lattice", lambda ring, B, tol, step, visit: real(ring, B, tol, step, visit_fails))
    with pytest.raises(type(fault), match=str(fault)):
        verify_ring(vec_s3_ring)
