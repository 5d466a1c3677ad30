"""Acceptance suite: every quantitative criterion over the default battery.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The battery covers representation and group-graded rings for
C2, C3, C4, C2xC2, C5, C6, S3, D4, Q8, D5, and A4.
"""

import numpy as np
import pytest

from fuscat import cli, subalg
from fuscat.char_theory import CentralElement, pairing
from fuscat.cli import RunConfig, parse_source
from fuscat.groups import character_table_cached, parse_group, rep_fusion_ring
from fuscat.linalg import DEFAULT_TOL
from fuscat.verify import battery_sources, verify_ring
from fuscat.wedderburn import compute_blocks


@pytest.fixture(scope="module")
def battery():
    """All battery rings with their full check lists, computed once."""
    out = {}
    for source in battery_sources(large=False):
        ring, group, kind = parse_source(source, 0, DEFAULT_TOL)
        checks = {c.name: c for c in verify_ring(ring, group=group, kind=kind, seed=0)}
        out[source] = (ring, group, kind, checks)
    return out


@pytest.fixture(scope="module")
def battery_blocks(battery):
    """The Wedderburn blocks of every battery ring at seed 0."""
    return {source: compute_blocks(ring, seed=0) for source, (ring, *_rest) in battery.items()}


def _assert_all(battery, name, criterion):
    worst = -1.0
    for source, (_ring, _group, _kind, checks) in battery.items():
        check = checks[name]
        assert check.passed, f"{source}: {name} residual {check.residual} > {check.bound} {check.info}"
        worst = max(worst, check.residual)
    print(f"PASS  {criterion}: worst residual {worst:.3e}")


def test_criterion_01_fourier_round_trip(battery):
    _assert_all(battery, "fourier round trip and closed form", "criterion 1 (fourier round trip)")


def test_criterion_02_pairing_identity(battery):
    _assert_all(battery, "pairing against trace form", "criterion 2 (pairing/trace identity)")


def test_criterion_03_matrix_units(battery, battery_blocks):
    _assert_all(battery, "matrix unit relations and unit sum", "criterion 3 (matrix unit relations)")
    for source, (ring, _g, _k, _checks) in battery.items():
        assert sum(blk.m**2 for blk in battery_blocks[source].blocks) == ring.rank, source
    print("PASS  criterion 3 (multiplicities fill the rank exactly)")


def test_criterion_04_block_constants(battery, battery_blocks):
    _assert_all(battery, "block trace constants", "criterion 4 (block trace constants)")
    for source, (_r, group, kind, _checks) in battery.items():
        blocks = battery_blocks[source].blocks
        if kind == "rep":
            # Block j of Rep(G) is class c: summand dimension |c|, n = |G|/|c|.
            got = sorted((blk.summand_dim, blk.n) for blk in blocks)
            expected = sorted((len(c), group.order / len(c)) for c in group.classes)
        else:
            # Block j of Vec_G is irreducible j: multiplicity and summand dimension its degree.
            got = sorted((blk.m, blk.summand_dim) for blk in blocks)
            expected = sorted((d, d) for d in character_table_cached(group, 0).degrees)
        assert np.allclose(got, expected, rtol=0, atol=1e-8), (source, got, expected)
    print("PASS  criterion 4 (group block data matches classes and degrees)")


def test_criterion_05_dual_bases_and_class_sums(battery):
    _assert_all(battery, "dual bases identity", "criterion 5 (dual bases)")
    _assert_all(battery, "class sum pairings", "criterion 5 (class sum pairings)")


def test_criterion_06_integral_class_sum(battery):
    _assert_all(battery, "integral equals diagonal class sums", "criterion 6 (integral class sums)")


def test_criterion_07_subcategory_dimensions(battery):
    _assert_all(battery, "subalgebra dimension product", "criterion 7 (dimension product)")
    _assert_all(battery, "cointegral trace sum", "criterion 7 (cointegral trace sum)")
    _assert_all(battery, "cointegral diagonal form", "criterion 7 (diagonal form)")


def test_criterion_08_lattice_round_trip(battery):
    _assert_all(
        battery,
        "lattice round trip, injectivity, monotonicity",
        "criterion 8 (round trip, injectivity, anti-monotonicity)",
    )


def test_criterion_09_lattice_operations(battery):
    _assert_all(battery, "meet and join correspondence", "criterion 9 (meet/join correspondence)")
    _assert_all(battery, "product dimension bound", "criterion 9 (product dimension bound)")
    for source, (ring, _g, _k, checks) in battery.items():
        if ring.commutative:
            assert checks["product dimension equality (commutative)"].passed, source
    strict_info = battery["vec:symmetric:3"][3]["product dimension bound"].info
    strict = int(strict_info.split()[0])
    assert strict >= 1, "expected a strict product-dimension instance in the S3 graded ring"
    print(f"PASS  criterion 9 (strict instances in vec:symmetric:3: {strict})")


def test_criterion_10_group_oracle(battery):
    for source, (_r, group, kind, checks) in battery.items():
        if group is not None:
            assert checks["group oracle crosscheck"].passed, (
                source,
                checks["group oracle crosscheck"].info,
            )
    # the specific partition fact: for Rep(S3) with the A3 subalgebra the
    # simples split as {trivial, sign} + {two-dimensional}, and the unit
    # idempotent of the central subspace is E_0 + E_1
    G = parse_group("symmetric:3")
    ring = rep_fusion_ring(G)
    B = compute_blocks(ring)
    from fuscat.fusion_ring import subcategory_closure

    D = subcategory_closure(ring, [1])
    e = subalg.build_lattice(ring, B).entry(D.indices)
    L, partition = e.subalgebra, e.partition
    assert partition == ((0, 1), (2,))
    ell0 = np.zeros(3, dtype=complex)
    ell0[[0, 1]] = 1
    assert pairing(subalg.epsilon_L(L), CentralElement(ring, ell0)) == pytest.approx(1)
    print("PASS  criterion 10 (group oracle crosschecks, A3 partition)")


def test_criterion_11_character_tables(battery):
    for source, (_r, group, _k, _checks) in battery.items():
        T = character_table_cached(group, 0)
        sizes = np.array([len(c) for c in group.classes], dtype=float)
        gram = (T.rows * sizes) @ T.rows.conj().T
        col = T.rows.conj().T @ T.rows
        assert np.allclose(gram, group.order * np.eye(len(sizes)), rtol=0, atol=1e-7), source
        assert np.allclose(col, np.diag(group.order / sizes), rtol=0, atol=1e-7), source
        assert sum(d * d for d in T.degrees) == group.order, source
    print("PASS  criterion 11 (character orthogonality, squared degrees)")


def test_criterion_12_determinism(tmp_path):
    for args in (
        ["verify", "vec:symmetric:3", "--format", "json", "--seed", "11"],
        ["lattice", "rep:quaternion:8", "--format", "json", "--seed", "11"],
        ["analyze", "vec:dihedral:8", "--format", "json", "--seed", "11"],
    ):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(args + ["--output", str(a)]) == 0
        assert cli.main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), args
    print("PASS  criterion 12 (byte-identical reports)")


@pytest.mark.parametrize("seed", range(1, 16))
def test_battery_passes_under_seed(seed):
    report = cli.verify_report(RunConfig("verify", None, seed=seed, battery=True))
    failures = [
        (r["source"], c["name"], c["residual"], c["info"])
        for r in report["results"]
        for c in r["checks"]
        if not c["passed"]
    ]
    assert failures == []


def test_battery_all_checks_green(battery):
    failures = [
        (source, c.name, c.residual, c.bound)
        for source, (_r, _g, _k, checks) in battery.items()
        for c in checks.values()
        if not c.passed
    ]
    assert failures == []
    n = sum(len(checks) for _r, _g, _k, checks in battery.values())
    print(f"PASS  full battery: {n} identity checks over {len(battery)} rings")


def test_each_identity_has_one_row(battery):
    # Rows that could fail only with another check or an exception are gone:
    # the block data meet the group inside the oracle crosscheck, the
    # character table checks itself where it is built, and the
    # multiplicities fill the rank by construction.
    names = set().union(*(checks for *_rest, checks in battery.values()))
    assert len(names) == 21
    assert not names & {
        "pairing duality and idempotent orthogonality",
        "character orthogonality",
        "squared degrees sum to the order",
        "block data matches irreducible degrees",
        "block data matches conjugacy classes",
        "block multiplicities fill the rank",
    }
