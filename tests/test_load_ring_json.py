"""``load_ring_json``: the scan of one-digit cubes against the reference
``json.load`` + ``ring_from_dict``."""

import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuscat import fusion_ring
from fuscat.fusion_ring import build_ring, load_ring_json, ring_to_dict

from conftest import RING_FILES, haagerup_izumi_ring, reference_load_ring_json, small_cubes, su2_fusion_ring


def _near_group(m):
    """Simples 1 and x with x⊗x = 1 + m·x: a valid fusion ring whose N holds m."""
    N = np.zeros((2, 2, 2), dtype=int)
    N[0] = N[:, 0] = np.eye(2, dtype=int)
    N[1, 1] = [1, m]
    return build_ring(["1", "x"], N, [0, 1])


# Valid rings: self-dual and commutative, non-commutative with a non-trivial
# dual, and a multiplicity of two digits, which the scan leaves to the
# reference.
_VALID = [ring_to_dict(su2_fusion_ring(k)) for k in (1, 2, 3)] + [
    ring_to_dict(haagerup_izumi_ring(3)),
    ring_to_dict(_near_group(12)),
]
_LAYOUTS = [{"separators": (",", ":")}, {}, {"indent": 2}]
_EDIT_BYTES = list(b'019-.e,[] \n"t')


def _outcome(load, path):
    """The (dtype, N, labels, dual) of the ring that ``load`` reads, or the
    type and message of what it raises."""
    try:
        ring = load(path)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return type(exc), str(exc)
    return ring.N.dtype, ring.N.tolist(), ring.labels, ring.dual


def _same_outcome(content: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ring.json"
        path.write_bytes(content)
        got = _outcome(load_ring_json, path)
        want = _outcome(reference_load_ring_json, path)
    assert got == want
    return got


def _raised(outcome) -> bool:
    return isinstance(outcome[0], type) and issubclass(outcome[0], Exception)


@st.composite
def _edited_cubes(draw):
    """A ring-shaped object, its fields in any order, in one of the three
    layouts, with up to three single-byte inserts, deletes or replacements."""
    data = draw(st.one_of(small_cubes(), st.sampled_from(_VALID)))
    data = {key: data[key] for key in draw(st.permutations(["labels", "dual", "N"]))}
    text = bytearray(json.dumps(data, **draw(st.sampled_from(_LAYOUTS))).encode())
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(text) - 1))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        byte = draw(st.sampled_from(_EDIT_BYTES))
        if edit == "insert":
            text.insert(pos, byte)
        elif edit == "delete":
            del text[pos]
        else:
            text[pos] = byte
    return bytes(text)


@settings(max_examples=150, deadline=None)
@given(RING_FILES)
def test_ring_files_load_as_the_reference(content):
    _same_outcome(content)


@settings(max_examples=400, deadline=None)
@given(_edited_cubes())
def test_edited_cubes_load_as_the_reference(content):
    _same_outcome(content)


@pytest.mark.parametrize("layout", _LAYOUTS, ids=["compact", "default", "indent"])
@pytest.mark.parametrize("data", _VALID, ids=["su2_1", "su2_2", "su2_3", "hi_3", "near_group_12"])
def test_valid_rings_in_every_layout(data, layout):
    outcome = _same_outcome(json.dumps(data, **layout).encode())
    assert outcome[1] == data["N"]


_Z2 = '"labels": ["1", "x"], "dual": [0, 1]'


def _z2(N):
    return ("{" + _Z2 + ', "N": ' + N + "}").encode()


@pytest.mark.parametrize(
    "content, accepted",
    [
        (_z2("[[[1, 0], [0, 1]], [[0, 1], [1.0, 0]]]"), True),
        (_z2("[[[1, 0], [0, 1]], [[0, 1], [1e0, 0]]]"), True),
        (_z2("[[[1, 0], [0, 1]], [[0, 1], [01, 0]]]"), False),
        (_z2("[[[1, -0], [0, 1]], [[0, 1], [1, 0]]]"), True),
        (_z2("[[[1, 0], [0, 1]], [[0, 1], [--1, 0]]]"), False),
        (_z2("[[[1, 0], [0, 1]], [[0, 1], [1-2, 0]]]"), False),
        (_z2("[[[1, 0], [0, 1]], [[0, 1], [-, 0]]]"), False),
        (_z2("[[[1, 0], [0, 1]], [[0, 1], [1 0]]]"), False),
        (_z2("[[[1,0],[0,1]],[[0,1],[1,1 0]]]"), False),
        (_z2("[[[1, 0], [0, 1]], [[0, 1], [1, 0,]]]"), False),
        (_z2("[[[1, 0], [0, 1]] 0 [[0, 1], [1, 0]]]"), False),
        (_z2("[[[1, 0], [0, 1]] 0 [[0, 1], [1, 10]]]"), False),
        (_z2("[[[1, 0], [0, 1]], [[0, 1], [true, 0]]]"), False),
        (_z2("[[[1, 0], [0, 1]], [[0, 1], [12345678, 0]]]"), False),
        (_z2("[[[1, 0], [0, 1]], [[0, 1], [123456789012, 0]]]"), False),
        (_z2("[[[1, 0], [0, 1]], [[0, 1], [1048577, 0]]]"), False),
        (_z2("[[[1, 0], [0, 1]], [[0, 1], [1, 0]]]")[:-9], False),
        (b'{"N": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], ' + _Z2.encode() + b"}", True),
        (_z2('[[[1, 0], [0, 1]], [[0, 1], [1, 0]]], "N": [[[1, 0], [0, 1]], [[0, 1], [1, 1]]]'), True),
        (_z2('[[[1, 0], [0, 1]], [[0, 1], [1, 0]]], "N": [[[1, 0], [0, 1]], [[0, 1], [1.0, 0]]]'), True),
        (b'{"N": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], "labels": ["]", "\\"\\u00e9"], "dual": [0, 1]}', True),
        (b'{"labels": ["]", "\\"\\u00e9\xcf\x83"], "dual": [0, 1], "N": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}', True),
        (b"\xef\xbb\xbf" + _z2("[[[1, 0], [0, 1]], [[0, 1], [1, 0]]]"), False),
        (_z2("[[[1, 0], [0, 1]], [[0, 1], [1, 0]]]").replace(b" ", b"\r\n"), True),
        (b'{"labels": ["1"], "dual": [0], "N": [[[1]]]}', True),
        (b'{"labels": ["1"], "dual": [0], "N": [[[1]]]} x', False),
        (b'{"dual": [0, 1], "N": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}', False),
        (b'{"labels": ["1", 2], "dual": [0, 1], "N": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}', False),
        (b'{"labels": ["1", "1"], "dual": [0, 1], "N": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}', False),
        (b'{"labels": ["1", "x"], "dual": {}, "N": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}', False),
        (b'{"labels": ["1", "x"], "dual": [0, 1.5], "N": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}', False),
    ],
    ids=[
        "float_entry",
        "exponent_entry",
        "leading_zero",
        "minus_zero",
        "double_minus",
        "inner_minus",
        "lone_minus",
        "split_number",
        "split_number_compact",
        "trailing_comma",
        "digit_between_rows",
        "digit_between_rows_wide",
        "true_entry",
        "eight_digits",
        "twelve_digits",
        "above_bound",
        "truncated",
        "N_first",
        "duplicate_N_last_wins",
        "duplicate_N_last_not_one_digit",
        "label_escapes_after_N",
        "label_escapes_and_utf8_before_N",
        "utf8_bom",
        "crlf",
        "rank_1",
        "extra_data",
        "missing_labels",
        "label_not_a_string",
        "duplicate_labels",
        "dual_not_a_list",
        "dual_fraction",
    ],
)
def test_named_files_load_as_the_reference(content, accepted):
    outcome = _same_outcome(content)
    assert _raised(outcome) is not accepted


def test_duplicate_N_the_last_wins():
    outcome = _same_outcome(_z2('[[[1, 0], [0, 1]], [[0, 1], [1, 1]]], "N": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]'))
    assert outcome[1] == [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]


@pytest.mark.parametrize("layout", _LAYOUTS, ids=["compact", "default", "indent"])
@pytest.mark.parametrize(
    "ring, scanned", [(su2_fusion_ring(10), True), (_near_group(12), False)], ids=["su2_10", "near_group_12"]
)
def test_one_digit_cubes_are_scanned(tmp_path, monkeypatch, ring, scanned, layout):
    # The fast path cannot silently stop being taken: the reference reads N
    # and then dual through _integer_array, the scan reads only dual.
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(ring_to_dict(ring), **layout))
    depths = []
    real = fusion_ring._integer_array

    def spy(values, depth, bound):
        depths.append(depth)
        return real(values, depth, bound)

    monkeypatch.setattr(fusion_ring, "_integer_array", spy)
    loaded = load_ring_json(path)
    assert depths == ([1] if scanned else [3, 1])
    assert np.array_equal(loaded.N, ring.N) and loaded.labels == ring.labels and loaded.dual == ring.dual


def test_comma_run_does_not_build_a_huge_template():
    # The first innermost list claims rank 10^6; the template for it would
    # take 2 * 10^18 bytes, so the text's own length must refuse it first.
    assert fusion_ring._digit_cube(b"[[[" + b"," * 10**6 + b"]]]", 0, 10**6 + 6) is None


def test_only_the_compact_cube_is_held_beside_N(tmp_path):
    # The file's bytes and decoded text are dropped before N is built, so the
    # peak is N and the whitespace-free copy of its text (2/3 of the file
    # here), not N and two or three copies of the file.
    path = tmp_path / "su2_60.json"
    path.write_text(json.dumps(ring_to_dict(su2_fusion_ring(60))))
    tracemalloc.start()
    try:
        with open(path, "rb") as fh:
            _, N = fusion_ring._scan_ring(fh.read())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < N.nbytes + path.stat().st_size


def test_template_check_reads_every_byte_outside_the_rows():
    template = b"[[[0,0],[0,0]],[[0,0],[0,0]]]"
    assert fusion_ring._is_template(template.replace(b"0", b"7"), 2)
    for pos in (0, 14, len(template) - 1):
        assert not fusion_ring._is_template(template[:pos] + b"0" + template[pos + 1 :], 2)
