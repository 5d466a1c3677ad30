import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuscat import cli, groups

from conftest import RING_FILES


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_rep_s3_text(self, capsys):
        code, out, _ = run_cli(["analyze", "rep:symmetric:3"], capsys)
        assert code == 0
        assert "rank         : 3" in out
        assert "n=2" in out and "n=3" in out and "n=6" in out

    def test_vec_s3_has_multiplicity_two_block(self, capsys):
        code, out, _ = run_cli(["analyze", "vec:symmetric:3", "--format", "json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert any(blk["m"] == 2 for blk in report["blocks"])

    def test_ring_file(self, tmp_path, capsys):
        path = tmp_path / "trivial.json"
        path.write_text(json.dumps({"labels": ["1"], "dual": [0], "N": [[[1]]]}))
        code, out, _ = run_cli(["analyze", f"ring:{path}"], capsys)
        assert code == 0
        assert "rank         : 1" in out

    def test_dump_units(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "rep:cyclic:2", "--format", "json", "--dump-units"], capsys
        )
        report = json.loads(out)
        assert "matrix_units" in report
        assert len(report["matrix_units"]) == 2


@pytest.mark.parametrize(
    "vec",
    [
        np.array([1.5, -0.0, 0.0, 2, -3.25]),
        np.array([1 + 2j, -0.0 - 0.0j, complex(0.0, -0.0), complex(-0.0, 1.0), 3.5]),
        np.array([1, 0, -2]),
    ],
    ids=["real", "complex", "integer"],
)
def test_cvec_matches_the_per_entry_form(vec):
    # The per-entry form the reports were written with; the JSON text tells
    # -0.0 from 0.0 and 1.0 from 1.
    per_entry = [[float(np.real(z)), float(np.imag(z))] for z in vec]
    assert json.dumps(cli._cvec(vec)) == json.dumps(per_entry)


class TestSubcategories:
    def test_vec_s3_count(self, capsys):
        code, out, _ = run_cli(["subcategories", "vec:symmetric:3", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["count"] == 6


class TestLattice:
    def test_rep_s3_dot_chain(self, capsys):
        code, out, _ = run_cli(["lattice", "rep:symmetric:3", "--format", "dot"], capsys)
        assert code == 0
        assert out.count("[label=") == 3
        assert out.count("->") == 2
        assert "digraph" in out

    def test_vec_s3_json_entries(self, capsys):
        code, out, _ = run_cli(["lattice", "vec:symmetric:3", "--format", "json"], capsys)
        report = json.loads(out)
        assert report["count"] == 6
        dims = sorted(round(e["subalgebra_dim"]) for e in report["entries"])
        assert dims == [1, 2, 3, 3, 3, 6]

    def test_rep_c2_chain(self, capsys):
        code, out, _ = run_cli(["lattice", "rep:cyclic:2", "--format", "dot"], capsys)
        assert out.count("[label=") == 2
        assert out.count("->") == 1


class TestVerify:
    def test_rep_s3_passes(self, capsys):
        code, out, _ = run_cli(["verify", "rep:symmetric:3"], capsys)
        assert code == 0
        assert "ALL PASS" in out
        assert "subalgebra dimension product" in out

    def test_broken_ring_is_input_failure(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"labels": ["1", "x"], "dual": [0, 1], "N": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}))
        code, _, err = run_cli(["verify", f"ring:{path}"], capsys)
        assert code == 2
        assert "error" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "text",
        [
            '{"labels": ["1", "x"], "dual": [0, 1], "N": [[[1, 0], [0, 1]], [[0, 1]]]}',
            '{"labels": ["1"], "dual": ["a"], "N": [[[1]]]}',
            '{"labels": ["1"], "dual": [0], "N": [[[1e400]]]}',
            '{"labels": ["1"], "dual": [0], "N": [[[true]]]}',
            '{"labels": ["1"], "dual": [0], "N": [[["1"]]]}',
            '{"labels": ["1"], "dual": [0], "N": [[[NaN]]]}',
            '{"labels": ["1"], "dual": [0], "N": [[[-Infinity]]]}',
            '{"labels": ["1", "x"], "dual": [0, 1], "N": [[[1, 0], [0, 1]], [[0, 1], [1.5, 0]]]}',
            '{"labels": ["1"], "dual": [0], "N": [[[1180591620717411303424]]]}',
            '{"labels": ["1"], "dual": [0], "N": [[[%s]]]}' % (10**400),
            '{"labels": ["1"], "dual": [true], "N": [[[1]]]}',
            '{"labels": ["1"], "dual": [NaN], "N": [[[1]]]}',
            '{"labels": ["1"], "dual": [0.5], "N": [[[1]]]}',
            '{"labels": [], "dual": [], "N": []}',
        ],
        ids=[
            "ragged_N",
            "non_integer_dual",
            "overflowing_N",
            "boolean_N",
            "string_N",
            "nan_N",
            "infinite_N",
            "fractional_N",
            "int64_overflowing_N",
            "float_overflowing_int_N",
            "boolean_dual",
            "nan_dual",
            "fractional_dual",
            "empty_N",
        ],
    )
    def test_malformed_ring_is_one_line_error(self, text, tmp_path, capsys):
        path = tmp_path / "malformed.json"
        path.write_text(text)
        code, _, err = run_cli(["analyze", f"ring:{path}"], capsys)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"labels": [1, 2], "dual": [0, 1], "N": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}', "labels"),
            ('{"labels": ["a", "a"], "dual": [0, 1], "N": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}', "labels"),
            ('[{"labels": ["1"], "dual": [0], "N": [[[1]]]}]', "object"),
        ],
        ids=["integer_labels", "duplicate_labels", "top_level_list"],
    )
    def test_bad_labels_or_top_level_named(self, text, field, tmp_path, capsys):
        path = tmp_path / "malformed.json"
        path.write_text(text)
        code, _, err = run_cli(["analyze", f"ring:{path}"], capsys)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert field in err and "list indices" not in err

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe", b"[" * 100_000 + b"]" * 100_000],
        ids=["not_utf8", "nested_100k_deep"],
    )
    def test_undecodable_ring_file_is_one_line_error(self, content, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, _, err = run_cli(["analyze", f"ring:{path}"], capsys)
        assert code == 2
        assert err.startswith(f"error: ring:{path}: ") and err.count("\n") == 1

    def test_missing_source(self, capsys):
        code, _, err = run_cli(["verify"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "args, message",
        [
            (["verify", "--battery", "rep:cyclic:2"], "not both"),
            (["verify", "rep:cyclic:2", "--large"], "--large"),
            (["verify", "--large"], "needs a source or --battery"),
        ],
        ids=["battery_and_source", "large_without_battery", "large_alone"],
    )
    def test_ignored_input_is_rejected(self, args, message, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    @pytest.mark.parametrize("target", ["missing_dir", "directory"])
    def test_unwritable_output_is_one_line_error(self, command, target, tmp_path, capsys):
        output = tmp_path / "missing" / "x.json" if target == "missing_dir" else tmp_path
        code, out, err = run_cli([command, "rep:cyclic:2", "--output", str(output)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write the report: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    def test_identity_failure_exits_one(self, capsys, monkeypatch):
        from fuscat.verify import CheckResult

        monkeypatch.setattr(
            cli, "verify_ring", lambda *a, **k: [CheckResult("rigged", 1.0, 0.0)]
        )
        code, out, _ = run_cli(["verify", "rep:cyclic:2"], capsys)
        assert code == 1
        assert "FAIL" in out

    def test_unknown_builtin(self, capsys):
        code, _, err = run_cli(["analyze", "rep:sporadic:1"], capsys)
        assert code == 2
        assert "error" in err


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["analyze", "rep:symmetric:3", "--format", "json", "--seed", "7"],
            ["lattice", "vec:symmetric:3", "--format", "json", "--seed", "7"],
            ["verify", "rep:symmetric:3", "--format", "json", "--seed", "7"],
        ],
    )
    def test_byte_identical_reruns(self, args, tmp_path, capsys):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert cli.main(args + ["--output", str(out1)]) in (0, 1)
        assert cli.main(args + ["--output", str(out2)]) in (0, 1)
        assert out1.read_bytes() == out2.read_bytes()


class TestParserReuse:
    # Each argv in order; the first and the third use different commands,
    # flags and formats, the second fails in the parser with exit code 2.
    CALLS = [
        ["analyze", "rep:symmetric:3", "--dump-units", "--seed", "3", "--abs-tol", "1e-5", "--format", "json"],
        ["lattice", "rep:cyclic:2", "--battery"],
        ["verify", "--battery", "--format", "text"],
        ["subcategories", "vec:symmetric:3"],
    ]

    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()

    @staticmethod
    def run(argv, capsys):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own errors
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_main_calls_leave_no_state(self, capsys):
        first = [self.run(argv, capsys) for argv in self.CALLS]
        again = [self.run(argv, capsys) for argv in reversed(self.CALLS)][::-1]
        assert [code for code, _out, _err in first] == [0, 2, 0, 0]
        assert first == again
        assert "unrecognized arguments: --battery" in first[1][2]

    def test_parsed_namespace_matches_a_fresh_parser(self):
        for argv in self.CALLS[:1] + self.CALLS[2:] + self.CALLS[:1]:
            assert vars(cli._parser().parse_args(argv)) == vars(cli.build_parser().parse_args(argv))

    def test_help_text_unchanged(self, capsys):
        for argv in (["--help"], ["lattice", "--help"], ["--help"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 0
            with pytest.raises(SystemExit):
                cli.build_parser().parse_args(argv)
            cached, fresh = capsys.readouterr().out.split("usage:")[1:]
            assert cached == fresh


class TestConfig:
    def test_env_tolerance_override(self, monkeypatch):
        monkeypatch.setenv("FUSCAT_TOL", "1e-7")
        args = cli.build_parser().parse_args(["analyze", "rep:cyclic:2"])
        cfg = cli.config_from_args(args)
        assert cfg.tol.abs_tol == pytest.approx(1e-7)

    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("FUSCAT_TOL", "1e-7")
        args = cli.build_parser().parse_args(["analyze", "rep:cyclic:2", "--abs-tol", "1e-5"])
        cfg = cli.config_from_args(args)
        assert cfg.tol.abs_tol == pytest.approx(1e-5)

    @pytest.mark.parametrize(
        "command, flags, env",
        [
            ("analyze", ["--abs-tol", "-1"], None),
            ("analyze", [], "abc"),
            ("analyze", [], "nan"),
            ("analyze", ["--abs-tol", "nan"], None),
            ("analyze", ["--abs-tol", "inf"], None),
            ("verify", ["--abs-tol", "nan"], None),
            ("verify", ["--abs-tol", "inf"], None),
            ("lattice", ["--snap-tol", "inf"], None),
            ("lattice", ["--snap-tol", "nan"], None),
            ("lattice", ["--rel-tol", "nan"], None),
        ],
    )
    def test_nonpositive_tolerance_rejected(self, capsys, monkeypatch, command, flags, env):
        if env is not None:
            monkeypatch.setenv("FUSCAT_TOL", env)
        code, _, err = run_cli([command, "rep:cyclic:2", *flags], capsys)
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.parametrize(
        "args",
        [
            ["analyze", "vec:cyclic:2", "--seed", "-1"],
            ["lattice", "rep:cyclic:3", "--seed", "-2"],
            ["verify", "rep:cyclic:3", "--seed", "-5"],
            ["verify", "--battery", "--seed", "-1"],
        ],
    )
    def test_negative_seed_rejected(self, capsys, args):
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "--seed" in lines[0]


def _refuse_oversized(monkeypatch):
    """Builders of cyclic, dihedral and product groups that fail instead of
    building a group above ``MAX_GROUP_ORDER``."""
    for name in ("cyclic_group", "dihedral_group", "product_group"):
        build = getattr(groups, name)

        def guarded(arg, build=build):
            order = math.prod(G.order for G in arg) if isinstance(arg, list) else arg
            assert order <= groups.MAX_GROUP_ORDER, f"built a group of order {order}"
            return build(arg)

        monkeypatch.setattr(groups, name, guarded)


@pytest.mark.parametrize(
    "source",
    ["vec:cyclic:99999999", "rep:dihedral:1000", "vec:product:cyclic:200*cyclic:2", "vec:product:symmetric:5*cyclic:4"],
)
def test_oversized_group_is_one_line_error(source, capsys, monkeypatch):
    _refuse_oversized(monkeypatch)
    code, out, err = run_cli(["subcategories", source], capsys)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "above the limit" in lines[0]


def test_largest_builtin_group_parses(monkeypatch):
    _refuse_oversized(monkeypatch)
    assert groups.parse_group("product:symmetric:5*cyclic:2").order == groups.MAX_GROUP_ORDER == 240
    assert groups.parse_group(f"cyclic:{groups.MAX_GROUP_ORDER}").order == 240


@settings(max_examples=150, deadline=None)
@given(RING_FILES)
def test_fuzzed_ring_file_exits_0_or_2_with_one_error_line(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ring.json"
        path.write_bytes(content)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["analyze", f"ring:{path}"])
    assert code in (0, 2)
    if code == 2:
        lines = err.getvalue().split("\n")
        assert len(lines) == 2 and lines[0].startswith("error:") and lines[1] == ""
    else:
        assert err.getvalue() == "" and out.getvalue()


def test_first_ops_leave_numpy_ma_unimported():
    # Each benchmark pass starts a fresh process, where the lazy import of
    # numpy.ma (pulled in by a plain np.unique) costs more than these ops gain.
    script = (
        "import contextlib, io, sys\n"
        "from fuscat import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['lattice', 'vec:alternating:5', '--format', 'json']),\n"
        "             cli.main(['verify', 'rep:alternating:5', '--format', 'json']),\n"
        "             cli.main(['verify', 'vec:symmetric:4', '--format', 'json'])]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split("\n")[-2] == "[0, 0, 0] False"


@pytest.mark.parametrize("command", ["subcategories", "lattice", "verify"])
def test_enumeration_limit_is_one_line_error(command, capsys, monkeypatch):
    # (Z_2)^7 passes the closure cap of the enumeration; here (Z_2)^3
    # meets a cap of 5 candidates the same way.
    from fuscat import fusion_ring

    monkeypatch.setattr(fusion_ring.enumerate_subcategories, "__defaults__", (5,))
    monkeypatch.setattr(fusion_ring._enumerate, "__defaults__", (5,))
    source = "vec:product:cyclic:2*cyclic:2*cyclic:2"
    code, out, err = run_cli([command, source], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {source}: subcategory enumeration exceeded 5 closure calls\n"


_NUMBERS = (
    st.integers()
    | st.integers(min_value=2**63, max_value=10**40)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300])
)
_SCALARS = st.none() | st.booleans() | _NUMBERS | st.text(max_size=6)
_REPORT_VALUES = st.recursive(
    _SCALARS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=6), children, max_size=4)
        # Lists of equal-length lists of numbers (the [re, im] pairs), some
        # with bools among them.
        | st.integers(0, 3).flatmap(
            lambda k: st.lists(st.lists(_NUMBERS | st.booleans(), min_size=k, max_size=k), max_size=4)
        )
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_REPORT_VALUES)
# Ragged lists of number lists, which must not take the one-template path.
@example([[1, 2], [3]])
@example([[], [1.5]])
@example([[0.5], [1, True]])
def test_report_emitter_matches_json_dumps(value):
    assert cli._dumps(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value", [[np.float64(1.5), 2], {"a": np.float64(-0.0)}, [1, np.int64(2)]], ids=["float64", "float64_in_dict", "int64"]
)
def test_report_emitter_matches_json_dumps_on_numpy_scalars(value):
    try:
        expected = json.dumps(value, indent=2, sort_keys=True)
    except TypeError as exc:
        with pytest.raises(TypeError, match=str(exc)):
            cli._dumps(value)
    else:
        assert cli._dumps(value) == expected
