import json

import pytest

from fuscat import cli


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

    def test_missing_source(self, capsys):
        code, _, err = run_cli(["verify"], capsys)
        assert code == 2

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

    def test_nonpositive_tolerance_rejected(self, capsys):
        code, _, err = run_cli(["analyze", "rep:cyclic:2", "--abs-tol", "-1"], capsys)
        assert code == 2
