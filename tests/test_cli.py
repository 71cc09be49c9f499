"""CLI behavior: exit codes, formats, env overrides, search output files."""

import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from norden import (
    bundled_manifest_path,
    canonical_norden_pair,
    load_manifest,
    run_suite,
)
from norden.cli import TEXT, _resolve_tolerance, build_parser, emit_report, main
from norden.manifests import ManifoldManifest, save_manifest


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_input_error(out, err):
    """Nothing on stdout and one `error:` line on stderr."""
    assert out == ""
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1


class TestVerify:
    def test_flat_exits_zero_no_fail_lines(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", str(bundled_manifest_path("flat_kahler_4"))
        )
        assert code == 0
        assert "class: KAHLER_W0" in out
        assert "\n  FAIL" not in out
        assert " 0 fail" in out

    def test_json_format_parses(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            str(bundled_manifest_path("flat_kahler_4")),
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["class"] == "KAHLER_W0"
        assert all(c["status"] in ("PASS", "NA") for c in doc["checks"])

    def test_failing_identities_exit_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", str(bundled_manifest_path("w3_generic_4"))
        )
        assert code == 1
        assert "FAIL" in out

    def test_missing_file_exit_two(self, capsys):
        code, out, err = run_cli(capsys, "verify", "/nonexistent/file.manifest")
        assert code == 2
        assert "not found" in err
        assert_input_error(out, err)

    def test_invalid_manifold_exit_two(self, capsys, tmp_path):
        _, J = canonical_norden_pair(4)
        bad = ManifoldManifest(
            id="bad_norden",
            dim=4,
            structure_constants=np.zeros((4, 4, 4)),
            metric=np.eye(4),
            J=J,
        )
        path = save_manifest(bad, tmp_path / "bad.manifest")
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert "Norden" in err
        assert_input_error(out, err)

    @pytest.mark.parametrize(
        "name, cause",
        [
            # the Jacobi sum overflows to NaN
            ("w3_generic_4", "Jacobi identity (residual nan)"),
            # the Jacobi sum is exactly 0; the overflow first shows up in R
            ("w3_two_step_6", "finite value of R_CURVATURE_LIKE (residual nan)"),
        ],
        ids=["w3_generic_4", "w3_two_step_6"],
    )
    def test_overflowing_brackets_exit_two(self, capsys, tmp_path, name, cause):
        mf = load_manifest(bundled_manifest_path(name))
        big = ManifoldManifest(
            id=f"{name}_1e160",
            dim=mf.dim,
            structure_constants=1e160 * mf.structure_constants,
            metric=mf.metric,
            J=mf.J,
        )
        path = save_manifest(big, tmp_path / "big.manifest")
        code, out, err = run_cli(capsys, "verify", str(path), "--format", "json")
        assert code == 2
        assert out == ""
        assert err.startswith("error: manifold failed validation: ")
        assert err.count("\n") == 1
        assert cause in err

    def test_bad_manifold_data_exit_two(self, capsys, tmp_path, bad_manifold_doc):
        path = tmp_path / "bad.manifest"
        path.write_text(json.dumps(bad_manifold_doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad manifold data: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "text", ["...", "[" * 990 + "]" * 990], ids=["junk", "nested"]
    )
    def test_malformed_manifest_exit_two(self, capsys, tmp_path, text):
        path = tmp_path / "junk.manifest"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert_input_error(out, err)
        assert err.startswith("error: malformed JSON: ")

    def test_non_utf8_manifest_exit_two(self, capsys, tmp_path):
        path = tmp_path / "latin1.manifest"
        path.write_bytes('{"id": "caf\u00e9"}'.encode("latin-1"))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "not UTF-8" in err

    def test_unreadable_manifest_exit_two(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "locked.manifest"
        path.write_text("{}", encoding="utf-8")

        def denied(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_text", denied)
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot read {path}: Permission denied\n"

    @pytest.mark.parametrize(
        "fixture",
        ("flat4", "generic_w3_4", "kahler_rprime_4", "two_step_6", "other_class_6"),
    )
    def test_membership_line_prints_the_reports_residuals(self, fixture, request):
        """The text report's membership line prints max|F| and the residuals
        of EQ_1_4, EQ_1_13 and EQ_1_14 of the same report, as .17g."""
        report = run_suite(request.getfixturevalue(fixture))
        residuals = ", ".join(
            f"{name}={report.check(check_id).residual:.17g}"
            for name, check_id in (
                ("cyclic-F", "EQ_1_4"),
                ("cyclic-F(J.,.,.)", "EQ_1_13"),
                ("nabla-J defect", "EQ_1_14"),
            )
        )
        line = (
            f"membership residuals: F max-abs={report.class_label.f_norm:.17g}, "
            f"{residuals}"
        )
        assert line in emit_report(report, TEXT).decode("utf-8").splitlines()



def _untimed(text):
    """A text report, or a stream of them, without the `time:` lines."""
    return "".join(
        line for line in text.splitlines(keepends=True) if not line.startswith("time: ")
    )


def _json_stream(text):
    """The JSON documents of a stream written one after another."""
    decoder, docs, at = json.JSONDecoder(), [], 0
    while at < len(text):
        doc, at = decoder.raw_decode(text, at)
        docs.append(doc)
        while at < len(text) and text[at].isspace():
            at += 1
    return docs


class TestBatchVerify:
    """`verify PATH [PATH ...]`: each report as a run on its manifest alone
    writes it, in argument order, and the worst exit code of the batch."""

    @pytest.fixture
    def bad(self, tmp_path):
        """A manifest of valid JSON whose pair is not Norden (exit 2)."""
        _, J = canonical_norden_pair(4)
        bad = ManifoldManifest(
            id="bad_norden", dim=4, structure_constants=np.zeros((4, 4, 4)),
            metric=np.eye(4), J=J,
        )
        return str(save_manifest(bad, tmp_path / "bad.manifest"))

    @staticmethod
    def _paths(*names):
        return [str(bundled_manifest_path(name)) for name in names]

    def test_two_manifests_give_the_two_single_runs(self, capsys):
        paths = self._paths("flat_kahler_4", "w3_two_step_6")
        for fmt in ("json", "text"):
            singles = [run_cli(capsys, "verify", p, "--format", fmt) for p in paths]
            code, out, err = run_cli(capsys, "verify", *paths, "--format", fmt)
            assert code == max(c for c, _, _ in singles) == 1
            assert err == ""
            if fmt == "json":
                assert out == "".join(o for _, o, _ in singles)
                assert _json_stream(out) == [json.loads(o) for _, o, _ in singles]
            else:
                assert _untimed(out) == "".join(_untimed(o) for _, o, _ in singles)
                assert out.count("\ntime: ") == 2

    def test_a_directory_expands_in_sorted_order(self, capsys, tmp_path):
        names = ("w3_two_step_6", "flat_kahler_4", "w3_generic_4")
        for stem, name in zip(("b", "a", "c"), names):
            save_manifest(load_manifest(bundled_manifest_path(name)), tmp_path / f"{stem}.manifest")
        (tmp_path / "notes.json").write_text("{}", encoding="utf-8")
        (tmp_path / "sub").mkdir()
        code, out, err = run_cli(capsys, "verify", str(tmp_path), "--format", "json")
        assert (code, err) == (1, "")
        assert [d["manifold_id"] for d in _json_stream(out)] == [
            "flat_kahler_4", "w3_two_step_6", "w3_generic_4"
        ]
        # a directory among files keeps its place in argument order
        first = str(bundled_manifest_path("w3_kahler_rprime_4"))
        code, out, _ = run_cli(capsys, "verify", first, str(tmp_path), "--format", "json")
        assert [d["manifold_id"] for d in _json_stream(out)] == [
            "w3_kahler_rprime_4", "flat_kahler_4", "w3_two_step_6", "w3_generic_4"
        ]

    def test_the_exit_code_is_the_worst_of_the_batch(self, capsys, bad):
        by_code = {0: self._paths("flat_kahler_4")[0], 1: self._paths("w3_generic_4")[0], 2: bad}
        for codes in ((0, 0), (0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1), (1, 2, 0)):
            code, _, err = run_cli(capsys, "verify", *(by_code[c] for c in codes))
            assert code == max(codes), codes
            assert err.count("error: ") == codes.count(2)

    def test_a_bad_manifest_in_a_batch_gives_one_error_line(self, capsys, bad, tmp_path):
        junk = tmp_path / "junk.manifest"
        junk.write_text("...", encoding="utf-8")
        good = self._paths("flat_kahler_4", "w3_two_step_6")
        singles = [run_cli(capsys, "verify", p, "--format", "json")[1] for p in good]
        for middle, cause in ((bad, "manifold failed validation: "), (str(junk), "malformed JSON: ")):
            code, out, err = run_cli(capsys, "verify", good[0], middle, good[1], "--format", "json")
            assert code == 2
            assert out == "".join(singles)
            assert err.startswith(f"error: {middle}: {cause}")
            assert err.count("\n") == 1 and err.endswith("\n")
        # alone, the same manifest's line is as it always was
        code, out, err = run_cli(capsys, "verify", bad)
        assert code == 2
        assert_input_error(out, err)
        assert err.startswith("error: manifold failed validation: ")

    def test_a_directory_without_manifests_exits_two(self, capsys, tmp_path):
        (tmp_path / "notes.json").write_text("{}", encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", str(tmp_path))
        assert code == 2
        assert_input_error(out, err)
        assert str(tmp_path) in err
        flat = self._paths("flat_kahler_4")[0]
        code, out, err = run_cli(capsys, "verify", str(tmp_path), flat, "--format", "json")
        assert code == 2
        assert out == run_cli(capsys, "verify", flat, "--format", "json")[1]
        # the message names the directory, so the line names it once
        assert err == f"error: no *.manifest file in directory {tmp_path}\n"

    def test_a_missing_or_unreadable_file_in_a_batch_is_named_once(self, capsys, tmp_path):
        # messages that name their file get no path prefix in a batch; alone,
        # each line is as it always was
        flat = self._paths("flat_kahler_4")[0]
        single = run_cli(capsys, "verify", flat, "--format", "json")[1]
        binary = tmp_path / "binary.manifest"
        binary.write_bytes(b"\xff\xfe")
        missing = str(tmp_path / "missing.manifest")
        for path, cause in ((missing, "manifest file not found: "), (str(binary), "")):
            alone = run_cli(capsys, "verify", path)
            assert alone[0] == 2 and alone[2].startswith(f"error: {cause}{path}")
            code, out, err = run_cli(capsys, "verify", path, flat, "--format", "json")
            assert (code, out, err) == (2, single, alone[2])
            assert err.count(path) == 1


class TestToleranceResolution:
    """The resolved tolerance is printed on every check of both formats."""

    def assert_every_check(self, capsys, tolerance, *argv):
        path = str(bundled_manifest_path("flat_kahler_4"))
        code, out, _ = run_cli(capsys, "verify", path, "--format", "json", *argv)
        assert code == 0
        checks = json.loads(out)["checks"]
        assert len(checks) > 0
        assert all(c["tolerance"] == tolerance for c in checks)
        code, out, _ = run_cli(capsys, "verify", path, *argv)
        assert code == 0
        lines = out.splitlines()
        summary = next(k for k, line in enumerate(lines) if line.startswith("summary: "))
        lines = lines[lines.index("checks:") + 1 : summary]
        assert len(lines) == len(checks)
        assert all(f"  <=  {tolerance:.1e}  " in line for line in lines)

    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("NORDEN_TOLERANCE", "1e-3")
        self.assert_every_check(capsys, 1e-3)

    def test_flag_wins_over_env(self, capsys, monkeypatch, flat4):
        monkeypatch.setenv("NORDEN_TOLERANCE", "1e-3")
        self.assert_every_check(capsys, 1e-6, "--tolerance", "1e-6")
        assert run_suite(flat4, 1e-6).tolerance == 1e-6

    def test_bad_env_value_exit_two(self, capsys, monkeypatch):
        monkeypatch.setenv("NORDEN_TOLERANCE", "soft")
        code, out, err = run_cli(
            capsys, "verify", str(bundled_manifest_path("flat_kahler_4"))
        )
        assert code == 2
        assert "NORDEN_TOLERANCE" in err
        assert_input_error(out, err)


class TestToleranceRange:
    """A tolerance must be a finite number in (0, 1), from any source."""

    BAD = ("nan", "inf", "-inf", "-1", "0", "1", "2")

    @pytest.mark.parametrize("value", BAD)
    def test_verify_flag_exit_two(self, capsys, value):
        code, out, err = run_cli(
            capsys,
            "verify",
            str(bundled_manifest_path("flat_kahler_4")),
            f"--tolerance={value}",
            "--format",
            "json",
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "(0, 1)" in err

    @pytest.mark.parametrize("value", ("nan", "inf", "-1"))
    def test_env_value_exit_two(self, capsys, monkeypatch, value):
        monkeypatch.setenv("NORDEN_TOLERANCE", value)
        code, out, err = run_cli(
            capsys, "verify", str(bundled_manifest_path("flat_kahler_4"))
        )
        assert code == 2
        assert "NORDEN_TOLERANCE" in err and err.count("\n") == 1
        assert_input_error(out, err)

    @pytest.mark.parametrize("flag", ("--tolerance",))
    @pytest.mark.parametrize("value", ("nan", "inf", "-1"))
    def test_search_exit_two(self, capsys, flag, value):
        code, out, err = run_cli(
            capsys, "search", "--max-candidates", "1", f"{flag}={value}"
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "(0, 1)" in err


class TestDemo:
    def test_demo_runs_flat_example(self, capsys):
        code, out, _ = run_cli(capsys, "demo")
        assert code == 0
        assert "flat_kahler_4" in out


class TestSearchCommand:
    def test_search_writes_reloadable_manifests(self, capsys, tmp_path):
        out_dir = tmp_path / "found"
        code, out, _ = run_cli(
            capsys,
            "search",
            "--dim",
            "4",
            "--seed",
            "42",
            "--max-candidates",
            "500",
            "--max-results",
            "2",
            "--out",
            str(out_dir),
        )
        assert code == 0
        files = sorted(out_dir.glob("*.manifest"))
        assert len(files) >= 1
        manifest = load_manifest(files[0])
        assert manifest.dim == 4

    def test_stats_line_accounts_for_every_candidate(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--dim", "4", "--seed", "201",
            "--max-candidates", "40", "--max-results", "16",
        )
        assert code == 0
        lines = out.splitlines()
        search_line = next(l for l in lines if l.startswith("search:"))
        candidates = int(search_line.split("candidates=")[1].split("/")[0])
        stats_line = next(l for l in lines if l.startswith("stats:"))
        head = stats_line.split("by_ansatz=")[0].split()[1:]
        n = {key: int(value) for key, value in (kv.split("=") for kv in head)}
        failures = ("stalled", "iteration_cap", "collapsed")
        rejections = ("rejected_class", "rejected_jacobi", "rejected_invalid")
        steps = ("gn_iterations", "gn_rounds", "svd_steps")
        assert set(n) == {"converged", "hits", *steps, *failures, *rejections}
        assert candidates == n["converged"] + sum(n[k] for k in failures)
        assert n["converged"] == n["hits"] + sum(n[k] for k in rejections)
        assert n["gn_iterations"] > n["svd_steps"] > 0
        assert 0 < n["gn_rounds"] <= n["gn_iterations"]

    def test_one_hit_search_steps_one_candidate_per_round(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--dim", "4", "--seed", "5", "--max-results", "1",
        )
        assert code == 0
        stats_line = next(l for l in out.splitlines() if l.startswith("stats:"))
        n = dict(kv.split("=") for kv in stats_line.split("by_ansatz=")[0].split()[1:])
        assert int(n["gn_rounds"]) == int(n["gn_iterations"]) > 0

    def test_search_bad_arguments_exit_two(self, capsys):
        code, out, err = run_cli(capsys, "search", "--max-candidates", "0")
        assert code == 2
        assert "max_candidates" in err
        assert_input_error(out, err)

    def test_search_dim_two_exit_two(self, capsys):
        # the dim-2 membership null space is trivial: nothing to search
        code, out, err = run_cli(capsys, "search", "--dim", "2")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "at least 4" in err

    def test_search_negative_seed_exit_two(self, capsys):
        code, out, err = run_cli(capsys, "search", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "seed" in err

    def test_search_out_is_a_file_exit_two_before_searching(self, capsys, tmp_path):
        path = tmp_path / "taken"
        path.write_text("", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "search", "--dim", "6", "--seed", "3", "--out", str(path)
        )
        assert code == 2
        assert out == ""  # no search ran
        assert err.count("\n") == 1 and "not a directory" in err

    def test_search_unwritable_out_exit_two(self, capsys, tmp_path):
        (tmp_path / "taken").write_text("", encoding="utf-8")
        out_dir = tmp_path / "taken" / "found"
        code, out, err = run_cli(
            capsys, "search", "--dim", "6", "--seed", "3",
            "--max-candidates", "60", "--max-results", "1", "--out", str(out_dir),
        )
        assert code == 2
        assert "stats:" in out
        assert err.count("\n") == 1 and err.startswith("error: cannot write to ")

    def test_search_without_outdir_lists_ids(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "search",
            "--dim",
            "6",
            "--seed",
            "3",
            "--max-candidates",
            "60",
            "--max-results",
            "1",
        )
        assert code == 0
        assert "found: w3_d6_seed3" in out


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_usage() -> dict[str, tuple[str, dict[str, str]]]:
    """{subcommand: (positionals, {flag: shown value})} from the first code
    block of README's *Command line*; an indented line continues the one
    above it."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```\n", 2)[1]
    commands = re.sub(r"\n\s+", " ", block).splitlines()
    usage = {}
    for line in commands:
        sub, rest = re.fullmatch(r"norden (\w+) ?(.*)", line).groups()
        positionals = rest.partition("[--")[0].strip()
        flags = dict(re.findall(r"\[(--[\w-]+) ([^\]]+)\]", rest))
        assert rest.count("[--") == len(flags), line
        usage[sub] = (positionals, flags)
    return usage


def test_readme_usage_matches_the_parser(monkeypatch):
    # each option shows its effective default, and its choices default first
    monkeypatch.delenv("NORDEN_TOLERANCE", raising=False)
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    usage = _readme_usage()
    assert sorted(usage) == sorted(subparsers)
    for name, sub in subparsers.items():
        positionals, flags = usage[name]
        shown = " ".join(
            f"{a.metavar} [{a.metavar} ...]" if a.nargs == "+" else a.metavar
            for a in sub._actions if not a.option_strings
        )
        assert positionals == shown, name
        options = {
            a.option_strings[-1]: a for a in sub._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)
        }
        assert sorted(flags) == sorted(options), name
        for flag, value in flags.items():
            action = options[flag]
            if action.choices is not None:
                assert value.split("|") == [action.default] + [
                    c for c in action.choices if c != action.default
                ], (name, flag)
            elif action.dest == "tolerance":
                assert float(value) == _resolve_tolerance(action.default), (name, flag)
            elif action.default is None:
                assert value.isupper(), (name, flag)  # a placeholder: no default
            else:
                assert action.type(value) == action.default, (name, flag)
