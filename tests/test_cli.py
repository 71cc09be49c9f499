"""CLI behavior: exit codes, formats, env overrides, search output files."""

import json

import numpy as np
import pytest

from norden import bundled_manifest_path, canonical_norden_pair, load_manifest
from norden.cli import main
from norden.manifests import ManifoldManifest, save_manifest


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        code, _, err = run_cli(capsys, "verify", "/nonexistent/file.manifest")
        assert code == 2
        assert "not found" in err

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
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert "Norden" in err

    def test_malformed_manifest_exit_two(self, capsys, tmp_path):
        path = tmp_path / "junk.manifest"
        path.write_text("...", encoding="utf-8")
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 2


class TestToleranceResolution:
    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("NORDEN_TOLERANCE", "1e-3")
        code, out, _ = run_cli(
            capsys,
            "verify",
            str(bundled_manifest_path("flat_kahler_4")),
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["checks"][0]["tolerance"] == 1e-3

    def test_flag_wins_over_env(self, capsys, monkeypatch):
        monkeypatch.setenv("NORDEN_TOLERANCE", "1e-3")
        code, out, _ = run_cli(
            capsys,
            "verify",
            str(bundled_manifest_path("flat_kahler_4")),
            "--tolerance",
            "1e-6",
            "--format",
            "json",
        )
        doc = json.loads(out)
        assert doc["checks"][0]["tolerance"] == 1e-6

    def test_bad_env_value_exit_two(self, capsys, monkeypatch):
        monkeypatch.setenv("NORDEN_TOLERANCE", "soft")
        code, _, err = run_cli(
            capsys, "verify", str(bundled_manifest_path("flat_kahler_4"))
        )
        assert code == 2
        assert "NORDEN_TOLERANCE" in err


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
        code, _, err = run_cli(
            capsys, "verify", str(bundled_manifest_path("flat_kahler_4"))
        )
        assert code == 2
        assert "NORDEN_TOLERANCE" in err and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ("--tolerance", "--jacobi-tolerance"))
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

    def test_search_bad_arguments_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "search", "--max-candidates", "0")
        assert code == 2
        assert "max_candidates" in err

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
