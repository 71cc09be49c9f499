"""Manifest parsing, deterministic serialization and numeric round trips."""

import json

import numpy as np
import pytest

from norden import (
    ManifoldManifest,
    bundled_manifest_path,
    canonical_norden_pair,
    load_manifest,
    run_suite,
    save_manifest,
)
from norden.cli import emit_report, main
from norden.manifests import (
    ManifestFormatError,
    ManifestNotFoundError,
    ManifestShapeError,
    emit_json,
    manifest_to_json,
    parse_manifest,
)


class TestLoadManifest:
    def test_bundled_flat_is_canonical(self):
        manifest = load_manifest(bundled_manifest_path("flat_kahler_4"))
        assert manifest.id == "flat_kahler_4"
        assert manifest.dim == 4
        g, J = canonical_norden_pair(4)
        assert np.array_equal(manifest.metric, g)
        assert np.array_equal(manifest.J, J)
        assert np.max(np.abs(manifest.structure_constants)) == 0.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ManifestNotFoundError):
            load_manifest(tmp_path / "nope.manifest")

    @pytest.mark.parametrize(
        "text", ["{not json", "[" * 990 + "]" * 990], ids=["junk", "nested"]
    )
    def test_malformed_json(self, tmp_path, text):
        path = tmp_path / "bad.manifest"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ManifestFormatError):
            load_manifest(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.manifest"
        path.write_bytes(b'{"id": "caf\xe9"}')
        with pytest.raises(ManifestFormatError, match="not UTF-8"):
            load_manifest(path)

    def test_shape_mismatch(self):
        doc = {
            "id": "broken",
            "dim": 4,
            "structure_constants": np.zeros((4, 4, 4)).tolist(),
            "metric": np.eye(3).tolist(),
            "J": np.eye(4).tolist(),
            "description": "",
        }
        with pytest.raises(ManifestShapeError):
            parse_manifest(json.dumps(doc))

    def test_missing_field(self):
        with pytest.raises(ManifestFormatError, match="missing"):
            parse_manifest(json.dumps({"id": "x", "dim": 4}))

    def test_wrong_types(self):
        with pytest.raises(ManifestFormatError):
            parse_manifest(json.dumps({
                "id": "x", "dim": "four", "structure_constants": [],
                "metric": [], "J": [],
            }))

    @pytest.mark.parametrize("entry", [True, "0", "1e0"])
    def test_non_numeric_entry(self, entry, tmp_path, capsys):
        """A JSON boolean or string in a numeric array would convert to a
        float; it is a format error, and `verify` exits with code 2."""
        path = bundled_manifest_path("flat_kahler_4")
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["metric"][0][0] = entry
        with pytest.raises(ManifestFormatError, match="'metric' has entries that are not"):
            parse_manifest(json.dumps(doc))
        bad = tmp_path / "bad.manifest"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", str(bad)]) == 2
        assert "not numbers" in capsys.readouterr().err

    def test_integer_too_large_for_a_float(self):
        path = bundled_manifest_path("flat_kahler_4")
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["metric"][0][0] = 10**400
        with pytest.raises(ManifestFormatError, match="'metric' is not a numeric array"):
            parse_manifest(json.dumps(doc))


class TestBadManifoldData:
    def test_parse_raises_format_error(self, bad_manifold_doc):
        with pytest.raises(ManifestFormatError, match="^bad manifold data: "):
            parse_manifest(json.dumps(bad_manifold_doc))

    def test_construction_raises_value_error(self, bad_manifold_doc):
        with pytest.raises(ValueError):
            ManifoldManifest(**bad_manifold_doc)


def test_models_compare_and_hash_by_identity():
    path = bundled_manifest_path("flat_kahler_4")
    a, b = load_manifest(path), load_manifest(path)
    assert a == a
    assert a != b
    assert len({a, b}) == 2


class TestSerialization:
    def test_seventeen_digit_round_trip(self):
        rng = np.random.default_rng(77)
        values = list(rng.standard_normal(50)) + [
            0.1, 1.0 / 3.0, -0.0, 1e-300, 1e300, 2.0**-52, np.pi
        ]
        for x in values:
            text = emit_json(float(x))
            back = json.loads(text)
            assert float(back) == float(x) or (x == 0.0 and back == 0.0), (x, text)

    def test_key_order_fixed(self, tmp_path):
        g, J = canonical_norden_pair(4)
        manifest = ManifoldManifest(
            id="order", dim=4,
            structure_constants=np.zeros((4, 4, 4)), metric=g, J=J,
            description="d",
        )
        text = manifest_to_json(manifest)
        keys = [line.split(":")[0].strip().strip('"') for line in text.splitlines()
                if line.startswith('  "')]
        assert keys == ["id", "dim", "structure_constants", "metric", "J", "description"]

    def test_emission_deterministic(self):
        manifest = load_manifest(bundled_manifest_path("w3_generic_4"))
        assert manifest_to_json(manifest) == manifest_to_json(manifest)

    def test_strings_escaped_like_json_dumps(self):
        """Values keep non-ASCII text and keys escape it, as json.dumps would."""
        for s in ("plain", 'quo"te\\', "tab\tnl\n\x01", "Kähler ∇′ 𝔤", ""):
            assert emit_json(s) == json.dumps(s, ensure_ascii=False)
            key_line = emit_json({s: 1}).splitlines()[1]
            assert key_line == "  " + json.dumps(s) + ": 1"

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            emit_json(float("nan"))


class TestRoundTrip:
    def test_save_load_rerun_identical_report(self, tmp_path):
        manifest = load_manifest(bundled_manifest_path("w3_generic_4"))
        report1 = run_suite(manifest)
        path = save_manifest(manifest, tmp_path / "copy.manifest")
        reloaded = load_manifest(path)
        assert np.array_equal(
            reloaded.structure_constants, manifest.structure_constants
        )
        report2 = run_suite(reloaded)
        assert emit_report(report1, "json") == emit_report(report2, "json")

    def test_reemission_byte_identical(self, tmp_path):
        manifest = load_manifest(bundled_manifest_path("w3_kahler_rprime_4"))
        path = save_manifest(manifest, tmp_path / "again.manifest")
        assert path.read_text(encoding="utf-8") == manifest_to_json(
            load_manifest(path)
        )

    def test_report_fields_survive_reparse(self, flat4):
        report = run_suite(flat4, manifold_id="flat_kahler_4")
        doc = json.loads(emit_report(report, "json").decode("utf-8"))
        assert doc["manifold_id"] == "flat_kahler_4"
        assert doc["class"] == "KAHLER_W0"
        assert set(doc["scalars"]) == {
            "tau", "tau_star", "tau_prime", "tau_prime_star", "tau_P",
            "tau_star_P", "tau_H", "tau_star_H", "sq_norm_nablaJ",
            "assoc_sq_norm_nablaJ",
        }
        assert len(doc["checks"]) == len(report.checks)
        for item in doc["checks"]:
            assert set(item) == {"id", "anchor", "residual", "tolerance", "status"}
