"""Seeded example search: reproducibility, classification of hits, targets."""

import numpy as np
import pytest

from norden import (
    ClassLabel,
    SearchConfig,
    SearchTarget,
    classify,
    compute_F,
    compute_nabla_J,
    levi_civita,
    run_suite,
    search_w3_examples,
    validate_manifold,
)


class TestSearchConfig:
    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError, match="max_candidates"):
            SearchConfig(dim=4, seed=1, max_candidates=0)

    @pytest.mark.parametrize("field", ("tolerance", "jacobi_tolerance"))
    @pytest.mark.parametrize("value", (float("nan"), float("inf"), -1.0, 0.0, 1.0))
    def test_tolerance_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SearchConfig(dim=4, seed=1, **{field: value})

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            SearchConfig(dim=5, seed=1, max_candidates=10)


class TestSearch:
    def test_seeded_reproducibility(self):
        cfg = SearchConfig(dim=4, seed=42, max_candidates=200, max_results=3)
        hits1, _ = search_w3_examples(cfg)
        hits2, _ = search_w3_examples(cfg)
        assert len(hits1) == len(hits2) >= 1
        for a, b in zip(hits1, hits2):
            assert a.id == b.id
            assert np.array_equal(a.structure_constants, b.structure_constants)

    def test_dim4_hits_are_nonflat_quasi_kahler(self):
        cfg = SearchConfig(dim=4, seed=42, max_candidates=500, max_results=4)
        hits, stats = search_w3_examples(cfg)
        assert stats.hits == len(hits) >= 1
        for manifest in hits:
            m = manifest.to_manifold()
            assert validate_manifold(m).ok
            nJ = compute_nabla_J(m, levi_civita(m))
            cls = classify(m, compute_F(m, nJ), nJ)
            assert cls.label is ClassLabel.QUASI_KAHLER_W3
            assert cls.f_norm > 1e-9
            assert np.max(np.abs(m.structure_constants)) == pytest.approx(1.0)

    def test_dim6_uses_two_step_ansatz(self):
        cfg = SearchConfig(dim=6, seed=7, max_candidates=100, max_results=5)
        hits, stats = search_w3_examples(cfg)
        assert len(hits) >= 1
        assert stats.by_ansatz.get("two_step", 0) > 0

    def test_kahler_target_hits_verified_by_suite(self):
        cfg = SearchConfig(
            dim=4,
            seed=11,
            max_candidates=400,
            max_results=2,
            target=SearchTarget.W3_RPRIME_KAHLER,
        )
        hits, _ = search_w3_examples(cfg)
        assert len(hits) >= 1
        for manifest in hits:
            report = run_suite(manifest.to_manifold(), manifold_id=manifest.id)
            assert report.check("BIANCHI_R_PRIME").status == "PASS"
            assert report.check("EQ_2_8").status == "PASS"
            assert report.check("EQ_2_14").status == "PASS"
            assert report.class_label.label is ClassLabel.QUASI_KAHLER_W3

    def test_empty_result_is_not_an_error(self):
        # a single candidate attempt on the Kahler target routinely misses
        cfg = SearchConfig(
            dim=6,
            seed=1,
            max_candidates=1,
            max_results=1,
            target=SearchTarget.W3_RPRIME_KAHLER,
        )
        hits, stats = search_w3_examples(cfg)
        assert stats.candidates == 1
        assert isinstance(hits, list)

    def test_hits_reload_identically(self, tmp_path):
        from norden import load_manifest, save_manifest
        from norden.cli import emit_report

        cfg = SearchConfig(dim=4, seed=5, max_candidates=300, max_results=1)
        hits, _ = search_w3_examples(cfg)
        assert hits
        manifest = hits[0]
        report1 = run_suite(manifest.to_manifold(), manifold_id=manifest.id)
        path = save_manifest(manifest, tmp_path / "hit.manifest")
        reloaded = load_manifest(path)
        report2 = run_suite(reloaded.to_manifold(), manifold_id=reloaded.id)
        assert emit_report(report1, "json") == emit_report(report2, "json")
