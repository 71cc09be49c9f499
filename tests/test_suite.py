"""The identity-check catalog, gating, equivalences and report determinism."""

import numpy as np
import pytest

from norden import (
    CHECK_IDS,
    ClassLabel,
    InvalidManifoldError,
    LieFrameManifold,
    build_context,
    canonical_norden_pair,
    check_identity,
    run_suite,
)
from norden.cli import emit_report

TOL = 1e-9

CLASS_INDEPENDENT = {
    "EQ_1_3_A",
    "EQ_1_3_B",
    "EQ_1_5",
    "R_CURVATURE_LIKE",
    "R_PAIR_SYMMETRY",
}


class TestRunSuite:
    def test_flat_all_pass_tightly(self, flat4):
        report = run_suite(flat4, manifold_id="flat_kahler_4")
        assert report.class_label.label is ClassLabel.KAHLER_W0
        assert report.n_fail == 0
        for c in report.checks:
            if c.status != "NA":
                assert c.residual <= 1e-12, c.check_id

    def test_catalog_complete_and_unique(self, flat4):
        report = run_suite(flat4)
        ids = [c.check_id for c in report.checks]
        assert ids == list(CHECK_IDS)
        assert len(ids) == len(set(ids))

    def test_quasi_kahler_example_statuses(self, two_step_6):
        """Frozen expected statuses for the exact integer-bracket example:
        unconditional identities PASS, the Kahler-gated ones are NA, and the
        checks known to fail on non-Kahler input FAIL."""
        report = run_suite(two_step_6, manifold_id="w3_two_step_6")
        assert report.class_label.label is ClassLabel.QUASI_KAHLER_W3
        status = {c.check_id: c.status for c in report.checks}
        expected_fail = {
            "BIANCHI_R_PRIME",
            "EQ_2_8",
            "TORSION_PARALLEL",
            "COR_2_4",
            "THM_2_3_REV",
            "EQ_3_6",
            "EQ_3_9_B",
        }
        assert {k for k, v in status.items() if v == "FAIL"} == expected_fail
        for check_id in ("EQ_1_7", "EQ_1_15", "EQ_1_19", "NATURAL_G", "NATURAL_J",
                         "TORSION_2Q", "EQ_2_3", "EQ_3_3", "EQ_3_4", "EQ_3_9_A",
                         "EQ_2_14"):
            assert status[check_id] == "PASS", check_id
        for check_id in ("EQ_3_5", "EQ_3_7", "COR_2_2", "THM_3_1"):
            assert status[check_id] == "NA", check_id

    def test_frozen_scalars_of_integer_example(self, two_step_6):
        """The integer-bracket example has exact rational scalars; the values
        below were frozen from an independent loop-contraction computation."""
        report = run_suite(two_step_6)
        panel = report.scalar_panel
        assert panel.sq_norm_nablaJ == pytest.approx(60.0, abs=1e-10)
        assert panel.assoc_sq_norm_nablaJ == pytest.approx(0.0, abs=1e-10)
        assert panel.tau == pytest.approx(5.0, abs=1e-10)
        assert panel.tau_star == pytest.approx(18.0, abs=1e-10)
        assert panel.tau_prime == pytest.approx(27.5, abs=1e-10)
        assert panel.tau_prime_star == pytest.approx(22.0, abs=1e-10)
        assert panel.tau_P == pytest.approx(67.5, abs=1e-10)
        assert panel.tau_H == pytest.approx(120.0, abs=1e-10)

    def test_other_class_gates_everything_but_structural(self, other_class_6):
        report = run_suite(other_class_6, manifold_id="other")
        assert report.class_label.label is ClassLabel.OTHER
        assert report.scalar_panel is None
        membership = {"EQ_1_4", "EQ_1_13", "EQ_1_14"}
        for c in report.checks:
            if c.check_id in CLASS_INDEPENDENT:
                assert c.status == "PASS", c.check_id
            else:
                assert c.status == "NA", c.check_id
                assert c.reason == "class OTHER"
                if c.check_id in membership:
                    # membership residuals are computable and logged; they
                    # exceed tolerance, which is why the class is OTHER
                    assert c.residual > 1e-9
                else:
                    assert c.residual is None

    def test_invalid_manifold_raises_with_outcome(self):
        _, J = canonical_norden_pair(4)
        bad = LieFrameManifold(
            dim=4, structure_constants=np.zeros((4, 4, 4)), metric=np.eye(4), J=J
        )
        with pytest.raises(InvalidManifoldError) as err:
            run_suite(bad)
        assert not err.value.outcome.ok
        assert any("Norden" in v.name for v in err.value.outcome.violations)

    @pytest.mark.parametrize("tolerance", (float("nan"), float("inf"), -1.0, 0.0, 1.0))
    def test_tolerance_out_of_range_rejected(self, flat4, tolerance):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            run_suite(flat4, tolerance=tolerance)

    def test_gating_soundness(self, w3_pool, other_class_6):
        """No check ever reports PASS or FAIL when its gate is unmet."""
        for m in list(w3_pool)[:10] + [other_class_6]:
            report = run_suite(m)
            status = {c.check_id: c for c in report.checks}
            kahler = status["BIANCHI_R_PRIME"].status == "PASS" and (
                status["R_PRIME_1_10"].status == "PASS"
                and status["R_PRIME_1_12"].status == "PASS"
            )
            for c in report.checks:
                if c.status == "NA":
                    assert c.reason
            if report.class_label.label is ClassLabel.OTHER:
                continue
            for check_id in ("EQ_3_5", "EQ_3_7", "EQ_3_8", "EQ_3_10", "EQ_3_11",
                             "COR_2_2", "THM_3_1", "EQ_3_1", "EQ_3_2"):
                if kahler:
                    assert status[check_id].status in ("PASS", "FAIL")
                else:
                    assert status[check_id].status == "NA"
                    assert status[check_id].residual is not None
            for check_id in ("EQ_3_12", "EQ_3_13", "THM_3_2", "THM_3_3"):
                if m.dim != 4 or not kahler:
                    assert status[check_id].status == "NA"


class TestEquivalences:
    def test_bianchi_eq28_parallel_torsion_covanish(self, big_w3_pool):
        """The first Bianchi identity of R', the 3R' = 3R + P identity and
        parallelism of the torsion potential pass or fail together on every
        sampled manifold; no one-sided passes."""
        for m in big_w3_pool:
            report = run_suite(m)
            trio = [report.check(k) for k in
                    ("BIANCHI_R_PRIME", "EQ_2_8", "TORSION_PARALLEL")]
            statuses = {c.status for c in trio}
            assert len(statuses) == 1, [
                (c.check_id, c.status, c.residual) for c in trio
            ]
            if trio[0].status == "FAIL":
                for c in trio:
                    assert c.residual > TOL

    def test_printed_cyclic_condition_is_vacuous(self, big_w3_pool):
        """The printed cyclic nabla-J condition (EQ_2_14) evaluates to zero on
        every quasi-Kahler sample, including ones whose R' Bianchi identity
        fails, so it cannot characterize the Kahler property; THM_2_3_REV
        documents the broken direction."""
        saw_non_kahler = False
        for m in big_w3_pool:
            report = run_suite(m)
            assert report.check("EQ_2_14").status == "PASS"
            assert report.check("EQ_2_14").residual <= 1e-12
            if report.check("BIANCHI_R_PRIME").status == "FAIL":
                saw_non_kahler = True
                assert report.check("THM_2_3_REV").status == "FAIL"
        assert saw_non_kahler, "pool must contain non-Kahler samples"

    def test_thm_2_1_both_directions(self, big_w3_pool):
        for m in big_w3_pool:
            report = run_suite(m)
            bianchi_ok = report.check("BIANCHI_R_PRIME").status == "PASS"
            fwd = report.check("THM_2_1_FWD")
            rev = report.check("THM_2_1_REV")
            if bianchi_ok:
                assert fwd.status == "PASS"
                assert rev.status == "PASS"
            else:
                assert fwd.status == "NA"
                assert rev.status == "NA"  # EQ_2_8 fails together with Bianchi


class TestCheckIdentity:
    def test_single_check_flat(self, flat4):
        result = check_identity("EQ_1_7", flat4)
        assert result.status == "PASS"
        assert result.residual == 0.0

    def test_reuses_context(self, two_step_6):
        ctx = build_context(two_step_6)
        r1 = check_identity("EQ_3_4", two_step_6, context=ctx)
        r2 = check_identity("EQ_3_4", two_step_6)
        assert r1.residual == r2.residual
        assert r1.status == "PASS"

    def test_dim_gate_reason(self, two_step_6):
        result = check_identity("EQ_3_12", two_step_6)
        assert result.status == "NA"
        assert result.reason == "dimension != 4"

    def test_unknown_id_rejected(self, flat4):
        with pytest.raises(ValueError, match="unknown check id"):
            check_identity("EQ_9_9", flat4)


class TestDeterminism:
    def test_repeated_runs_identical(self, generic_w3_4):
        rep1 = run_suite(generic_w3_4, manifold_id="x")
        rep2 = run_suite(generic_w3_4, manifold_id="x")
        assert emit_report(rep1, "json") == emit_report(rep2, "json")
        text1 = [
            line
            for line in emit_report(rep1, "text").decode().splitlines()
            if not line.startswith("time:")
        ]
        text2 = [
            line
            for line in emit_report(rep2, "text").decode().splitlines()
            if not line.startswith("time:")
        ]
        assert text1 == text2
