"""The identity-check catalog, gating, equivalences and report determinism."""

import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from norden import (
    CHECK_CATALOG,
    ClassLabel,
    InvalidManifoldError,
    LieFrameManifold,
    ScalarPanel,
    SearchConfig,
    bundled_manifest_path,
    canonical_norden_pair,
    load_manifest,
    run_suite,
    scalar_residual,
    search_w3_examples,
    suite,
)
from norden.cli import emit_report
from norden.geometry import metric_trace, q_array, twist_arrays
from norden.suite import KAHLER, _non_finite, build_context

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
        assert ids == [c.check_id for c in CHECK_CATALOG]
        assert len(ids) == len(set(ids))

    def test_gates_name_earlier_class_gated_checks(self):
        """Every prerequisite is an earlier check gated on the class alone, so
        once the class is met, its residual within tolerance is its PASS."""
        gate_of = {}
        for defn in CHECK_CATALOG:
            for key in defn.gate or ():
                assert gate_of.get(key) == (), (defn.check_id, key)
            gate_of[defn.check_id] = defn.gate
        structural = {c.check_id for c in CHECK_CATALOG if c.gate is None}
        assert structural == CLASS_INDEPENDENT

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

    def test_report_label(self, flat4):
        """A manifest reports its own id, a plain manifold "manifold", and an
        explicit id wins over both."""
        assert flat4.id == "flat_kahler_4"
        assert run_suite(flat4).manifold_id == "flat_kahler_4"
        plain = LieFrameManifold(
            dim=4,
            structure_constants=flat4.structure_constants,
            metric=flat4.metric,
            J=flat4.J,
        )
        assert run_suite(plain).manifold_id == "manifold"
        assert run_suite(flat4, manifold_id="x").manifold_id == "x"
        assert run_suite(plain, manifold_id="x").manifold_id == "x"

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
        result = run_suite(flat4).check("EQ_1_7")
        assert result.status == "PASS"
        assert result.residual == 0.0

    def test_dim_gate_reason(self, two_step_6):
        result = run_suite(two_step_6).check("EQ_3_12")
        assert result.status == "NA"
        assert result.reason == "dimension != 4"

    def test_prerequisite_reason_names_failing_check(self, generic_w3_4):
        """The Kahler gate names the first of its checks that fails, with its
        residual; on this model only the Bianchi identity of R' can fail."""
        report = run_suite(generic_w3_4)
        assert [report.check(k).status for k in KAHLER] == ["PASS", "FAIL", "PASS"]
        bianchi = report.check("BIANCHI_R_PRIME")
        result = report.check("EQ_2_6")
        assert result.status == "NA"
        expected = f"BIANCHI_R_PRIME fails (residual {bianchi.residual:.2e})"
        assert result.reason == expected == "BIANCHI_R_PRIME fails (residual 1.27e-01)"


class TestNonFinite:
    def test_overflowing_f_is_named_by_its_report_name(self, two_step_6):
        # f_norm is max|F|, which the text report prints as "F max-abs"
        ctx = build_context(two_step_6)
        assert _non_finite(ctx) == []
        ctx.classification = replace(ctx.classification, f_norm=float("inf"))
        [violation] = _non_finite(ctx)
        assert violation.name == "finite value of F max-abs"
        assert violation.residual == float("inf")


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


# ---------------------------------------------------------------------------
# scalar relations as rows over the panel
# ---------------------------------------------------------------------------

SCALAR_RELATIONS = (
    "EQ_1_7", "ASSOC_NORM_ZERO", "EQ_3_1", "EQ_3_2", "EQ_3_3", "EQ_3_4", "EQ_3_5",
    "EQ_3_6", "EQ_3_7", "EQ_3_8", "EQ_3_9_A", "EQ_3_9_B", "EQ_3_10", "EQ_3_11",
)
DIM4_FORMS = ("EQ_3_12", "EQ_3_13", "THM_3_2", "THM_3_3")
# the values of the panel beyond ScalarPanel's fields: the traces that EQ_1_7
# reads as x(-2) and EQ_3_3 as x3
PANEL_TRACES = ("cross_nablaJ", "trace_QQ")
GOLDEN = Path(__file__).resolve().parent / "golden"
POOL = Path(__file__).resolve().parents[1] / "perfbench" / "pool"
BUNDLED = ("flat_kahler_4", "w3_generic_4", "w3_kahler_rprime_4", "w3_two_step_6")


def _rows_of(check_id):
    [defn] = [d for d in CHECK_CATALOG if d.check_id == check_id]
    return defn.rows


def _traces(ctx):
    """The two traces of the panel, and Q, by the kernels `build_context` uses."""
    m, nJ = ctx.m, ctx.nabla_J
    g, g_inv = m.metric, m.metric_inv
    q_vec = q_array(*twist_arrays(nJ, m.J))
    cross = metric_trace(g_inv, nJ, g, nJ.swapaxes(1, 2))
    return cross, metric_trace(g_inv, q_vec, g, q_vec.swapaxes(1, 2))


def _panel(ctx):
    """The panel the rows read: ScalarPanel's fields and the two traces."""
    p = {name: getattr(ctx.panel, name) for name in ScalarPanel.FIELDS}
    p.update(zip(PANEL_TRACES, (float(t) for t in _traces(ctx))))
    return p


def _reference(ctx):
    """The scalar relations as hand-written expressions, the way the suite
    computed them before they were rows: each relation's residual, THM_3_1's
    seven zero-test residuals and the (pi_1 - pi_2, pi_3) coefficients of the
    dim-4 checks."""
    m, nJ, panel = ctx.m, ctx.nabla_J, ctx.panel
    g, J, g_inv = m.metric, m.J, m.metric_inv
    sq = float(metric_trace(g_inv, nJ, g, nJ))
    assoc = float(metric_trace(g_inv, nJ, g @ J, nJ))
    cross_trace, qq_trace = _traces(ctx)
    cross = float(-2 * cross_trace)
    trace_qq = float(3.0 * qq_trace)
    relations = {
        "EQ_1_7": scalar_residual(sq, cross),
        "ASSOC_NORM_ZERO": scalar_residual(assoc, 0.0),
        "EQ_3_1": scalar_residual(3.0 * panel.tau_prime, 3.0 * panel.tau + panel.tau_P),
        "EQ_3_2": scalar_residual(
            3.0 * panel.tau_prime_star, 3.0 * panel.tau_star + panel.tau_star_P
        ),
        "EQ_3_3": scalar_residual(panel.tau_P, trace_qq),
        "EQ_3_4": scalar_residual(panel.tau_P, 9.0 / 8.0 * sq),
        "EQ_3_5": scalar_residual(panel.tau_prime, panel.tau + 3.0 / 8.0 * sq),
        "EQ_3_6": scalar_residual(panel.tau_star_P, -3.0 / 8.0 * sq),
        "EQ_3_7": scalar_residual(panel.tau_prime_star, panel.tau_star - sq / 8.0),
        "EQ_3_8": scalar_residual(
            panel.tau_prime + 3.0 * panel.tau_prime_star,
            panel.tau + 3.0 * panel.tau_star,
        ),
        "EQ_3_9_A": scalar_residual(panel.tau_H, 2.0 * sq),
        "EQ_3_9_B": scalar_residual(panel.tau_star_H, 2.0 * sq),
        "EQ_3_10": scalar_residual(panel.tau_prime, panel.tau + 3.0 / 16.0 * panel.tau_H),
        "EQ_3_11": scalar_residual(panel.tau_prime_star, panel.tau_star - panel.tau_H / 16.0),
    }
    zeros = (
        scalar_residual(sq, 0.0),
        scalar_residual(panel.tau - panel.tau_prime, 0.0),
        scalar_residual(panel.tau_star - panel.tau_prime_star, 0.0),
        scalar_residual(panel.tau_P, 0.0),
        scalar_residual(panel.tau_star_P, 0.0),
        scalar_residual(panel.tau_H, 0.0),
        scalar_residual(panel.tau_star_H, 0.0),
    )
    coefficients = {
        "EQ_3_12": (panel.tau_prime / 8.0, panel.tau_prime_star / 8.0),
        "EQ_3_13": ((panel.tau + 3.0 / 8.0 * sq) / 8.0, (panel.tau_star - sq / 8.0) / 8.0),
        "THM_3_2": (panel.tau / 8.0, panel.tau_star / 8.0),
        "THM_3_3": (
            (16.0 * panel.tau + panel.tau_H) / 128.0,
            (16.0 * panel.tau_star - panel.tau_H) / 128.0,
        ),
    }
    return relations, zeros, coefficients


def _hex(values):
    return [float.hex(float(x)) for x in values]


@pytest.fixture(scope="module")
def row_manifolds():
    """W0/W3 manifolds: the bundled ones, the golden and pool manifests and
    the seed-42 search hits in dims 4, 6 and 8."""
    paths = [bundled_manifest_path(name) for name in BUNDLED]
    paths += sorted(GOLDEN.glob("*.manifest")) + sorted(POOL.glob("*.manifest"))
    pool = [load_manifest(path) for path in paths]
    for dim, n in ((4, 8), (6, 6), (8, 6)):  # as the acceptance tests and benchmark run them
        cfg = SearchConfig(dim=dim, seed=42, max_candidates=40 * n, max_results=n)
        pool += search_w3_examples(cfg)[0]
    contexts = [build_context(m) for m in pool]
    return [ctx for ctx in contexts if ctx.panel is not None]


class TestScalarRows:
    def test_rows_equal_the_hand_written_expressions_bit_for_bit(self, row_manifolds):
        assert len(row_manifolds) >= 30
        assert {ctx.m.dim for ctx in row_manifolds} == {4, 6, 8}
        for ctx in row_manifolds:
            relations, zeros, coefficients = _reference(ctx)
            p = _panel(ctx)
            for key, want in relations.items():
                [row] = _rows_of(key)
                [sides] = suite._rows([row], p)
                got = scalar_residual(*sides)
                assert _hex([got, ctx.values[key]]) == _hex([want, want]), key
            got = [scalar_residual(*sides) for sides in suite._rows(_rows_of("THM_3_1"), p)]
            assert _hex(got) == _hex(zeros)
            iso = zeros[0] <= ctx.tolerance
            disagree = any((z <= ctx.tolerance) != iso for z in zeros[1:])
            assert ctx.values["THM_3_1"] == float(disagree)
            if ctx.m.dim == 4:
                for key, want in coefficients.items():
                    assert _hex(*suite._rows(_rows_of(key), p)) == _hex(want), key
            else:
                assert not set(DIM4_FORMS) & set(ctx.values)

    def test_every_scalar_relation_is_one_row_of_dyadic_coefficients(self, two_step_6):
        ids = {d.check_id for d in CHECK_CATALOG}
        rowed = {d.check_id: d.rows for d in CHECK_CATALOG if d.rows}
        # every row belongs to an existing check, and these are its checks
        assert set(rowed) <= ids
        assert set(rowed) == {*SCALAR_RELATIONS, "THM_3_1", *DIM4_FORMS}
        # one row per scalar relation and per dim-4 form; THM_3_1's zero tests
        # of ||nabla J||^2 and of six scalars
        assert all(len(rowed[key]) == 1 for key in (*SCALAR_RELATIONS, *DIM4_FORMS))
        assert len(rowed["THM_3_1"]) == 7
        assert all(rhs == () for _, rhs in rowed["THM_3_1"])
        assert [d.check_id for d in CHECK_CATALOG if d.dim4] == list(DIM4_FORMS)
        # every row reads existing panel values only, each once, and every
        # coefficient is a dyadic float, made so when the catalog was built
        names = set(ScalarPanel.FIELDS) | set(PANEL_TRACES)
        p = _panel(build_context(two_step_6))
        assert set(p) == names
        for rows in rowed.values():
            for row in rows:
                for form in row:
                    assert isinstance(form, tuple)
                    assert len(dict(form)) == len(form)
                    assert set(dict(form)) <= names
                    for _, c in form:
                        q = Fraction(c).denominator
                        assert type(c) is float and q & (q - 1) == 0, (form, c)
                assert all(math.isfinite(x) for x in suite._rows([row], p)[0])
        # a side is its first product exactly, -0.0 included, as tau'/8 was,
        # and an empty side is 0
        row = ((("tau", 1 / 8),), ())
        assert _hex(*suite._rows([row], {"tau": -0.0})) == _hex([-0.0, 0.0])

    def test_values_keep_their_key_order(self, generic_w3_4, two_step_6, other_class_4):
        # the order in which `_non_finite` names the violations of a report
        w3 = [
            "EQ_1_3_A", "EQ_1_3_B", "R_CURVATURE_LIKE", "R_PAIR_SYMMETRY", "EQ_1_5",
            "EQ_1_4", "EQ_1_13", "EQ_1_14", "EQ_1_7", "ASSOC_NORM_ZERO", "EQ_1_15",
            "EQ_1_19", "Q_SKEW", "Q_TRACE", "F_TRACE_A", "F_TRACE_B", "NATURAL_G",
            "NATURAL_J", "TORSION_2Q", "EQ_2_3", "R_PRIME_1_10", "R_PRIME_1_12",
            "BIANCHI_R_PRIME", "EQ_2_8", "EQ_2_14", "H_1_10", "H_1_12",
            "P_CURVATURE_LIKE", "EQ_2_6", "EQ_2_7", "TORSION_PARALLEL", "EQ_3_1",
            "EQ_3_2", "EQ_3_3", "EQ_3_4", "EQ_3_5", "EQ_3_6", "EQ_3_7", "EQ_3_8",
            "EQ_3_9_A", "EQ_3_9_B", "EQ_3_10", "EQ_3_11", "COR_2_2", "COR_2_4", "THM_3_1",
        ]
        assert list(build_context(generic_w3_4).values) == w3 + list(DIM4_FORMS)
        assert list(build_context(two_step_6).values) == w3
        assert list(build_context(other_class_4).values) == w3[:8]


class TestJParity:
    """(C, g, -J) is a Norden structure of the same class: it keeps every
    verdict and the J-even scalars, and negates the J-odd ones."""

    EVEN = ("tau", "tau_prime", "tau_P", "tau_H", "sq_norm_nablaJ")
    ODD = ("tau_star", "tau_prime_star", "tau_star_P", "tau_star_H", "assoc_sq_norm_nablaJ")

    def test_minus_J_keeps_verdicts_and_flips_the_starred_scalars(self):
        assert set(self.EVEN + self.ODD) == set(ScalarPanel.FIELDS)
        paths = [bundled_manifest_path(name) for name in BUNDLED]
        paths += sorted(POOL.glob("*.manifest"))
        assert len(paths) == 15
        for path in paths:
            m = load_manifest(path)
            minus = LieFrameManifold(
                dim=m.dim, structure_constants=m.structure_constants, metric=m.metric, J=-m.J
            )
            report, flipped = run_suite(m), run_suite(minus)
            assert flipped.class_label.label is report.class_label.label, path.stem
            assert [c[:2] + c[3:] for c in flipped.checks] == [
                c[:2] + c[3:] for c in report.checks
            ], path.stem
            panel, flipped_panel = report.scalar_panel, flipped.scalar_panel
            # bit for bit; + 0.0 folds a zero's sign, which a sum need not keep
            for name in self.EVEN:
                want = getattr(panel, name)
                assert _hex([getattr(flipped_panel, name) + 0.0]) == _hex([want + 0.0]), name
            for name in self.ODD:
                want = -getattr(panel, name)
                assert _hex([getattr(flipped_panel, name) + 0.0]) == _hex([want + 0.0]), name
