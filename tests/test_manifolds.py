"""Manifold validation, the per-pair record, the Levi-Civita connection and
covariant derivatives."""

import dataclasses
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from norden import (
    ClassLabel,
    InvalidManifoldError,
    LieFrameManifold,
    bundled_manifest_path,
    canonical_norden_pair,
    cli,
    covariant_derivative,
    levi_civita,
    load_manifest,
    manifolds,
    pi_forms,
    run_suite,
    save_manifest,
    search,
    validate_manifold,
)
from norden.manifolds import PAIR_RECORDS, jacobi_array, pair_record
from norden.tensors import cyclic_sum3, residual

ROOT = Path(__file__).resolve().parents[1]
POOL = ROOT / "perfbench" / "pool"


def gamma_of(m):
    """Levi-Civita coefficients of a manifold, from its cached g^-1."""
    return levi_civita(m.structure_constants, m.metric, m.metric_inv)


def connection_checks(m, gamma):
    """Residuals of metric compatibility and torsion-freeness for `gamma`."""
    C, g = m.structure_constants, m.metric
    low = np.einsum("kij,km->ijm", gamma, g)  # g(nabla_i e_j, e_m) indexed [i][j][m]
    return {
        "metric_compatibility": residual(low, -low.transpose(0, 2, 1)),
        "torsion_freeness": residual(gamma - gamma.transpose(0, 2, 1), C),
    }


def loop_covariant_derivative(gamma, arr):
    """Term-by-term loop oracle for the covariant derivative of a covariant tensor."""
    dim = arr.shape[0]
    rank = arr.ndim
    out = np.zeros((dim,) * (rank + 1))
    for full in itertools.product(range(dim), repeat=rank + 1):
        i, rest = full[0], full[1:]
        acc = 0.0
        for s in range(rank):
            for mm in range(dim):
                idx = list(rest)
                idx[s] = mm
                acc -= gamma[mm][i][rest[s]] * arr[tuple(idx)]
        out[full] = acc
    return out


def loop_jacobi(C):
    """Term-by-term loop oracle of the cyclic Jacobi sum, order [p][i][j][l]:
    sum_m C[m][i][j] C[p][m][l] + C[m][j][l] C[p][m][i] + C[m][l][i] C[p][m][j]."""
    d = len(C)
    out = [[[[0] * d for _ in range(d)] for _ in range(d)] for _ in range(d)]
    for p, i, j, l in itertools.product(range(d), repeat=4):
        out[p][i][j][l] = sum(
            C[m][i][j] * C[p][m][l] + C[m][j][l] * C[p][m][i] + C[m][l][i] * C[p][m][j]
            for m in range(d)
        )
    return out


def full_jacobi(C):
    """The Jacobi sum at all d**4 entries, order [p][i][j][l]: the cyclic sum
    in (i, j, l) of the products [i][j][p][l] = sum_m C[m][i][j] C[p][m][l],
    one stacked matmul (ij, m) @ (m, pl), as `jacobi_array` forms them.  The
    reference for its independent entries; leading batch axes are kept."""
    d, lead = C.shape[-1], tuple(range(C.ndim - 3))
    x = C.transpose(lead + (-2, -1, -3)).reshape(C.shape[:-3] + (d * d, d))
    y = C.transpose(lead + (-2, -3, -1)).reshape(C.shape[:-3] + (d, d * d))
    ijpl = (x @ y).reshape(C.shape + (d,))
    return cyclic_sum3(ijpl, (-4, -3, -1)).transpose(lead + (-2, -4, -3, -1))


def independent_entries(full):
    """The entries [..., p, i, j, l] of a Jacobi sum at i < j < l, shape
    (..., d, C(d, 3)), the triples in `itertools.combinations` order."""
    d = full.shape[-1]
    i, j, l = np.array(list(itertools.combinations(range(d), 3)), dtype=int).reshape(-1, 3).T
    return full[..., i, j, l]


def _brackets(rng, shape, antisymmetric):
    C = rng.standard_normal(shape)
    # a - b and b - a round to opposite values: exactly antisymmetric
    return C - C.swapaxes(-2, -1) if antisymmetric else C


class TestJacobiArray:
    def test_matches_loop_oracle(self):
        C = np.random.default_rng(8).standard_normal((2, 4, 4, 4))
        got = jacobi_array(C)
        want = independent_entries(np.array([loop_jacobi(c.tolist()) for c in C]))
        assert got.shape == want.shape == (2, 4, 4)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_fraction_brackets_are_exact(self):
        ints = np.random.default_rng(9).integers(-3, 4, (4, 4, 4)).tolist()
        C = [[[Fraction(x, 3) for x in row] for row in M] for M in ints]
        got = jacobi_array(np.array(C, dtype=object))
        assert all(isinstance(x, Fraction) for x in got.flat)
        want = independent_entries(np.array(loop_jacobi(C), dtype=object))
        assert got.tolist() == want.tolist()
        assert got.tolist() == independent_entries(full_jacobi(np.array(C, dtype=object))).tolist()

    @pytest.mark.parametrize("antisymmetric", [True, False], ids=["antisymmetric", "general"])
    @pytest.mark.parametrize("dim", [2, 4, 6, 8, 10])
    def test_entries_equal_the_full_sum_bit_for_bit(self, dim, antisymmetric):
        rng = np.random.default_rng(10 * dim + antisymmetric)
        for shape in ((dim,) * 3, (3,) + (dim,) * 3, (2, 2) + (dim,) * 3):
            C = _brackets(rng, shape, antisymmetric)
            got, want = jacobi_array(C), independent_entries(full_jacobi(C))
            assert got.shape == shape[:-3] + (dim, math.comb(dim, 3))
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [4, 6, 8, 10])
    def test_max_abs_is_the_full_max_abs_on_random_brackets(self, dim):
        C = _brackets(np.random.default_rng(dim), (20,) + (dim,) * 3, True)
        assert_max_abs_is_the_full_max_abs(C)

    def test_max_abs_is_the_full_max_abs_on_the_pools(self, big_w3_pool):
        """The test pools' hits and the benchmark's frozen ones (dims 4 to 8)."""
        frozen = [load_manifest(p) for p in sorted(POOL.glob("*.manifest"))]
        for dim in (4, 6, 8):
            pool = [m for m in big_w3_pool + frozen if m.dim == dim]
            assert_max_abs_is_the_full_max_abs(np.stack([m.structure_constants for m in pool]))

    def test_below_dimension_three_no_entries_and_residual_zero(self):
        C = np.zeros((2, 2, 2))
        C[0, 0, 1], C[0, 1, 0] = 1.0, -1.0  # [e0, e1] = e0
        assert jacobi_array(C).shape == (2, 0)
        assert manifolds.bracket_residuals(C[None])[1].tolist() == [0.0]


def assert_max_abs_is_the_full_max_abs(C):
    """On exactly antisymmetric brackets the max-abs over the independent
    entries is that over all d**4 entries up to the order of the three
    addends: within 4 ulps of it, or of max|C|**2 where the sum is rounding
    (on Jacobi solutions)."""
    kept = np.abs(jacobi_array(C)).max(axis=(-2, -1))
    full = np.abs(full_jacobi(C)).max(axis=(-4, -3, -2, -1))
    top = np.abs(C).max(axis=(-3, -2, -1))
    assert np.all(kept <= full)
    assert np.all(full - kept <= 4 * np.spacing(np.maximum(full, top**2)))


class TestValidation:
    def test_flat_kahler_ok(self, flat4):
        assert validate_manifold(flat4).ok

    def test_identity_metric_violates_norden(self):
        _, J = canonical_norden_pair(4)
        m = LieFrameManifold(
            dim=4, structure_constants=np.zeros((4, 4, 4)), metric=np.eye(4), J=J
        )
        outcome = validate_manifold(m)
        assert not outcome.ok
        norden = [v for v in outcome.violations if "Norden" in v.name]
        assert len(norden) == 1
        # J^T I J = I vs -I: max deviation 2 over scale 1+1
        assert norden[0].residual == pytest.approx(1.0)

    @pytest.mark.parametrize("dim", [4, 6, 8, 10])
    def test_canonical_pair_validates(self, dim):
        """The search checks only the brackets of its candidates: it relies on
        the canonical pair passing every check that reads (g, J)."""
        g, J = canonical_norden_pair(dim)
        m = LieFrameManifold(
            dim=dim, structure_constants=np.zeros((dim,) * 3), metric=g, J=J
        )
        assert validate_manifold(m).ok

    def test_dimension_two_validates(self):
        """Dimension 2 has no Jacobi entries to judge: [e0, e1] = e0 on the
        canonical pair is a valid manifold of class OTHER."""
        g, J = canonical_norden_pair(2)
        C = np.zeros((2, 2, 2))
        C[0, 0, 1], C[0, 1, 0] = 1.0, -1.0
        m = LieFrameManifold(dim=2, structure_constants=C, metric=g, J=J)
        assert validate_manifold(m).ok
        report = run_suite(m)
        assert report.class_label.label is ClassLabel.OTHER
        assert (report.n_pass, report.n_fail, report.n_na) == (5, 0, 49)

    def test_search_output_validates(self, generic_w3_4, kahler_rprime_4):
        assert validate_manifold(generic_w3_4).ok
        assert validate_manifold(kahler_rprime_4).ok

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            LieFrameManifold(
                dim=3,
                structure_constants=np.zeros((3, 3, 3)),
                metric=np.eye(3),
                J=np.eye(3),
            )

    def test_misshaped_arrays_rejected(self):
        g, J = canonical_norden_pair(4)
        with pytest.raises(ValueError):
            LieFrameManifold(
                dim=4, structure_constants=np.zeros((3, 3, 3)), metric=g, J=J
            )
        with pytest.raises(ValueError):
            LieFrameManifold(
                dim=4, structure_constants=np.zeros((4, 4, 4)), metric=np.eye(3), J=J
            )

    def test_jacobi_violation_reported(self):
        g, J = canonical_norden_pair(4)
        C = np.zeros((4, 4, 4))
        # brackets [e0,e1]=e1, [e0,e2]=e3, [e1,e2]=e0 break Jacobi
        C[1, 0, 1], C[1, 1, 0] = 1.0, -1.0
        C[3, 0, 2], C[3, 2, 0] = 1.0, -1.0
        C[0, 1, 2], C[0, 2, 1] = 1.0, -1.0
        m = LieFrameManifold(dim=4, structure_constants=C, metric=g, J=J)
        outcome = validate_manifold(m)
        assert not outcome.ok
        assert any("Jacobi" in v.name for v in outcome.violations)

    def test_nan_residual_is_a_violation(self, generic_w3_4):
        """Brackets scaled by 1e160 overflow the Jacobi sum to NaN, and NaN
        fails every tolerance comparison."""
        m = generic_w3_4
        big = LieFrameManifold(
            dim=m.dim,
            structure_constants=1e160 * m.structure_constants,
            metric=m.metric,
            J=m.J,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            outcome = validate_manifold(big)
        assert not outcome.ok
        (jacobi,) = [v for v in outcome.violations if "Jacobi" in v.name]
        assert np.isnan(jacobi.residual)

    def test_broken_complex_structure_reported(self):
        g, _ = canonical_norden_pair(4)
        m = LieFrameManifold(
            dim=4, structure_constants=np.zeros((4, 4, 4)), metric=g, J=np.eye(4)
        )
        outcome = validate_manifold(m)
        assert any("J^2" in v.name for v in outcome.violations)

    def test_bracket_antisymmetry_reported(self):
        g, J = canonical_norden_pair(4)
        C = np.zeros((4, 4, 4))
        C[2, 0, 1] = 1.0  # missing the antisymmetric partner
        m = LieFrameManifold(dim=4, structure_constants=C, metric=g, J=J)
        outcome = validate_manifold(m)
        assert any("antisymmetry" in v.name for v in outcome.violations)

    def test_degenerate_metric_reported(self):
        _, J = canonical_norden_pair(4)
        m = LieFrameManifold(
            dim=4,
            structure_constants=np.zeros((4, 4, 4)),
            metric=np.diag([1.0, 1.0, -1.0, 0.0]),
            J=J,
        )
        outcome = validate_manifold(m)
        assert "metric nondegeneracy" in [v.name for v in outcome.violations]
        with pytest.raises(InvalidManifoldError) as raised:
            run_suite(m)
        assert raised.value.outcome == outcome


class TestLeviCivita:
    def test_flat_connection_vanishes(self, flat4):
        assert np.max(np.abs(gamma_of(flat4))) == 0.0

    def test_torsion_and_compatibility(self, w3_pool, other_class_6):
        for m in list(w3_pool)[:8] + [other_class_6]:
            checks = connection_checks(m, gamma_of(m))
            assert checks["torsion_freeness"] <= 1e-10
            assert checks["metric_compatibility"] <= 1e-10

    def test_matches_dense_linear_solve_oracle(self, two_step_6):
        """Independent oracle: solve the full linear system consisting of the
        torsion equations and the metric-compatibility equations for gamma."""
        m = two_step_6
        d = m.dim
        C, g = m.structure_constants, m.metric
        n_unknowns = d**3

        def col(k, i, j):
            return (k * d + i) * d + j

        rows, rhs = [], []
        for k, i, j in itertools.product(range(d), repeat=3):
            if i < j:  # torsion-free: gamma[k][i][j]-gamma[k][j][i] = C[k][i][j]
                row = np.zeros(n_unknowns)
                row[col(k, i, j)] += 1.0
                row[col(k, j, i)] -= 1.0
                rows.append(row)
                rhs.append(C[k, i, j])
        for i, j, k in itertools.product(range(d), repeat=3):
            if j <= k:  # compatibility: g(nabla_i e_j, e_k) + g(e_j, nabla_i e_k) = 0
                row = np.zeros(n_unknowns)
                for mm in range(d):
                    row[col(mm, i, j)] += g[mm, k]
                    row[col(mm, i, k)] += g[mm, j]
                rows.append(row)
                rhs.append(0.0)
        sol, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
        gamma_oracle = sol.reshape(d, d, d)
        gamma = gamma_of(m)
        assert residual(gamma, gamma_oracle) <= 1e-10

    def test_singular_metric_raises(self):
        g, J = canonical_norden_pair(4)
        g = g.copy()
        g[0, 0] = 0.0
        m = LieFrameManifold(
            dim=4, structure_constants=np.zeros((4, 4, 4)), metric=g, J=J
        )
        with pytest.raises(np.linalg.LinAlgError):
            gamma_of(m)

    def test_metric_inverse_is_cached_and_read_only(self, flat4):
        assert flat4.metric_inv is flat4.metric_inv
        with pytest.raises(ValueError):
            flat4.metric_inv[0] = 1.0


class TestCovariantDerivative:
    def test_metric_is_parallel(self, w3_pool):
        for m in list(w3_pool)[:6]:
            dg = covariant_derivative(gamma_of(m), m.metric)
            assert np.max(np.abs(dg)) <= 1e-12

    def test_flat_connection_annihilates_everything(self, flat4):
        rng = np.random.default_rng(3)
        gamma = gamma_of(flat4)
        t = rng.standard_normal((4, 4, 4))
        assert np.max(np.abs(covariant_derivative(gamma, t))) == 0.0

    def test_matches_loop_oracle(self, generic_w3_4):
        from norden import compute_nabla_J
        from norden.tensors import lower

        m = generic_w3_4
        gamma = gamma_of(m)
        F = lower(compute_nabla_J(gamma, m.J), m.metric)
        got = covariant_derivative(gamma, F)
        want = loop_covariant_derivative(gamma, F)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_rank0_gives_zero_rank1(self, generic_w3_4):
        gamma = gamma_of(generic_w3_4)
        out = covariant_derivative(gamma, np.array(2.5))
        assert out.ndim == 1 and np.max(np.abs(out)) == 0.0

    def test_linearity(self, two_step_6):
        rng = np.random.default_rng(4)
        m = two_step_6
        gamma = gamma_of(m)
        a = rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6))
        da = covariant_derivative(gamma, a)
        db = covariant_derivative(gamma, b)
        dab = covariant_derivative(gamma, 2.0 * a - 3.0 * b)
        assert residual(dab, 2.0 * da - 3.0 * db) <= 1e-12


class TestPairRecord:
    """One read-only record per pair (g, J), shared by every manifold and by
    the search: its violations, g^-1 and the pi-forms."""

    @staticmethod
    def _report_table_paths(tmp_path, monkeypatch):
        """The manifests of scripts/report_table.py: pool.json's, the other
        bundled ones and the seed-0 class-OTHER draws of verify_pool."""
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        import workloads

        pool = json.loads((POOL / "pool.json").read_text(encoding="utf-8"))
        paths = [bundled_manifest_path(e["bundled"]) if "bundled" in e else POOL / e["file"]
                 for e in pool["manifests"]]
        data = bundled_manifest_path("flat_kahler_4").parent
        paths += sorted(set(data.glob("*.manifest")) - set(paths))
        rng = np.random.default_rng([0, 0])
        for dim in (4, 6, 8):
            for k in range(2):
                other = workloads.other_brackets(rng, dim, f"other_d{dim}_seed0_{k}")
                paths.append(save_manifest(other, tmp_path / f"{other.id}.manifest"))
        return paths

    @staticmethod
    def _verify(capsys, path, fmt):
        """Exit code and stdout of `norden verify PATH --format FMT`, without
        the `time:` line."""
        code = cli.main(["verify", str(path), "--format", fmt])
        out = capsys.readouterr().out
        return code, [line for line in out.splitlines() if not line.startswith("time: ")]

    def test_reports_are_the_same_with_a_cold_and_a_warm_record(
        self, capsys, tmp_path, monkeypatch
    ):
        paths = self._report_table_paths(tmp_path, monkeypatch)
        assert len(paths) == 21
        for path in paths:
            for fmt in ("json", "text"):
                manifolds._pair_record.cache_clear()
                cold = self._verify(capsys, path, fmt)
                assert manifolds._pair_record.cache_info().misses == 1
                warm = self._verify(capsys, path, fmt)
                assert manifolds._pair_record.cache_info().hits >= 1
                assert warm == cold, (path.name, fmt)

    def test_the_oldest_pair_is_evicted_past_the_bound(self):
        g, J = canonical_norden_pair(4)
        metrics = [(k + 1.0) * g for k in range(PAIR_RECORDS + 1)]
        manifolds._pair_record.cache_clear()
        records = [pair_record(gk, J) for gk in metrics]
        assert manifolds._pair_record.cache_info().currsize == PAIR_RECORDS
        # the newest PAIR_RECORDS pairs keep their records; the first does not
        assert all(pair_record(gk, J) is r for gk, r in zip(metrics[1:], records[1:]))
        first = pair_record(metrics[0], J)
        assert first is not records[0]
        assert np.array_equal(first.g, metrics[0])

    def test_stored_arrays_are_read_only(self):
        flat4 = load_manifest(bundled_manifest_path("flat_kahler_4"))
        record = flat4.pair
        assert record is pair_record(flat4.metric, flat4.J)
        assert isinstance(record.violations, tuple)
        for array in (record.g, record.J, record.metric_inv, *record.pi_forms):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.g = np.eye(4)

    def test_a_manifold_holds_its_records_arrays(self):
        """g and J are the record's arrays, over immutable bytes: their write
        flag cannot be set again, and the caller's arrays stay theirs."""
        g, J = canonical_norden_pair(4)
        C = np.zeros((4, 4, 4))
        C[2, 0, 1], C[2, 1, 0] = 1.0, -1.0
        m = LieFrameManifold(dim=4, structure_constants=C, metric=g, J=J)
        assert m.pair is pair_record(g, J)
        assert m.metric is m.pair.g and m.J is m.pair.J
        for array in (m.metric, m.J):
            with pytest.raises(ValueError):
                array.setflags(write=True)
        assert not m.structure_constants.flags.writeable
        kept = [a.copy() for a in (m.structure_constants, m.metric, m.J)]
        for array in (C, g, J):
            array[...] = 7.0
        for array, before in zip((m.structure_constants, m.metric, m.J), kept):
            assert array.tobytes() == before.tobytes()

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("CgJ", "structure_constants contains non-finite entries"),
            ("gJ", "metric contains non-finite entries"),
            ("J", "J contains non-finite entries"),
        ],
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_data_is_named_in_order(self, bad, message, value):
        """C, then the metric, then J; a non-finite pair keeps no record."""
        g, J = canonical_norden_pair(4)
        C = np.zeros((4, 4, 4))
        for name, array in (("C", C), ("g", g), ("J", J)):
            if name in bad:
                array.flat[5] = value
        manifolds._pair_record.cache_clear()
        with pytest.raises(ValueError) as exc:
            LieFrameManifold(dim=4, structure_constants=C, metric=g, J=J)
        assert str(exc.value) == message
        assert manifolds._pair_record.cache_info().currsize == 0
        with pytest.raises(ValueError, match="^metric" if "g" in bad else "^J"):
            pair_record(g, J)
        assert manifolds._pair_record.cache_info().currsize == 0

    def test_every_hit_of_a_search_shares_one_record(self):
        cfg = search.SearchConfig(dim=6, seed=102, max_candidates=240, max_results=6)
        hits, _ = search.search_w3_examples(cfg)
        assert len(hits) == 6
        record = hits[0].pair
        assert record is pair_record(*search._canonical_pair(6)[:2])
        for m in hits:
            assert m.pair is record
            assert m.metric is record.g and m.J is record.J

    def test_one_record_serves_every_reader_of_a_pair(self):
        g, J = canonical_norden_pair(4)
        manifolds._pair_record.cache_clear()
        search._canonical_pair.cache_clear()
        record = pair_record(g, J)
        flat4, generic_w3_4 = (
            load_manifest(bundled_manifest_path(name))
            for name in ("flat_kahler_4", "w3_generic_4")
        )
        assert flat4.metric_inv is generic_w3_4.metric_inv is record.metric_inv
        assert search._canonical_pair(4)[2] is record.metric_inv
        m = LieFrameManifold(dim=4, structure_constants=np.zeros((4, 4, 4)), metric=g, J=J)
        assert m.pair is record
        assert np.array_equal(record.metric_inv, np.linalg.inv(g))
        for got, want in zip(record.pi_forms, pi_forms(g, J)):
            assert np.array_equal(got, want)

    def test_singular_metric_gives_the_same_error(self):
        g, J = canonical_norden_pair(4)
        g[0, 0] = 0.0
        with pytest.raises(np.linalg.LinAlgError) as raw:
            np.linalg.inv(g)
        manifolds._pair_record.cache_clear()
        for _ in ("cold", "warm"):
            m = LieFrameManifold(dim=4, structure_constants=np.zeros((4, 4, 4)), metric=g, J=J)
            with pytest.raises(np.linalg.LinAlgError) as exc:
                m.metric_inv
            assert str(exc.value) == f"metric is singular: {raw.value}"
            assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)
        assert manifolds._pair_record.cache_info().hits == 1

    def test_a_pair_that_is_not_norden_gives_the_same_violations(self):
        g, _ = canonical_norden_pair(4)
        J = np.eye(4)  # J^2 = I, and J^T g J = g
        manifolds._pair_record.cache_clear()
        outcomes = []
        for _ in ("cold", "warm"):
            m = LieFrameManifold(dim=4, structure_constants=np.zeros((4, 4, 4)), metric=g, J=J)
            outcomes.append(validate_manifold(m))
            with pytest.raises(InvalidManifoldError) as exc:
                run_suite(m)
            assert exc.value.outcome == outcomes[-1]
        assert manifolds._pair_record.cache_info().hits == 1
        cold, warm = outcomes
        assert warm == cold
        assert [v.name for v in cold.violations] == [
            "almost complex structure J^2=-I",
            "Norden compatibility J^T g J = -g",
        ]
