"""Manifold validation, the Levi-Civita connection and covariant derivatives."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from norden import (
    InvalidManifoldError,
    LieFrameManifold,
    canonical_norden_pair,
    covariant_derivative,
    levi_civita,
    run_suite,
    validate_manifold,
)
from norden.manifolds import jacobi_array
from norden.tensors import residual


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


class TestJacobiArray:
    def test_matches_loop_oracle(self):
        C = np.random.default_rng(8).standard_normal((2, 4, 4, 4))
        got = jacobi_array(C)
        want = np.array([loop_jacobi(c.tolist()) for c in C])
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_fraction_brackets_are_exact(self):
        ints = np.random.default_rng(9).integers(-3, 4, (4, 4, 4)).tolist()
        C = [[[Fraction(x, 3) for x in row] for row in M] for M in ints]
        got = jacobi_array(np.array(C, dtype=object))
        assert all(isinstance(x, Fraction) for x in got.flat)
        assert got.tolist() == loop_jacobi(C)


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
