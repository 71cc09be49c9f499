"""Manifold validation, the Levi-Civita connection and covariant derivatives."""

import itertools

import numpy as np
import pytest

from norden import (
    DenseTensor,
    LieFrameManifold,
    canonical_norden_pair,
    covariant_derivative,
    levi_civita,
    validate_manifold,
)
from norden.tensors import residual


def connection_checks(m, conn):
    """Residuals of metric compatibility and torsion-freeness for `conn`."""
    C, g, gamma = m.structure_constants, m.metric, conn.gamma
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


class TestLeviCivita:
    def test_flat_connection_vanishes(self, flat4):
        conn = levi_civita(flat4)
        assert np.max(np.abs(conn.gamma)) == 0.0

    def test_torsion_and_compatibility(self, w3_pool, other_class_6):
        for m in list(w3_pool)[:8] + [other_class_6]:
            checks = connection_checks(m, levi_civita(m))
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
        gamma = levi_civita(m).gamma
        assert residual(gamma, gamma_oracle) <= 1e-10

    def test_singular_metric_raises(self):
        g, J = canonical_norden_pair(4)
        g = g.copy()
        g[0, 0] = 0.0
        m = LieFrameManifold(
            dim=4, structure_constants=np.zeros((4, 4, 4)), metric=g, J=J
        )
        with pytest.raises(np.linalg.LinAlgError):
            levi_civita(m)


class TestCovariantDerivative:
    def test_metric_is_parallel(self, w3_pool):
        for m in list(w3_pool)[:6]:
            conn = levi_civita(m)
            dg = covariant_derivative(m, conn, DenseTensor.from_array(m.metric))
            assert dg.max_abs() <= 1e-12

    def test_flat_connection_annihilates_everything(self, flat4):
        rng = np.random.default_rng(3)
        conn = levi_civita(flat4)
        t = DenseTensor.from_array(rng.standard_normal((4, 4, 4)))
        assert covariant_derivative(flat4, conn, t).max_abs() == 0.0

    def test_matches_loop_oracle(self, generic_w3_4):
        from norden import compute_F, compute_nabla_J

        m = generic_w3_4
        conn = levi_civita(m)
        F = compute_F(m, compute_nabla_J(m, conn))
        got = covariant_derivative(m, conn, F)
        want = loop_covariant_derivative(conn.gamma, F.components)
        assert np.max(np.abs(got.components - want)) <= 1e-12

    def test_rank0_gives_zero_rank1(self, generic_w3_4):
        conn = levi_civita(generic_w3_4)
        out = covariant_derivative(
            generic_w3_4, conn, DenseTensor.from_array(np.array(2.5))
        )
        assert out.rank == 1 and out.max_abs() == 0.0

    def test_linearity(self, two_step_6):
        rng = np.random.default_rng(4)
        m = two_step_6
        conn = levi_civita(m)
        a = rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6))
        da = covariant_derivative(m, conn, DenseTensor.from_array(a)).components
        db = covariant_derivative(m, conn, DenseTensor.from_array(b)).components
        dab = covariant_derivative(
            m, conn, DenseTensor.from_array(2.0 * a - 3.0 * b)
        ).components
        assert residual(dab, 2.0 * da - 3.0 * db) <= 1e-12
