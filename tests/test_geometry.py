"""Fundamental tensor, class membership, square norms and the torsion potential."""

import itertools

import numpy as np
import pytest

from norden import (
    ClassLabel,
    InapplicableClassError,
    classify,
    compute_F,
    compute_nabla_J,
    compute_Q,
    connection_prime,
    covariant_derivative,
    levi_civita,
    square_norms,
)
from norden.geometry import q_from_cyclic_F, sq_norm_cross_form
from norden.manifolds import torsion
from norden.tensors import DenseTensor, residual, scalar_residual


def q_of(m, nJ):
    """compute_Q with the classification of the same nabla J."""
    return compute_Q(m, nJ, classify(m, compute_F(m, nJ), nJ))


def loop_nabla_J(gamma, J):
    dim = J.shape[0]
    out = np.zeros((dim,) * 3)
    for k, i, j in itertools.product(range(dim), repeat=3):
        acc = 0.0
        for mm in range(dim):
            acc += gamma[k][i][mm] * J[mm][j] - J[k][mm] * gamma[mm][i][j]
        out[k, i, j] = acc
    return out


class TestNablaJ:
    def test_flat_vanishes(self, flat4):
        nJ = compute_nabla_J(flat4, levi_civita(flat4))
        assert nJ.max_abs() == 0.0

    def test_matches_loop_oracle(self, generic_w3_4):
        m = generic_w3_4
        conn = levi_civita(m)
        got = compute_nabla_J(m, conn)
        assert np.max(np.abs(got.components - loop_nabla_J(conn.gamma, m.J))) <= 1e-12


class TestFundamentalTensor:
    def test_flat_vanishes(self, flat4):
        F = compute_F(flat4, compute_nabla_J(flat4, levi_civita(flat4)))
        assert F.max_abs() == 0.0

    def test_symmetries_on_every_valid_manifold(self, w3_pool, other_class_6):
        for m in list(w3_pool)[:8] + [other_class_6]:
            F = compute_F(m, compute_nabla_J(m, levi_civita(m))).components
            assert residual(F, F.transpose(0, 2, 1)) <= 1e-10
            FJJ = np.einsum("iab,aj,bk->ijk", F, m.J, m.J)
            assert residual(F, FJJ) <= 1e-10

    def test_traces_vanish_on_quasi_kahler(self, w3_pool):
        for m in list(w3_pool)[:8]:
            F = compute_F(m, compute_nabla_J(m, levi_civita(m))).components
            g_inv = np.linalg.inv(m.metric)
            t1 = np.einsum("ij,ijz->z", g_inv, F)
            t2 = np.einsum("ij,aj,iaz->z", g_inv, m.J, F)
            assert np.max(np.abs(t1)) <= 1e-9
            assert np.max(np.abs(t2)) <= 1e-9


class TestClassify:
    def test_flat_is_kahler(self, flat4):
        nJ = compute_nabla_J(flat4, levi_civita(flat4))
        cls = classify(flat4, compute_F(flat4, nJ), nJ)
        assert cls.label is ClassLabel.KAHLER_W0
        assert cls.f_norm == 0.0
        assert cls.w3_residual == 0.0

    def test_derived_example_is_quasi_kahler(self, two_step_6):
        m = two_step_6
        nJ = compute_nabla_J(m, levi_civita(m))
        cls = classify(m, compute_F(m, nJ), nJ)
        assert cls.label is ClassLabel.QUASI_KAHLER_W3
        assert cls.f_norm > 1e-9
        assert cls.w3_residual <= 1e-9
        assert cls.w3_j_residual <= 1e-9
        assert cls.w3_defect_residual <= 1e-9

    def test_membership_conditions_covanish(self, w3_pool, other_class_4, other_class_6):
        tol = 1e-9
        for m in list(w3_pool)[:8] + [other_class_4, other_class_6]:
            nJ = compute_nabla_J(m, levi_civita(m))
            cls = classify(m, compute_F(m, nJ), nJ)
            statuses = {
                cls.w3_residual <= tol,
                cls.w3_j_residual <= tol,
                cls.w3_defect_residual <= tol,
            }
            assert len(statuses) == 1, f"equivalent conditions disagree: {cls}"

    def test_rejection_sample_is_other(self, other_class_6):
        m = other_class_6
        nJ = compute_nabla_J(m, levi_civita(m))
        cls = classify(m, compute_F(m, nJ), nJ)
        assert cls.label is ClassLabel.OTHER
        assert cls.w3_residual > 1e-9


class TestSquareNorms:
    def test_flat_zero(self, flat4):
        nJ = compute_nabla_J(flat4, levi_civita(flat4))
        assert square_norms(flat4, nJ) == (0.0, 0.0)

    def test_cross_form_identity(self, w3_pool):
        for m in list(w3_pool)[:8]:
            nJ = compute_nabla_J(m, levi_civita(m))
            sq, _ = square_norms(m, nJ)
            assert scalar_residual(sq, sq_norm_cross_form(m, nJ)) <= 1e-9

    def test_associated_norm_vanishes_on_class(self, w3_pool):
        for m in list(w3_pool)[:8]:
            nJ = compute_nabla_J(m, levi_civita(m))
            _, assoc = square_norms(m, nJ)
            assert scalar_residual(assoc, 0.0) <= 1e-9

    def test_trace_consistency_of_adopted_definition(self, two_step_6, generic_w3_4):
        """The two intermediate scalar expressions that motivated the adopted
        associated-norm definition are mutually consistent only if the
        associated norm vanishes; both must reproduce tau(P)."""
        from norden import tensor_P

        for m in (two_step_6, generic_w3_4):
            conn = levi_civita(m)
            nJ = compute_nabla_J(m, conn)
            sq, assoc = square_norms(m, nJ)
            q_vec, _ = q_of(m, nJ)
            from norden import q_pairing, ricci_and_scalars

            tau_P = ricci_and_scalars(m, tensor_P(m, q_pairing(m, q_vec))).tau
            assert scalar_residual(tau_P, 3.0 / 8.0 * (3.0 * sq + 2.0 * assoc)) <= 1e-9
            assert scalar_residual(tau_P, 3.0 / 8.0 * (3.0 * sq + assoc)) <= 1e-9


class TestTorsionPotential:
    def test_flat_zero(self, flat4):
        conn = levi_civita(flat4)
        q_vec, q_cov = q_of(flat4, compute_nabla_J(flat4, conn))
        assert q_vec.max_abs() == 0.0
        assert q_cov.max_abs() == 0.0

    def test_two_routes_agree(self, w3_pool):
        for m in list(w3_pool)[:8]:
            conn = levi_civita(m)
            nJ = compute_nabla_J(m, conn)
            _, q_cov = q_of(m, nJ)
            alt = q_from_cyclic_F(m, compute_F(m, nJ))
            assert residual(q_cov.components, alt.components) <= 1e-9

    def test_total_skewness_and_trace(self, w3_pool):
        for m in list(w3_pool)[:8]:
            conn = levi_civita(m)
            q_vec, q_cov = q_of(m, compute_nabla_J(m, conn))
            qc = q_cov.components
            assert residual(qc, -qc.transpose(1, 0, 2)) <= 1e-9
            assert residual(qc, -qc.transpose(0, 2, 1)) <= 1e-9
            g_inv = np.linalg.inv(m.metric)
            assert np.max(np.abs(np.einsum("ij,kij->k", g_inv, q_vec.components))) <= 1e-9

    def test_skewness_fails_off_class(self, other_class_6):
        """Off the class the quarter-combination is not skew; with the class
        gate bypassed the covariant form shows a genuine symmetry defect."""
        m = other_class_6
        conn = levi_civita(m)
        nJ = compute_nabla_J(m, conn).components
        J, g = m.J, m.metric
        q_vec = 0.25 * (
            np.einsum("kia,aj->kij", nJ, J)
            - np.einsum("ai,kaj->kij", J, nJ)
            - 2.0 * np.einsum("kja,ai->kij", nJ, J)
        )
        qc = np.einsum("mij,mk->ijk", q_vec, g)
        skew = max(
            residual(qc, -qc.transpose(1, 0, 2)), residual(qc, -qc.transpose(0, 2, 1))
        )
        assert skew > 1e-9

    def test_refuses_other_class(self, other_class_6):
        nJ = compute_nabla_J(other_class_6, levi_civita(other_class_6))
        cls = classify(other_class_6, compute_F(other_class_6, nJ), nJ)
        with pytest.raises(InapplicableClassError):
            compute_Q(other_class_6, nJ, cls)

    def test_lower_raise_roundtrip(self, generic_w3_4):
        m = generic_w3_4
        conn = levi_civita(m)
        q_vec, q_cov = q_of(m, compute_nabla_J(m, conn))
        g_inv = np.linalg.inv(m.metric)
        raised = np.einsum("km,ijm->kij", g_inv, q_cov.components)
        assert residual(raised, q_vec.components) <= 1e-12


class TestConnectionPrime:
    def test_flat_unchanged(self, flat4):
        conn = levi_civita(flat4)
        q_vec, _ = q_of(flat4, compute_nabla_J(flat4, conn))
        conn_p = connection_prime(conn, q_vec)
        assert np.max(np.abs(conn_p.gamma)) == 0.0

    def test_naturality(self, w3_pool):
        for m in list(w3_pool)[:8]:
            conn = levi_civita(m)
            q_vec, _ = q_of(m, compute_nabla_J(m, conn))
            conn_p = connection_prime(conn, q_vec)
            dg = covariant_derivative(m, conn_p, DenseTensor.from_array(m.metric))
            assert dg.max_abs() <= 1e-9
            nJp = compute_nabla_J(m, conn_p)
            assert nJp.max_abs() <= 1e-9

    def test_torsion_is_twice_potential(self, w3_pool):
        for m in list(w3_pool)[:8]:
            conn = levi_civita(m)
            q_vec, _ = q_of(m, compute_nabla_J(m, conn))
            conn_p = connection_prime(conn, q_vec)
            T = torsion(m, conn_p)
            assert residual(T.components, 2.0 * q_vec.components) <= 1e-10
