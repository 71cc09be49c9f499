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
    covariant_derivative,
    square_norms,
)
from norden.geometry import q_from_cyclic_F, sq_norm_cross_form
from norden.manifolds import torsion
from norden.tensors import residual, scalar_residual

from test_manifolds import gamma_of


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
        nJ = compute_nabla_J(gamma_of(flat4), flat4.J)
        assert np.max(np.abs(nJ)) == 0.0

    def test_matches_loop_oracle(self, generic_w3_4):
        m = generic_w3_4
        gamma = gamma_of(m)
        got = compute_nabla_J(gamma, m.J)
        assert np.max(np.abs(got - loop_nabla_J(gamma, m.J))) <= 1e-12


class TestFundamentalTensor:
    def test_flat_vanishes(self, flat4):
        F = compute_F(flat4, compute_nabla_J(gamma_of(flat4), flat4.J))
        assert np.max(np.abs(F)) == 0.0

    def test_symmetries_on_every_valid_manifold(self, w3_pool, other_class_6):
        for m in list(w3_pool)[:8] + [other_class_6]:
            F = compute_F(m, compute_nabla_J(gamma_of(m), m.J))
            assert residual(F, F.transpose(0, 2, 1)) <= 1e-10
            FJJ = np.einsum("iab,aj,bk->ijk", F, m.J, m.J)
            assert residual(F, FJJ) <= 1e-10

    def test_traces_vanish_on_quasi_kahler(self, w3_pool):
        for m in list(w3_pool)[:8]:
            F = compute_F(m, compute_nabla_J(gamma_of(m), m.J))
            g_inv = np.linalg.inv(m.metric)
            t1 = np.einsum("ij,ijz->z", g_inv, F)
            t2 = np.einsum("ij,aj,iaz->z", g_inv, m.J, F)
            assert np.max(np.abs(t1)) <= 1e-9
            assert np.max(np.abs(t2)) <= 1e-9


class TestClassify:
    def test_flat_is_kahler(self, flat4):
        nJ = compute_nabla_J(gamma_of(flat4), flat4.J)
        cls = classify(flat4, compute_F(flat4, nJ), nJ)
        assert cls.label is ClassLabel.KAHLER_W0
        assert cls.f_norm == 0.0
        assert cls.w3_residual == 0.0

    def test_derived_example_is_quasi_kahler(self, two_step_6):
        m = two_step_6
        nJ = compute_nabla_J(gamma_of(m), m.J)
        cls = classify(m, compute_F(m, nJ), nJ)
        assert cls.label is ClassLabel.QUASI_KAHLER_W3
        assert cls.f_norm > 1e-9
        assert cls.w3_residual <= 1e-9
        assert cls.w3_j_residual <= 1e-9
        assert cls.w3_defect_residual <= 1e-9

    def test_membership_conditions_covanish(self, w3_pool, other_class_4, other_class_6):
        tol = 1e-9
        for m in list(w3_pool)[:8] + [other_class_4, other_class_6]:
            nJ = compute_nabla_J(gamma_of(m), m.J)
            cls = classify(m, compute_F(m, nJ), nJ)
            statuses = {
                cls.w3_residual <= tol,
                cls.w3_j_residual <= tol,
                cls.w3_defect_residual <= tol,
            }
            assert len(statuses) == 1, f"equivalent conditions disagree: {cls}"

    def test_rejection_sample_is_other(self, other_class_6):
        m = other_class_6
        nJ = compute_nabla_J(gamma_of(m), m.J)
        cls = classify(m, compute_F(m, nJ), nJ)
        assert cls.label is ClassLabel.OTHER
        assert cls.w3_residual > 1e-9


class TestSquareNorms:
    def test_flat_zero(self, flat4):
        nJ = compute_nabla_J(gamma_of(flat4), flat4.J)
        assert square_norms(flat4, nJ) == (0.0, 0.0)

    def test_cross_form_identity(self, w3_pool):
        for m in list(w3_pool)[:8]:
            nJ = compute_nabla_J(gamma_of(m), m.J)
            sq, _ = square_norms(m, nJ)
            assert scalar_residual(sq, sq_norm_cross_form(m, nJ)) <= 1e-9

    def test_associated_norm_vanishes_on_class(self, w3_pool):
        for m in list(w3_pool)[:8]:
            nJ = compute_nabla_J(gamma_of(m), m.J)
            _, assoc = square_norms(m, nJ)
            assert scalar_residual(assoc, 0.0) <= 1e-9

    def test_trace_consistency_of_adopted_definition(self, two_step_6, generic_w3_4):
        """The two intermediate scalar expressions that motivated the adopted
        associated-norm definition are mutually consistent only if the
        associated norm vanishes; both must reproduce tau(P)."""
        from norden import tensor_P

        for m in (two_step_6, generic_w3_4):
            gamma = gamma_of(m)
            nJ = compute_nabla_J(gamma, m.J)
            sq, assoc = square_norms(m, nJ)
            q_vec, _ = q_of(m, nJ)
            from norden import metric_pairing, ricci_and_scalars

            tau_P = ricci_and_scalars(m, tensor_P(metric_pairing(m, q_vec, q_vec))).tau
            assert scalar_residual(tau_P, 3.0 / 8.0 * (3.0 * sq + 2.0 * assoc)) <= 1e-9
            assert scalar_residual(tau_P, 3.0 / 8.0 * (3.0 * sq + assoc)) <= 1e-9


class TestTorsionPotential:
    def test_flat_zero(self, flat4):
        gamma = gamma_of(flat4)
        q_vec, q_cov = q_of(flat4, compute_nabla_J(gamma, flat4.J))
        assert np.max(np.abs(q_vec)) == 0.0
        assert np.max(np.abs(q_cov)) == 0.0

    def test_two_routes_agree(self, w3_pool):
        for m in list(w3_pool)[:8]:
            gamma = gamma_of(m)
            nJ = compute_nabla_J(gamma, m.J)
            _, q_cov = q_of(m, nJ)
            alt = q_from_cyclic_F(compute_F(m, nJ), m.J)
            assert residual(q_cov, alt) <= 1e-9

    def test_total_skewness_and_trace(self, w3_pool):
        for m in list(w3_pool)[:8]:
            gamma = gamma_of(m)
            q_vec, qc = q_of(m, compute_nabla_J(gamma, m.J))
            assert residual(qc, -qc.transpose(1, 0, 2)) <= 1e-9
            assert residual(qc, -qc.transpose(0, 2, 1)) <= 1e-9
            g_inv = np.linalg.inv(m.metric)
            assert np.max(np.abs(np.einsum("ij,kij->k", g_inv, q_vec))) <= 1e-9

    def test_skewness_fails_off_class(self, other_class_6):
        """Off the class the quarter-combination is not skew; with the class
        gate bypassed the covariant form shows a genuine symmetry defect."""
        m = other_class_6
        gamma = gamma_of(m)
        nJ = compute_nabla_J(gamma, m.J)
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
        nJ = compute_nabla_J(gamma_of(other_class_6), other_class_6.J)
        cls = classify(other_class_6, compute_F(other_class_6, nJ), nJ)
        with pytest.raises(InapplicableClassError):
            compute_Q(other_class_6, nJ, cls)

    def test_lower_raise_roundtrip(self, generic_w3_4):
        m = generic_w3_4
        gamma = gamma_of(m)
        q_vec, q_cov = q_of(m, compute_nabla_J(gamma, m.J))
        g_inv = np.linalg.inv(m.metric)
        raised = np.einsum("km,ijm->kij", g_inv, q_cov)
        assert residual(raised, q_vec) <= 1e-12


class TestConnectionPrime:
    def test_flat_unchanged(self, flat4):
        gamma = gamma_of(flat4)
        q_vec, _ = q_of(flat4, compute_nabla_J(gamma, flat4.J))
        assert np.max(np.abs(gamma + q_vec)) == 0.0

    def test_naturality(self, w3_pool):
        for m in list(w3_pool)[:8]:
            gamma = gamma_of(m)
            q_vec, _ = q_of(m, compute_nabla_J(gamma, m.J))
            gamma_p = gamma + q_vec
            dg = covariant_derivative(m, gamma_p, m.metric)
            assert np.max(np.abs(dg)) <= 1e-9
            nJp = compute_nabla_J(gamma_p, m.J)
            assert np.max(np.abs(nJp)) <= 1e-9

    def test_torsion_is_twice_potential(self, w3_pool):
        for m in list(w3_pool)[:8]:
            gamma = gamma_of(m)
            q_vec, _ = q_of(m, compute_nabla_J(gamma, m.J))
            gamma_p = gamma + q_vec
            T = torsion(m, gamma_p)
            assert residual(T, 2.0 * q_vec) <= 1e-10
