"""Fundamental tensor, class membership, square norms and the torsion potential."""

import itertools

import numpy as np

from norden import (
    ClassLabel,
    build_context,
    classify,
    compute_nabla_J,
    covariant_derivative,
)
from norden.geometry import metric_trace, q_array, q_from_cyclic_F, twist_arrays
from norden.manifolds import torsion
from norden.tensors import lower, residual, scalar_residual

from test_manifolds import gamma_of


def q_of(m, nJ):
    """The torsion potential, mixed and covariant, as the suite builds it."""
    q_vec = q_array(*twist_arrays(nJ, m.J))
    return q_vec, lower(q_vec, m.metric)


def norms_of(m, nJ):
    """||nabla J||^2 and its associated variant, as the suite computes them."""
    g, g_inv = m.metric, m.metric_inv
    sq = metric_trace(g_inv, nJ, g, nJ)
    return float(sq), float(metric_trace(g_inv, nJ, g @ m.J, nJ))


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
        F = lower(compute_nabla_J(gamma_of(flat4), flat4.J), flat4.metric)
        assert np.max(np.abs(F)) == 0.0

    def test_symmetries_on_every_valid_manifold(self, w3_pool, other_class_6):
        for m in list(w3_pool)[:8] + [other_class_6]:
            F = lower(compute_nabla_J(gamma_of(m), m.J), m.metric)
            assert residual(F, F.transpose(0, 2, 1)) <= 1e-10
            FJJ = np.einsum("iab,aj,bk->ijk", F, m.J, m.J)
            assert residual(F, FJJ) <= 1e-10

    def test_traces_vanish_on_quasi_kahler(self, w3_pool):
        for m in list(w3_pool)[:8]:
            F = lower(compute_nabla_J(gamma_of(m), m.J), m.metric)
            g_inv = np.linalg.inv(m.metric)
            t1 = np.einsum("ij,ijz->z", g_inv, F)
            t2 = np.einsum("ij,aj,iaz->z", g_inv, m.J, F)
            assert np.max(np.abs(t1)) <= 1e-9
            assert np.max(np.abs(t2)) <= 1e-9


class TestClassify:
    def test_flat_is_kahler(self, flat4):
        nJ = compute_nabla_J(gamma_of(flat4), flat4.J)
        cls = classify(lower(nJ, flat4.metric))
        assert cls.label is ClassLabel.KAHLER_W0
        assert cls.f_norm == 0.0
        assert cls.w3_residual == 0.0

    def test_derived_example_is_quasi_kahler(self, two_step_6):
        m = two_step_6
        nJ = compute_nabla_J(gamma_of(m), m.J)
        cls = classify(lower(nJ, m.metric))
        values = build_context(m).values
        assert cls.label is ClassLabel.QUASI_KAHLER_W3
        assert cls.f_norm > 1e-9
        assert cls.w3_residual <= 1e-9
        assert values["EQ_1_13"] <= 1e-9
        assert values["EQ_1_14"] <= 1e-9

    def test_membership_conditions_covanish(self, w3_pool, other_class_4, other_class_6):
        tol = 1e-9
        for m in list(w3_pool)[:8] + [other_class_4, other_class_6]:
            nJ = compute_nabla_J(gamma_of(m), m.J)
            cls = classify(lower(nJ, m.metric))
            values = build_context(m).values
            statuses = {
                cls.w3_residual <= tol,
                values["EQ_1_13"] <= tol,
                values["EQ_1_14"] <= tol,
            }
            assert len(statuses) == 1, f"equivalent conditions disagree: {cls}, {values}"

    def test_rejection_sample_is_other(self, other_class_6):
        m = other_class_6
        nJ = compute_nabla_J(gamma_of(m), m.J)
        cls = classify(lower(nJ, m.metric))
        assert cls.label is ClassLabel.OTHER
        assert cls.w3_residual > 1e-9


class TestSquareNorms:
    def test_flat_zero(self, flat4):
        nJ = compute_nabla_J(gamma_of(flat4), flat4.J)
        assert norms_of(flat4, nJ) == (0.0, 0.0)

    def test_cross_form_identity(self, w3_pool):
        for m in list(w3_pool)[:8]:
            nJ = compute_nabla_J(gamma_of(m), m.J)
            sq, _ = norms_of(m, nJ)
            cross = -2 * metric_trace(m.metric_inv, nJ, m.metric, nJ.swapaxes(1, 2))
            assert scalar_residual(sq, float(cross)) <= 1e-9

    def test_associated_norm_vanishes_on_class(self, w3_pool):
        for m in list(w3_pool)[:8]:
            nJ = compute_nabla_J(gamma_of(m), m.J)
            _, assoc = norms_of(m, nJ)
            assert scalar_residual(assoc, 0.0) <= 1e-9

    def test_trace_consistency_of_adopted_definition(self, two_step_6, generic_w3_4):
        """The two intermediate scalar expressions that motivated the adopted
        associated-norm definition are mutually consistent only if the
        associated norm vanishes; both must reproduce tau(P)."""
        from norden import tensor_P

        for m in (two_step_6, generic_w3_4):
            gamma = gamma_of(m)
            nJ = compute_nabla_J(gamma, m.J)
            sq, assoc = norms_of(m, nJ)
            q_vec, _ = q_of(m, nJ)
            from norden import metric_pairing, ricci_and_scalars

            P = tensor_P(metric_pairing(q_vec, q_vec, m.metric))
            tau_P, _ = ricci_and_scalars(P, m.metric_inv, m.J)
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
            alt = q_from_cyclic_F(lower(nJ, m.metric), m.J)
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
        """Off the class the quarter-combination is not skew: its covariant
        form shows a genuine symmetry defect."""
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
            dg = covariant_derivative(gamma_p, m.metric)
            assert np.max(np.abs(dg)) <= 1e-9
            nJp = compute_nabla_J(gamma_p, m.J)
            assert np.max(np.abs(nJp)) <= 1e-9

    def test_torsion_is_twice_potential(self, w3_pool):
        for m in list(w3_pool)[:8]:
            gamma = gamma_of(m)
            q_vec, _ = q_of(m, compute_nabla_J(gamma, m.J))
            gamma_p = gamma + q_vec
            T = torsion(gamma_p, m.structure_constants)
            assert residual(T, 2.0 * q_vec) <= 1e-10
