"""Curvature tensors, scalar contractions, P, H and the dimension-4 decomposition."""

import itertools

import numpy as np
import pytest

from norden import (
    CurvatureTensor,
    compute_nabla_J,
    connection_prime,
    covariant_derivative,
    kahler_decomposition_dim4,
    levi_civita,
    pi_forms,
    q_pairing,
    reconstruct_R_dim4,
    ricci_and_scalars,
    riemann,
    tensor_H,
    tensor_P,
)
from norden.curvature import curvature_prime_from_correction
from norden.geometry import ScalarPanel
from norden.tensors import DenseTensor, residual, scalar_residual

from test_geometry import q_of


def loop_tau(arr, g_inv):
    """Direct double-contraction oracle for the scalar curvature of a rank-4 tensor."""
    dim = arr.shape[0]
    tau = 0.0
    for i, j, k, s in itertools.product(range(dim), repeat=4):
        tau += g_inv[i][j] * g_inv[k][s] * arr[i][k][s][j]
    return tau


class TestRiemann:
    def test_flat_vanishes(self, flat4):
        R = riemann(flat4, levi_civita(flat4))
        assert R.t.max_abs() == 0.0
        assert R.is_curvature_like

    def test_levi_civita_identities(self, w3_pool, other_class_6):
        for m in list(w3_pool)[:8] + [other_class_6]:
            R = riemann(m, levi_civita(m))
            assert R.antisym_residual <= 1e-10
            assert R.bianchi_residual <= 1e-9
            Rc = R.t.components
            assert residual(Rc, Rc.transpose(2, 3, 0, 1)) <= 1e-9

    def test_skew_torsion_curvature_two_routes(self, w3_pool):
        for m in list(w3_pool)[:8]:
            conn = levi_civita(m)
            nJ = compute_nabla_J(m, conn)
            q_vec, q_cov = q_of(m, nJ)
            R = riemann(m, conn)
            R_prime = riemann(m, connection_prime(conn, q_vec))
            dQ = covariant_derivative(m, conn, q_cov)
            R_prime2 = curvature_prime_from_correction(m, R, dQ, q_pairing(m, q_vec))
            assert residual(R_prime.t.components, R_prime2.t.components) <= 1e-9

    def test_skew_torsion_curvature_structure(self, w3_pool):
        """Both pair antisymmetries and the J-switch property hold for R'
        regardless of whether its first Bianchi identity does."""
        for m in list(w3_pool)[:8]:
            conn = levi_civita(m)
            q_vec, _ = q_of(m, compute_nabla_J(m, conn))
            R_prime = riemann(m, connection_prime(conn, q_vec))
            assert R_prime.antisym_residual <= 1e-9
            assert R_prime.kahler_residual <= 1e-9


class TestRicciScalars:
    def test_zero_tensor(self, flat4):
        ct = CurvatureTensor.from_components(np.zeros((4, 4, 4, 4)), flat4.J)
        sc = ricci_and_scalars(flat4, ct)
        assert sc.tau == sc.tau_star == 0.0
        assert sc.rho.max_abs() == 0.0

    def test_pi1_scalar_curvature_is_12(self, flat4, generic_w3_4):
        for m in (flat4, generic_w3_4):
            pi1, _, _ = pi_forms(m)
            sc = ricci_and_scalars(m, pi1)
            assert sc.tau == pytest.approx(12.0, abs=1e-12)
            oracle = loop_tau(pi1.t.components, np.linalg.inv(m.metric))
            assert sc.tau == pytest.approx(oracle, abs=1e-12)

    def test_tau_matches_loop_oracle(self, two_step_6):
        m = two_step_6
        R = riemann(m, levi_civita(m))
        sc = ricci_and_scalars(m, R)
        assert sc.tau == pytest.approx(loop_tau(R.t.components, np.linalg.inv(m.metric)), abs=1e-10)

    def test_tau_star_variants_agree_for_pair_symmetric(self, w3_pool):
        """The verbatim contraction of rho against J and the trace of the
        associated Ricci tensor coincide for pair-symmetric rank-4 tensors."""
        for m in list(w3_pool)[:6]:
            R = riemann(m, levi_civita(m))
            sc = ricci_and_scalars(m, R)
            g_inv = np.linalg.inv(m.metric)
            rho_star = np.einsum("ij,iabm,mj->ab", g_inv, R.t.components, m.J)
            tau_star_alt = float(np.einsum("ab,ab->", g_inv, rho_star))
            assert scalar_residual(sc.tau_star, tau_star_alt) <= 1e-9


class TestTensorP:
    def test_zero_potential(self, flat4):
        q = DenseTensor.zeros(4, 3)
        P = tensor_P(flat4, q_pairing(flat4, q))
        assert P.t.max_abs() == 0.0

    def test_curvature_like_on_class(self, w3_pool):
        for m in list(w3_pool)[:8]:
            conn = levi_civita(m)
            q_vec, _ = q_of(m, compute_nabla_J(m, conn))
            P = tensor_P(m, q_pairing(m, q_vec))
            assert P.antisym_residual <= 1e-9
            assert P.bianchi_residual <= 1e-9

    def test_tau_P_value(self, w3_pool):
        """tau(P) = (9/8) ||nabla J||^2 holds on every quasi-Kahler sample."""
        from norden import square_norms

        for m in list(w3_pool)[:8]:
            conn = levi_civita(m)
            nJ = compute_nabla_J(m, conn)
            q_vec, _ = q_of(m, nJ)
            sq, _ = square_norms(m, nJ)
            sc = ricci_and_scalars(m, tensor_P(m, q_pairing(m, q_vec)))
            assert scalar_residual(sc.tau, 9.0 / 8.0 * sq) <= 1e-9


class TestTensorH:
    def test_zero_nabla_J(self, flat4):
        H = tensor_H(flat4, DenseTensor.zeros(4, 3))
        assert H.t.max_abs() == 0.0

    def test_structural_properties(self, w3_pool):
        for m in list(w3_pool)[:8]:
            H = tensor_H(m, compute_nabla_J(m, levi_civita(m)))
            assert H.antisym_residual <= 1e-9
            assert H.kahler_residual <= 1e-9

    def test_tau_H_value(self, w3_pool):
        """tau(H) = 2 ||nabla J||^2 on every quasi-Kahler sample (the analogous
        statement for the associated scalar curvature of H is false; see the
        findings section of the README)."""
        from norden import square_norms

        for m in list(w3_pool)[:8]:
            conn = levi_civita(m)
            nJ = compute_nabla_J(m, conn)
            sq, _ = square_norms(m, nJ)
            sc = ricci_and_scalars(m, tensor_H(m, nJ))
            assert scalar_residual(sc.tau, 2.0 * sq) <= 1e-9


class TestPiForms:
    def test_component_example(self, flat4):
        pi1, _, _ = pi_forms(flat4)
        # arguments (e1,e2,e2,e1) with g = diag(1,1,-1,-1):
        # g(y,z)g(x,w) - g(x,z)g(y,w) = g(e2,e2)g(e1,e1) - 0 = 1
        assert pi1.t.components[0, 1, 1, 0] == pytest.approx(1.0)

    def test_kahler_combinations(self, w3_pool, other_class_6):
        for m in list(w3_pool)[:6] + [other_class_6]:
            pi1, pi2, pi3 = pi_forms(m)
            diff = CurvatureTensor.from_components(
                pi1.t.components - pi2.t.components, m.J
            )
            assert diff.is_kahler
            assert diff.kahler_residual <= 1e-10
            assert pi3.is_kahler
            assert pi3.kahler_residual <= 1e-10


class TestDim4Decomposition:
    def test_flat_zero(self, flat4):
        conn = levi_civita(flat4)
        q_vec, _ = q_of(flat4, compute_nabla_J(flat4, conn))
        R_prime = riemann(flat4, connection_prime(conn, q_vec))
        res = kahler_decomposition_dim4(pi_forms(flat4), R_prime, 0.0, 0.0)
        assert res == 0.0

    def test_synthetic_decomposition(self, flat4):
        """R' := 3(pi_1 - pi_2) + 5 pi_3 must reproduce nu' = 3, nu'* = 5."""
        pi1, pi2, pi3 = pi_forms(flat4)
        arr = 3.0 * (pi1.t.components - pi2.t.components) + 5.0 * pi3.t.components
        synth = CurvatureTensor.from_components(arr, flat4.J)
        assert synth.is_kahler
        sc = ricci_and_scalars(flat4, synth)
        assert sc.tau / 8.0 == pytest.approx(3.0, abs=1e-12)
        assert sc.tau_star / 8.0 == pytest.approx(5.0, abs=1e-12)
        res = kahler_decomposition_dim4(pi_forms(flat4), synth, sc.tau, sc.tau_star)
        assert res <= 1e-12

    def test_real_kahler_example(self, kahler_rprime_4):
        m = kahler_rprime_4
        conn = levi_civita(m)
        q_vec, _ = q_of(m, compute_nabla_J(m, conn))
        R_prime = riemann(m, connection_prime(conn, q_vec))
        assert R_prime.is_kahler
        sc = ricci_and_scalars(m, R_prime)
        res = kahler_decomposition_dim4(pi_forms(m), R_prime, sc.tau, sc.tau_star)
        assert res <= 1e-9

    def test_wrong_dimension_rejected(self, two_step_6):
        R_prime = riemann(two_step_6, levi_civita(two_step_6))
        with pytest.raises(ValueError, match="dimension 4"):
            kahler_decomposition_dim4(pi_forms(two_step_6), R_prime, 0.0, 0.0)

    def test_non_kahler_refused_with_diagnostic(self, generic_w3_4):
        m = generic_w3_4
        conn = levi_civita(m)
        q_vec, _ = q_of(m, compute_nabla_J(m, conn))
        R_prime = riemann(m, connection_prime(conn, q_vec))
        assert not R_prime.is_kahler
        with pytest.raises(ValueError, match="bianchi"):
            kahler_decomposition_dim4(pi_forms(m), R_prime, 1.0, 1.0)


class TestReconstruction:
    @staticmethod
    def _panel(m):
        from norden import square_norms

        conn = levi_civita(m)
        nJ = compute_nabla_J(m, conn)
        q_vec, _ = q_of(m, nJ)
        sq, assoc = square_norms(m, nJ)
        R = riemann(m, conn)
        R_prime = riemann(m, connection_prime(conn, q_vec))
        P = tensor_P(m, q_pairing(m, q_vec))
        H = tensor_H(m, nJ)
        sc = {k: ricci_and_scalars(m, v) for k, v in
              (("R", R), ("Rp", R_prime), ("P", P), ("H", H))}
        panel = ScalarPanel(
            tau=sc["R"].tau,
            tau_star=sc["R"].tau_star,
            tau_prime=sc["Rp"].tau,
            tau_prime_star=sc["Rp"].tau_star,
            tau_P=sc["P"].tau,
            tau_star_P=sc["P"].tau_star,
            tau_H=sc["H"].tau,
            tau_star_H=sc["H"].tau_star,
            sq_norm_nablaJ=sq,
            assoc_sq_norm_nablaJ=assoc,
        )
        return panel, P, R

    def test_flat_both_zero(self, flat4):
        panel, P, R = self._panel(flat4)
        r32, r33 = reconstruct_R_dim4(pi_forms(flat4), panel, P, R)
        assert r32 == 0.0
        assert r33 == 0.0

    def test_nonisotropic_kahler_example(self, kahler_rprime_4):
        """With a Kahlerian skew-torsion curvature but a nonzero square norm,
        the isotropy-gated reconstruction must fail (the negative direction of
        its biconditional)."""
        panel, P, R = self._panel(kahler_rprime_4)
        assert abs(panel.sq_norm_nablaJ) > 1e-9
        r32, r33 = reconstruct_R_dim4(pi_forms(kahler_rprime_4), panel, P, R)
        assert r32 > 1e-9

    def test_wrong_dimension_rejected(self, two_step_6):
        panel, P, R = self._panel(two_step_6)
        with pytest.raises(ValueError, match="dimension 4"):
            reconstruct_R_dim4(pi_forms(two_step_6), panel, P, R)


class TestJTwistedCurvatureIdentity:
    def test_holds_with_corrected_sign(self, w3_pool):
        """The cyclic J-twisted curvature combination equals +1 times the
        cyclic Gram term of the symmetrized nabla J (not -1)."""
        from norden.tensors import cyclic_sum3

        for m in list(w3_pool)[:8]:
            conn = levi_civita(m)
            nJ = compute_nabla_J(m, conn).components
            Rc = riemann(m, conn).t.components
            J, g = m.J, m.metric
            S = (
                np.einsum("bj,ck,ibcl->ijkl", J, J, Rc)
                - np.einsum("bj,dl,ibkd->ijkl", J, J, Rc)
                + np.einsum("ai,dl,ajkd->ijkl", J, J, Rc)
                - np.einsum("ai,ck,ajcl->ijkl", J, J, Rc)
            )
            sym = nJ + nJ.transpose(0, 2, 1)
            G = np.einsum("aij,bkl,ab->ijkl", sym, sym, g)
            lhs = cyclic_sum3(DenseTensor.from_array(S)).components
            rhs = cyclic_sum3(DenseTensor.from_array(G)).components
            assert residual(lhs, rhs) <= 1e-9
            if np.max(np.abs(rhs)) > 1e-6:
                assert residual(lhs, -rhs) > 1e-3
