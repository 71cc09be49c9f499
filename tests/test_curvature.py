"""Curvature tensors, scalar contractions, P, H and the dimension-4 decomposition."""

import itertools
from pathlib import Path

import numpy as np
import pytest

from norden import (
    bianchi_residual,
    bundled_manifest_path,
    canonical_norden_pair,
    compute_nabla_J,
    covariant_derivative,
    load_manifest,
    metric_pairing,
    pi_forms,
    ricci_and_scalars,
    riemann,
    symmetry_panel,
    tensor_H,
    tensor_P,
)
from norden.curvature import curvature_prime_from_correction, kahler_form
from norden.geometry import q_array, twist_arrays
from norden.manifolds import jacobi_array, levi_civita
from norden.suite import build_context, run_suite
from norden.tensors import contract, residual, scalar_residual

from test_geometry import norms_of, q_of
from test_manifolds import gamma_of


POOL = Path(__file__).resolve().parents[1] / "perfbench" / "pool"
BUNDLED = ("flat_kahler_4", "w3_generic_4", "w3_kahler_rprime_4", "w3_two_step_6")


def panel_of(L, J):
    """The symmetry panel of the one tensor L, as floats: (antisymmetry,
    Bianchi, Kahler) residuals."""
    sym = symmetry_panel(L[None], J)
    return sym.antisym.item(0), sym.bianchi.item(0), sym.kahler.item(0)


def kahler_defect(L, J):
    """The largest of the three residuals that make L a Kahler tensor."""
    return max(panel_of(L, J))


def reference_panel(L, J):
    """The per-tensor formulas the panel replaces: both pair antisymmetries,
    the first Bianchi identity and L(x,y,Jz,Jw) = -L(x,y,z,w)."""
    antisym = max(
        residual(L, -L.transpose(1, 0, 2, 3)), residual(L, -L.transpose(0, 1, 3, 2))
    )
    return antisym, bianchi_residual(L), residual(J.T @ L @ J, -L)


def curvatures_of(m):
    """[R, R', P, H] of a manifold, as the suite builds them."""
    gamma = gamma_of(m)
    nJ = compute_nabla_J(gamma, m.J)
    q_vec, _ = q_of(m, nJ)
    qq = metric_pairing(q_vec, q_vec, m.metric)
    return [
        riemann(gamma, m.structure_constants, m.metric),
        riemann(gamma + q_vec, m.structure_constants, m.metric),
        tensor_P(qq),
        tensor_H(*twist_arrays(nJ, m.J), m.metric),
    ]


def loop_tau(arr, g_inv):
    """Direct double-contraction oracle for the scalar curvature of a rank-4 tensor."""
    dim = arr.shape[0]
    tau = 0.0
    for i, j, k, s in itertools.product(range(dim), repeat=4):
        tau += g_inv[i][j] * g_inv[k][s] * arr[i][k][s][j]
    return tau


def assert_panel_matches_reference(tensors, J):
    sym = symmetry_panel(np.stack(tensors), J)
    for k, L in enumerate(tensors):
        want = np.array(reference_panel(L, J))
        got = np.array([sym.antisym[k], sym.bianchi[k], sym.kahler[k]])
        assert np.array_equal(got, want, equal_nan=True), (k, got, want)
        assert np.array_equal(sym.top[k], np.abs(L).max(), equal_nan=True)


class TestSymmetryPanel:
    """One call judges a stack of rank-4 tensors bit for bit as the
    per-tensor formulas judge each entry, non-finite entries included."""

    @pytest.mark.parametrize(
        "name", BUNDLED + tuple(sorted(p.stem for p in POOL.glob("*.manifest")))
    )
    def test_curvatures_of_bundled_and_pool_manifests(self, name):
        path = bundled_manifest_path(name) if name in BUNDLED else POOL / f"{name}.manifest"
        m = load_manifest(path)
        assert_panel_matches_reference(curvatures_of(m), m.J)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf, overflow
    @pytest.mark.parametrize("dim", (4, 6))
    def test_random_stacks_with_non_finite_entries(self, dim):
        rng = np.random.default_rng(dim)
        J = canonical_norden_pair(dim)[1]
        for twist in (J, rng.standard_normal((dim, dim))):
            stack = rng.standard_normal((5, *(dim,) * 4))
            stack[1, 0, 1, 2, 3] = np.nan
            stack[2, 1, 0, 3, 2] = np.inf
            stack[3] *= 1e308  # finite, but its sums overflow
            assert_panel_matches_reference(list(stack), twist)
            sym = symmetry_panel(stack, twist)
            for k in (1, 2):
                assert np.isnan([sym.antisym[k], sym.bianchi[k], sym.kahler[k]]).all()
            assert not np.isfinite([sym.antisym[3], sym.bianchi[3], sym.kahler[3]]).any()
            assert np.isfinite([sym.antisym[0], sym.bianchi[0], sym.kahler[0]]).all()


class TestSymmetryResiduals:
    def test_kahler_residual_matches_loop_oracle(self):
        """J^T L J broadcast over the first two slots is L(x,y,Jz,Jw): equal to
        a loop oracle to rounding for any J, and bit for bit for the canonical
        J, whose products each have a single nonzero term."""
        from norden import canonical_norden_pair

        rng = np.random.default_rng(17)
        for dim in (4, 6):
            L = rng.standard_normal((dim,) * 4)
            for J, tol in ((rng.standard_normal((dim, dim)), 1e-13),
                           (canonical_norden_pair(dim)[1], 0.0)):
                twisted = np.zeros_like(L)
                for i, j, k, l in itertools.product(range(dim), repeat=4):
                    twisted[i, j, k, l] = sum(
                        J[c, k] * J[d, l] * L[i, j, c, d]
                        for c, d in itertools.product(range(dim), repeat=2)
                    )
                assert abs(panel_of(L, J)[2] - residual(twisted, -L)) <= tol


class TestRiemann:
    def test_flat_vanishes(self, flat4):
        R = riemann(gamma_of(flat4), flat4.structure_constants, flat4.metric)
        assert np.max(np.abs(R)) == 0.0
        assert max(panel_of(R, flat4.J)[:2]) <= 1e-9

    def test_levi_civita_identities(self, w3_pool, other_class_6):
        for m in list(w3_pool)[:8] + [other_class_6]:
            R = riemann(gamma_of(m), m.structure_constants, m.metric)
            antisym, bianchi, _ = panel_of(R, m.J)
            assert antisym <= 1e-10
            assert bianchi <= 1e-9
            assert residual(R, R.transpose(2, 3, 0, 1)) <= 1e-9

    def test_skew_torsion_curvature_two_routes(self, w3_pool):
        for m in list(w3_pool)[:8]:
            gamma = gamma_of(m)
            nJ = compute_nabla_J(gamma, m.J)
            q_vec, q_cov = q_of(m, nJ)
            R = riemann(gamma, m.structure_constants, m.metric)
            R_prime = riemann(gamma + q_vec, m.structure_constants, m.metric)
            dQ = covariant_derivative(gamma, q_cov)
            qq = metric_pairing(q_vec, q_vec, m.metric)
            R_prime2 = curvature_prime_from_correction(R, dQ, qq)
            assert residual(R_prime, R_prime2) <= 1e-9

    def test_skew_torsion_curvature_structure(self, w3_pool):
        """Both pair antisymmetries and the J-switch property hold for R'
        regardless of whether its first Bianchi identity does."""
        for m in list(w3_pool)[:8]:
            gamma = gamma_of(m)
            q_vec, _ = q_of(m, compute_nabla_J(gamma, m.J))
            R_prime = riemann(gamma + q_vec, m.structure_constants, m.metric)
            antisym, _, kahler = panel_of(R_prime, m.J)
            assert antisym <= 1e-9
            assert kahler <= 1e-9


def reference_scalars(L, g_inv, J):
    """(tau, tau*) of one tensor by the per-tensor formula the stacked call
    replaced: two contractions and one einsum, each to a float."""
    rho = contract(L, 0, 3, g_inv)
    return float(contract(rho, 0, 1, g_inv)), float(np.einsum("ab,am,mb->", g_inv, rho, J))


def assert_scalars_match_entries(stack, g_inv, J):
    got = ricci_and_scalars(stack, g_inv, J)
    assert got.shape == (len(stack), 2)
    for k, L in enumerate(stack):
        alone = ricci_and_scalars(L, g_inv, J)
        assert alone.shape == (2,)
        assert np.array_equal(got[k], alone, equal_nan=True), (k, got[k], alone)
        assert np.array_equal(alone, reference_scalars(L, g_inv, J), equal_nan=True), k


class TestStackedScalars:
    """One call on a stack gives each entry's (tau, tau*) bit for bit,
    non-finite entries included."""

    @pytest.mark.parametrize(
        "name", BUNDLED + tuple(sorted(p.stem for p in POOL.glob("*.manifest")))
    )
    def test_curvatures_of_bundled_and_pool_manifests(self, name):
        path = bundled_manifest_path(name) if name in BUNDLED else POOL / f"{name}.manifest"
        m = load_manifest(path)
        assert_scalars_match_entries(np.stack(curvatures_of(m)), m.metric_inv, m.J)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf
    @pytest.mark.parametrize("dim", (4, 6))
    def test_random_stack_with_non_finite_entries(self, dim):
        rng = np.random.default_rng(dim)
        g, J = canonical_norden_pair(dim)
        stack = rng.standard_normal((4, *(dim,) * 4))
        stack[1, 0, 1, 2, 3] = np.nan
        stack[2, 1, 0, 3, 2] = np.inf
        assert_scalars_match_entries(stack, np.linalg.inv(g), J)
        scalars = ricci_and_scalars(stack, np.linalg.inv(g), J)
        assert np.isnan(scalars[1:3]).all() and np.isfinite(scalars[[0, 3]]).all()


class TestRicciScalars:
    def test_zero_tensor(self, flat4):
        zero = np.zeros((4, 4, 4, 4))
        tau, tau_star = ricci_and_scalars(zero, flat4.metric_inv, flat4.J)
        assert tau == tau_star == 0.0
        assert np.max(np.abs(contract(zero, 0, 3, flat4.metric_inv))) == 0.0

    def test_pi1_scalar_curvature_is_12(self, flat4, generic_w3_4):
        for m in (flat4, generic_w3_4):
            pi1, _, _ = pi_forms(m.metric, m.J)
            tau, _ = ricci_and_scalars(pi1, m.metric_inv, m.J)
            assert tau == pytest.approx(12.0, abs=1e-12)
            oracle = loop_tau(pi1, np.linalg.inv(m.metric))
            assert tau == pytest.approx(oracle, abs=1e-12)

    def test_tau_matches_loop_oracle(self, two_step_6):
        m = two_step_6
        R = riemann(gamma_of(m), m.structure_constants, m.metric)
        tau, _ = ricci_and_scalars(R, m.metric_inv, m.J)
        assert tau == pytest.approx(loop_tau(R, np.linalg.inv(m.metric)), abs=1e-10)

    def test_tau_star_variants_agree_for_pair_symmetric(self, w3_pool):
        """The verbatim contraction of rho against J and the trace of the
        associated Ricci tensor coincide for pair-symmetric rank-4 tensors."""
        for m in list(w3_pool)[:6]:
            R = riemann(gamma_of(m), m.structure_constants, m.metric)
            _, tau_star = ricci_and_scalars(R, m.metric_inv, m.J)
            g_inv = np.linalg.inv(m.metric)
            rho_star = np.einsum("ij,iabm,mj->ab", g_inv, R, m.J)
            tau_star_alt = float(np.einsum("ab,ab->", g_inv, rho_star))
            assert scalar_residual(tau_star, tau_star_alt) <= 1e-9


class TestTensorP:
    def test_zero_potential(self, flat4):
        zero = np.zeros((4, 4, 4))
        P = tensor_P(metric_pairing(zero, zero, flat4.metric))
        assert np.max(np.abs(P)) == 0.0

    def test_curvature_like_on_class(self, w3_pool):
        for m in list(w3_pool)[:8]:
            gamma = gamma_of(m)
            q_vec, _ = q_of(m, compute_nabla_J(gamma, m.J))
            P = tensor_P(metric_pairing(q_vec, q_vec, m.metric))
            antisym, bianchi, _ = panel_of(P, m.J)
            assert antisym <= 1e-9
            assert bianchi <= 1e-9

    def test_tau_P_value(self, w3_pool):
        """tau(P) = (9/8) ||nabla J||^2 holds on every quasi-Kahler sample."""
        for m in list(w3_pool)[:8]:
            gamma = gamma_of(m)
            nJ = compute_nabla_J(gamma, m.J)
            q_vec, _ = q_of(m, nJ)
            sq, _ = norms_of(m, nJ)
            P = tensor_P(metric_pairing(q_vec, q_vec, m.metric))
            tau_P, _ = ricci_and_scalars(P, m.metric_inv, m.J)
            assert scalar_residual(tau_P, 9.0 / 8.0 * sq) <= 1e-9


class TestTensorH:
    def test_zero_nabla_J(self, flat4):
        H = tensor_H(*twist_arrays(np.zeros((4, 4, 4)), flat4.J), flat4.metric)
        assert np.max(np.abs(H)) == 0.0

    def test_structural_properties(self, w3_pool):
        for m in list(w3_pool)[:8]:
            nJ = compute_nabla_J(gamma_of(m), m.J)
            H = tensor_H(*twist_arrays(nJ, m.J), m.metric)
            antisym, _, kahler = panel_of(H, m.J)
            assert antisym <= 1e-9
            assert kahler <= 1e-9

    def test_tau_H_value(self, w3_pool):
        """tau(H) = 2 ||nabla J||^2 on every quasi-Kahler sample (the analogous
        statement for the associated scalar curvature of H is false; see the
        findings section of the README)."""
        for m in list(w3_pool)[:8]:
            gamma = gamma_of(m)
            nJ = compute_nabla_J(gamma, m.J)
            sq, _ = norms_of(m, nJ)
            H = tensor_H(*twist_arrays(nJ, m.J), m.metric)
            tau_H, _ = ricci_and_scalars(H, m.metric_inv, m.J)
            assert scalar_residual(tau_H, 2.0 * sq) <= 1e-9


class TestPiForms:
    def test_component_example(self, flat4):
        pi1, _, _ = pi_forms(flat4.metric, flat4.J)
        # arguments (e1,e2,e2,e1) with g = diag(1,1,-1,-1):
        # g(y,z)g(x,w) - g(x,z)g(y,w) = g(e2,e2)g(e1,e1) - 0 = 1
        assert pi1[0, 1, 1, 0] == pytest.approx(1.0)

    def test_kahler_combinations(self, w3_pool, other_class_6):
        for m in list(w3_pool)[:6] + [other_class_6]:
            pi1, pi2, pi3 = pi_forms(m.metric, m.J)
            assert kahler_defect(pi1 - pi2, m.J) <= 1e-9
            assert panel_of(pi1 - pi2, m.J)[2] <= 1e-10
            assert kahler_defect(pi3, m.J) <= 1e-9
            assert panel_of(pi3, m.J)[2] <= 1e-10


class TestDim4Decomposition:
    def test_flat_zero(self, flat4):
        gamma = gamma_of(flat4)
        q_vec, _ = q_of(flat4, compute_nabla_J(gamma, flat4.J))
        R_prime = riemann(gamma + q_vec, flat4.structure_constants, flat4.metric)
        pis = pi_forms(flat4.metric, flat4.J)
        res = residual(R_prime, kahler_form(pis, 0.0, 0.0))
        assert res == 0.0

    def test_synthetic_decomposition(self, flat4):
        """R' := 3(pi_1 - pi_2) + 5 pi_3 must reproduce nu' = 3, nu'* = 5."""
        pis = pi_forms(flat4.metric, flat4.J)
        pi1, pi2, pi3 = pis
        synth = 3.0 * (pi1 - pi2) + 5.0 * pi3
        assert kahler_defect(synth, flat4.J) <= 1e-9
        tau, tau_star = ricci_and_scalars(synth, flat4.metric_inv, flat4.J)
        assert tau / 8.0 == pytest.approx(3.0, abs=1e-12)
        assert tau_star / 8.0 == pytest.approx(5.0, abs=1e-12)
        res = residual(synth, kahler_form(pis, tau / 8.0, tau_star / 8.0))
        assert res <= 1e-12

    def test_real_kahler_example(self, kahler_rprime_4):
        m = kahler_rprime_4
        gamma = gamma_of(m)
        q_vec, _ = q_of(m, compute_nabla_J(gamma, m.J))
        R_prime = riemann(gamma + q_vec, m.structure_constants, m.metric)
        assert kahler_defect(R_prime, m.J) <= 1e-9
        tau, tau_star = ricci_and_scalars(R_prime, m.metric_inv, m.J)
        pis = pi_forms(m.metric, m.J)
        res = residual(R_prime, kahler_form(pis, tau / 8.0, tau_star / 8.0))
        assert res <= 1e-9


class TestReconstruction:
    """The dimension-4 decomposition of R' and reconstructions of R from
    scalars and P, as the suite states them."""

    def test_flat_both_zero(self, flat4):
        ctx = build_context(flat4)
        assert ctx.values["THM_3_3"] == 0.0
        assert run_suite(flat4).check("THM_3_2").status == "PASS"

    def test_nonisotropic_kahler_example(self, kahler_rprime_4):
        """With a Kahlerian skew-torsion curvature but a nonzero square norm,
        the isotropy-gated reconstruction must fail (the negative direction of
        its biconditional), so THM_3_2 PASSes."""
        ctx = build_context(kahler_rprime_4)
        assert abs(ctx.panel.sq_norm_nablaJ) > 1e-9
        assert run_suite(kahler_rprime_4).check("THM_3_2").status == "PASS"

    def test_wrong_dimension_rejected(self, two_step_6):
        """Outside dimension 4 the decomposition of R' and the reconstructions
        of R are not computed, and their checks are NA."""
        dim4 = ("EQ_3_12", "EQ_3_13", "THM_3_2", "THM_3_3")
        assert set(dim4).isdisjoint(build_context(two_step_6).values)
        report = run_suite(two_step_6)
        for check_id in dim4:
            assert report.check(check_id).status == "NA"
            assert report.check(check_id).reason == "dimension != 4"


class TestJTwistedCurvatureIdentity:
    def test_holds_with_corrected_sign(self, w3_pool):
        """The cyclic J-twisted curvature combination equals +1 times the
        cyclic Gram term of the symmetrized nabla J (not -1)."""
        from norden.tensors import cyclic_sum3

        for m in list(w3_pool)[:8]:
            gamma = gamma_of(m)
            nJ = compute_nabla_J(gamma, m.J)
            Rc = riemann(gamma, m.structure_constants, m.metric)
            J, g = m.J, m.metric
            S = (
                np.einsum("bj,ck,ibcl->ijkl", J, J, Rc)
                - np.einsum("bj,dl,ibkd->ijkl", J, J, Rc)
                + np.einsum("ai,dl,ajkd->ijkl", J, J, Rc)
                - np.einsum("ai,ck,ajcl->ijkl", J, J, Rc)
            )
            sym = nJ + nJ.transpose(0, 2, 1)
            G = np.einsum("aij,bkl,ab->ijkl", sym, sym, g)
            lhs = cyclic_sum3(S)
            rhs = cyclic_sum3(G)
            assert residual(lhs, rhs) <= 1e-9
            if np.max(np.abs(rhs)) > 1e-6:
                assert residual(lhs, -rhs) > 1e-3


class TestBatchAxis:
    def test_batched_kernels_equal_one_call_per_entry(self):
        g, J = canonical_norden_pair(6)
        g_inv = np.linalg.inv(g)
        C = np.random.default_rng(31).standard_normal((3, 6, 6, 6))
        C = C - C.transpose(0, 1, 3, 2)

        def chain(C):
            gamma = levi_civita(C, g, g_inv)
            nJ = compute_nabla_J(gamma, J)
            conn = gamma + q_array(*twist_arrays(nJ, J))
            return gamma, nJ, conn, riemann(conn, C, g), jacobi_array(C)

        batched = chain(C)
        single = [chain(c) for c in C]
        for k, arr in enumerate(batched):
            assert np.array_equal(arr, np.stack([s[k] for s in single]))
