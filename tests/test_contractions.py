"""The pairwise contractions of the verify path.

* Against the six-label einsum strings they replaced, on Norden pairs moved
  to a general frame: on the canonical pair every factor of g and J is 0 or
  +-1 and J^T = -J, so a transposed g, g^-1 or J passes every golden report.
* Against the exact loop oracle, which depends on no summation order.
* In exact `Fraction` arithmetic, which the kernel runs when its literals are
  integers.
* A guard that no einsum in the package names more than five index labels:
  numpy evaluates an unoptimised einsum as one loop over every label tuple,
  d^6 of them for six labels.
"""

import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from norden import (
    LieFrameManifold,
    bundled_manifest_path,
    compute_nabla_J,
    cyclic_sum3,
    levi_civita,
    load_manifest,
    metric_pairing,
    residual,
    run_suite,
    square_norms,
    tensor_H,
)
from norden.geometry import (
    metric_trace,
    q_array,
    q_from_cyclic_F,
    sq_norm_cross_form,
    twist_arrays,
)
from norden.suite import build_context
from norden.tensors import lower

from exact_oracle import (
    inverse,
    loop_koszul,
    loop_nabla_J,
    loop_panel,
    loop_Q,
    loop_sq_norm,
    to_fractions,
)

ROOT = Path(__file__).resolve().parents[1]
POOL = ROOT / "perfbench" / "pool"
REL = 1e-12


def _pool_manifold(name: str) -> LieFrameManifold:
    return load_manifest(POOL / f"{name}.manifest").to_manifold()


def _frame_change(m: LieFrameManifold, P: np.ndarray) -> LieFrameManifold:
    """The same Lie algebra and Norden pair in the frame f_a = P[i][a] e_i."""
    Pi = np.linalg.inv(P)
    C = np.einsum("ck,kij,ia,jb->cab", Pi, m.structure_constants, P, P)
    return LieFrameManifold(
        dim=m.dim, structure_constants=C, metric=P.T @ m.metric @ P, J=Pi @ m.J @ P
    )


def _random_frame(dim: int, seed: int) -> np.ndarray:
    """An orthogonal-diagonal-orthogonal product with condition number 10."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    V, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return U @ np.diag(np.geomspace(1.0, 10.0, dim)) @ V.T


@pytest.fixture(scope="module", params=(4, 6, 8))
def general(request):
    """Build context of a quasi-Kahler pool manifold in a general frame."""
    dim = request.param
    m = _pool_manifold(f"w3_d{dim}_seed0_w3_0001")
    m = _frame_change(m, _random_frame(dim, seed=dim))
    assert np.all(np.abs(m.metric) > 1e-3)  # g is dense
    ctx = build_context(m)
    assert ctx.classification.is_w3_or_kahler
    return ctx


def _assert_close(new, old):
    assert np.max(np.abs(new - old)) <= REL * max(1.0, np.max(np.abs(old)))


class TestAgainstSixLabelEinsum:
    def test_metric_trace(self, general):
        m, nJ = general.m, general.nabla_J
        g, g_inv = m.metric, m.metric_inv
        q_vec = q_array(nJ, m.J)
        for A in (nJ, q_vec):
            for G in (g, g @ m.J):
                _assert_close(
                    metric_trace(g_inv, A, G),
                    np.einsum("ij,ks,aik,bjs,ab->", g_inv, g_inv, A, A, G),
                )
                _assert_close(
                    metric_trace(g_inv, A, G, cross=True),
                    np.einsum("ij,ks,aik,bsj,ab->", g_inv, g_inv, A, A, G),
                )

    def test_square_norms_and_cross_form(self, general):
        m, nJ = general.m, general.nabla_J
        g, g_inv = m.metric, m.metric_inv
        sq, assoc = square_norms(m, nJ)
        _assert_close(sq, np.einsum("ij,ks,aik,bjs,ab->", g_inv, g_inv, nJ, nJ, g))
        _assert_close(
            assoc, np.einsum("ij,ks,aik,bjs,ab->", g_inv, g_inv, nJ, nJ, g @ m.J)
        )
        _assert_close(
            sq_norm_cross_form(m, nJ),
            -2.0 * np.einsum("ij,ks,aik,bsj,ab->", g_inv, g_inv, nJ, nJ, g),
        )

    def test_metric_pairing(self, general):
        m, nJ = general.m, general.nabla_J
        A, B = q_array(nJ, m.J), nJ + nJ.transpose(0, 2, 1)
        _assert_close(
            metric_pairing(m, A, B), np.einsum("mij,nkl,mn->ijkl", A, B, m.metric)
        )
        a, b = twist_arrays(nJ, m.J)
        _assert_close(
            tensor_H(m, nJ), np.einsum("mij,nkl,mn->ijkl", a + b, a + b, m.metric)
        )

    def test_twisted_residuals(self, general):
        """EQ_1_3_B and EQ_1_15 against their residuals from the old strings.
        A residual is scaled by the size of its tensors, so an absolute bound
        on the difference bounds the relative change of the contraction."""
        m, F, Rc, nJ = general.m, general.F, general.R, general.nabla_J
        J = m.J
        old_1_3_b = residual(F, np.einsum("iab,aj,bk->ijk", F, J, J))
        S = (
            np.einsum("bj,ck,ibcl->ijkl", J, J, Rc)
            - np.einsum("bj,dl,ibkd->ijkl", J, J, Rc)
            + np.einsum("ai,dl,ajkd->ijkl", J, J, Rc)
            - np.einsum("ai,ck,ajcl->ijkl", J, J, Rc)
        )
        sym = nJ + nJ.transpose(0, 2, 1)
        G = np.einsum("mij,nkl,mn->ijkl", sym, sym, m.metric)
        old_1_15 = residual(cyclic_sum3(S), cyclic_sum3(G))
        assert abs(general.values["EQ_1_3_B"] - old_1_3_b) <= REL
        assert abs(general.values["EQ_1_15"] - old_1_15) <= REL
        assert max(old_1_3_b, old_1_15) <= REL  # both identities hold


def test_trace_matches_exact_oracle():
    """Unlike a golden report, the exact value pins no summation order.  The
    manifest's binary floats are the exact input; the associated norm is the
    oracle's square norm with g~ = gJ in place of g.  tau(H) is left out: it
    contracts the rank-4 tensor H, and lies 4.5e-15 from exact here."""
    m = _pool_manifold("w3_d6_seed0_w3_kahler_rprime_0002")
    C, g, J = (to_fractions(a.tolist()) for a in (m.structure_constants, m.metric, m.J))
    exact = loop_panel(C, g, J)
    g_inv = inverse(g)
    N = loop_nabla_J(loop_koszul(C, g, g_inv), J)
    gt = [[sum(g[a][c] * J[c][b] for c in range(m.dim)) for b in range(m.dim)]
          for a in range(m.dim)]
    exact_assoc = loop_sq_norm(N, gt, g_inv)
    assert exact_assoc == 0

    panel = run_suite(m).scalar_panel
    assert abs(Fraction(panel.sq_norm_nablaJ) - exact["sq_norm_nablaJ"]) <= 5e-16
    assert abs(Fraction(panel.assoc_sq_norm_nablaJ) - exact_assoc) <= 5e-16
    assert abs(Fraction(panel.tau_P) - exact["tau_P"]) <= 1e-15


def test_kernel_runs_on_fractions():
    """gamma, nabla J, Q and ||nabla J||^2 of w3_two_step_6 from Fraction
    object arrays: every entry equals the loop oracle's, the norm is 60, and
    the EQ_1_19 route -1/4 cyclic F(y,z,Jw) gives the covariant Q exactly."""
    m = load_manifest(bundled_manifest_path("w3_two_step_6")).to_manifold()
    C, g, J = (to_fractions(a.tolist()) for a in (m.structure_constants, m.metric, m.J))
    g_inv = inverse(g)
    C_, g_, g_inv_, J_ = (np.array(x, dtype=object) for x in (C, g, g_inv, J))
    gamma = levi_civita(C_, g_, g_inv_)
    nJ = compute_nabla_J(gamma, J_)
    Q = q_array(nJ, J_)
    want_gamma = loop_koszul(C, g, g_inv)
    want_nJ = loop_nabla_J(want_gamma, J)
    for got, want in ((gamma, want_gamma), (nJ, want_nJ), (Q, loop_Q(want_nJ, J))):
        assert all(isinstance(x, Fraction) for x in got.flat)
        assert got.tolist() == want
    assert metric_trace(g_inv_, nJ, g_) == 60
    alt = q_from_cyclic_F(lower(nJ, g_), J_)
    assert all(isinstance(x, Fraction) for x in alt.flat)
    assert alt.tolist() == lower(Q, g_).tolist()
    assert np.any(alt != 0)


def _einsum_subscripts(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "einsum"
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            yield node.lineno, node.args[0].value


def test_every_einsum_has_at_most_five_labels():
    """Subscripts built at run time (f-strings) are not seen here."""
    found, wide = 0, []
    for path in sorted((ROOT / "src" / "norden").glob("*.py")):
        for line, subscripts in _einsum_subscripts(path):
            found += 1
            labels = set(subscripts.replace("...", "")) - set(",-> ")
            if len(labels) > 5:
                wide.append(f"{path.name}:{line} {subscripts}")
    assert found >= 20
    assert not wide, wide
