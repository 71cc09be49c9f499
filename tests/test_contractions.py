"""The pairwise contractions of the verify path and of the search.

* The one-index contractions against g, g^-1 or J (`lower`, `levi_civita`,
  `compute_nabla_J`, `twist_arrays`, the lowering in `riemann`, the g B step
  of `metric_pairing`) against the einsum strings they replaced: bit for bit
  on canonical pairs, exactly on `Fraction` arrays, and to rounding on pairs
  in a general frame.  `covariant_derivative` against its einsum per slot:
  bit for bit on g and J of the canonical pair, to rounding on F and Q.
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
    canonical_norden_pair,
    compute_nabla_J,
    covariant_derivative,
    cyclic_sum3,
    levi_civita,
    load_manifest,
    metric_pairing,
    residual,
    riemann,
    run_suite,
    scalar_residual,
    tensor_H,
)
from norden.geometry import (
    metric_trace,
    q_array,
    q_from_cyclic_F,
    twist_arrays,
)
from norden.curvature import RIEMANN_TERMS
from norden.manifolds import JACOBI_TERMS, pair_record
from norden.suite import build_context
from norden.tensors import lower

from exact_oracle import (
    inverse,
    loop_covariant_derivative,
    loop_curvature,
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
    return load_manifest(POOL / f"{name}.manifest")


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
        q_vec = q_array(*twist_arrays(nJ, m.J))
        for A in (nJ, q_vec):
            for G in (g, g @ m.J):
                _assert_close(
                    metric_trace(g_inv, A, G, A),
                    np.einsum("ij,ks,aik,bjs,ab->", g_inv, g_inv, A, A, G),
                )
                _assert_close(
                    metric_trace(g_inv, A, G, A.swapaxes(1, 2)),
                    np.einsum("ij,ks,aik,bsj,ab->", g_inv, g_inv, A, A, G),
                )

    def test_square_norms_and_cross_form(self, general):
        """The panel's two norms of nabla J, and EQ_1_7 against the cross
        form from the old string; a scalar residual is scaled, so an absolute
        bound on its difference bounds the relative change."""
        m, nJ, panel = general.m, general.nabla_J, general.panel
        g, g_inv = m.metric, m.metric_inv
        sq = np.einsum("ij,ks,aik,bjs,ab->", g_inv, g_inv, nJ, nJ, g)
        _assert_close(panel.sq_norm_nablaJ, sq)
        _assert_close(
            panel.assoc_sq_norm_nablaJ,
            np.einsum("ij,ks,aik,bjs,ab->", g_inv, g_inv, nJ, nJ, g @ m.J),
        )
        cross = -2.0 * np.einsum("ij,ks,aik,bsj,ab->", g_inv, g_inv, nJ, nJ, g)
        assert abs(general.values["EQ_1_7"] - scalar_residual(sq, cross)) <= REL

    def test_metric_pairing(self, general):
        m, nJ = general.m, general.nabla_J
        a, b = twist_arrays(nJ, m.J)
        A, B = q_array(a, b), nJ + nJ.transpose(0, 2, 1)
        _assert_close(
            metric_pairing(A, B, m.metric),
            np.einsum("mij,nkl,mn->ijkl", A, B, m.metric),
        )
        _assert_close(
            tensor_H(a, b, m.metric),
            np.einsum("mij,nkl,mn->ijkl", a + b, a + b, m.metric),
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


# the einsum strings that the pair contractions replaced, as references
def _ref_lower(t, g):
    return np.einsum("...mij,mk->...ijk", t, g)


def _ref_levi_civita(C, g, g_inv):
    b = _ref_lower(C, g)
    low = (b + b.swapaxes(-3, -2).swapaxes(-2, -1) + b.swapaxes(-3, -1)) / 2
    return np.einsum("km,...ijm->...kij", g_inv, low)


def _ref_nabla_J(gamma, J, minus=-1):
    return np.einsum("...kim,mj->...kij", gamma, J) + minus * np.einsum(
        "km,...mij->...kij", J, gamma
    )


def _ref_twist(nJ, J):
    return np.einsum("...kia,aj->...kij", nJ, J), np.einsum("ai,...kaj->...kij", J, nJ)


def _ref_riemann(gamma, C, g, minus=-1):
    L = np.einsum("ml,...mik->...lik", g, gamma).swapaxes(-3, -2).swapaxes(-2, -1)
    factors, R = {"C": C, "gamma": gamma, "L": L}, 0
    for sign, (a, x), (b, y) in RIEMANN_TERMS:
        t = np.einsum(f"...{x},...{y}->...ijkl", factors[a], factors[b])
        R = R + t if sign > 0 else R + minus * t
    return R


def _ref_metric_pairing(A, B, g):
    return np.einsum("mij,mkl->ijkl", A, np.einsum("mn,nkl->mkl", g, B))


# (name, kernel, reference, takes a stack) of every pair contraction, each a
# function of (t, C, g, g^-1, J): t stands for gamma, nabla J or a
# vector-valued 2-form, C for the brackets; `minus` is the sign of the
# references' differences
PAIR_KERNELS = (
    ("lower", lambda t, C, g, gi, J: lower(t, g),
     lambda t, C, g, gi, J, minus: _ref_lower(t, g), True),
    ("levi_civita", lambda t, C, g, gi, J: levi_civita(C, g, gi),
     lambda t, C, g, gi, J, minus: _ref_levi_civita(C, g, gi), True),
    ("compute_nabla_J", lambda t, C, g, gi, J: compute_nabla_J(t, J),
     lambda t, C, g, gi, J, minus: _ref_nabla_J(t, J, minus), True),
    ("twist_arrays", lambda t, C, g, gi, J: twist_arrays(t, J),
     lambda t, C, g, gi, J, minus: _ref_twist(t, J), True),
    ("riemann", lambda t, C, g, gi, J: riemann(t, C, g),
     lambda t, C, g, gi, J, minus: _ref_riemann(t, C, g, minus), True),
    ("metric_pairing", lambda t, C, g, gi, J: metric_pairing(C, t, g),
     lambda t, C, g, gi, J, minus: _ref_metric_pairing(C, t, g), False),
)


def _pair_outputs(stacked, *args):
    """(name, kernel's arrays, reference's arrays, sums of the absolute
    values of the products that the reference's entries add up) of every
    pair contraction that takes a stack, or a single tensor, at the arguments
    (t, C, g, g^-1, J).  The sums are the reference at the absolute values,
    with every difference taken as a sum."""
    for name, kernel, ref, takes_stack in PAIR_KERNELS:
        if takes_stack or not stacked:
            out = kernel(*args), ref(*args, minus=-1), ref(*map(np.abs, args), minus=1)
            if name != "twist_arrays":
                out = tuple([x] for x in out)
            yield name, *out


def _with_signed_zeros(rng, shape):
    """Normal entries, about 40% of them +0.0 and 20% -0.0."""
    t = rng.standard_normal(shape)
    t[rng.random(shape) < 0.4] = 0.0
    t[rng.random(shape) < 0.2] = -0.0
    return t


class TestPairContractions:
    @pytest.mark.parametrize("stack", ((), (0,), (1,), (3,), (10,)))
    @pytest.mark.parametrize("dim", (2, 4, 6, 8, 10))
    def test_bits_of_the_einsum_on_the_canonical_pair(self, dim, stack):
        """g = diag(I, -I) and J a signed permutation: every entry has one
        nonzero product, so the bytes agree, signed zeros and dtype too."""
        g, J = canonical_norden_pair(dim)
        g_inv = pair_record(g, J).metric_inv
        rng = np.random.default_rng([dim, *stack])
        t, C = (_with_signed_zeros(rng, stack + (dim,) * 3) for _ in range(2))
        assert np.signbit(t[t == 0.0]).any() or not t.size
        for name, got, want, _ in _pair_outputs(bool(stack), t, C, g, g_inv, J):
            for x, y in zip(got, want, strict=True):
                assert (x.shape, x.dtype) == (y.shape, y.dtype), name
                assert x.tobytes() == y.tobytes(), name

    @pytest.mark.parametrize("stack", ((), (3,)))
    def test_fractions_exactly(self, stack):
        """Rational t, C and a rational, dense (g, g^-1, J), which need not be
        a Norden pair for the contractions to agree: entry for entry equal,
        and every entry a Fraction."""
        rng = np.random.default_rng(len(stack))

        def rational(shape):
            ints = rng.integers(-4, 5, shape).tolist()
            return np.vectorize(lambda n: Fraction(n, 3), otypes=[object])(ints)

        t, C = rational(stack + (4,) * 3), rational(stack + (4,) * 3)
        g, g_inv, J = (rational((4, 4)) for _ in range(3))
        for name, got, want, _ in _pair_outputs(bool(stack), t, C, g, g_inv, J):
            for x, y in zip(got, want, strict=True):
                assert all(isinstance(v, Fraction) for v in x.flat), name
                assert x.shape == y.shape and x.tolist() == y.tolist(), name

    def test_general_frame_to_rounding(self, general):
        """A dense Norden pair, on the manifold's gamma, nabla J, Q and
        brackets, alone and stacked: each entry is the reference's x within
        1e-15 (1 + |x|), with |x| the sum of the absolute values of the
        products that x adds up (x itself may cancel to rounding noise)."""
        m = general.m
        C, g, g_inv, J = m.structure_constants, m.metric, m.metric_inv, m.J
        nJ = general.nabla_J
        gamma = levi_civita(C, g, g_inv)
        Q = q_array(*twist_arrays(nJ, J))
        for t in (gamma, nJ, Q):
            for stacked in (False, True):
                args = (t, C) if not stacked else (t[None].repeat(3, 0), C[None].repeat(3, 0))
                for name, got, want, size in _pair_outputs(stacked, *args, g, g_inv, J):
                    for x, y, z in zip(got, want, size, strict=True):
                        assert x.shape == y.shape, name
                        assert np.all(np.abs(x - y) <= 1e-15 * (1.0 + z)), name


def _ref_covariant_derivative(gamma, t, minus=-1):
    """The einsum per slot that `covariant_derivative` replaced; `minus` is
    the sign of its terms."""
    d, rank = gamma.shape[-1], t.ndim
    letters = "abcdefgh"[:rank]
    out = np.zeros((d,) * (rank + 1), dtype=np.result_type(gamma, t))
    for s in range(rank):
        t_letters = letters[:s] + "m" + letters[s + 1 :]
        term = np.einsum(f"mi{letters[s]},{t_letters}->i{letters}", gamma, t)
        out = out - term if minus < 0 else out + term
    return out


class TestCovariantDerivative:
    @pytest.mark.parametrize("dim", (2, 4, 6, 8, 10))
    def test_bits_of_the_einsum_on_the_canonical_pair(self, dim):
        """t = g and t = J of the canonical pair: every entry has one nonzero
        product, so the bytes agree, with signed zeros in gamma."""
        g, J = canonical_norden_pair(dim)
        gamma = _with_signed_zeros(np.random.default_rng([dim, 1]), (dim,) * 3)
        assert np.signbit(gamma[gamma == 0.0]).any()
        for t in (g, J):
            got, want = covariant_derivative(gamma, t), _ref_covariant_derivative(gamma, t)
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert got.tobytes() == want.tobytes()

    def test_general_frame_to_rounding(self, general):
        """The Levi-Civita gamma of a dense Norden pair, on F and the covariant
        Q: each entry is the einsum's x within 1e-15 (1 + |x|), with |x| the
        sum of the absolute values of the products that x adds up."""
        m = general.m
        gamma = levi_civita(m.structure_constants, m.metric, m.metric_inv)
        Q = lower(q_array(*twist_arrays(general.nabla_J, m.J)), m.metric)
        for t in (general.F, Q):
            got, want = covariant_derivative(gamma, t), _ref_covariant_derivative(gamma, t)
            size = _ref_covariant_derivative(np.abs(gamma), np.abs(t), minus=1)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-15 * (1.0 + size))


def test_riemann_reads_its_second_term_as_the_first_transposed():
    """`riemann` takes the product of the second term of `RIEMANN_TERMS` as
    the (i, j) transpose of the first's, so the table must say so."""
    (sign, *first), (sign_2, *second), _ = RIEMANN_TERMS
    swap = str.maketrans("ij", "ji")
    assert sign_2 == -sign
    assert second == [(name, x.translate(swap)) for name, x in first]


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
    object arrays: every entry equals the loop oracle's, the norm is 60, the
    starred norm g^{ij} g^{ks} g((nabla_{e_i} J)e_k, (nabla_{Je_j} J)e_s) is
    32, and the EQ_1_19 route -1/4 cyclic F(y,z,Jw) gives the covariant Q
    exactly."""
    m = load_manifest(bundled_manifest_path("w3_two_step_6"))
    C, g, J = (to_fractions(a.tolist()) for a in (m.structure_constants, m.metric, m.J))
    g_inv = inverse(g)
    C_, g_, g_inv_, J_ = (np.array(x, dtype=object) for x in (C, g, g_inv, J))
    gamma = levi_civita(C_, g_, g_inv_)
    nJ = compute_nabla_J(gamma, J_)
    Q = q_array(*twist_arrays(nJ, J_))
    want_gamma = loop_koszul(C, g, g_inv)
    want_nJ = loop_nabla_J(want_gamma, J)
    for got, want in ((gamma, want_gamma), (nJ, want_nJ), (Q, loop_Q(want_nJ, J))):
        assert all(isinstance(x, Fraction) for x in got.flat)
        assert got.tolist() == want
    assert metric_trace(g_inv_, nJ, g_, nJ) == 60
    assert metric_trace(g_inv_, nJ, g_, twist_arrays(nJ, J_)[1]) == 32
    alt = q_from_cyclic_F(lower(nJ, g_), J_)
    assert all(isinstance(x, Fraction) for x in alt.flat)
    assert alt.tolist() == lower(Q, g_).tolist()
    assert np.any(alt != 0)


def test_riemann_runs_on_fractions():
    """R and R' of w3_two_step_6 from the kernel's Fraction gamma and
    gamma + Q: every entry equals the loop oracle's exactly.  The oracle
    writes the curvature out in full, so it checks `RIEMANN_TERMS`, which the
    kernel and the search's quadratic form both read."""
    m = load_manifest(bundled_manifest_path("w3_two_step_6"))
    C, g, J = (to_fractions(a.tolist()) for a in (m.structure_constants, m.metric, m.J))
    g_inv = inverse(g)
    C_, g_, g_inv_, J_ = (np.array(x, dtype=object) for x in (C, g, g_inv, J))
    gamma = levi_civita(C_, g_, g_inv_)
    conn = gamma + q_array(*twist_arrays(compute_nabla_J(gamma, J_), J_))
    G = loop_koszul(C, g, g_inv)
    Q = loop_Q(loop_nabla_J(G, J), J)
    d = m.dim
    G_prime = [[[G[k][i][j] + Q[k][i][j] for j in range(d)] for i in range(d)]
               for k in range(d)]
    for connection, want_connection in ((gamma, G), (conn, G_prime)):
        got = riemann(connection, C_, g_)
        assert all(isinstance(x, Fraction) for x in got.flat)
        assert got.tolist() == loop_curvature(want_connection, C, g)
        assert np.any(got != 0)


def test_covariant_derivative_runs_on_fractions():
    """nabla F and nabla g along the Levi-Civita connection of w3_two_step_6,
    from the kernel's Fraction gamma and nabla J: every entry equals the loop
    oracle's exactly, and nabla g vanishes exactly."""
    m = load_manifest(bundled_manifest_path("w3_two_step_6"))
    C, g, J = (to_fractions(a.tolist()) for a in (m.structure_constants, m.metric, m.J))
    g_inv = inverse(g)
    C_, g_, g_inv_, J_ = (np.array(x, dtype=object) for x in (C, g, g_inv, J))
    gamma = levi_civita(C_, g_, g_inv_)
    F = lower(compute_nabla_J(gamma, J_), g_)
    G = loop_koszul(C, g, g_inv)
    N = loop_nabla_J(G, J)
    d = m.dim
    want_F = [
        [[sum(N[a][i][j] * g[a][k] for a in range(d)) for k in range(d)] for j in range(d)]
        for i in range(d)
    ]
    for t, want_t, rank in ((F, want_F, 3), (g_, g, 2)):
        got = covariant_derivative(gamma, t)
        assert got.dtype == object
        assert all(isinstance(x, Fraction) for x in got.flat)
        assert got.tolist() == loop_covariant_derivative(G, want_t, rank)
    assert not np.any(covariant_derivative(gamma, g_))
    assert np.any(covariant_derivative(gamma, F))


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
    """Subscripts built at run time (f-strings) are not seen here, but those
    of `riemann` are the letters of the product tables, checked as well (a
    term is also a gathered product of the search's quadratic form)."""
    found, wide = 0, []
    for path in sorted((ROOT / "src" / "norden").glob("*.py")):
        for line, subscripts in _einsum_subscripts(path):
            found += 1
            labels = set(subscripts.replace("...", "")) - set(",-> ")
            if len(labels) > 5:
                wide.append(f"{path.name}:{line} {subscripts}")
    for name, table in (("JACOBI_TERMS", JACOBI_TERMS), ("RIEMANN_TERMS", RIEMANN_TERMS)):
        for _, (_, x), (_, y) in table:
            if len(set(x + y)) > 5:
                wide.append(f"{name} {x},{y}")
    # the walk is not vacuous: the package holds 13 literal einsums
    assert found >= 13
    assert not wide, wide
