"""Seeded search for quasi-Kahler examples over the canonical Norden pair.

The fundamental tensor F is linear in the structure constants (through the
Koszul formula with constant metric), so quasi-Kahler membership and bracket
antisymmetry form a homogeneous linear system; candidates are drawn from its
null space.  Its matrix is built once per dimension, by one batched kernel
evaluation over the antisymmetric basis, and every family below is a column
subset of it.  The quadratic Jacobi identity is handled two ways:

* two-step nilpotent ansatz (brackets land in a central coordinate subspace):
  Jacobi holds identically, so accepted samples are exact.  Nontrivial
  null spaces exist only for dimension >= 6.
* Gauss-Newton projection: a damped Gauss-Newton iteration drives the Jacobi
  residual (and, for the Kahler target, the first Bianchi residual of the
  skew-torsion curvature) to zero inside the membership null space, on a
  random affine slice to avoid collapse onto the abelian solution.  Both
  residual maps are homogeneous quadratic in the null-space coordinates z, so
  they are precomputed once per (dim, target) as a symmetric form Q with
  phi(z) = Q[z, z] (`QuadraticForm`).  Qz gives the residual and the
  Jacobian and is linear in z: an iteration is one small least-squares solve
  and one product Q step, which prices every line-search trial and carries Qz
  to the next iterate (convergence is confirmed on a direct product).  The
  solve drops singular values below `GN_RANK_CUTOFF` times the largest (by
  SVD, only where a QR-based bound cannot rule them out), so near the
  singular roots the search meets, the Jacobian it inverts has locally
  constant rank and convergence stays quadratic where that rank is constant.

Both paths are driven by one seeded generator, so searches are reproducible.
"""

from __future__ import annotations

import enum
import itertools
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

from .curvature import bianchi_residual, riemann
from .geometry import ClassLabel, classify, compute_nabla_J, q_array
from .manifests import ManifoldManifest
from .manifolds import (
    LieFrameManifold,
    canonical_norden_pair,
    jacobi_array,
    levi_civita,
    validate_manifold,
)
from .tensors import DEFAULT_TOLERANCE, check_tolerance, cyclic_sum3, lower

GN_MAX_ITERATIONS = 120
GN_CONVERGENCE = 1e-13
# relative singular-value cutoff of the Gauss-Newton least-squares step
GN_RANK_CUTOFF = 1e-10
# line-search step lengths lam = 1, 1/2, ..., 2**-15, and 2 lam and lam**2,
# as columns
_HALVINGS = 0.5 ** np.arange(16)[:, None]
_TWICE_HALVINGS, _SQUARED_HALVINGS = 2.0 * _HALVINGS, _HALVINGS * _HALVINGS


class SearchTarget(enum.Enum):
    W3 = "w3"
    W3_RPRIME_KAHLER = "w3-kahler-rprime"


@dataclass(frozen=True)
class SearchConfig:
    dim: int = 4
    seed: int = 0
    max_candidates: int = 1000
    target: SearchTarget = SearchTarget.W3
    max_results: int = 10
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self) -> None:
        if self.max_candidates < 1:
            raise ValueError(f"max_candidates must be >= 1, got {self.max_candidates}")
        if self.dim < 4 or self.dim % 2 != 0:
            raise ValueError(f"dim must be even and at least 4, got {self.dim}")
        if self.max_results < 1:
            raise ValueError(f"max_results must be >= 1, got {self.max_results}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        check_tolerance(self.tolerance)


@dataclass
class SearchStats:
    """Counts of one search.  Every candidate either converges or fails for
    one reason, and every converged candidate is a hit or one rejection:

    candidates = converged + flat_slope + stalled + iteration_cap + collapsed
    converged  = hits + rejected_class + rejected_jacobi + rejected_invalid
    """

    candidates: int = 0
    converged: int = 0
    hits: int = 0
    rejected_class: int = 0  # valid, but not quasi-Kahler (or R' not Kahler)
    rejected_jacobi: int = 0  # failed validation on the Jacobi identity
    rejected_invalid: int = 0  # failed validation on another invariant only
    flat_slope: int = 0  # slice direction nearly orthogonal to the start point
    stalled: int = 0  # line search found no decrease
    iteration_cap: int = 0  # GN_MAX_ITERATIONS without convergence
    collapsed: int = 0  # brackets converged to (near) zero, the abelian algebra
    gn_iterations: int = 0  # Gauss-Newton steps
    svd_steps: int = 0  # steps whose rank certificate failed, solved by SVD
    elapsed: float = 0.0
    by_ansatz: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# linear machinery: membership null spaces
# ---------------------------------------------------------------------------


def _w3_rows(dim: int, basis: NDArray) -> NDArray:
    """Matrix of the linear map (structure constants) -> cyclic sum of F,
    one batched kernel evaluation over the columns of `basis`."""
    g, J = canonical_norden_pair(dim)
    C = basis.T.reshape(-1, dim, dim, dim)
    F = lower(compute_nabla_J(levi_civita(C, g, np.linalg.inv(g)), J), g)
    return cyclic_sum3(F, (-3, -2, -1)).reshape(len(C), -1).T


def _null_space(A: NDArray) -> NDArray:
    """Orthonormal null-space basis of A from the reduced SVD; every matrix
    here has d**3 rows, at least as many as its columns, so vt is square."""
    _, s, vt = np.linalg.svd(A, full_matrices=False)
    smax = s[0] if s[0] > 0 else 1.0
    rank = int(np.sum(s > max(A.shape) * np.finfo(float).eps * smax))
    return vt[rank:].T


@lru_cache(maxsize=None)
def _membership(dim: int) -> tuple[NDArray, NDArray, NDArray]:
    """(triples, basis, membership matrix) of the full antisymmetric constant
    space; every family below is a column subset of these.  Triple (k, i, j),
    i < j, ordered by (i, j) and then k, is the basis column, flattened, of
    the brackets C with C[k][i][j] = 1 = -C[k][j][i]."""
    pairs = itertools.combinations(range(dim), 2)
    triples = np.array([(k, i, j) for i, j in pairs for k in range(dim)])
    k, i, j = triples.T
    t = np.arange(len(triples))
    basis = np.zeros((dim, dim, dim, len(triples)))
    basis[k, i, j, t] = 1.0
    basis[k, j, i, t] = -1.0
    basis = basis.reshape(dim**3, -1)
    return triples, basis, _w3_rows(dim, basis)


@lru_cache(maxsize=None)
def _generic_family(dim: int) -> tuple[NDArray, NDArray]:
    """(basis matrix, null-space coordinates) for the full antisymmetric
    constant space intersected with the membership condition."""
    _, basis, rows = _membership(dim)
    return basis, _null_space(rows)


@lru_cache(maxsize=None)
def _two_step_families(dim: int) -> tuple[tuple[NDArray, NDArray], ...]:
    """Per-partition (basis, membership null space) for two-step ansatze with
    nontrivial null space.  Brackets of the non-central indices land in the
    centre Z, so the family is the columns (k, i, j) with k in Z and i, j not
    in Z; Jacobi then holds automatically."""
    triples, basis, rows = _membership(dim)
    families = []
    for z_size in range(1, dim - 1):
        for Z in itertools.combinations(range(dim), z_size):
            central = np.isin(triples, Z)
            cols = central[:, 0] & ~central[:, 1] & ~central[:, 2]
            null = _null_space(rows[:, cols])
            if null.shape[1] > 0:
                families.append((basis[:, cols], null))
    return tuple(families)


# ---------------------------------------------------------------------------
# quadratic residual maps for the Gauss-Newton projection
# ---------------------------------------------------------------------------

# each kept row of a cyclic sum that is totally antisymmetric in three slots
# stands for the 6 rows of its index permutations, so weighting it by sqrt(6)
# gives the normal equations of the full map
_ROW_WEIGHT = np.sqrt(6.0)


def _kept_rows(dim: int, slots: tuple[int, int, int]) -> NDArray:
    """Flat indices of the rank-4 entries whose `slots` indices increase."""
    i, j, k = np.indices((dim,) * 4).reshape(4, -1)[list(slots)]
    return np.flatnonzero((i < j) & (j < k))


@dataclass(frozen=True)
class QuadraticForm:
    """The Gauss-Newton residual map phi(z) of one (dim, target) as a
    symmetric form: phi(z) = Q[z, z] on the kept rows.

    phi stacks the Jacobi sum of the brackets C(z) = basis @ null @ z (index
    order [p][i][j][l], cyclic in i, j, l) and, for the Kahler target, the
    first Bianchi sum of R' (order [i][j][k][l], cyclic in i, j, k).  Both are
    totally antisymmetric in their three cyclic slots, so only the rows with
    increasing cyclic indices are kept (`rows`, flat indices into the stacked
    full map): they carry its max-abs and 1/6 of its sum of squares.
    q[a, b, :] = Q[e_a, e_b].
    """

    dim: int
    basis: NDArray
    null: NDArray
    rows: NDArray
    q: NDArray

    def brackets(self, z: NDArray) -> NDArray:
        d = self.dim
        return (self.basis @ (self.null @ z)).reshape(d, d, d)

    def qz(self, z: NDArray) -> NDArray:
        """(Q z)[b, k] = Q[z, e_b] on kept row k: phi(z) = z @ qz(z), and the
        Jacobian of phi is 2 qz(z).T."""
        r = z.size
        return (z @ self.q.reshape(r, -1)).reshape(r, -1)

    def step(
        self, z: NDArray, qz: NDArray, direction: NDArray, stats: SearchStats | None = None
    ) -> NDArray:
        """Gauss-Newton step for phi(z) = 0 on the slice direction @ z = 1,
        with qz = Q z.  The kept rows, weighted by sqrt(6), give the normal
        equations of the full map.  Directions whose singular value is below
        GN_RANK_CUTOFF times the largest are dropped: near a singular root
        they are rounding noise, and a cutoff at the rounding level (eps times
        the row count, about 6e-13 in dim 6) keeps some of them and slows
        convergence to linear.  [A b] = QR [R c], and R has the singular
        values of A: when ||R||_F ||R^-1||_F, a bound on their ratio,
        certifies that none is dropped, the step is R^-1 c; else an SVD
        solves on R (counted in stats.svd_steps)."""
        r = z.size
        Ab = np.empty((qz.shape[1] + 1, r + 1))
        Ab[:-1, :r] = _ROW_WEIGHT * 2.0 * qz.T
        Ab[:-1, r] = _ROW_WEIGHT * (z @ qz)
        Ab[-1, :r] = direction
        Ab[-1, r] = direction @ z - 1.0
        Rc = np.linalg.qr(Ab, mode="r")
        R, c = Rc[:r, :r], Rc[:r, r]
        try:
            R_inv = np.linalg.inv(R)  # raises if R is singular or not square
            if np.vdot(R, R) * np.vdot(R_inv, R_inv) < GN_RANK_CUTOFF**-2:
                return R_inv @ c
        except np.linalg.LinAlgError:
            pass
        if stats is not None:
            stats.svd_steps += 1
        return np.linalg.lstsq(R, c, rcond=GN_RANK_CUTOFF)[0]


def _phi_kept(
    C: NDArray, conn: NDArray | None, g: NDArray, rows: NDArray
) -> NDArray:
    """Kept rows of the residual map for a batch of brackets C and, for the
    Kahler target, their natural connections conn (the first Bianchi sum of
    R'); one row per batch entry."""
    n = C.shape[0]
    parts = [jacobi_array(C).reshape(n, -1)]
    if conn is not None:
        parts.append(cyclic_sum3(riemann(conn, C, g), (-4, -3, -2)).reshape(n, -1))
    return np.concatenate(parts, axis=1)[:, rows]


@lru_cache(maxsize=None)
def _quadratic_form(dim: int, want_kahler: bool) -> QuadraticForm:
    """Q of the generic family by polarisation of the kernel maps,
    Q[e_a, e_b] = (phi(D_a + D_b) - phi(D_a) - phi(D_b)) / 2 for the
    null-space directions D_a.  The natural connection gamma + Q is linear
    in C, so it is built once per direction and summed per pair; the pairs
    are batched one row a at a time."""
    basis, null = _generic_family(dim)
    r = null.shape[1]
    g, J = canonical_norden_pair(dim)
    D = (basis @ null).T.reshape(r, dim, dim, dim)
    rows = _kept_rows(dim, (1, 2, 3))
    conn = None
    if want_kahler:
        rows = np.concatenate([rows, dim**4 + _kept_rows(dim, (0, 1, 2))])
        gamma = levi_civita(D, g, np.linalg.inv(g))
        conn = gamma + q_array(compute_nabla_J(gamma, J), J)
    diag = _phi_kept(D, conn, g, rows)
    q = np.empty((r, r, rows.size))
    q[np.arange(r), np.arange(r)] = diag
    for a in range(r - 1):
        pair_conn = None if conn is None else conn[a] + conn[a + 1 :]
        pair = _phi_kept(D[a] + D[a + 1 :], pair_conn, g, rows)
        q[a, a + 1 :] = q[a + 1 :, a] = 0.5 * (pair - diag[a] - diag[a + 1 :])
    return QuadraticForm(dim, basis, null, rows, q)


def _gauss_newton_candidate(
    rng: np.random.Generator, form: QuadraticForm, stats: SearchStats
) -> NDArray | None:
    """One slice-constrained damped Gauss-Newton attempt; returns structure
    constants with max-abs 1 on convergence, else None after counting the
    failure in `stats`."""
    r = form.null.shape[1]
    direction = rng.normal(size=r)
    norm = np.linalg.norm(direction)
    if norm < 1e-12:
        stats.flat_slope += 1
        return None
    direction /= norm
    z = rng.uniform(-1.0, 1.0, r)
    slope = direction @ z
    if abs(slope) < 1e-3:
        stats.flat_slope += 1
        return None
    z = z / slope

    qz = form.qz(z)
    for _ in range(GN_MAX_ITERATIONS):
        f = z @ qz
        norm_inf = np.abs(f).max()
        if norm_inf < GN_CONVERGENCE:  # qz was carried: confirm directly
            qz = form.qz(z)
            f = z @ qz
            norm_inf = np.abs(f).max()
            if norm_inf < GN_CONVERGENCE:
                break
        stats.gn_iterations += 1
        step = form.step(z, qz, direction, stats)
        # one product Q step prices every halving lam at once, as
        # phi(z - lam step) = phi(z) - 2 lam Q[z, step] + lam^2 Q[step, step],
        # and carries qz by linearity; the first trial that lowers max|phi| wins
        q_step = form.qz(step)
        trials = f - _TWICE_HALVINGS * (step @ qz) + _SQUARED_HALVINGS * (step @ q_step)
        lower = np.abs(trials).max(axis=1) < norm_inf
        k = np.argmax(lower)
        if not lower[k]:
            stats.stalled += 1
            return None
        z = z - _HALVINGS[k] * step
        qz = qz - _HALVINGS[k] * q_step
    else:
        stats.iteration_cap += 1
        return None
    C = form.brackets(z)
    max_abs = np.max(np.abs(C))
    if max_abs < 1e-8:
        stats.collapsed += 1
        return None
    return C / max_abs


def _two_step_candidate(
    rng: np.random.Generator,
    dim: int,
    basis: NDArray,
    null: NDArray,
    stats: SearchStats,
) -> NDArray | None:
    coeff = null @ rng.uniform(-1.0, 1.0, null.shape[1])
    C = (basis @ coeff).reshape(dim, dim, dim)
    max_abs = np.max(np.abs(C))
    if max_abs < 1e-10:
        stats.collapsed += 1
        return None
    return C / max_abs


# ---------------------------------------------------------------------------
# search driver
# ---------------------------------------------------------------------------


def _accept(
    C: NDArray,
    cfg: SearchConfig,
    stats: SearchStats,
) -> LieFrameManifold | None:
    g, J = canonical_norden_pair(cfg.dim)
    m = LieFrameManifold(dim=cfg.dim, structure_constants=C, metric=g, J=J)
    outcome = validate_manifold(m)
    if not outcome.ok:
        if any(v.name == "Jacobi identity" for v in outcome.violations):
            stats.rejected_jacobi += 1
        else:
            stats.rejected_invalid += 1
        return None
    gamma = levi_civita(C, g, m.metric_inv)
    nabla_J = compute_nabla_J(gamma, J)
    cls = classify(m, lower(nabla_J, g), nabla_J, cfg.tolerance)
    if cls.label is not ClassLabel.QUASI_KAHLER_W3:
        stats.rejected_class += 1
        return None
    if cfg.target is SearchTarget.W3_RPRIME_KAHLER:
        r_prime = riemann(gamma + q_array(nabla_J, J), C, g)
        if bianchi_residual(r_prime) > cfg.tolerance:
            stats.rejected_class += 1
            return None
    return m


def search_w3_examples(
    cfg: SearchConfig,
) -> tuple[list[ManifoldManifest], SearchStats]:
    """Seeded search; returns validated quasi-Kahler manifests plus statistics.

    An empty list is a legitimate outcome (statistics say how hard the search
    tried); it is not an error.
    """
    rng = np.random.default_rng(cfg.seed)
    stats = SearchStats()
    start = time.perf_counter()

    want_kahler = cfg.target is SearchTarget.W3_RPRIME_KAHLER

    # deterministic ansatz rotation: all two-step families, then one GN try
    plan: list[tuple[str, NDArray | None, NDArray | None]] = []
    if not want_kahler:
        for basis, null in _two_step_families(cfg.dim):
            plan.append(("two_step", basis, null))
    plan.append(("gauss_newton", None, None))

    manifests: list[ManifoldManifest] = []
    index = 0
    while stats.candidates < cfg.max_candidates and len(manifests) < cfg.max_results:
        kind, basis, null = plan[index % len(plan)]
        index += 1
        stats.candidates += 1
        stats.by_ansatz[kind] = stats.by_ansatz.get(kind, 0) + 1
        if kind == "two_step":
            C = _two_step_candidate(rng, cfg.dim, basis, null, stats)
        else:
            form = _quadratic_form(cfg.dim, want_kahler)
            C = _gauss_newton_candidate(rng, form, stats)
        if C is None:
            continue
        stats.converged += 1
        m = _accept(C, cfg, stats)
        if m is None:
            continue
        stats.hits += 1
        name = (
            f"w3_d{cfg.dim}_seed{cfg.seed}_{cfg.target.value.replace('-', '_')}"
            f"_{stats.hits:04d}"
        )
        manifests.append(
            ManifoldManifest(
                id=name,
                dim=cfg.dim,
                structure_constants=m.structure_constants,
                metric=m.metric,
                J=m.J,
                description=(
                    f"seeded null-space search hit (ansatz={kind}, "
                    f"target={cfg.target.value}, seed={cfg.seed})"
                ),
            )
        )
    stats.elapsed = time.perf_counter() - start
    return manifests, stats
