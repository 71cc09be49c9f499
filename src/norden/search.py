"""Seeded search for quasi-Kahler examples over the canonical Norden pair.

The fundamental tensor F is linear in the structure constants (through the
Koszul formula with constant metric), so quasi-Kahler membership and bracket
antisymmetry form a homogeneous linear system; candidates are drawn from its
null space.  The quadratic Jacobi identity is handled two ways:

* two-step nilpotent ansatz (brackets land in a central coordinate subspace):
  Jacobi holds identically, so accepted samples are exact.  Nontrivial
  null spaces exist only for dimension >= 6.
* Gauss-Newton projection: a damped Gauss-Newton iteration drives the Jacobi
  residual (and, for the Kahler target, the first Bianchi residual of the
  skew-torsion curvature, both exactly quadratic in the constants) to zero
  inside the membership null space, on a random affine slice to avoid
  collapse onto the abelian solution.

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

from .curvature import riemann
from .geometry import ClassLabel, classify, compute_F, compute_nabla_J, q_array
from .manifests import ManifoldManifest
from .manifolds import (
    LieFrameManifold,
    canonical_norden_pair,
    jacobi_array,
    levi_civita,
    validate_manifold,
)
from .tensors import DEFAULT_TOLERANCE, check_tolerance, cyclic_sum3, lower, zero_residual

GN_MAX_ITERATIONS = 120
GN_CONVERGENCE = 1e-13


class SearchTarget(enum.Enum):
    W3 = "w3"
    W3_RPRIME_KAHLER = "w3-kahler-rprime"


@dataclass(frozen=True)
class SearchConfig:
    dim: int = 4
    seed: int = 0
    max_candidates: int = 1000
    jacobi_tolerance: float = 1e-10
    target: SearchTarget = SearchTarget.W3
    max_results: int = 10
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self) -> None:
        if self.max_candidates < 1:
            raise ValueError(f"max_candidates must be >= 1, got {self.max_candidates}")
        if self.dim <= 0 or self.dim % 2 != 0:
            raise ValueError(f"dim must be even and positive, got {self.dim}")
        if self.max_results < 1:
            raise ValueError(f"max_results must be >= 1, got {self.max_results}")
        check_tolerance(self.tolerance)
        check_tolerance(self.jacobi_tolerance, "jacobi_tolerance")


@dataclass
class SearchStats:
    candidates: int = 0
    converged: int = 0
    hits: int = 0
    rejected_class: int = 0
    rejected_jacobi: int = 0
    elapsed: float = 0.0
    by_ansatz: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# linear machinery: membership null spaces
# ---------------------------------------------------------------------------


def _pair_index(dim: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(dim), 2))


def _basis_matrix(dim: int, triples: list[tuple[int, int, int]]) -> NDArray:
    """Columns are flattened antisymmetric structure-constant basis elements
    C with C[k][i][j] = 1 = -C[k][j][i] for each (k, i, j) triple."""
    cols = np.zeros((dim**3, len(triples)))
    for t, (k, i, j) in enumerate(triples):
        C = np.zeros((dim, dim, dim))
        C[k, i, j] = 1.0
        C[k, j, i] = -1.0
        cols[:, t] = C.ravel()
    return cols


def _w3_rows(dim: int, basis: NDArray) -> NDArray:
    """Matrix of the linear map (structure constants) -> cyclic sum of F."""
    g, J = canonical_norden_pair(dim)
    g_inv = np.linalg.inv(g)
    rows = []
    for t in range(basis.shape[1]):
        C = basis[:, t].reshape(dim, dim, dim)
        F = lower(compute_nabla_J(levi_civita(C, g, g_inv), J), g)
        rows.append(cyclic_sum3(F).ravel())
    return np.array(rows).T


def _null_space(A: NDArray) -> NDArray:
    if A.size == 0:
        return np.zeros((A.shape[1], 0))
    u, s, vt = np.linalg.svd(A)
    smax = s[0] if s.size and s[0] > 0 else 1.0
    rank = int(np.sum(s > max(A.shape) * np.finfo(float).eps * smax))
    return vt[rank:].T


@lru_cache(maxsize=None)
def _generic_family(dim: int) -> tuple[NDArray, NDArray]:
    """(basis matrix, null-space coordinates) for the full antisymmetric
    constant space intersected with the membership condition."""
    triples = [(k, i, j) for (i, j) in _pair_index(dim) for k in range(dim)]
    basis = _basis_matrix(dim, triples)
    null = _null_space(_w3_rows(dim, basis))
    return basis, null


@lru_cache(maxsize=None)
def _two_step_families(dim: int) -> tuple[tuple[NDArray, NDArray], ...]:
    """Per-partition (basis, membership null space) for two-step ansatze with
    nontrivial null space.  Brackets of the non-central indices land in the
    centre Z; Jacobi is then automatic."""
    families = []
    indices = set(range(dim))
    for z_size in range(1, dim - 1):
        for Z in itertools.combinations(range(dim), z_size):
            V = sorted(indices - set(Z))
            if len(V) < 2:
                continue
            triples = [
                (k, i, j) for (i, j) in itertools.combinations(V, 2) for k in Z
            ]
            if not triples:
                continue
            basis = _basis_matrix(dim, triples)
            null = _null_space(_w3_rows(dim, basis))
            if null.shape[1] > 0:
                families.append((basis, null))
    return tuple(families)


# ---------------------------------------------------------------------------
# quadratic residual maps for the Gauss-Newton projection
# ---------------------------------------------------------------------------


def _r_prime_bianchi(
    C: NDArray, g: NDArray, J: NDArray, gamma: NDArray, nJ: NDArray
) -> NDArray:
    """First Bianchi cyclic sum of the skew-torsion curvature, from the
    Levi-Civita coefficients gamma and their nabla J."""
    return cyclic_sum3(riemann(gamma + q_array(nJ, J), C, g))


def _bianchi_prime_map(C: NDArray, g: NDArray, g_inv: NDArray, J: NDArray) -> NDArray:
    """The R' Bianchi sum as a map of C; homogeneous quadratic."""
    gamma = levi_civita(C, g, g_inv)
    return _r_prime_bianchi(C, g, J, gamma, compute_nabla_J(gamma, J)).ravel()


def _gauss_newton_candidate(
    rng: np.random.Generator,
    dim: int,
    basis: NDArray,
    null: NDArray,
    want_kahler: bool,
) -> NDArray | None:
    """One slice-constrained damped Gauss-Newton attempt; returns structure
    constants with max-abs 1 on convergence, else None."""
    r = null.shape[1]
    if r == 0:
        return None
    g, J = canonical_norden_pair(dim)
    g_inv = np.linalg.inv(g)

    def build(z: NDArray) -> NDArray:
        return (basis @ (null @ z)).reshape(dim, dim, dim)

    def phi(C: NDArray) -> NDArray:
        parts = [jacobi_array(C).ravel()]
        if want_kahler:
            parts.append(_bianchi_prime_map(C, g, g_inv, J))
        return np.concatenate(parts)

    direction = rng.normal(size=r)
    norm = np.linalg.norm(direction)
    if norm < 1e-12:
        return None
    direction /= norm
    z = rng.uniform(-1.0, 1.0, r)
    slope = direction @ z
    if abs(slope) < 1e-3:
        return None
    z = z / slope

    dirs = [(basis @ null[:, a]).reshape(dim, dim, dim) for a in range(r)]
    for _ in range(GN_MAX_ITERATIONS):
        C = build(z)
        f = phi(C)
        norm_inf = np.max(np.abs(f))
        if norm_inf < GN_CONVERGENCE:
            break
        # both residual maps are homogeneous quadratic, so directional
        # derivatives are exact central differences
        cols = [0.5 * (phi(C + D) - phi(C - D)) for D in dirs]
        A = np.vstack([np.array(cols).T, direction[None, :]])
        b = np.concatenate([f, [direction @ z - 1.0]])
        step, *_ = np.linalg.lstsq(A, b, rcond=None)
        lam, next_z = 1.0, None
        for _ in range(16):
            cand = z - lam * step
            if np.max(np.abs(phi(build(cand)))) < norm_inf:
                next_z = cand
                break
            lam *= 0.5
        if next_z is None:
            return None
        z = next_z
    else:
        return None
    C = build(z)
    max_abs = np.max(np.abs(C))
    if max_abs < 1e-8:
        return None
    return C / max_abs


def _two_step_candidate(
    rng: np.random.Generator, dim: int, basis: NDArray, null: NDArray
) -> NDArray | None:
    coeff = null @ rng.uniform(-1.0, 1.0, null.shape[1])
    C = (basis @ coeff).reshape(dim, dim, dim)
    max_abs = np.max(np.abs(C))
    if max_abs < 1e-10:
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
    if not validate_manifold(m, jacobi_tolerance=cfg.jacobi_tolerance).ok:
        stats.rejected_jacobi += 1
        return None
    gamma = levi_civita(C, g, m.metric_inv)
    nabla_J = compute_nabla_J(gamma, J)
    cls = classify(m, compute_F(m, nabla_J), nabla_J, cfg.tolerance)
    if cls.label is not ClassLabel.QUASI_KAHLER_W3:
        stats.rejected_class += 1
        return None
    if cfg.target is SearchTarget.W3_RPRIME_KAHLER:
        bianchi = _r_prime_bianchi(C, g, J, gamma, nabla_J)
        if zero_residual(bianchi) > cfg.tolerance:
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

    two_step = _two_step_families(cfg.dim)
    generic = _generic_family(cfg.dim)
    want_kahler = cfg.target is SearchTarget.W3_RPRIME_KAHLER

    # deterministic ansatz rotation: all two-step families, then one GN try
    plan: list[tuple[str, NDArray, NDArray]] = []
    if not want_kahler:
        for basis, null in two_step:
            plan.append(("two_step", basis, null))
    plan.append(("gauss_newton", generic[0], generic[1]))

    manifests: list[ManifoldManifest] = []
    index = 0
    while stats.candidates < cfg.max_candidates and len(manifests) < cfg.max_results:
        kind, basis, null = plan[index % len(plan)]
        index += 1
        stats.candidates += 1
        stats.by_ansatz[kind] = stats.by_ansatz.get(kind, 0) + 1
        if kind == "two_step":
            C = _two_step_candidate(rng, cfg.dim, basis, null)
        else:
            C = _gauss_newton_candidate(rng, cfg.dim, basis, null, want_kahler)
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
