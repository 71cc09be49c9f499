"""Left-invariant geometric data on a Lie group, given at the identity.

A manifold here is a frame {e_i}, structure constants C[k][i][j] with
[e_i, e_j] = C[k][i][j] e_k, a constant-component metric g and an almost
complex structure J (column j of the J matrix is J e_j).  All covariant
quantities reduce to finite algebra on these arrays, so every identity can
be certified without discretization error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .tensors import cyclic_sum3, lower, residual

JACOBI_TOLERANCE = 1e-10
MATRIX_TOLERANCE = 1e-12


def _as_readonly(arr: NDArray) -> NDArray:
    out = np.array(arr, dtype=float, copy=True, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class LieFrameManifold:
    """Structure constants, metric and almost complex structure in one frame."""

    dim: int
    structure_constants: NDArray = field(repr=False)
    metric: NDArray = field(repr=False)
    J: NDArray = field(repr=False)

    def __post_init__(self) -> None:
        d = self.dim
        if d <= 0 or d % 2 != 0:
            raise ValueError(f"frame dimension must be even and positive, got {d}")
        C = np.asarray(self.structure_constants, dtype=float)
        g = np.asarray(self.metric, dtype=float)
        J = np.asarray(self.J, dtype=float)
        if C.shape != (d, d, d):
            raise ValueError(f"structure constants shape {C.shape} != {(d, d, d)}")
        if g.shape != (d, d):
            raise ValueError(f"metric shape {g.shape} != {(d, d)}")
        if J.shape != (d, d):
            raise ValueError(f"J shape {J.shape} != {(d, d)}")
        for name, arr in (("structure_constants", C), ("metric", g), ("J", J)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        object.__setattr__(self, "structure_constants", _as_readonly(C))
        object.__setattr__(self, "metric", _as_readonly(g))
        object.__setattr__(self, "J", _as_readonly(J))

    @cached_property
    def metric_inv(self) -> NDArray:
        """g^{-1}, computed once per manifold."""
        try:
            g_inv = np.linalg.inv(self.metric)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(f"metric is singular: {exc}") from exc
        g_inv.setflags(write=False)
        return g_inv


@dataclass(frozen=True)
class Violation:
    name: str
    residual: float


@dataclass(frozen=True)
class ValidationOutcome:
    ok: bool
    violations: tuple[Violation, ...] = ()

    def describe(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(f"{v.name} (residual {v.residual:.3e})" for v in self.violations)


class InvalidManifoldError(ValueError):
    """Raised when an operation requires a manifold that failed validation."""

    def __init__(self, outcome: ValidationOutcome):
        super().__init__(f"manifold failed validation: {outcome.describe()}")
        self.outcome = outcome


def canonical_norden_pair(dim: int) -> tuple[NDArray, NDArray]:
    """The canonical split-signature pair: g = diag(1..1,-1..-1), J e_i = e_{n+i}."""
    if dim <= 0 or dim % 2 != 0:
        raise ValueError(f"dimension must be even and positive, got {dim}")
    n = dim // 2
    g = np.diag([1.0] * n + [-1.0] * n)
    J = np.zeros((dim, dim))
    for i in range(n):
        J[n + i, i] = 1.0
        J[i, n + i] = -1.0
    return g, J


def jacobi_array(C: NDArray) -> NDArray:
    """Cyclic sum of [[e_i,e_j],e_l] in frame components, index order [p][i][j][l];
    leading batch axes of C are kept."""
    return cyclic_sum3(np.einsum("...mij,...pml->...pijl", C, C), (-3, -2, -1))


def jacobi_residual(C: NDArray) -> float:
    """Max-abs of the Jacobi cyclic sum."""
    cyc = jacobi_array(C)
    return float(np.abs(cyc).max()) if cyc.size else 0.0


def validate_manifold(m: LieFrameManifold) -> ValidationOutcome:
    """Check every geometric invariant, reporting all violations with residuals.

    Shape errors are raised by the LieFrameManifold constructor; this function
    only judges the geometry of well-shaped data.  A residual that is not
    finite (an overflow in the Jacobi sum, say) is a violation.
    """
    C, g, J = m.structure_constants, m.metric, m.J
    d = m.dim
    violations: list[Violation] = []

    r = residual(C, -C.transpose(0, 2, 1))
    if not r <= MATRIX_TOLERANCE:
        violations.append(Violation("bracket antisymmetry C[k][i][j]=-C[k][j][i]", r))

    r = jacobi_residual(C)
    if not r <= JACOBI_TOLERANCE:
        violations.append(Violation("Jacobi identity", r))

    r = residual(J @ J, -np.eye(d))
    if not r <= MATRIX_TOLERANCE:
        violations.append(Violation("almost complex structure J^2=-I", r))

    r = residual(J.T @ g @ J, -g)
    if not r <= MATRIX_TOLERANCE:
        violations.append(Violation("Norden compatibility J^T g J = -g", r))

    r = residual(g, g.T)
    if not r <= MATRIX_TOLERANCE:
        violations.append(Violation("metric symmetry", r))

    eigs = np.linalg.eigvalsh(0.5 * (g + g.T))
    n_small = int(np.sum(np.abs(eigs) <= MATRIX_TOLERANCE))
    if n_small:
        violations.append(
            Violation("metric nondegeneracy", float(np.min(np.abs(eigs))))
        )
    else:
        n_pos = int(np.sum(eigs > 0))
        if n_pos != d // 2:
            violations.append(
                Violation(
                    f"metric signature ({n_pos},{d-n_pos}) != ({d//2},{d//2})",
                    float(abs(n_pos - d // 2)),
                )
            )

    return ValidationOutcome(ok=not violations, violations=tuple(violations))


def levi_civita(C: NDArray, g: NDArray, g_inv: NDArray) -> NDArray:
    """Levi-Civita coefficients gamma[k][i][j] of a constant-component metric,
    nabla_{e_i} e_j = gamma[k][i][j] e_k.

    The Koszul formula collapses to
    2 g(nabla_{e_i} e_j, e_k) = g([e_i,e_j],e_k) + g([e_k,e_i],e_j) + g([e_k,e_j],e_i).
    Leading batch axes of C are kept.
    """
    b = lower(C, g)  # b[i][j][k] = g([e_i,e_j],e_k)
    b_kij = b.swapaxes(-3, -2).swapaxes(-2, -1)  # b_kij[i][j][k] = b[k][i][j]
    low = (b + b_kij + b.swapaxes(-3, -1)) / 2
    return np.einsum("km,...ijm->...kij", g_inv, low)


def covariant_derivative(m: LieFrameManifold, gamma: NDArray, t: NDArray) -> NDArray:
    """Covariant derivative of an all-covariant left-invariant tensor along
    the frame connection gamma.

    Component functions are constant in the frame, so only connection terms
    survive: (nabla t)[i][a_1..a_r] = -sum_s gamma[m][i][a_s] t[a_1..m..a_r].
    The derivative direction is slot 0 of the result.
    """
    rank = t.ndim
    if rank == 0:
        return np.zeros(m.dim)
    if t.shape != (m.dim,) * rank:
        raise ValueError(f"tensor shape {t.shape} does not match manifold dim {m.dim}")
    if rank > 8:
        raise ValueError("covariant_derivative supports rank <= 8")
    letters = "abcdefgh"[:rank]
    out = np.zeros((m.dim,) * (rank + 1))
    for s in range(rank):
        t_letters = letters[:s] + "m" + letters[s + 1 :]
        out -= np.einsum(f"mi{letters[s]},{t_letters}->i{letters}", gamma, t)
    return out


def torsion(m: LieFrameManifold, gamma: NDArray) -> NDArray:
    """Torsion T[k][i][j] of a frame connection: gamma[k][i][j]-gamma[k][j][i]-C[k][i][j]."""
    return gamma - gamma.transpose(0, 2, 1) - m.structure_constants
