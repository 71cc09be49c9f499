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

from .tensors import cyclic_sum3, lower, permutation_residual, residual

JACOBI_TOLERANCE = 1e-10
MATRIX_TOLERANCE = 1e-12
# [[e_i,e_j],e_l] in frame components [p][i][j][l] as signed products of two
# factors (name, index letters) summed over m; the Jacobi sum is its cyclic sum
# in (i, j, l).  The search's quadratic form reads it, and so, once, do the axes
# of jacobi_array's matmul (ij, m) @ (m, pl).
JACOBI_TERMS = ((1, ("C", "mij"), ("C", "pml")),)
[(_SIGN, (_, _X), (_, _Y))] = JACOBI_TERMS
_X_AXES = tuple(_X.index(c) - 3 for c in "ijm")
_Y_AXES = tuple(_Y.index(c) - 3 for c in "mpl")


@dataclass(frozen=True, eq=False)
class LieFrameManifold:
    """Structure constants, metric and almost complex structure in one frame;
    equality and hashing are by identity."""

    dim: int
    structure_constants: NDArray = field(repr=False)
    metric: NDArray = field(repr=False)
    J: NDArray = field(repr=False)

    def __post_init__(self) -> None:
        d = self.dim
        if d <= 0 or d % 2 != 0:
            raise ValueError(f"frame dimension must be even and positive, got {d}")
        # one read-only copy per field: the caller's arrays stay theirs
        C, g, J = (
            np.array(a, dtype=float, order="C")
            for a in (self.structure_constants, self.metric, self.J)
        )
        if C.shape != (d, d, d):
            raise ValueError(f"structure constants shape {C.shape} != {(d, d, d)}")
        if g.shape != (d, d):
            raise ValueError(f"metric shape {g.shape} != {(d, d)}")
        if J.shape != (d, d):
            raise ValueError(f"J shape {J.shape} != {(d, d)}")
        for name, arr in (("structure_constants", C), ("metric", g), ("J", J)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

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
    """The Jacobi sum of `JACOBI_TERMS`, index order [p][i][j][l]; leading
    batch axes of C are kept.  The products are one stacked matmul, and the
    copy that reshaping (m, pl) takes applies the sign."""
    d, lead = C.shape[-1], tuple(range(C.ndim - 3))
    x = C.transpose(lead + _X_AXES).reshape(C.shape[:-3] + (d * d, d))
    y = np.multiply(_SIGN, C.transpose(lead + _Y_AXES), order="C")
    ijpl = (x @ y.reshape(C.shape[:-3] + (d, d * d))).reshape(C.shape + (d,))
    return cyclic_sum3(ijpl, (-4, -3, -1)).transpose(lead + (-2, -4, -3, -1))


def validate_manifold(m: LieFrameManifold) -> ValidationOutcome:
    """Check every geometric invariant, reporting all violations with residuals.

    Shape errors are raised by the LieFrameManifold constructor; this function
    only judges the geometry of well-shaped data.  A residual that is not
    finite (an overflow in the Jacobi sum, say) is a violation.
    """
    anti, jacobi = bracket_residuals(m.structure_constants[None])
    violations = [
        Violation(name, float(r[0]))
        for name, r, tol in (
            ("bracket antisymmetry C[k][i][j]=-C[k][j][i]", anti, MATRIX_TOLERANCE),
            ("Jacobi identity", jacobi, JACOBI_TOLERANCE),
        )
        if not r[0] <= tol
    ]
    violations += _pair_violations(m.metric, m.J)
    return ValidationOutcome(violations=tuple(violations))


def bracket_residuals(C: NDArray) -> tuple[NDArray, NDArray]:
    """The residuals of the bracket checks of `validate_manifold` for a stack
    of brackets C (K, d, d, d), one entry per bracket: antisymmetry (judged
    against MATRIX_TOLERANCE) and the max-abs Jacobi sum (JACOBI_TOLERANCE)."""
    # C[k][i][j] against -C[k][j][i], from max|C| per entry
    top = np.abs(C).max((-3, -2, -1))
    antisymmetry = permutation_residual(C, top, ((0, 2, 1),), -1, batch=1)
    return antisymmetry, np.abs(jacobi_array(C)).max(axis=(-4, -3, -2, -1))


def _pair_violations(g: NDArray, J: NDArray) -> list[Violation]:
    """Violations of the invariants that read only the metric and J."""
    d = len(g)
    residuals = {
        "almost complex structure J^2=-I": residual(J @ J, -np.eye(d)),
        "Norden compatibility J^T g J = -g": residual(J.T @ g @ J, -g),
        "metric symmetry": residual(g, g.T),
    }
    violations = [
        Violation(name, r) for name, r in residuals.items() if not r <= MATRIX_TOLERANCE
    ]
    eigs = np.linalg.eigvalsh(0.5 * (g + g.T))
    smallest, n_pos = float(np.min(np.abs(eigs))), int(np.sum(eigs > 0))
    if smallest <= MATRIX_TOLERANCE:
        violations.append(Violation("metric nondegeneracy", smallest))
    elif n_pos != d // 2:
        signature = f"({n_pos},{d-n_pos}) != ({d//2},{d//2})"
        violations.append(
            Violation(f"metric signature {signature}", float(abs(n_pos - d // 2)))
        )
    return violations


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


def covariant_derivative(gamma: NDArray, t: NDArray) -> NDArray:
    """Covariant derivative of an all-covariant left-invariant tensor along
    the frame connection gamma.

    Component functions are constant in the frame, so only connection terms
    survive: (nabla t)[i][a_1..a_r] = -sum_s gamma[m][i][a_s] t[a_1..m..a_r].
    The derivative direction is slot 0 of the result, whose dtype is that of
    gamma and t (object for `Fraction` entries).
    """
    d, rank = gamma.shape[-1], t.ndim
    if t.shape != (d,) * rank:
        raise ValueError(f"tensor shape {t.shape} does not match frame dim {d}")
    if rank > 8:
        raise ValueError("covariant_derivative supports rank <= 8")
    letters = "abcdefgh"[:rank]
    out = np.zeros((d,) * (rank + 1), dtype=np.result_type(gamma, t))
    for s in range(rank):
        t_letters = letters[:s] + "m" + letters[s + 1 :]
        out -= np.einsum(f"mi{letters[s]},{t_letters}->i{letters}", gamma, t)
    return out


def torsion(gamma: NDArray, C: NDArray) -> NDArray:
    """Torsion T[k][i][j] of a frame connection: gamma[k][i][j]-gamma[k][j][i]-C[k][i][j]."""
    return gamma - gamma.transpose(0, 2, 1) - C
