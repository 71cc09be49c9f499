"""Norden-specific tensors: nabla J, the fundamental tensor F, class membership,
square norms of nabla J, the torsion potential Q and the skew-torsion connection.

Conventions: nabla J is stored mixed, (nabla_{e_i} J)e_j = (nablaJ)[k][i][j] e_k.
F and the covariant form of Q are fully covariant rank-3 tensors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .manifolds import ConnectionCoeffs, LieFrameManifold
from .tensors import DEFAULT_TOLERANCE, DenseTensor, cyclic_sum3, lower, zero_residual


class ClassLabel(enum.Enum):
    KAHLER_W0 = "KAHLER_W0"
    QUASI_KAHLER_W3 = "QUASI_KAHLER_W3"
    OTHER = "OTHER"


@dataclass(frozen=True)
class Classification:
    """Class decision together with the residuals it was based on.

    w3_residual is the cyclic sum of F; the two companion residuals come from
    the equivalent membership conditions (cyclic sum of F(Jx,y,z), and the
    four-term nabla-J defect); the three co-vanish on valid input.
    """

    label: ClassLabel
    f_norm: float
    w3_residual: float
    w3_j_residual: float
    w3_defect_residual: float

    @property
    def is_w3_or_kahler(self) -> bool:
        return self.label is not ClassLabel.OTHER


@dataclass(frozen=True)
class ScalarPanel:
    """All scalar quantities of one manifold (populated for W0/W3 classes only)."""

    tau: float
    tau_star: float
    tau_prime: float
    tau_prime_star: float
    tau_P: float
    tau_star_P: float
    tau_H: float
    tau_star_H: float
    sq_norm_nablaJ: float
    assoc_sq_norm_nablaJ: float

    FIELDS = (
        "tau",
        "tau_star",
        "tau_prime",
        "tau_prime_star",
        "tau_P",
        "tau_star_P",
        "tau_H",
        "tau_star_H",
        "sq_norm_nablaJ",
        "assoc_sq_norm_nablaJ",
    )


def nabla_J_array(gamma: NDArray, J: NDArray) -> NDArray:
    """(nabla_{e_i} J)e_j of the connection gamma, index order [k][i][j]."""
    return np.einsum("kim,mj->kij", gamma, J) - np.einsum("km,mij->kij", J, gamma)


def twist_arrays(nJ: NDArray, J: NDArray) -> tuple[NDArray, NDArray]:
    """(nabla_x J)Jy and (nabla_{Jx} J)y as mixed arrays [k][x][y]."""
    return np.einsum("kia,aj->kij", nJ, J), np.einsum("ai,kaj->kij", J, nJ)


def q_array(nJ: NDArray, J: NDArray) -> NDArray:
    """Q(x,y) = 1/4 { (nabla_x J)Jy - (nabla_{Jx} J)y - 2 (nabla_y J)Jx }, mixed."""
    a, b = twist_arrays(nJ, J)
    return 0.25 * (a - b - 2.0 * a.transpose(0, 2, 1))


def compute_nabla_J(m: LieFrameManifold, conn: ConnectionCoeffs) -> DenseTensor:
    """(nabla_{e_i} J)e_j in frame components, index order [k][i][j]."""
    return DenseTensor(dim=m.dim, rank=3, components=nabla_J_array(conn.gamma, m.J))


def compute_F(m: LieFrameManifold, nabla_J: DenseTensor) -> DenseTensor:
    """Fundamental tensor F(x,y,z) = g((nabla_x J)y, z), fully covariant."""
    return DenseTensor(dim=m.dim, rank=3, components=lower(nabla_J.components, m.metric))


def w3_membership_residuals(
    m: LieFrameManifold, F: DenseTensor, nabla_J: DenseTensor
) -> tuple[float, float, float]:
    """Residuals of the three equivalent quasi-Kahler membership conditions."""
    J = m.J
    r_14 = zero_residual(cyclic_sum3(F.components))
    FJ = np.einsum("ai,ajk->ijk", J, F.components)
    r_113 = zero_residual(cyclic_sum3(FJ))
    a, b = twist_arrays(nabla_J.components, J)
    r_114 = zero_residual(a + a.transpose(0, 2, 1) + b + b.transpose(0, 2, 1))
    return r_14, r_113, r_114


def classify(
    m: LieFrameManifold,
    F: DenseTensor,
    nabla_J: DenseTensor,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Classification:
    """Kahler / quasi-Kahler / other decision from the fundamental tensor."""
    f_norm = F.max_abs()
    r_14, r_113, r_114 = w3_membership_residuals(m, F, nabla_J)
    if f_norm <= tolerance:
        label = ClassLabel.KAHLER_W0
    elif r_14 <= tolerance:
        label = ClassLabel.QUASI_KAHLER_W3
    else:
        label = ClassLabel.OTHER
    return Classification(
        label=label,
        f_norm=f_norm,
        w3_residual=r_14,
        w3_j_residual=r_113,
        w3_defect_residual=r_114,
    )


def square_norms(m: LieFrameManifold, nabla_J: DenseTensor) -> tuple[float, float]:
    """Square norm of nabla J and its associated variant.

    sq_norm = g^{ij} g^{ks} g((nabla_{e_i} J)e_k, (nabla_{e_j} J)e_s); the
    associated variant replaces the innermost pairing g by the associated
    metric g~(x,y) = g(x,Jy).
    """
    g, g_inv = m.metric, m.metric_inv
    nJ = nabla_J.components
    sq = float(np.einsum("ij,ks,aik,bjs,ab->", g_inv, g_inv, nJ, nJ, g))
    assoc = float(np.einsum("ij,ks,aik,bjs,ab->", g_inv, g_inv, nJ, nJ, g @ m.J))
    return sq, assoc


def sq_norm_cross_form(m: LieFrameManifold, nabla_J: DenseTensor) -> float:
    """The cross-contracted form -2 g^{ij} g^{ks} g((nabla_i J)e_k, (nabla_s J)e_j).

    Equals the square norm of nabla J on quasi-Kahler manifolds; used as an
    independent route for the square-norm identity check.
    """
    g, g_inv = m.metric, m.metric_inv
    nJ = nabla_J.components
    return float(-2.0 * np.einsum("ij,ks,aik,bsj,ab->", g_inv, g_inv, nJ, nJ, g))


def compute_Q(
    m: LieFrameManifold, nabla_J: DenseTensor, classification: Classification
) -> tuple[DenseTensor, DenseTensor]:
    """Torsion potential of the skew-torsion connection, vector and covariant:
    Q(x,y) as in `q_array`, and Q(y,z,w) = g(Q(y,z), w).

    Refuses manifolds outside the Kahler/quasi-Kahler classes: total skewness
    of the covariant form is a class fact, and the connection built from Q is
    only natural there.
    """
    if not classification.is_w3_or_kahler:
        raise InapplicableClassError(
            f"torsion potential requires class KAHLER_W0 or QUASI_KAHLER_W3, "
            f"got {classification.label.value} "
            f"(cyclic-F residual {classification.w3_residual:.3e})"
        )
    q_vec = q_array(nabla_J.components, m.J)
    return (
        DenseTensor(dim=m.dim, rank=3, components=q_vec),
        DenseTensor(dim=m.dim, rank=3, components=lower(q_vec, m.metric)),
    )


class InapplicableClassError(ValueError):
    """Operation undefined for the manifold's class."""


def q_from_cyclic_F(m: LieFrameManifold, F: DenseTensor) -> DenseTensor:
    """Covariant Q by the independent route -1/4 cyclic-sum of F(y,z,Jw)."""
    FJ = np.einsum("ija,ak->ijk", F.components, m.J)
    out = -0.25 * cyclic_sum3(FJ)
    return DenseTensor(dim=m.dim, rank=3, components=out)


def connection_prime(conn: ConnectionCoeffs, q_vec: DenseTensor) -> ConnectionCoeffs:
    """The natural connection nabla'_x y = nabla_x y + Q(x,y)."""
    if conn.dim != q_vec.dim:
        raise ValueError("connection and torsion potential dimensions differ")
    return ConnectionCoeffs(gamma=conn.gamma + q_vec.components)
