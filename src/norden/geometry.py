"""Norden-specific tensors: nabla J, the fundamental tensor F, class membership,
square norms of nabla J and the torsion potential Q of the skew-torsion
connection nabla' = nabla + Q (coefficients gamma + Q).

Conventions: nabla J is stored mixed, (nabla_{e_i} J)e_j = (nablaJ)[k][i][j] e_k.
F and the covariant form of Q are fully covariant rank-3 tensors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .manifolds import LieFrameManifold
from .tensors import DEFAULT_TOLERANCE, cyclic_sum3, lower, zero_residual


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


def compute_nabla_J(gamma: NDArray, J: NDArray) -> NDArray:
    """(nabla_{e_i} J)e_j of the frame connection gamma, index order [k][i][j];
    leading batch axes of gamma are kept."""
    return np.einsum("...kim,mj->...kij", gamma, J) - np.einsum("km,...mij->...kij", J, gamma)


def twist_arrays(nJ: NDArray, J: NDArray) -> tuple[NDArray, NDArray]:
    """(nabla_x J)Jy and (nabla_{Jx} J)y as mixed arrays [k][x][y]."""
    return np.einsum("...kia,aj->...kij", nJ, J), np.einsum("ai,...kaj->...kij", J, nJ)


def q_array(nJ: NDArray, J: NDArray) -> NDArray:
    """Q(x,y) = 1/4 { (nabla_x J)Jy - (nabla_{Jx} J)y - 2 (nabla_y J)Jx }, mixed;
    leading batch axes of nJ are kept."""
    a, b = twist_arrays(nJ, J)
    return (a - b - 2 * a.swapaxes(-1, -2)) / 4


def compute_F(m: LieFrameManifold, nabla_J: NDArray) -> NDArray:
    """Fundamental tensor F(x,y,z) = g((nabla_x J)y, z), fully covariant."""
    return lower(nabla_J, m.metric)


def w3_membership_residuals(
    m: LieFrameManifold, F: NDArray, nabla_J: NDArray
) -> tuple[float, float, float]:
    """Residuals of the three equivalent quasi-Kahler membership conditions."""
    J = m.J
    r_14 = zero_residual(cyclic_sum3(F))
    FJ = np.einsum("ai,ajk->ijk", J, F)
    r_113 = zero_residual(cyclic_sum3(FJ))
    a, b = twist_arrays(nabla_J, J)
    r_114 = zero_residual(a + a.transpose(0, 2, 1) + b + b.transpose(0, 2, 1))
    return r_14, r_113, r_114


def classify(
    m: LieFrameManifold,
    F: NDArray,
    nabla_J: NDArray,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Classification:
    """Kahler / quasi-Kahler / other decision from the fundamental tensor."""
    f_norm = float(np.abs(F).max())
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


def metric_trace(g_inv: NDArray, A: NDArray, G: NDArray, cross: bool = False):
    """g^{ij} g^{ks} G(A(e_i,e_k), A(e_j,e_s)) for a vector-valued A stored
    [a][x][y] and a bilinear form G; with `cross` the second argument is
    A(e_s,e_j).

    Two matrix products and one dot product, O(d^4); the entries' dtype is
    kept, so the result is a numpy scalar (exact for Fraction entries).
    """
    d = A.shape[0]
    x = g_inv.T @ A @ g_inv  # x[a][j][s] = g^{ij} g^{ks} A(e_i,e_k)^a
    if cross:
        A = A.swapaxes(1, 2)
    y = G @ A.reshape(d, -1)
    return x.reshape(-1) @ y.reshape(-1)


def square_norms(m: LieFrameManifold, nabla_J: NDArray) -> tuple[float, float]:
    """Square norm of nabla J and its associated variant.

    sq_norm = g^{ij} g^{ks} g((nabla_{e_i} J)e_k, (nabla_{e_j} J)e_s); the
    associated variant replaces the innermost pairing g by the associated
    metric g~(x,y) = g(x,Jy).
    """
    g, g_inv = m.metric, m.metric_inv
    return (
        float(metric_trace(g_inv, nabla_J, g)),
        float(metric_trace(g_inv, nabla_J, g @ m.J)),
    )


def sq_norm_cross_form(m: LieFrameManifold, nabla_J: NDArray) -> float:
    """The cross-contracted form -2 g^{ij} g^{ks} g((nabla_i J)e_k, (nabla_s J)e_j).

    Equals the square norm of nabla J on quasi-Kahler manifolds; used as an
    independent route for the square-norm identity check.
    """
    return float(-2 * metric_trace(m.metric_inv, nabla_J, m.metric, cross=True))


def compute_Q(
    m: LieFrameManifold, nabla_J: NDArray, classification: Classification
) -> tuple[NDArray, NDArray]:
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
    q_vec = q_array(nabla_J, m.J)
    return q_vec, lower(q_vec, m.metric)


class InapplicableClassError(ValueError):
    """Operation undefined for the manifold's class."""


def q_from_cyclic_F(F: NDArray, J: NDArray) -> NDArray:
    """Covariant Q by the independent route -1/4 cyclic-sum of F(y,z,Jw)."""
    return -cyclic_sum3(np.einsum("ija,ak->ijk", F, J)) / 4
