"""Norden-specific tensors: nabla J and its twist pair (nabla_x J)Jy and
(nabla_{Jx} J)y, the class decision from the fundamental tensor
F = g((nabla_x J)y, z), the torsion potential Q of the skew-torsion
connection nabla' = nabla + Q (coefficients gamma + Q) from the twist pair,
and the metric trace that the suite's square norms of nabla J and Q are made
of.

Conventions: nabla J and Q are stored mixed, (nabla_{e_i} J)e_j =
(nablaJ)[k][i][j] e_k.  F and the covariant form of Q, both `tensors.lower`
of the mixed arrays, are fully covariant rank-3 tensors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np
from numpy.typing import NDArray

from .tensors import DEFAULT_TOLERANCE, cyclic_sum3, zero_residual


class ClassLabel(enum.Enum):
    KAHLER_W0 = "KAHLER_W0"
    QUASI_KAHLER_W3 = "QUASI_KAHLER_W3"
    OTHER = "OTHER"


@dataclass(frozen=True)
class Classification:
    """Class decision together with the residuals it was based on: f_norm is
    max|F|, w3_residual the residual of the cyclic sum of F."""

    label: ClassLabel
    f_norm: float
    w3_residual: float

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

    # the field names in declaration order: the order of report keys and lines
    FIELDS: ClassVar[tuple[str, ...]]


ScalarPanel.FIELDS = tuple(f.name for f in fields(ScalarPanel))


def compute_nabla_J(gamma: NDArray, J: NDArray) -> NDArray:
    """(nabla_{e_i} J)e_j of the frame connection gamma, index order [k][i][j];
    leading batch axes of gamma are kept.  Two matrix products: gamma J, and
    J times the (m, ij) view of gamma."""
    lead, d = gamma.shape[:-3], len(J)
    J_gamma = J @ gamma.reshape(lead + (d, d * d))
    return gamma @ J - J_gamma.reshape(gamma.shape)


def twist_arrays(nJ: NDArray, J: NDArray) -> tuple[NDArray, NDArray]:
    """(nabla_x J)Jy and (nabla_{Jx} J)y as mixed arrays [k][x][y], the
    matrix products nJ J and J^T nJ; leading batch axes are kept."""
    return nJ @ J, J.T @ nJ


def q_array(a: NDArray, b: NDArray) -> NDArray:
    """Q(x,y) = 1/4 { (nabla_x J)Jy - (nabla_{Jx} J)y - 2 (nabla_y J)Jx }, mixed,
    from the twist pair (a, b) = twist_arrays(nabla J, J); leading batch axes
    are kept."""
    return (a - b - 2 * a.swapaxes(-1, -2)) / 4


def classify(
    F: NDArray, tolerance: float = DEFAULT_TOLERANCE
) -> Classification | list[Classification]:
    """Kahler / quasi-Kahler / other decision from the fundamental tensor:
    Kahler when max|F| is within tolerance, else quasi-Kahler when the cyclic
    sum of F is.  For a stack of F, (K, d, d, d), one Classification per
    entry."""
    batch = F.ndim - 3
    cyclic = (-3, -2, -1)
    f_norm = np.abs(F).max(axis=cyclic)
    w3 = zero_residual(cyclic_sum3(F, cyclic), batch)
    if not batch:
        return _classification(float(f_norm), w3, tolerance)
    return [
        _classification(*entry, tolerance) for entry in zip(f_norm.tolist(), w3.tolist())
    ]


def _classification(f_norm: float, w3: float, tolerance: float) -> Classification:
    if f_norm <= tolerance:
        label = ClassLabel.KAHLER_W0
    elif w3 <= tolerance:
        label = ClassLabel.QUASI_KAHLER_W3
    else:
        label = ClassLabel.OTHER
    return Classification(label=label, f_norm=f_norm, w3_residual=w3)


def metric_trace(g_inv: NDArray, A: NDArray, G: NDArray, B: NDArray):
    """g^{ij} g^{ks} G(A(e_i,e_k), B(e_j,e_s)) for vector-valued A and B stored
    [a][x][y] and a bilinear form G.

    Two matrix products and one dot product, O(d^4); the entries' dtype is
    kept, so the result is a numpy scalar (exact for Fraction entries).
    """
    d = A.shape[0]
    x = g_inv.T @ A @ g_inv  # x[a][j][s] = g^{ij} g^{ks} A(e_i,e_k)^a
    y = G @ B.reshape(d, -1)
    return x.reshape(-1) @ y.reshape(-1)


def q_from_cyclic_F(F: NDArray, J: NDArray) -> NDArray:
    """Covariant Q by the independent route -1/4 cyclic-sum of F(y,z,Jw)."""
    return -cyclic_sum3(F @ J) / 4
