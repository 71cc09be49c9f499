"""Curvature tensors of the Levi-Civita and skew-torsion connections, the
auxiliary tensors P and H, the symmetry residuals of a stack of rank-4
tensors, the two scalar curvatures, and the standard Kahler basis tensors
pi_1, pi_2, pi_3 with their combinations.
Every function takes the arrays it reads (data, then g, g^{-1}, J) and
returns arrays or numbers.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .tensors import contract, cyclic_sum3, permutation_residual, zero_residual

# g(R(e_i,e_j)e_k, e_l) as signed products of two factors (name, index letters)
# summed over m: the brackets C, the connection gamma and its lowered form
# L[i][m][l] = g(nabla_{e_i} e_m, e_l).  `riemann` and the search's form read it.
RIEMANN_TERMS = (
    (1, ("L", "iml"), ("gamma", "mjk")),
    (-1, ("L", "jml"), ("gamma", "mik")),
    (-1, ("C", "mij"), ("L", "mkl")),
)


def bianchi_residual(L: NDArray) -> float | NDArray:
    """Residual of the first Bianchi identity: the cyclic sum over the first
    three slots of L vanishes.  Leading batch axes of L index a stack: one
    residual per entry, else a float."""
    return zero_residual(cyclic_sum3(L, (-4, -3, -2)), L.ndim - 4)


class SymmetryPanel(NamedTuple):
    """Per entry of a stack of rank-4 tensors L: max|L|, and the residuals
    (`tensors.residual`) of both pair antisymmetries L(x,y,z,w) =
    -L(y,x,z,w) = -L(x,y,w,z) (the larger of the two), of the first Bianchi
    identity and of L(x,y,Jz,Jw) = -L(x,y,z,w)."""

    top: NDArray
    antisym: NDArray
    bianchi: NDArray
    kahler: NDArray


def symmetry_panel(L: NDArray, J: NDArray) -> SymmetryPanel:
    """The symmetry residuals of each entry of the stack L (K, d, d, d, d),
    with max|L| taken once per entry.  They are bit for bit the residuals of
    each entry against -L(y,x,z,w), -L(x,y,w,z) and -J^T L J: J^T L J acts on
    the last two slots, one entry at a time, L - (-X) is L + X, and a
    permutation of L keeps its max-abs."""
    entry = (1, 2, 3, 4)
    top = np.abs(L).max(entry)
    antisym = permutation_residual(L, top, ((1, 0, 2, 3), (0, 1, 3, 2)), -1, batch=1)
    twisted = J.T @ L @ J
    scale = 1.0 + np.maximum(np.abs(twisted).max(entry), top)
    kahler = np.abs(twisted + L).max(entry) / scale
    return SymmetryPanel(top, antisym, bianchi_residual(L), kahler)


def riemann(gamma: NDArray, C: NDArray, g: NDArray) -> NDArray:
    """Curvature g(R(x,y)z, w) of the frame connection gamma, R(x,y)z =
    nabla_x nabla_y z - nabla_y nabla_x z - nabla_[x,y] z: one einsum per term of
    `RIEMANN_TERMS`, leading batch axes kept; L stored [l][i][m] runs faster."""
    L = np.einsum("ml,...mik->...lik", g, gamma).swapaxes(-3, -2).swapaxes(-2, -1)
    factors, R = {"C": C, "gamma": gamma, "L": L}, 0
    for sign, (a, x), (b, y) in RIEMANN_TERMS:
        t = np.einsum(f"...{x},...{y}->...ijkl", factors[a], factors[b])
        R = R + t if sign > 0 else R - t
    return R


def ricci_and_scalars(L: NDArray, g_inv: NDArray, J: NDArray) -> NDArray:
    """(tau, tau*) of L on a last axis of 2: tau = g^{ij} rho(e_i,e_j) and
    tau* = g^{ij} rho(e_i,Je_j) of its Ricci tensor rho(x,y) =
    g^{ij} L(e_i,x,y,e_j).  Leading batch axes of L are kept."""
    rho = contract(L, L.ndim - 4, L.ndim - 1, g_inv)
    tau = contract(rho, rho.ndim - 2, rho.ndim - 1, g_inv)
    return np.stack([tau, np.einsum("ab,...am,mb->...", g_inv, rho, J)], -1)


def metric_pairing(A: NDArray, B: NDArray, g: NDArray) -> NDArray:
    """L[x][y][z][w] = g(A(x,y), B(z,w)) for vector-valued A and B.  With
    A = B = Q it is qq, of which every Q-quadratic term of R', P and
    EQ_2_6/EQ_2_7 is a slot permutation."""
    gB = np.einsum("mn,nkl->mkl", g, B)
    return np.einsum("mij,mkl->ijkl", A, gB)


def curvature_prime_from_correction(
    R: NDArray, nabla_Q: NDArray, qq: NDArray
) -> NDArray:
    """Independent route to the skew-torsion curvature:
    R'(x,y,z,w) = R(x,y,z,w) + (nabla_x Q)(y,z,w) - (nabla_y Q)(x,z,w)
                  - g(Q(y,z),Q(x,w)) + g(Q(x,z),Q(y,w)),
    with nabla_Q the Levi-Civita derivative of the covariant Q and
    qq = metric_pairing(Q, Q, g)."""
    return (
        R
        + nabla_Q
        - nabla_Q.transpose(1, 0, 2, 3)
        - qq.transpose(2, 0, 1, 3)
        + qq.transpose(0, 2, 1, 3)
    )


def tensor_P(qq: NDArray) -> NDArray:
    """P(x,y,z,w) = 2 g(Q(x,y),Q(z,w)) + g(Q(z,y),Q(x,w)) + g(Q(x,z),Q(y,w)),
    with qq = metric_pairing(Q, Q, g)."""
    return 2.0 * qq + qq.transpose(2, 1, 0, 3) + qq.transpose(0, 2, 1, 3)


def tensor_H(a: NDArray, b: NDArray, g: NDArray) -> NDArray:
    """H(x,y,z,w) = g((nabla_x J)Jy + (nabla_{Jx} J)y, (nabla_z J)Jw + (nabla_{Jz} J)w),
    from the twist pair (a, b) = `geometry.twist_arrays(nabla J, J)`."""
    B = a + b
    return metric_pairing(B, B, g)


PiForms = tuple[NDArray, NDArray, NDArray]


def pi_forms(g: NDArray, J: NDArray) -> PiForms:
    """The three rank-4 tensors built from g and the associated metric:

    pi_1(x,y,z,w) = g(y,z)g(x,w) - g(x,z)g(y,w)
    pi_2(x,y,z,w) = g(y,Jz)g(x,Jw) - g(x,Jz)g(y,Jw)
    pi_3(x,y,z,w) = -g(y,z)g(x,Jw) + g(x,z)g(y,Jw) - g(y,Jz)g(x,w) + g(x,Jz)g(y,w)
    """
    gt = g @ J
    pi1 = np.einsum("jk,il->ijkl", g, g) - np.einsum("ik,jl->ijkl", g, g)
    pi2 = np.einsum("jk,il->ijkl", gt, gt) - np.einsum("ik,jl->ijkl", gt, gt)
    pi3 = (
        -np.einsum("jk,il->ijkl", g, gt)
        + np.einsum("ik,jl->ijkl", g, gt)
        - np.einsum("jk,il->ijkl", gt, g)
        + np.einsum("ik,jl->ijkl", gt, g)
    )
    return pi1, pi2, pi3


def kahler_form(pis: PiForms, a: float, b: float) -> NDArray:
    """The Kahler-type combination a (pi_1 - pi_2) + b pi_3."""
    pi1, pi2, pi3 = pis
    return a * (pi1 - pi2) + b * pi3

