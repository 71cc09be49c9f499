"""Curvature tensors of the Levi-Civita and skew-torsion connections, the
auxiliary tensors P and H, Ricci/scalar contractions, and the dimension-4
decomposition into the standard Kahler basis tensors pi_1, pi_2, pi_3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .geometry import ScalarPanel, twist_arrays
from .manifolds import ConnectionCoeffs, LieFrameManifold
from .tensors import (
    DEFAULT_TOLERANCE,
    DenseTensor,
    contract,
    cyclic_sum3,
    residual,
    zero_residual,
)


@dataclass(frozen=True)
class CurvatureTensor:
    """Rank-4 covariant tensor with its algebraic-symmetry residuals.

    antisym_residual covers both pair antisymmetries; bianchi_residual is the
    cyclic sum over the first three slots; kahler_residual measures
    L(x,y,Jz,Jw) = -L(x,y,z,w).
    """

    t: DenseTensor
    antisym_residual: float
    bianchi_residual: float
    kahler_residual: float
    tolerance: float = DEFAULT_TOLERANCE

    @property
    def is_curvature_like(self) -> bool:
        return (
            self.antisym_residual <= self.tolerance
            and self.bianchi_residual <= self.tolerance
        )

    @property
    def is_kahler(self) -> bool:
        return self.is_curvature_like and self.kahler_residual <= self.tolerance

    @classmethod
    def from_components(
        cls,
        arr: NDArray,
        J: NDArray,
        tolerance: float = DEFAULT_TOLERANCE,
    ) -> "CurvatureTensor":
        t = DenseTensor.from_array(arr)
        if t.rank != 4:
            raise ValueError(f"curvature tensor must have rank 4, got {t.rank}")
        a = t.components
        antisym = max(
            residual(a, -a.transpose(1, 0, 2, 3)),
            residual(a, -a.transpose(0, 1, 3, 2)),
        )
        bianchi = zero_residual(cyclic_sum3(a))
        kahler = residual(np.einsum("ck,dl,ijcd->ijkl", J, J, a), -a)
        return cls(
            t=t,
            antisym_residual=antisym,
            bianchi_residual=bianchi,
            kahler_residual=kahler,
            tolerance=tolerance,
        )


def curvature_array(gamma: NDArray, C: NDArray, g: NDArray) -> NDArray:
    """Curvature R(x,y)z = nabla_x nabla_y z - nabla_y nabla_x z - nabla_[x,y] z
    of the frame connection gamma, lowered to the (0,4) form g(R(x,y)z, w)."""
    r_vec = (
        np.einsum("lim,mjk->lijk", gamma, gamma)
        - np.einsum("ljm,mik->lijk", gamma, gamma)
        - np.einsum("mij,lmk->lijk", C, gamma)
    )
    return np.einsum("mijk,ml->ijkl", r_vec, g)


def riemann(
    m: LieFrameManifold,
    conn: ConnectionCoeffs,
    tolerance: float = DEFAULT_TOLERANCE,
) -> CurvatureTensor:
    """Curvature tensor of a frame connection (see `curvature_array`)."""
    arr = curvature_array(conn.gamma, m.structure_constants, m.metric)
    return CurvatureTensor.from_components(arr, m.J, tolerance)


@dataclass(frozen=True)
class RicciScalars:
    """Ricci tensor and the two scalar curvatures."""

    rho: DenseTensor
    tau: float
    tau_star: float


def ricci_and_scalars(m: LieFrameManifold, ct: CurvatureTensor) -> RicciScalars:
    """rho(x,y) = g^{ij} L(e_i,x,y,e_j); tau = g^{ij} rho(e_i,e_j);
    tau_star = g^{ij} rho(e_i,Je_j)."""
    g_inv = m.metric_inv
    rho = contract(ct.t, 0, 3, g_inv)
    return RicciScalars(
        rho=rho,
        tau=float(contract(rho, 0, 1, g_inv).components),
        tau_star=float(np.einsum("ab,am,mb->", g_inv, rho.components, m.J)),
    )


def q_pairing(m: LieFrameManifold, q_vec: DenseTensor) -> NDArray:
    """qq[x][y][z][w] = g(Q(x,y), Q(z,w)); every Q-quadratic term of R', P
    and EQ_2_6/EQ_2_7 is a slot permutation of it."""
    qv = q_vec.components
    return np.einsum("mij,nkl,mn->ijkl", qv, qv, m.metric)


def curvature_prime_from_correction(
    m: LieFrameManifold,
    R: CurvatureTensor,
    nabla_Q: DenseTensor,
    qq: NDArray,
    tolerance: float = DEFAULT_TOLERANCE,
) -> CurvatureTensor:
    """Independent route to the skew-torsion curvature:
    R'(x,y,z,w) = R(x,y,z,w) + (nabla_x Q)(y,z,w) - (nabla_y Q)(x,z,w)
                  - g(Q(y,z),Q(x,w)) + g(Q(x,z),Q(y,w)),
    with nabla_Q the Levi-Civita derivative of the covariant Q and qq from
    `q_pairing`."""
    dQ = nabla_Q.components
    arr = (
        R.t.components
        + dQ
        - dQ.transpose(1, 0, 2, 3)
        - qq.transpose(2, 0, 1, 3)
        + qq.transpose(0, 2, 1, 3)
    )
    return CurvatureTensor.from_components(arr, m.J, tolerance)


def tensor_P(
    m: LieFrameManifold, qq: NDArray, tolerance: float = DEFAULT_TOLERANCE
) -> CurvatureTensor:
    """P(x,y,z,w) = 2 g(Q(x,y),Q(z,w)) + g(Q(z,y),Q(x,w)) + g(Q(x,z),Q(y,w)),
    with qq from `q_pairing`."""
    arr = 2.0 * qq + qq.transpose(2, 1, 0, 3) + qq.transpose(0, 2, 1, 3)
    return CurvatureTensor.from_components(arr, m.J, tolerance)


def tensor_H(
    m: LieFrameManifold, nabla_J: DenseTensor, tolerance: float = DEFAULT_TOLERANCE
) -> CurvatureTensor:
    """H(x,y,z,w) = g((nabla_x J)Jy + (nabla_{Jx} J)y, (nabla_z J)Jw + (nabla_{Jz} J)w)."""
    a, b = twist_arrays(nabla_J.components, m.J)
    B = a + b
    arr = np.einsum("mij,nkl,mn->ijkl", B, B, m.metric)
    return CurvatureTensor.from_components(arr, m.J, tolerance)


PiForms = tuple[CurvatureTensor, CurvatureTensor, CurvatureTensor]


def pi_forms(m: LieFrameManifold, tolerance: float = DEFAULT_TOLERANCE) -> PiForms:
    """The three rank-4 tensors built from g and the associated metric:

    pi_1(x,y,z,w) = g(y,z)g(x,w) - g(x,z)g(y,w)
    pi_2(x,y,z,w) = g(y,Jz)g(x,Jw) - g(x,Jz)g(y,Jw)
    pi_3(x,y,z,w) = -g(y,z)g(x,Jw) + g(x,z)g(y,Jw) - g(y,Jz)g(x,w) + g(x,Jz)g(y,w)
    """
    g = m.metric
    gt = g @ m.J
    pi1 = np.einsum("jk,il->ijkl", g, g) - np.einsum("ik,jl->ijkl", g, g)
    pi2 = np.einsum("jk,il->ijkl", gt, gt) - np.einsum("ik,jl->ijkl", gt, gt)
    pi3 = (
        -np.einsum("jk,il->ijkl", g, gt)
        + np.einsum("ik,jl->ijkl", g, gt)
        - np.einsum("jk,il->ijkl", gt, g)
        + np.einsum("ik,jl->ijkl", gt, g)
    )
    return tuple(
        CurvatureTensor.from_components(arr, m.J, tolerance) for arr in (pi1, pi2, pi3)
    )


def kahler_form(pis: PiForms, a: float, b: float) -> NDArray:
    """The Kahler-type combination a (pi_1 - pi_2) + b pi_3."""
    pi1, pi2, pi3 = (p.t.components for p in pis)
    return a * (pi1 - pi2) + b * pi3


def _require_dim4(pis: PiForms, what: str) -> None:
    if pis[0].t.dim != 4:
        raise ValueError(f"{what} is specific to dimension 4, got {pis[0].t.dim}")


def kahler_decomposition_dim4(
    pis: PiForms,
    R_prime: CurvatureTensor,
    tau_prime: float,
    tau_prime_star: float,
    require_kahler: bool = True,
) -> float:
    """Residual of R' = (tau'/8)(pi_1 - pi_2) + (tau'*/8) pi_3 in dimension 4,
    with pis from `pi_forms`."""
    _require_dim4(pis, "decomposition")
    if require_kahler and not R_prime.is_kahler:
        raise ValueError(
            "decomposition applies to a Kahler curvature tensor; residuals: "
            f"antisym {R_prime.antisym_residual:.3e}, "
            f"bianchi {R_prime.bianchi_residual:.3e}, "
            f"kahler {R_prime.kahler_residual:.3e}"
        )
    rhs = kahler_form(pis, tau_prime / 8.0, tau_prime_star / 8.0)
    return residual(R_prime.t.components, rhs)


def reconstruct_R_dim4(
    pis: PiForms, panel: ScalarPanel, P: CurvatureTensor, R: CurvatureTensor
) -> tuple[float, float]:
    """Residuals of the two dimension-4 reconstructions of the Levi-Civita
    curvature from scalars and P, with pis from `pi_forms`:

    residual_thm32: R = (1/8){ tau (pi_1 - pi_2) + tau* pi_3 } - (1/3) P
    residual_thm33: R = (1/128){ (16 tau + tau(H))(pi_1 - pi_2)
                                 + (16 tau* - tau(H)) pi_3 } - (1/3) P
    """
    _require_dim4(pis, "reconstruction")
    base = P.t.components / 3.0
    rhs32 = kahler_form(pis, panel.tau / 8.0, panel.tau_star / 8.0) - base
    rhs33 = kahler_form(
        pis,
        (16.0 * panel.tau + panel.tau_H) / 128.0,
        (16.0 * panel.tau_star - panel.tau_H) / 128.0,
    ) - base
    arr = R.t.components
    return residual(arr, rhs32), residual(arr, rhs33)
