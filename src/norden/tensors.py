"""Dense multi-index tensor arithmetic over a fixed frame.

Every geometric object in this package (the fundamental tensor, curvature
tensors, torsion potential, ...) is stored as a dense array of frame
components.  The frame dimension is small (4, 6, 8), so dense row-major
storage keeps every operation a plain einsum and makes independent
loop-oracle comparison trivial.

Values are immutable after construction; operations return new tensors.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

DEFAULT_TOLERANCE = 1e-9

_AXIS_LETTERS = string.ascii_lowercase


def check_tolerance(value: float, name: str = "tolerance") -> float:
    """Return `value` if it lies in (0, 1); raise ValueError otherwise (NaN
    and the infinities fail the comparison)."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must be a finite number in (0, 1), got {value!r}")
    return value


def _as_readonly(arr: NDArray) -> NDArray:
    out = np.array(arr, dtype=float, copy=True, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DenseTensor:
    """Rank-k real tensor over a dim-dimensional frame, row-major components."""

    dim: int
    rank: int
    components: NDArray = field(repr=False)

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise ValueError(f"frame dimension must be positive, got {self.dim}")
        if self.rank < 0:
            raise ValueError(f"rank must be non-negative, got {self.rank}")
        arr = np.asarray(self.components, dtype=float)
        if arr.size != self.dim**self.rank:
            raise ValueError(
                f"components size {arr.size} != dim^rank = {self.dim}^{self.rank}"
            )
        arr = arr.reshape((self.dim,) * self.rank)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor components must be finite")
        object.__setattr__(self, "components", _as_readonly(arr))

    @classmethod
    def from_array(cls, arr: NDArray) -> "DenseTensor":
        arr = np.asarray(arr, dtype=float)
        if arr.ndim == 0:
            return cls(dim=1, rank=0, components=arr)
        dims = set(arr.shape)
        if len(dims) != 1:
            raise ValueError(f"tensor array must be hypercubic, got shape {arr.shape}")
        return cls(dim=arr.shape[0], rank=arr.ndim, components=arr)

    @classmethod
    def zeros(cls, dim: int, rank: int) -> "DenseTensor":
        return cls(dim=dim, rank=rank, components=np.zeros((dim,) * rank))

    @property
    def flat(self) -> NDArray:
        """Row-major flat view of the components."""
        return self.components.reshape(-1)

    def max_abs(self) -> float:
        if self.components.size == 0:
            return 0.0
        return float(np.max(np.abs(self.components)))


def contract(
    t: DenseTensor, slot_a: int, slot_b: int, metric_inv: NDArray
) -> DenseTensor:
    """Contract two slots of `t` against a (dim x dim) inverse-metric matrix.

    Returns the rank-2-lower tensor  sum_{a,b} metric_inv[a,b] * t[... a ... b ...].
    """
    if t.rank < 2:
        raise ValueError(f"contract requires rank >= 2, got rank {t.rank}")
    if slot_a == slot_b:
        raise ValueError("contraction slots must be distinct")
    for s in (slot_a, slot_b):
        if not 0 <= s < t.rank:
            raise ValueError(f"slot {s} out of range for rank {t.rank}")
    metric_inv = np.asarray(metric_inv, dtype=float)
    if metric_inv.shape != (t.dim, t.dim):
        raise ValueError(
            f"metric_inv shape {metric_inv.shape} does not match dim {t.dim}"
        )
    if t.rank > 24:
        raise ValueError("contract supports rank <= 24")
    letters = list(_AXIS_LETTERS[: t.rank])
    letters[slot_a] = "y"
    letters[slot_b] = "z"
    out_letters = [
        c for i, c in enumerate(_AXIS_LETTERS[: t.rank]) if i not in (slot_a, slot_b)
    ]
    subscripts = f"{''.join(letters)},yz->{''.join(out_letters)}"
    out = np.einsum(subscripts, t.components, metric_inv)
    return DenseTensor(dim=t.dim, rank=t.rank - 2, components=out)


def cyclic_sum3(
    t: DenseTensor | NDArray, slots: tuple[int, int, int] = (0, 1, 2)
) -> DenseTensor | NDArray:
    """Cyclic sum of `t` over three slots: t + t∘σ + t∘σ², σ the 3-cycle.

    Returns a DenseTensor for a DenseTensor and a plain array for an array.
    """
    if isinstance(t, DenseTensor):
        out = cyclic_sum3(t.components, slots)
        return DenseTensor(dim=t.dim, rank=t.rank, components=out)
    if t.ndim < 3:
        raise ValueError(f"cyclic_sum3 requires rank >= 3, got rank {t.ndim}")
    a, b, c = slots
    if len({a, b, c}) != 3:
        raise ValueError(f"cyclic slots must be distinct, got {slots}")
    for s in slots:
        if not 0 <= s < t.ndim:
            raise ValueError(f"slot {s} out of range for rank {t.ndim}")
    # t∘σ evaluated at arguments (x_a, x_b, x_c) is t at (x_b, x_c, x_a):
    # realised by the axis permutation that sends axis a<-b, b<-c, c<-a.
    axes1 = list(range(t.ndim))
    axes1[a], axes1[b], axes1[c] = b, c, a
    axes2 = list(range(t.ndim))
    axes2[a], axes2[b], axes2[c] = c, a, b
    return t + np.transpose(t, axes1) + np.transpose(t, axes2)


def lower(t: NDArray, g: NDArray) -> NDArray:
    """Lower the vector index of a vector-valued 2-form stored t[k][i][j]:
    out[i][j][k] = g(t(e_i, e_j), e_k)."""
    return np.einsum("mij,mk->ijk", t, g)


def residual(a: DenseTensor | NDArray, b: DenseTensor | NDArray) -> float:
    """Scaled max-abs deviation: max|a-b| / (1 + max(max|a|, max|b|)).

    Zero iff the tensors are equal; bounded by 1 for wildly different inputs,
    so a fixed tolerance is meaningful across curvature magnitudes.
    """
    arr_a = a.components if isinstance(a, DenseTensor) else np.asarray(a, dtype=float)
    arr_b = b.components if isinstance(b, DenseTensor) else np.asarray(b, dtype=float)
    if arr_a.shape != arr_b.shape:
        raise ValueError(f"shape mismatch: {arr_a.shape} vs {arr_b.shape}")
    if arr_a.size == 0:
        return 0.0
    scale = 1.0 + max(np.max(np.abs(arr_a)), np.max(np.abs(arr_b)))
    return float(np.max(np.abs(arr_a - arr_b)) / scale)


def zero_residual(a: DenseTensor | NDArray) -> float:
    """Residual of `a` against the zero tensor of the same shape."""
    arr = a.components if isinstance(a, DenseTensor) else np.asarray(a, dtype=float)
    return residual(arr, np.zeros_like(arr))


def scalar_residual(lhs: float, rhs: float) -> float:
    """Scaled residual for scalar identities: |lhs-rhs| / max(1, |lhs|, |rhs|)."""
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
