"""Dense multi-index tensor arithmetic over a fixed frame.

Every geometric object in this package (the fundamental tensor, curvature
tensors, torsion potential, ...) is a plain ndarray of frame components, one
axis per slot.  The frame dimension is small (4, 6, 8), so dense row-major
storage keeps every operation a plain einsum or matrix product and makes
independent loop-oracle comparison trivial.  A contraction of one index
against g, g^-1 or J is a matrix product over a reshaped view: on the
canonical pair each entry of it has one nonzero product, so its bits do not
depend on the order of summation.  The connection terms of a covariant
derivative are matrix products against gamma, within rounding of the
einsums they replaced; the remaining einsums (the curvature's L gamma and
C L products, `curvature.metric_pairing`, the pi-forms and the traces) keep
their bits.  Operations return new arrays.
"""

from __future__ import annotations

import string

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


def contract(t: NDArray, slot_a: int, slot_b: int, metric_inv: NDArray) -> NDArray:
    """Contract two slots of `t` against a (dim x dim) inverse-metric matrix.

    Returns the rank-2-lower array  sum_{a,b} metric_inv[a,b] * t[... a ... b ...]
    (a 0-d array for a rank-2 `t`).
    """
    rank = t.ndim
    if rank < 2:
        raise ValueError(f"contract requires rank >= 2, got rank {rank}")
    if slot_a == slot_b:
        raise ValueError("contraction slots must be distinct")
    for s in (slot_a, slot_b):
        if not 0 <= s < rank:
            raise ValueError(f"slot {s} out of range for rank {rank}")
    metric_inv = np.asarray(metric_inv, dtype=float)
    if metric_inv.shape != (t.shape[slot_a], t.shape[slot_b]):
        raise ValueError(
            f"metric_inv shape {metric_inv.shape} does not match the contracted "
            f"slots of shape {t.shape}"
        )
    if rank > 24:
        raise ValueError("contract supports rank <= 24")
    letters = list(_AXIS_LETTERS[:rank])
    letters[slot_a] = "y"
    letters[slot_b] = "z"
    out_letters = [
        c for i, c in enumerate(_AXIS_LETTERS[:rank]) if i not in (slot_a, slot_b)
    ]
    subscripts = f"{''.join(letters)},yz->{''.join(out_letters)}"
    return np.einsum(subscripts, t, metric_inv)


def cyclic_sum3(t: NDArray, slots: tuple[int, int, int] = (0, 1, 2)) -> NDArray:
    """Cyclic sum of `t` over three slots: t + t∘σ + t∘σ², σ the 3-cycle.
    Negative slots count from the last axis, as numpy axes do."""
    rank = t.ndim
    if rank < 3:
        raise ValueError(f"cyclic_sum3 requires rank >= 3, got rank {rank}")
    for s in slots:
        if not -rank <= s < rank:
            raise ValueError(f"slot {s} out of range for rank {rank}")
    a, b, c = slots[0] % rank, slots[1] % rank, slots[2] % rank
    if len({a, b, c}) != 3:
        raise ValueError(f"cyclic slots must be distinct, got {slots}")
    # t∘σ evaluated at arguments (x_a, x_b, x_c) is t at (x_b, x_c, x_a):
    # realised by the axis permutation that sends axis a<-b, b<-c, c<-a.
    axes1 = list(range(rank))
    axes1[a], axes1[b], axes1[c] = b, c, a
    axes2 = list(range(rank))
    axes2[a], axes2[b], axes2[c] = c, a, b
    return t + np.transpose(t, axes1) + np.transpose(t, axes2)


def lower(t: NDArray, g: NDArray) -> NDArray:
    """Lower the vector index of a vector-valued 2-form stored t[k][i][j]:
    out[i][j][k] = g(t(e_i, e_j), e_k); leading batch axes are kept.  One
    matrix product of the (ij, m) view of t with g."""
    lead, d = t.shape[:-3], len(g)
    out = t.reshape(lead + (d, d * d)).swapaxes(-1, -2) @ g
    return out.reshape(lead + (d, d, d))


def residual(a: NDArray, b: NDArray, top_a: float | None = None) -> float:
    """Scaled max-abs deviation: max|a-b| / (1 + max(max|a|, max|b|)).

    Zero iff the tensors are equal; bounded by 1 for wildly different inputs,
    so a fixed tolerance is meaningful across curvature magnitudes.  A NaN or
    infinite entry gives NaN.  `top_a`, when given, is max|a| as computed
    elsewhere; the result has the same bits as without it.
    """
    arr_a = np.asarray(a, dtype=float)
    arr_b = np.asarray(b, dtype=float)
    if arr_a.shape != arr_b.shape:
        raise ValueError(f"shape mismatch: {arr_a.shape} vs {arr_b.shape}")
    if arr_a.size == 0:
        return 0.0
    # the builtin max of the two scalars; a NaN gives NaN through max|a - b|
    if top_a is None:
        top_a = np.abs(arr_a).max()
    scale = 1.0 + max(top_a, np.abs(arr_b).max())
    return float(np.abs(arr_a - arr_b).max() / scale)


def permutation_residual(
    t: NDArray,
    top: float | NDArray,
    perms: tuple[tuple[int, ...], ...],
    sign: int = 1,
    batch: int = 0,
) -> float | NDArray:
    """The largest over the slot permutations σ in `perms` of
    residual(t, sign * t∘σ), given top = max|t|.  The first `batch` axes
    index a stack: `top` and the result then hold one value per entry (an
    array of their shape, and otherwise a float), and σ permutes the axes
    after them.

    The same bits as those residuals: t∘σ has the max-abs of t, t - (-x) is
    t + x, and dividing by the one scale keeps the order of the deviations.
    A NaN or infinite entry of t gives NaN, as there.
    """
    lead = tuple(range(batch))
    axes = tuple(range(batch, t.ndim))
    deviation = None
    for perm in perms:
        other = t.transpose(lead + tuple(batch + p for p in perm))
        dev = np.abs(t + other if sign < 0 else t - other).max(axes)
        deviation = dev if deviation is None else np.maximum(deviation, dev)
    out = deviation / (1.0 + top)
    return out if batch else float(out)


def zero_residual(a: NDArray, batch: int = 0) -> float | NDArray:
    """Residual of `a` against the zero tensor of the same shape:
    max|a| / (1 + max|a|); per entry of the first `batch` axes, as in
    `permutation_residual`."""
    arr = np.asarray(a, dtype=float)
    if arr.size == 0:
        return np.zeros(arr.shape[:batch]) if batch else 0.0
    top = np.abs(arr).max(tuple(range(batch, arr.ndim)) if batch else None)
    out = top / (1.0 + top)
    return out if batch else float(out)


def scalar_residual(lhs: float, rhs: float) -> float:
    """Scaled residual for scalar identities: |lhs-rhs| / max(1, |lhs|, |rhs|)."""
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
