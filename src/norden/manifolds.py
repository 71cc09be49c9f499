"""Left-invariant geometric data on a Lie group, given at the identity.

A manifold here is a frame {e_i}, structure constants C[k][i][j] with
[e_i, e_j] = C[k][i][j] e_k, a constant-component metric g and an almost
complex structure J (column j of the J matrix is J e_j).  All covariant
quantities reduce to finite algebra on these arrays, so every identity can
be certified without discretization error.  What reads only the pair (g, J)
is computed once per pair, in its record (`pair_record`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np
from numpy.typing import NDArray

from .curvature import PiForms, pi_forms
from .tensors import lower, permutation_residual, residual

JACOBI_TOLERANCE = 1e-10
MATRIX_TOLERANCE = 1e-12
# the most pairs (g, J) whose record `pair_record` keeps; past it the least
# recently used is dropped, and rebuilt when next asked for
PAIR_RECORDS = 64
# [[e_i,e_j],e_l] in frame components [p][i][j][l] as signed products of two
# factors (name, index letters) summed over m; the Jacobi sum is its cyclic sum
# in (i, j, l).  The search's quadratic form reads it, and so, once, do the axes
# of jacobi_array's matmul (ij, m) @ (m, pl).  For antisymmetric brackets the
# sum is totally antisymmetric in (i, j, l), so both keep only its independent
# entries, p at i < j < l: C(d, 3) d of its d**4 (448 of 4,096 in dim 8).
JACOBI_TERMS = ((1, ("C", "mij"), ("C", "pml")),)
[(_SIGN, (_, _X), (_, _Y))] = JACOBI_TERMS
_X_AXES = tuple(_X.index(c) - 3 for c in "ijm")
_Y_AXES = tuple(_Y.index(c) - 3 for c in "mpl")


@dataclass(frozen=True, eq=False)
class LieFrameManifold:
    """Structure constants, metric and almost complex structure in one frame;
    equality and hashing are by identity.  `pair` is the record of (g, J),
    looked up at construction."""

    dim: int
    structure_constants: NDArray = field(repr=False)
    metric: NDArray = field(repr=False)
    J: NDArray = field(repr=False)
    pair: PairRecord = field(init=False, repr=False)

    def __post_init__(self) -> None:
        d = self.dim
        if d <= 0 or d % 2 != 0:
            raise ValueError(f"frame dimension must be even and positive, got {d}")
        # a read-only copy of C, so the caller's array stays theirs; g and J
        # are the arrays of the pair's record, over immutable bytes
        C = np.array(self.structure_constants, dtype=float, order="C")
        g, J = (np.asarray(a, dtype=float) for a in (self.metric, self.J))
        if C.shape != (d, d, d):
            raise ValueError(f"structure constants shape {C.shape} != {(d, d, d)}")
        if g.shape != (d, d):
            raise ValueError(f"metric shape {g.shape} != {(d, d)}")
        if J.shape != (d, d):
            raise ValueError(f"J shape {J.shape} != {(d, d)}")
        if not np.isfinite(C).all():
            raise ValueError("structure_constants contains non-finite entries")
        C.setflags(write=False)
        record = pair_record(g, J)
        for name, value in (("structure_constants", C), ("metric", record.g),
                            ("J", record.J), ("pair", record)):
            object.__setattr__(self, name, value)

    @property
    def metric_inv(self) -> NDArray:
        """g^{-1}, from the pair's record."""
        return self.pair.metric_inv


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
    """The Jacobi sum of `JACOBI_TERMS` at its independent entries: component
    p at each triple i < j < l, shape (..., d, C(d, 3)), p first and the
    triples in `itertools.combinations` order, so that the flat entries are
    the Jacobi rows of the search's quadratic form in their order.  Leading
    batch axes of C are kept.  For antisymmetric brackets the sum is totally
    antisymmetric in (i, j, l), so these entries carry its max-abs; below
    dimension 3 there are none.  The products are one stacked matmul, and
    the copy that reshaping (m, pl) takes applies the sign; each entry adds
    its three cyclic shifts in the order of `cyclic_sum3`, so it equals the
    full cyclic sum's entry bit for bit."""
    d, lead = C.shape[-1], tuple(range(C.ndim - 3))
    x = C.transpose(lead + _X_AXES).reshape(C.shape[:-3] + (d * d, d))
    y = np.multiply(_SIGN, C.transpose(lead + _Y_AXES), order="C")
    ijpl = (x @ y.reshape(C.shape[:-3] + (d, d * d))).reshape(C.shape[:-3] + (-1,))
    # one take, whose result is C-ordered where indexing by each shift is not
    t = np.take(ijpl, _jacobi_entries(d), axis=-1)
    return (t[..., 0, :, :] + t[..., 1, :, :]) + t[..., 2, :, :]


@lru_cache(maxsize=None)
def _jacobi_entries(d: int) -> NDArray:
    """The flat indices into the products [i][j][p][l] of the three cyclic
    shifts (i, j, l), (l, i, j), (j, l, i) of each independent entry of
    `jacobi_array`, shape (3, d, C(d, 3)); read-only."""
    i, j, l = np.array(list(combinations(range(d), 3)), dtype=np.intp).reshape(-1, 3).T
    p = np.arange(d)[:, None]
    entries = np.stack(
        [((x * d + y) * d + p) * d + z for x, y, z in ((i, j, l), (l, i, j), (j, l, i))]
    )
    entries.setflags(write=False)
    return entries


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
    violations += m.pair.violations
    return ValidationOutcome(violations=tuple(violations))


def bracket_residuals(C: NDArray) -> tuple[NDArray, NDArray]:
    """The residuals of the bracket checks of `validate_manifold` for a stack
    of brackets C (K, d, d, d), one entry per bracket: antisymmetry (judged
    against MATRIX_TOLERANCE) and the max-abs Jacobi sum (JACOBI_TOLERANCE)
    over its independent entries (`jacobi_array`), 0.0 below dimension 3.
    Brackets that pass the antisymmetry check have a Jacobi sum that is
    antisymmetric to rounding, so these entries judge the identity on all."""
    # C[k][i][j] against -C[k][j][i], from max|C| per entry
    top = np.abs(C).max((-3, -2, -1))
    antisymmetry = permutation_residual(C, top, ((0, 2, 1),), -1, batch=1)
    return antisymmetry, np.abs(jacobi_array(C)).max(axis=(-2, -1), initial=0.0)


@dataclass(frozen=True, eq=False)
class PairRecord:
    """What reads only a pair (g, J): the violations of its invariants, g^{-1}
    and the pi-forms, each built on first use and read-only.  Every manifold
    on the pair shares one record (`pair_record`); only dimension-4 checks
    read the pi-forms."""

    g: NDArray
    J: NDArray

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """The violated invariants that read only g and J."""
        g, J, d = self.g, self.J, len(self.g)
        residuals = {
            "almost complex structure J^2=-I": residual(J @ J, -np.eye(d)),
            "Norden compatibility J^T g J = -g": residual(J.T @ g @ J, -g),
            "metric symmetry": residual(g, g.T),
        }
        violations = [
            Violation(name, r) for name, r in residuals.items() if not r <= MATRIX_TOLERANCE
        ]
        eigs = np.linalg.eigvalsh(0.5 * (g + g.T))
        smallest, n_pos = float(np.abs(eigs).min()), int(np.count_nonzero(eigs > 0))
        if smallest <= MATRIX_TOLERANCE:
            violations.append(Violation("metric nondegeneracy", smallest))
        elif n_pos != d // 2:
            signature = f"({n_pos},{d-n_pos}) != ({d//2},{d//2})"
            violations.append(
                Violation(f"metric signature {signature}", float(abs(n_pos - d // 2)))
            )
        return tuple(violations)

    @cached_property
    def metric_inv(self) -> NDArray:
        """g^{-1}; a singular metric raises LinAlgError, at every call."""
        try:
            g_inv = np.linalg.inv(self.g)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(f"metric is singular: {exc}") from exc
        g_inv.setflags(write=False)
        return g_inv

    @cached_property
    def pi_forms(self) -> PiForms:
        """`curvature.pi_forms(g, J)`."""
        pis = pi_forms(self.g, self.J)
        for pi in pis:
            pi.setflags(write=False)
        return pis


def pair_record(g: NDArray, J: NDArray) -> PairRecord:
    """The record of the float pair (g, J), keyed by its shape and bytes;
    ValueError if an entry is not finite, and no record is kept then."""
    return _pair_record(g.shape, g.tobytes(), J.tobytes())


@lru_cache(maxsize=PAIR_RECORDS)
def _pair_record(shape: tuple[int, ...], g: bytes, J: bytes) -> PairRecord:
    # arrays over the key's own bytes, which numpy keeps read-only for good
    arrays = [np.frombuffer(a).reshape(shape) for a in (g, J)]
    for name, arr in zip(("metric", "J"), arrays):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} contains non-finite entries")
    return PairRecord(*arrays)


def levi_civita(C: NDArray, g: NDArray, g_inv: NDArray) -> NDArray:
    """Levi-Civita coefficients gamma[k][i][j] of a constant-component metric,
    nabla_{e_i} e_j = gamma[k][i][j] e_k.

    The Koszul formula collapses to
    2 g(nabla_{e_i} e_j, e_k) = g([e_i,e_j],e_k) + g([e_k,e_i],e_j) + g([e_k,e_j],e_i).
    Leading batch axes of C are kept; g^{-1} is applied as one matrix product
    with the (m, ij) view of the lowered coefficients.
    """
    b = lower(C, g)  # b[i][j][k] = g([e_i,e_j],e_k)
    b_kij = b.swapaxes(-3, -2).swapaxes(-2, -1)  # b_kij[i][j][k] = b[k][i][j]
    low = (b + b_kij + b.swapaxes(-3, -1)) / 2
    lead, d = b.shape[:-3], len(g_inv)
    return (g_inv @ low.reshape(lead + (d * d, d)).swapaxes(-1, -2)).reshape(b.shape)


def covariant_derivative(gamma: NDArray, t: NDArray) -> NDArray:
    """Covariant derivative of an all-covariant left-invariant tensor along
    the frame connection gamma.

    Component functions are constant in the frame, so only connection terms
    survive: (nabla t)[i][a_1..a_r] = -sum_s gamma[m][i][a_s] t[a_1..m..a_r].
    The derivative direction is slot 0 of the result, whose dtype is that of
    gamma and t (object for `Fraction` entries).  Each slot's term is one
    matrix product of the (ia, m) view of gamma with t's slots 0 and s
    exchanged; its bits are within rounding of the einsum over m, not equal
    to them.
    """
    d, rank = gamma.shape[-1], t.ndim
    if t.shape != (d,) * rank:
        raise ValueError(f"tensor shape {t.shape} does not match frame dim {d}")
    g_t = gamma.reshape(d, d * d).T  # g_t[ia][m] = gamma[m][i][a]
    out = np.zeros((d,) * (rank + 1), dtype=np.result_type(gamma, t))
    for s in range(rank):
        # term[i][a][...] = sum_m gamma[m][i][a] t[m][...], with t's slots 0
        # and s exchanged; exchanging term's axes 1 and s + 1 puts both back
        term = g_t @ t.swapaxes(0, s).reshape(d, -1)
        out -= term.reshape(out.shape).swapaxes(1, s + 1)
    return out


def torsion(gamma: NDArray, C: NDArray) -> NDArray:
    """Torsion T[k][i][j] of a frame connection: gamma[k][i][j]-gamma[k][j][i]-C[k][i][j]."""
    return gamma - gamma.transpose(0, 2, 1) - C
