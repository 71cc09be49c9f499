"""Seeded search for quasi-Kahler examples over the canonical Norden pair.

The fundamental tensor F is linear in the structure constants (through the
Koszul formula with constant metric), so quasi-Kahler membership and bracket
antisymmetry form a homogeneous linear system; candidates are drawn from its
null space.  Its matrix is built once per dimension, by batched kernel
evaluations over chunks of the unit brackets of the antisymmetric triples
(k, i, j), and every family below is a subset of those triples, kept as the
flat positions of its entries in C (`_brackets`), never as a dense basis
matrix.  It is a direct sum of blocks of 1, 5 and 12 columns, and every
nullity the search relies on comes from one exact elimination per block
(`_echelon`).  The quadratic Jacobi identity is handled two ways:

* two-step nilpotent ansatz (brackets land in a central coordinate subspace):
  Jacobi holds identically, so accepted samples are exact.  Nontrivial
  null spaces exist only for dimension >= 6.  The plan lists the centres Z
  whose family has one, found once per dimension by exact ranks
  (`_two_step_centres`).  A family's orthonormal null space is built on its
  first draw, by one SVD whose nullity must agree (`_two_step_family`), so
  a search pays only for the families it draws from.
* Gauss-Newton projection: a damped Gauss-Newton iteration drives the Jacobi
  residual (and, for the Kahler target, the first Bianchi residual of the
  skew-torsion curvature) to zero inside the membership null space of all the
  triples.  Its coordinates z are those of the null space's integer echelon
  basis N (`_integer_basis`: entries 0 and +-1, the identity on the free
  triples).  A candidate starts at a uniform draw u on the unit sphere of the
  orthonormal SVD basis V of the same space, at z = V[free] u, so that
  N z = V u, and stays on the sphere ||N z|| = 1 of the bracket coefficients,
  where ||C(z)||_F**2 = 2, which keeps it off the abelian solution; V serves
  only these start points.  Gauss-Newton is invariant under a linear change
  of coordinates that carries the start point and the constraint along, so
  the iterates are those of the coordinates of V, up to rounding.  Both
  residual maps are homogeneous quadratic in z, so they are precomputed once
  per (dim, target) as a symmetric form Q with phi(z) = Q[z, z]
  (`QuadraticForm`), from the product tables that the kernels evaluate
  (`_quadratic_form`).  In the
  coordinates of N, Q is sparse (3.3% of its entries are nonzero in dim 6,
  1.2% in dim 8, for the Kahler target), and it is built from the supports of
  the directions and held as the list of its nonzero entries.  Qz gives the
  residual and the Jacobian and is linear in z: an iteration is one small
  rank-revealing least-squares solve (`QuadraticForm.step`), one product Q
  step, which prices every line-search trial and carries Qz to the next
  iterate on the sphere, and one product N.T N step, which carries the
  sphere's gradient.  The candidates run in lockstep (`_Lockstep`), each bit
  for bit as alone, and exactly those that a one-at-a-time search would run.

Acceptance judges a stack: the two-step brackets drawn since the last round
wait and are judged together with the Gauss-Newton candidates that converge
in the next one (`_accept`).  Every entry gets its bracket checks
(antisymmetry, Jacobi), its class label and, for the Kahler target, the first
Bianchi gate of R', through the engine's batched kernels.  The canonical pair
(g, J) is not checked again: it validates in every dimension.  Each hit is
written straight into a `ManifoldManifest`, whose construction copies and
checks its brackets and looks up the pair's record, whose arrays every hit
of a dimension shares.

Both paths are driven by one seeded generator, so searches are reproducible.
"""

from __future__ import annotations

import enum
import itertools
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

from .curvature import RIEMANN_TERMS, bianchi_residual, riemann
from .geometry import ClassLabel, classify, compute_nabla_J, q_array, twist_arrays
from .manifests import ManifoldManifest
from .manifolds import (
    JACOBI_TERMS,
    JACOBI_TOLERANCE,
    MATRIX_TOLERANCE,
    bracket_residuals,
    canonical_norden_pair,
    levi_civita,
    pair_record,
)
from .tensors import DEFAULT_TOLERANCE, check_tolerance, cyclic_sum3, lower

GN_MAX_ITERATIONS = 120
GN_CONVERGENCE = 1e-13
# relative singular-value cutoff of the Gauss-Newton least-squares step
GN_RANK_CUTOFF = 1e-10
# line-search step lengths lam = 1, 1/2, ..., 2**-15, and 2 lam and lam**2,
# as columns
_HALVINGS = 0.5 ** np.arange(16)[:, None]
_TWICE_HALVINGS, _SQUARED_HALVINGS = 2.0 * _HALVINGS, _HALVINGS * _HALVINGS


class SearchTarget(enum.Enum):
    W3 = "w3"
    W3_RPRIME_KAHLER = "w3-kahler-rprime"


@dataclass(frozen=True)
class SearchConfig:
    dim: int = 4
    seed: int = 0
    max_candidates: int = 1000
    target: SearchTarget = SearchTarget.W3
    max_results: int = 10
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self) -> None:
        for name in ("dim", "seed", "max_candidates", "max_results"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.max_candidates < 1:
            raise ValueError(f"max_candidates must be >= 1, got {self.max_candidates}")
        if self.dim < 4 or self.dim % 2 != 0:
            raise ValueError(f"dim must be even and at least 4, got {self.dim}")
        if self.max_results < 1:
            raise ValueError(f"max_results must be >= 1, got {self.max_results}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not isinstance(self.target, SearchTarget):
            raise ValueError(f"target must be a SearchTarget, got {self.target!r}")
        check_tolerance(self.tolerance)


@dataclass
class SearchStats:
    """Counts of one search.  Every candidate either converges or fails for
    one reason, and every converged candidate is a hit or one rejection:

    candidates = converged + stalled + iteration_cap + collapsed
    converged  = hits + rejected_class + rejected_jacobi + rejected_invalid
    """

    candidates: int = 0
    converged: int = 0
    hits: int = 0
    rejected_class: int = 0  # valid, but not quasi-Kahler (or R' not Kahler)
    rejected_jacobi: int = 0  # failed validation on the Jacobi identity
    rejected_invalid: int = 0  # failed validation on another invariant only
    stalled: int = 0  # line search found no decrease
    iteration_cap: int = 0  # GN_MAX_ITERATIONS without convergence
    collapsed: int = 0  # two-step brackets drawn (near) zero, the abelian algebra
    gn_iterations: int = 0  # Gauss-Newton steps
    gn_rounds: int = 0  # lockstep rounds, each one stacked step of the active candidates
    svd_steps: int = 0  # steps whose rank certificate failed, solved by SVD
    elapsed: float = 0.0
    by_ansatz: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# linear machinery: membership null spaces
# ---------------------------------------------------------------------------


# a family (pos, neg, null) is a set of triples (k, i, j), as the flat
# positions in C of C[k][i][j] (pos) and of C[k][j][i] (neg), with the
# orthonormal null space of its membership columns: its brackets at the
# null-space coordinates z are _brackets(dim, pos, neg, null @ z)
_Family = tuple[NDArray, NDArray, NDArray]


def _positions(dim: int, triples: NDArray) -> tuple[NDArray, NDArray]:
    """(pos, neg): the flat positions in C of C[k][i][j] and of C[k][j][i]
    for each triple (k, i, j)."""
    k, i, j = triples.T
    return (k * dim + i) * dim + j, (k * dim + j) * dim + i


def _brackets(dim: int, pos: NDArray, neg: NDArray, coeff: NDArray) -> NDArray:
    """Brackets C[m][i][j][...] with coefficient coeff[t, ...] on triple t:
    C[pos] = coeff and C[neg] = -coeff, zero elsewhere.  The + 0.0 and 0.0 -
    write +0.0 where coeff holds -0.0, as a product with the 0/+-1 basis
    matrix of the triples would, so the result is that product bit for bit."""
    C = np.zeros((dim**3,) + coeff.shape[1:])
    C[pos] = coeff + 0.0
    C[neg] = 0.0 - coeff
    return C.reshape((dim, dim, dim) + coeff.shape[1:])


@lru_cache(maxsize=None)
def _canonical_pair(dim: int) -> tuple[NDArray, NDArray, NDArray]:
    """(g, J, g^-1) of the canonical pair, the read-only arrays of its
    record: every candidate of a dimension is judged on it, and every hit's
    manifest is written on it."""
    record = pair_record(*canonical_norden_pair(dim))
    return record.g, record.J, record.metric_inv


# bytes of the unit brackets of each batched kernel evaluation in the
# membership build, which bounds the build's transient memory
_MEMBERSHIP_CHUNK_BYTES = 2**17


def _w3_rows(dim: int, triples: NDArray) -> NDArray:
    """Matrix of the linear map (structure constants) -> cyclic sum of F,
    one batched kernel evaluation per chunk of the unit brackets of
    `triples`, of at most `_MEMBERSHIP_CHUNK_BYTES`: the rows of one
    evaluation over all of them, bit for bit."""
    g, J, g_inv = _canonical_pair(dim)
    chunk = max(1, _MEMBERSHIP_CHUNK_BYTES // (8 * dim**3))
    rows = np.empty((len(triples), dim**3))
    for first in range(0, len(triples), chunk):
        part = triples[first : first + chunk]
        C = _brackets(dim, *_positions(dim, part), np.eye(len(part))).transpose(3, 0, 1, 2)
        F = lower(compute_nabla_J(levi_civita(C, g, g_inv), J), g)
        rows[first : first + chunk] = cyclic_sum3(F, (-3, -2, -1)).reshape(len(C), -1)
    return rows.T


def _null_space(A: NDArray) -> NDArray:
    """Orthonormal null-space basis of A from the reduced SVD; every matrix
    here has d**3 rows, at least as many as its columns, so vt is square."""
    _, s, vt = np.linalg.svd(A, full_matrices=False)
    smax = s[0] if s[0] > 0 else 1.0
    rank = int(np.sum(s > max(A.shape) * np.finfo(float).eps * smax))
    return vt[rank:].T.copy(order="K")  # not a view: vt would stay alive with it


@lru_cache(maxsize=None)
def _membership(dim: int) -> tuple[NDArray, NDArray]:
    """(triples, membership matrix) of the full antisymmetric constant space;
    every family below is a subset of these triples, and of these columns.
    Triple (k, i, j), i < j, ordered by (i, j) and then k, is column t: the
    unit brackets with C[k][i][j] = 1 = -C[k][j][i]."""
    pairs = itertools.combinations(range(dim), 2)
    triples = np.array([(k, i, j) for i, j in pairs for k in range(dim)])
    return triples, _w3_rows(dim, triples)


@lru_cache(maxsize=None)
def _generic_family(dim: int) -> _Family:
    """The family of all the triples: the full antisymmetric constant space
    intersected with the membership condition.  Its orthonormal SVD null
    space gives the Gauss-Newton start points (`QuadraticForm.start`)."""
    triples, rows = _membership(dim)
    return (*_positions(dim, triples), _null_space(rows))


def _distinct_rows(dim: int) -> tuple[NDArray, list[tuple[NDArray, NDArray]]]:
    """(A, blocks): A = 4 rows on the rows (a d + b) d + c, a <= b <= c, of
    the membership matrix, and its blocks (columns, int64 matrix A_b).  The
    cyclic sum of F is totally symmetric, so these are all the distinct rows;
    the matrix is quarter-integral, so A is integral; and A is the direct sum
    of the A_b, where column (k, i, j) is in the block of {k, i, j} mod m
    (m = d/2) and the parity of the count of k, i, j >= m.  All three are
    checked once, here, and ArithmeticError is raised where one fails."""
    triples, rows = _membership(dim)
    cube = rows.reshape(dim, dim, dim, -1)  # a view; two swaps generate the permutations
    if not all(np.array_equal(cube, cube.swapaxes(k, k + 1)) for k in (0, 1)):
        raise ArithmeticError("the membership matrix is not totally symmetric in its rows")
    index = list(itertools.combinations_with_replacement(range(dim), 3))
    A = rows[[(a * dim + b) * dim + c for a, b, c in index]]
    A *= 4.0
    nonzero = A[A != 0.0]
    if not np.array_equal(nonzero, np.rint(nonzero)):
        raise ArithmeticError("the membership matrix is not quarter-integral")
    m = dim // 2
    key = np.column_stack([np.sort(triples % m, axis=1), (triples >= m).sum(axis=1) % 2])
    block = np.unique(key, axis=0, return_inverse=True)[1].ravel()
    blocks = [np.flatnonzero(block == b) for b in range(block.max() + 1)]
    rows_of = [A[:, cols].any(axis=1) for cols in blocks]
    if sum(rows_of).max() > 1:
        raise ArithmeticError("a membership row has nonzero entries in two blocks")
    return A, [(cols, A[r][:, cols].astype(np.int64)) for cols, r in zip(blocks, rows_of)]


@lru_cache(maxsize=None)
def _echelon(shape: tuple[int, int], data: bytes) -> tuple[tuple[int, ...], tuple]:
    """(pivots, rows): the pivot columns and nonzero rows of the reduced
    row-echelon form of the int64 matrix `data` of `shape`, each row scaled
    to integers (row / row[pivot] is the form's row), exactly: fraction-free
    Gauss-Jordan in Python integers.  Memoised by shape and bytes, as the
    blocks repeat."""
    rows, pivots = np.frombuffer(data, dtype=np.int64).reshape(shape).tolist(), []
    for col in range(shape[1]):
        below = [r for r in range(len(pivots), len(rows)) if rows[r][col]]
        if below:
            top = rows[below[0]]
            rows[below[0]], rows[len(pivots)] = rows[len(pivots)], top
            rows = [row if row is top or not row[col]
                    else [top[col] * x - row[col] * y for x, y in zip(row, top)]
                    for row in rows]
            pivots.append(col)
    return tuple(pivots), tuple(map(tuple, rows[: len(pivots)]))


@lru_cache(maxsize=None)
def _integer_basis(dim: int) -> tuple[NDArray, NDArray]:
    """(N, free): the basis N of the generic family's null space in reduced
    row-echelon form, the identity on the free triples `free`, assembled from
    the exact echelon forms of the blocks (`_distinct_rows`, `_echelon`): a
    column is a pivot of A exactly where it is one of its block.  Its entries
    are rounded to integers (0 and +-1 in dims 4 to 12), and A @ N, exact in
    floating point on integers this small, is zero: that certifies N, and
    ArithmeticError is raised where it fails."""
    A, blocks = _distinct_rows(dim)
    R, pivots = np.zeros(A.shape), []
    for cols, A_b in blocks:
        for pivot, row in zip(*_echelon(A_b.shape, A_b.tobytes())):
            R[len(pivots), cols] = np.divide(row, row[pivot])
            pivots.append(cols[pivot])
    free = np.delete(np.arange(A.shape[1]), pivots)
    N = np.zeros((A.shape[1], free.size))
    N[free, np.arange(free.size)] = 1.0
    N[pivots] = np.rint(0.0 - R[: len(pivots), free]) + 0.0  # no -0.0
    if (A @ N).any():
        raise ArithmeticError("the membership null space has no integer echelon basis")
    return N, free


def _central_columns(dim: int, triples: NDArray, centres: NDArray) -> NDArray:
    """The columns of each two-step family, one row of a mask per centre Z
    (a row of `centres`): the triples (k, i, j) with k in Z and i, j not in
    Z.  Brackets of the non-central indices land in the centre, so Jacobi
    holds on the family automatically."""
    in_centre = np.zeros((len(centres), dim), dtype=bool)
    np.put_along_axis(in_centre, centres, True, axis=1)
    central = in_centre[:, triples]
    return central[..., 0] & ~central[..., 1] & ~central[..., 2]


@lru_cache(maxsize=None)
def _two_step_centres(dim: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(Z, nullity) of every centre Z whose two-step family has a nontrivial
    null space, in plan order (by size, then lexicographically), building no
    family.  A is the direct sum of its blocks (`_distinct_rows`), so the
    nullity sums |S| - rank(A_b[:, S]) over the blocks, by exact elimination
    (`_echelon`), S the family's columns (`_central_columns`) in block b.  A
    bit mask codes each S, and each distinct A_b[:, S] is ranked once."""
    triples, _ = _membership(dim)
    blocks = _distinct_rows(dim)[1]  # A is not kept
    first: dict = {}  # the first block of each distinct matrix, by shape and bytes
    kind = [first.setdefault((A_b.shape, A_b.tobytes()), b) for b, (_, A_b) in enumerate(blocks)]
    width = max(len(cols) for cols, _ in blocks)
    # the blocks' triples, [slot][block], padded with (0, 0, 0), in no family
    slots = np.stack([np.pad(triples[cols], ((0, width - len(cols)), (0, 0)))
                      for cols, _ in blocks], axis=1)
    n, bits, found = len(blocks), 1 << np.arange(width), []
    for z_size in range(1, dim - 1):
        centres = np.array(list(itertools.combinations(range(dim), z_size)))
        masks = sum(_central_columns(dim, slots[s], centres) * bits[s] for s in range(width))
        keys, inverse = np.unique(masks * n + kind, return_inverse=True)
        nullity = []
        for key in keys.tolist():  # key = mask * n + first block of its matrix
            A_b = blocks[key % n][1]
            S = A_b[:, (bits[: A_b.shape[1]] & key // n) > 0]
            nullity.append(S.shape[1] - len(_echelon(S.shape, S.tobytes())[0]))
        total = np.array(nullity)[inverse.reshape(masks.shape)].sum(axis=1)
        found += [(tuple(Z), k) for Z, k in zip(centres.tolist(), total.tolist()) if k]
    return tuple(found)


@lru_cache(maxsize=None)
def _two_step_family(dim: int, Z: tuple[int, ...]) -> _Family:
    """The two-step family of centre Z, built on its first draw: its
    columns of the membership matrix (`_central_columns`) with their
    orthonormal SVD null space.  ArithmeticError is raised unless the
    nullity is the one the centre pass certified."""
    triples, rows = _membership(dim)
    cols = _central_columns(dim, triples, np.array([Z]))[0]
    null = _null_space(rows[:, cols])
    if null.shape[1] != dict(_two_step_centres(dim)).get(Z, 0):
        raise ArithmeticError(f"the nullity of two-step centre {Z} is not the centre pass's")
    return (*_positions(dim, triples[cols]), null)


# ---------------------------------------------------------------------------
# quadratic residual maps for the Gauss-Newton projection
# ---------------------------------------------------------------------------

# each kept row of a cyclic sum that is totally antisymmetric in three slots
# stands for the 6 rows of its index permutations, so weighting it by sqrt(6)
# gives the normal equations of the full map
_ROW_WEIGHT = np.sqrt(6.0)


@dataclass(frozen=True)
class QuadraticForm:
    """The Gauss-Newton residual map phi(z) of one (dim, target) as a
    symmetric form in the integer coordinates z of the generic family:
    phi(z) = Q[z, z] on the kept rows.

    phi stacks the Jacobi sum of the brackets C(z) of the family (pos, neg)
    at the coefficients basis @ z (`JACOBI_TERMS`, order [p][i][j][l], cyclic
    in i, j, l) and, for the Kahler target, the first Bianchi sum of R'
    (`RIEMANN_TERMS`, order [i][j][k][l], cyclic in i, j, k).  Both are
    totally antisymmetric in their three cyclic slots, so only the rows with
    increasing cyclic indices are kept (`rows`, flat indices into the stacked
    full map): they carry its max-abs and 1/6 of its sum of squares.

    `basis` is the integer echelon basis N of the family (`_integer_basis`)
    and `gram` is N.T N, so z @ gram @ z = ||N z||**2 is the squared norm of
    the bracket coefficients, half ||C(z)||_F**2.  `start` is V[free], the
    orthonormal SVD basis V of the family on N's free triples: N is the
    identity there, so N (start @ u) = V u.

    Q is held as the list of its nonzero entries Q[e_a, e_b] on kept row k,
    each with the output (b, k) of Q z that it adds to, in levels: the
    outputs that have entries are ordered most entries first, and level j
    holds the entry j + 1 (in the order of a) of the first widths[j] of them,
    those with more than j entries.  `cols` holds a and `values` the entries,
    level after level, with one slot of value 0 after level 0, at
    widths[0].  `gather[b, k]` is the position of output (b, k) in level 0,
    or that slot where it has no entry.
    """

    dim: int
    pos: NDArray
    neg: NDArray
    basis: NDArray
    gram: NDArray
    start: NDArray
    rows: NDArray
    cols: NDArray
    values: NDArray
    widths: tuple[int, ...]
    gather: NDArray

    def brackets(self, z: NDArray) -> NDArray:
        return _brackets(self.dim, self.pos, self.neg, self.basis @ z)

    def qz(self, z: NDArray) -> NDArray:
        """(Q z)[n, b, k] = Q[z_n, e_b] on kept row k, for each candidate z_n
        (a row of z): phi(z_n) = z_n @ qz(z)[n], and the Jacobian of phi at
        z_n is 2 qz(z)[n].T.  One stacked scatter-add: the products
        z_n[a] Q[e_a, e_b] of all the entries, one add per level into level
        0, elementwise, and one gather of the outputs.  It works row by row,
        so that a candidate gets the same bits in any stack.  (np.add.reduceat
        over the entries sorted by output would too, but runs its inner loop
        once per output: about three times slower on a dim-6 Kahler form.)"""
        products = np.take(z, self.cols, axis=1)
        products *= self.values
        slot = self.widths[0]
        products[:, slot] = 0.0  # not -0.0, whatever the sign of z
        offset = slot + 1
        for width in self.widths[1:]:
            products[:, :width] += products[:, offset : offset + width]
            offset += width
        return np.take(products, self.gather, axis=1)

    def step(
        self, z: NDArray, gz: NDArray, qz: NDArray, f: NDArray, stats: SearchStats
    ) -> NDArray:
        """Gauss-Newton step for phi(z_n) = 0 on the sphere ||N z_n|| = 1, for
        each row n, with gz = gram z, qz = Q z and f = phi(z) = z @ qz; the
        last row linearises z_n @ gram @ z_n = 1.  The kept rows, weighted by
        sqrt(6), give the normal equations of the full map.  Directions whose
        singular value is below GN_RANK_CUTOFF times the largest are dropped:
        near a singular root they are rounding noise, and a cutoff at the
        rounding level (eps times the row count, about 6e-13 in dim 6) keeps
        some of them and slows convergence to linear.  [A b] = QR [R c], and R
        has the singular values of A: when ||R||_F ||R^-1||_F, a bound on their
        ratio, certifies that none is dropped, the step is R^-1 c; else an SVD
        solves on R (counted in stats.svd_steps)."""
        n, r = z.shape
        Ab = np.empty((n, qz.shape[2] + 1, r + 1))
        Ab[:, :-1, :r] = _ROW_WEIGHT * 2.0 * qz.transpose(0, 2, 1)
        Ab[:, :-1, r] = _ROW_WEIGHT * f
        Ab[:, -1, :r] = 2.0 * gz
        Ab[:, -1, r] = np.vecdot(z, gz) - 1.0
        # R of [A b] is the upper triangle of the first r + 1 rows of the
        # factored matrix, which mode "raw" returns transposed
        h = np.linalg.qr(Ab, mode="raw")[0].transpose(0, 2, 1)[:, : r + 1]
        Rc = np.where(_upper_triangle(*h.shape[1:]), h, 0.0)
        R, c = Rc[:, :r, :r], Rc[:, :r, r]
        try:
            R_inv = np.linalg.inv(R)  # raises if any R is singular or not square
        except np.linalg.LinAlgError:
            R_inv = np.array([_inverse_or_nan(R_k) for R_k in R])
        R_flat, R_inv_flat = R.reshape(n, -1), R_inv.reshape(n, -1)
        bound = np.vecdot(R_flat, R_flat) * np.vecdot(R_inv_flat, R_inv_flat)
        steps = np.matvec(R_inv, c)
        for k, bound_k in enumerate(bound.tolist()):
            if not bound_k < GN_RANK_CUTOFF**-2:  # also NaN: R singular or not square
                stats.svd_steps += 1
                steps[k] = np.linalg.lstsq(R[k], c[k], rcond=GN_RANK_CUTOFF)[0]
        return steps


@lru_cache(maxsize=None)
def _upper_triangle(m: int, n: int) -> NDArray:
    """The mask of the upper triangle of an m x n matrix."""
    return np.triu(np.ones((m, n), dtype=bool))


def _inverse_or_nan(R: NDArray) -> NDArray:
    """R^-1, or NaN in the shape of R.T where R is singular or not square,
    which fails the rank certificate."""
    try:
        return np.linalg.inv(R)
    except np.linalg.LinAlgError:
        return np.full(R.shape[::-1], np.nan)


# kept rows per chunk of the form build: a chunk's products take at most
# 14 MB in dim 10
_FORM_CHUNK = 64


@lru_cache(maxsize=None)
def _quadratic_form(dim: int, want_kahler: bool) -> QuadraticForm:
    """Q of the generic family in its integer coordinates: its entries
    (`_form_entries`) in levels (`_levels`).  The build's arrays are released
    before the levels are built."""
    pos, neg, null = _generic_family(dim)
    basis, free = _integer_basis(dim)
    rows, keys, values = _form_entries(dim, want_kahler, pos, neg, basis)
    return QuadraticForm(
        dim, pos, neg, basis, basis.T @ basis, null[free], rows,
        *_levels(basis.shape[1], rows.size, keys, values),
    )


def _form_entries(
    dim: int, want_kahler: bool, pos: NDArray, neg: NDArray, basis: NDArray
) -> tuple[NDArray, NDArray, NDArray]:
    """(rows, keys, values): the kept rows of Q and its nonzero entries
    values[e] = Q[e_a, e_b] on kept row k, keyed (b K + k) r + a, in
    ascending order of key, from the bilinear map B with phi(C) = B(C, C):
    Q[e_a, e_b] = (B(D_a, D_b) + B(D_b, D_a)) / 2 on kept row k for the
    directions D_a = C(e_a) of the family (pos, neg) at the basis.  Row k of
    B(A, A') sums the products sign x(A) y(A') over m, the terms of its
    map's table and the three cyclic shifts of its cyclic letters: the
    tables (x, y, w) hold the flat indices of x and y in the stacked
    factors, and the weights.  The directions are sparse, so Q is summed
    from the products on their supports, a chunk of rows at a time
    (`_products`): no dense Q is built."""
    r = basis.shape[1]
    D = _brackets(dim, pos, neg, basis)  # [m][i][j][a]
    factors, maps = {"C": D.transpose(3, 0, 1, 2)}, [(JACOBI_TERMS, "pijl", "ijl")]
    if want_kahler:
        g, J, g_inv = _canonical_pair(dim)
        gamma = levi_civita(factors["C"], g, g_inv)
        nabla_J = compute_nabla_J(gamma, J)
        factors["gamma"] = conn = gamma + q_array(*twist_arrays(nabla_J, J))
        factors["L"] = lower(conn, g)
        maps.append((RIEMANN_TERMS, "ijkl", "ijk"))
        del gamma, nabla_J, conn
    names, shape = list(factors), (len(factors),) + (dim,) * 3
    flat = np.stack(list(factors.values()), -1).transpose(4, 1, 2, 3, 0).reshape(-1, r)
    # the directions' supports: flat factor f is nonzero on the directions
    # support[start[f] : start[f + 1]], with the values value[...]; only
    # they are read below, so the dense factors are released
    f, support = np.nonzero(flat)
    value, start = flat[f, support], np.searchsorted(f, np.arange(len(flat) + 1))
    del D, factors, flat, f
    rows, tables = [], []
    for n, (terms, row, cyc) in enumerate(maps):
        grid = dict(zip(row + "m", np.indices((dim,) * 5).reshape(5, dim**4, dim)))
        a, b, c = (grid[letter][:, 0] for letter in cyc)
        kept = np.flatnonzero((a < b) & (b < c))
        grid, xy = {letter: index[kept] for letter, index in grid.items()}, ([], [])
        for shift in range(3):  # letter cyc[t] reads the row index of cyc[t + shift]
            turn = str.maketrans(cyc, cyc[shift:] + cyc[:shift])
            for _, *pair in terms:
                for ind, (name, idx) in zip(xy, pair):
                    multi = [names.index(name)] + [grid[i] for i in idx.translate(turn)]
                    ind.append(np.ravel_multi_index(multi, shape))
        w = np.repeat([0.5 * sign for sign, *_ in terms] * 3, dim)  # exact
        tables += [(*(np.concatenate(ind, axis=1) for ind in xy), w)]
        rows.append(kept + n * dim**4)
    rows = np.concatenate(rows)
    keys, values, first = [], [], 0
    for x, y, w in tables:
        for k in range(0, len(x), _FORM_CHUNK):
            xk, yk = x[k : k + _FORM_CHUNK], y[k : k + _FORM_CHUNK]
            key, both = _products(
                rows.size, r, first + k, xk, yk, w, support, value, start
            )
            keys.append(key)
            values.append(both)
        first += len(x)
    # sorted by key once, each unsorted array released as soon as its sorted
    # copy is made
    keys = np.concatenate(keys)
    values = np.concatenate(values)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    values = values[order]
    return rows, keys, values


def _products(
    K: int, r: int, first: int, x: NDArray, y: NDArray, w: NDArray,
    support: NDArray, value: NDArray, start: NDArray,
) -> tuple[NDArray, NDArray]:
    """(keys (b K + k) r + a, values Q[e_a, e_b] on kept row k) of the
    nonzero entries of Q on the kept rows k = first, first + 1, ... of the
    tables x, y and w: row k of B(A, A') sums w[t] x(A) y(A') over the terms
    t, with x and y read at the flat factor indices x[k, t] and y[k, t].  A
    term adds to B(D_a, D_b) only where D_a is in the support of its x and
    D_b in that of its y: every such pair is listed and B is summed by key,
    and Q is B plus its transpose, two addends an entry, which makes it
    symmetric bit for bit."""
    count = np.diff(start)
    nx, ny = count[x].ravel(), count[y].ravel()
    pairs = nx * ny
    term = np.repeat(np.arange(pairs.size), pairs)  # of each pair
    within = np.arange(term.size) - np.repeat(np.cumsum(pairs) - pairs, pairs)
    ex = start[x.ravel()][term] + within // ny[term]
    ey = start[y.ravel()][term] + within % ny[term]
    k = first + term // x.shape[1]
    b, a = support[ey], support[ex]
    products = w[term % x.shape[1]] * value[ex] * value[ey]
    keys, half = _sum_by_key((b * K + k) * r + a, products)
    b, k, a = keys // (K * r), keys // r % K, keys % r
    keys, both = _sum_by_key(
        np.concatenate([keys, (a * K + k) * r + b]), np.concatenate([half, half])
    )
    nonzero = both != 0.0
    return keys[nonzero], both[nonzero]


def _sum_by_key(keys: NDArray, values: NDArray) -> tuple[NDArray, NDArray]:
    """The distinct keys (non-negative), ascending, and the sum of the values
    of each."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    return keys[first], np.add.reduceat(values[order], first)


def _levels(
    r: int, K: int, keys: NDArray, values: NDArray
) -> tuple[NDArray, NDArray, tuple[int, ...], NDArray]:
    """(cols, values, widths, gather) of `QuadraticForm` from the nonzero
    entries values[e] = Q[e_a, e_b] on kept row k, keyed (b K + k) r + a
    for the K kept rows, in ascending order of key."""
    outputs = keys // r
    # the first entry of each output
    first = np.flatnonzero(np.concatenate([[True], outputs[1:] != outputs[:-1]]))
    count = np.diff(first, append=outputs.size)
    most = np.argsort(-count, kind="stable")
    first, count = first[most], count[most]
    slot = first.size  # after level 0: the outputs without entries
    gather = np.full(r * K, slot)
    gather[outputs[first]] = np.arange(slot)
    del outputs
    levels = [first[count > j] + j for j in range(count.max())]
    widths = tuple(map(len, levels))
    # level 0, the slot (filled below), then the other levels
    entries = np.concatenate([levels[0], [0], *levels[1:]])
    del levels, first, count
    cols = keys[entries]
    cols %= r
    cols[slot] = 0
    values = values[entries]
    values[slot] = 0.0
    return cols, values, widths, gather.reshape(r, K)


class _Lockstep:
    """Sphere-constrained damped Gauss-Newton candidates of one form, run in
    lockstep: a round judges every candidate's residual and makes one stacked
    step and one stacked product Q step for those that go on.  Each candidate
    carries gram z and Q z along with z.  Stacked BLAS and LAPACK calls and
    the form's product work row by row, so each candidate computes bit for bit
    what it would alone; a round pays numpy's cost per call, which dominates
    a dim-4 step, once for the stack.  Where the step's sphere row holds,
    ||N (z - lam step)||**2 = 1 + lam**2 ||N step||**2, so the retraction
    z / ||N z|| only lowers max|phi|."""

    def __init__(self, form: QuadraticForm) -> None:
        r = form.basis.shape[1]
        self.form, self.tags = form, []
        self.z, self.gz = np.empty((0, r)), np.empty((0, r))
        self.qz = np.empty((0, r, form.rows.size))
        # steps per candidate, most for the first: candidates keep their order
        self.steps = np.empty(0, dtype=int)
        self.drawn: list[NDArray] = []  # start points not yet entered

    def __len__(self) -> int:
        return len(self.tags)

    def add(self, tag, rng: np.random.Generator) -> None:
        """Draw candidate `tag`'s start point, which `enter` enters: a uniform
        draw u normalised to the unit sphere of the SVD coordinates, at
        z = start @ u, where ||N z|| = ||V u|| = 1."""
        u = rng.uniform(-1.0, 1.0, self.form.start.shape[1])
        self.tags.append(tag)
        self.drawn.append(self.form.start @ (u / np.linalg.norm(u)))

    def enter(self) -> None:
        """Enter the candidates drawn since the last call, in draw order, with
        one product gram z and one product Q z for all of them."""
        if not self.drawn:
            return
        z, self.drawn = np.stack(self.drawn), []
        self.z = np.concatenate([self.z, z])
        self.gz = np.concatenate([self.gz, np.vecmat(z, self.form.gram)])
        self.qz = np.concatenate([self.qz, self.form.qz(z)])
        self.steps = np.concatenate([self.steps, np.zeros(len(z), dtype=int)])

    def round(self, stats: SearchStats) -> list[tuple[object, NDArray | None]]:
        """One round; returns (tag, brackets with max-abs 1, or None after
        counting the failure in `stats`) for each candidate that ended.  The
        candidates drawn since the last round enter first."""
        self.enter()
        f = np.vecmat(self.z, self.qz)
        norm_inf = np.abs(f).max(axis=1)
        ended = []
        if norm_inf.min() < GN_CONVERGENCE:  # qz was carried: confirm directly
            low = norm_inf < GN_CONVERGENCE
            self.qz[low] = self.form.qz(self.z[low])
            f[low] = np.vecmat(self.z[low], self.qz[low])
            norm_inf[low] = np.abs(f[low]).max(axis=1)
            converged = norm_inf < GN_CONVERGENCE
            if converged.any():
                # on the sphere max|C| >= sqrt(2 / d**3): never the abelian point
                for tag, z in self._end(converged):
                    C = self.form.brackets(z)
                    ended.append((tag, C / np.max(np.abs(C))))
                f, norm_inf = f[~converged], norm_inf[~converged]
        if not self.tags:
            return ended
        stats.gn_rounds += 1
        stats.gn_iterations += len(self.tags)
        self.steps += 1
        z, gz, qz = self.z, self.gz, self.qz
        step = self.form.step(z, gz, qz, f, stats)
        # one product Q step prices every halving lam at once, as
        # phi(z - lam step) = phi(z) - 2 lam Q[z, step] + lam^2 Q[step, step],
        # and carries qz by linearity, as one product gram step carries gz;
        # the first trial that lowers max|phi| wins, and the retraction onto
        # the sphere scales gz and qz with z
        q_step = self.form.qz(step)
        trials = (
            f[:, None]
            - _TWICE_HALVINGS * np.vecmat(step, qz)[:, None]
            + _SQUARED_HALVINGS * np.vecmat(step, q_step)[:, None]
        )
        lower = np.abs(trials).max(axis=2) < norm_inf[:, None]
        lam = _HALVINGS[lower.argmax(axis=1)]
        z = z - lam * step
        gz = gz - lam * np.vecmat(step, self.form.gram)
        norm = np.sqrt(np.vecdot(z, gz))[:, None]
        self.z, self.gz = z / norm, gz / norm
        qz -= lam[:, :, None] * q_step  # in place: self.qz
        qz /= norm[:, :, None]
        went_on = lower.any(axis=1)
        if not went_on.all() or self.steps[0] == GN_MAX_ITERATIONS:
            capped = went_on & (self.steps == GN_MAX_ITERATIONS)
            stats.stalled += int((~went_on).sum())
            stats.iteration_cap += int(capped.sum())
            ended += [(tag, None) for tag, _ in self._end(~went_on | capped)]
        return ended

    def _end(self, ended: NDArray) -> list[tuple[object, NDArray]]:
        """Remove the candidates flagged in `ended`; returns their (tag, z)."""
        out = [(self.tags[k], self.z[k]) for k in np.flatnonzero(ended)]
        self.tags = [tag for tag, gone in zip(self.tags, ended) if not gone]
        keep = ~ended
        self.z, self.gz, self.qz = self.z[keep], self.gz[keep], self.qz[keep]
        self.steps = self.steps[keep]
        return out


def _two_step_candidate(
    rng: np.random.Generator,
    dim: int,
    family: _Family,
    stats: SearchStats,
) -> NDArray | None:
    """Brackets of a random point of the family (pos, neg, null) scaled to
    max-abs 1, or None after counting a collapse in `stats` when they are
    (near) zero, the abelian algebra.  The entries of the brackets are the
    coefficients, their negatives and zeros, so the coefficients are scaled
    before they are written."""
    pos, neg, null = family
    coeff = null @ rng.uniform(-1.0, 1.0, null.shape[1])
    max_abs = np.abs(coeff).max()
    if max_abs < 1e-10:
        stats.collapsed += 1
        return None
    return _brackets(dim, pos, neg, coeff / max_abs)


# ---------------------------------------------------------------------------
# search driver
# ---------------------------------------------------------------------------


def _accept(C: NDArray, cfg: SearchConfig, stats: SearchStats) -> list[bool]:
    """Judge a stack of brackets C (K, d, d, d) on the canonical pair: True
    for a hit, or False after counting the rejection in `stats`, per entry.
    Each entry gets the bracket residuals of `validate_manifold` against its
    tolerances (a NaN fails; a Jacobi failure is `rejected_jacobi`), then its
    class label and, for the Kahler target, the first Bianchi gate of R'."""
    g, J, g_inv = _canonical_pair(cfg.dim)
    antisymmetry, jacobi = bracket_residuals(C)
    valid = []
    for k, (r_anti, r_jacobi) in enumerate(zip(antisymmetry.tolist(), jacobi.tolist())):
        if not r_jacobi <= JACOBI_TOLERANCE:
            stats.rejected_jacobi += 1
        elif not r_anti <= MATRIX_TOLERANCE:
            stats.rejected_invalid += 1
        else:
            valid.append(k)
    hits = [False] * len(C)
    if not valid:
        return hits
    C = C[valid]
    gamma = levi_civita(C, g, g_inv)
    nabla_J = compute_nabla_J(gamma, J)
    labels = classify(lower(nabla_J, g), cfg.tolerance)
    accepted = [cls.label is ClassLabel.QUASI_KAHLER_W3 for cls in labels]
    if cfg.target is SearchTarget.W3_RPRIME_KAHLER and any(accepted):
        w3 = np.flatnonzero(accepted)
        q = q_array(*twist_arrays(nabla_J[w3], J))
        r_prime = riemann(gamma[w3] + q, C[w3], g)
        for k, r in zip(w3, bianchi_residual(r_prime).tolist()):
            accepted[k] = not r > cfg.tolerance
    for k, ok in zip(valid, accepted):
        hits[k] = ok
    stats.rejected_class += accepted.count(False)
    return hits


def search_w3_examples(
    cfg: SearchConfig,
) -> tuple[list[ManifoldManifest], SearchStats]:
    """Seeded search; returns validated quasi-Kahler manifests plus statistics.

    An empty list is a legitimate outcome (statistics say how hard the search
    tried); it is not an error.
    """
    rng = np.random.default_rng(cfg.seed)
    stats = SearchStats()
    start = time.perf_counter()

    want_kahler = cfg.target is SearchTarget.W3_RPRIME_KAHLER

    # deterministic ansatz rotation: candidate j draws from the two-step
    # family of centre slot j % (len(centres) + 1), or tries Gauss-Newton in
    # the last slot (families are built on their first draw)
    centres = () if want_kahler else _two_step_centres(cfg.dim)

    found: dict[int, tuple[str, NDArray]] = {}

    # candidate j enters while j < max_candidates and the hits so far plus
    # the candidates not yet judged fall short of max_results: every
    # candidate that enters is one that running them one at a time would
    # run, drawing in the same order.  Two-step brackets wait in `pending`
    # and are judged as one stack with the Gauss-Newton candidates that
    # converge in the next round.
    batch: _Lockstep | None = None
    pending: list[tuple[int, str, NDArray]] = []
    while True:
        while (
            stats.candidates < cfg.max_candidates
            and stats.hits + len(pending) + (len(batch) if batch else 0)
            < cfg.max_results
        ):
            j = stats.candidates
            slot = j % (len(centres) + 1)
            kind = "two_step" if slot < len(centres) else "gauss_newton"
            stats.candidates += 1
            stats.by_ansatz[kind] = stats.by_ansatz.get(kind, 0) + 1
            if kind == "two_step":
                family = _two_step_family(cfg.dim, centres[slot][0])
                C = _two_step_candidate(rng, cfg.dim, family, stats)
                if C is not None:
                    pending.append((j, kind, C))
            else:
                if batch is None:
                    batch = _Lockstep(_quadratic_form(cfg.dim, want_kahler))
                batch.add(j, rng)
        if not batch and not pending:
            break
        if batch:
            pending += [
                (j, "gauss_newton", C) for j, C in batch.round(stats) if C is not None
            ]
        if pending:
            stats.converged += len(pending)
            stack = np.stack([C for _, _, C in pending])
            for (j, kind, C), hit in zip(pending, _accept(stack, cfg, stats)):
                if hit:
                    stats.hits += 1
                    found[j] = (kind, C)
            pending = []

    g, J, _ = _canonical_pair(cfg.dim)
    manifests = []
    for n, j in enumerate(sorted(found), 1):
        kind, C = found[j]
        name = (
            f"w3_d{cfg.dim}_seed{cfg.seed}_{cfg.target.value.replace('-', '_')}"
            f"_{n:04d}"
        )
        manifests.append(
            ManifoldManifest(
                id=name,
                dim=cfg.dim,
                structure_constants=C,
                metric=g,
                J=J,
                description=(
                    f"seeded null-space search hit (ansatz={kind}, "
                    f"target={cfg.target.value}, seed={cfg.seed})"
                ),
            )
        )
    stats.elapsed = time.perf_counter() - start
    return manifests, stats
