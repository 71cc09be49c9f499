"""Catalog of named identity checks and the per-manifold suite runner.

Each check binds a stable id to a residual computed from a shared
precomputation context, a tolerance and a gate: the class it needs and the
earlier checks that must PASS before it runs.  A check whose gate is unmet
reports NA (never PASS/FAIL) with the reason; residuals are still logged
whenever they are computable, so contrapositives remain observable in report
data.

Scalar relations are data: each is one row of its check (`CheckDef.rows`),
its left and right sides as dyadic coefficients of named values of one panel
per report, and one function evaluates a stage's rows in one call (`_rows`).
THM_3_1's zero tests and the Kahler-form coefficients of the dim-4 checks are
rows too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np
from numpy.typing import NDArray

from . import curvature as curv
from . import geometry as geo
from .manifolds import (
    InvalidManifoldError,
    LieFrameManifold,
    ValidationOutcome,
    Violation,
    covariant_derivative,
    levi_civita,
    torsion,
    validate_manifold,
)
from .tensors import (
    DEFAULT_TOLERANCE,
    check_tolerance,
    cyclic_sum3,
    lower,
    permutation_residual,
    residual,
    scalar_residual,
    zero_residual,
)

SUITE_VERSION = "1.0.0"

PASS = "PASS"
FAIL = "FAIL"
NA = "NA"


class CheckResult(NamedTuple):
    check_id: str
    anchor: str
    residual: float | None
    status: str
    reason: str | None = None


@dataclass(frozen=True)
class VerificationReport:
    """The verdicts of one run of the suite on one manifold.

    Every check was judged against `tolerance`, the one tolerance of the run:
    PASS when its residual is at most `tolerance`, FAIL above it, NA when its
    gate is unmet (`reason` says why).  `scalar_panel` is None on class OTHER.
    """

    manifold_id: str
    class_label: geo.Classification
    scalar_panel: geo.ScalarPanel | None
    checks: tuple[CheckResult, ...]
    tolerance: float
    suite_version: str = SUITE_VERSION

    @property
    def n_pass(self) -> int:
        return sum(1 for c in self.checks if c.status == PASS)

    @property
    def n_fail(self) -> int:
        return sum(1 for c in self.checks if c.status == FAIL)

    @property
    def n_na(self) -> int:
        return sum(1 for c in self.checks if c.status == NA)

    def check(self, check_id: str) -> CheckResult:
        for c in self.checks:
            if c.check_id == check_id:
                return c
        raise KeyError(check_id)


@dataclass
class GeometryContext:
    """Everything computed once per manifold and shared across checks."""

    m: LieFrameManifold
    tolerance: float
    nabla_J: NDArray
    F: NDArray
    classification: geo.Classification
    R: NDArray
    values: dict[str, float] = field(default_factory=dict)
    panel: geo.ScalarPanel | None = None


def _non_finite(ctx: GeometryContext) -> list[Violation]:
    """Every residual and scalar of `ctx` that is not finite (brackets so large
    that the curvature overflows, say)."""
    values = {"F max-abs": ctx.classification.f_norm, **ctx.values}
    if ctx.panel is not None:
        for name in geo.ScalarPanel.FIELDS:
            values[f"scalar {name}"] = getattr(ctx.panel, name)
    return [
        Violation(f"finite value of {name}", x)
        for name, x in values.items()
        if not math.isfinite(x)
    ]


def _finite(ctx: GeometryContext) -> GeometryContext:
    """`ctx`, or InvalidManifoldError naming its non-finite values."""
    bad = _non_finite(ctx)
    if bad:
        raise InvalidManifoldError(ValidationOutcome(violations=tuple(bad)))
    return ctx


# an overflow shows up as a non-finite residual, reported by `_finite`
@np.errstate(over="ignore", invalid="ignore")
def build_context(
    m: LieFrameManifold, tolerance: float = DEFAULT_TOLERANCE
) -> GeometryContext:
    """Compute every residual and scalar of the catalog once.

    One pass: gamma, nabla J, F, the class, R and the twist pair (a, b) of
    nabla J; on W0/W3 also Q, the coefficients gamma + Q of nabla' = nabla + Q,
    qq = g(Q(x,y),Q(z,w)), R', P and H.  The stack L = [R, R', P, H] (R alone
    on class OTHER) gives the symmetry residuals, and on W0/W3 the scalar
    curvatures, in one call each; no check of class OTHER reads R's Kahler
    residual, so the panel skips it there.  A residual against R or R' takes
    their max-abs from that panel.  The scalar relations come from their rows
    on the scalar panel p: ||nabla J||^2, its associated variant and the trace of
    EQ_1_7's cross form, then the curvature scalars and tr g(Q,Q); the two
    traces stay out of the report's ScalarPanel.  Each relation is written as
    soon as p holds what its row reads, so the values keep one fixed order,
    the order in which `_non_finite` names violations.

    Raises InvalidManifoldError if the manifold fails validation, or if any
    residual or scalar computed from it is not finite.
    """
    check_tolerance(tolerance)
    outcome = validate_manifold(m)
    if not outcome.ok:
        raise InvalidManifoldError(outcome)
    C, g, J, g_inv = m.structure_constants, m.metric, m.J, m.metric_inv
    gamma = levi_civita(C, g, g_inv)
    nJ = geo.compute_nabla_J(gamma, J)
    F = lower(nJ, g)
    cls = geo.classify(F, tolerance)
    Rc = curv.riemann(gamma, C, g)
    ctx = GeometryContext(m, tolerance, nJ, F, cls, Rc)
    a, b = geo.twist_arrays(nJ, J)
    if cls.is_w3_or_kahler:
        q_vec = geo.q_array(a, b)
        gamma_p = gamma + q_vec
        # g(Q(x,y),Q(z,w)) is shared by R' (correction route), P and EQ_2_6/EQ_2_7
        qq = curv.metric_pairing(q_vec, q_vec, g)
        L = np.stack(
            [Rc, curv.riemann(gamma_p, C, g), curv.tensor_P(qq), curv.tensor_H(a, b, g)]
        )
        sym = curv.symmetry_panel(L, J)
    else:
        sym = curv.symmetry_panel(Rc[None], None)
    top, antisym, bianchi = (x.tolist() for x in sym[:3])
    v = ctx.values

    v["EQ_1_3_A"] = permutation_residual(F, cls.f_norm, ((0, 2, 1),))
    v["EQ_1_3_B"] = residual(F, J.T @ F @ J)
    v["R_CURVATURE_LIKE"] = max(antisym[0], bianchi[0])
    v["R_PAIR_SYMMETRY"] = permutation_residual(Rc, top[0], ((2, 3, 0, 1),))

    dF = covariant_derivative(gamma, F)
    lhs = dF - dF.transpose(1, 0, 2, 3)
    rhs = J.T @ Rc - Rc @ J
    v["EQ_1_5"] = residual(lhs, rhs)

    # the three equivalent membership conditions
    v["EQ_1_4"] = cls.w3_residual
    d = len(J)
    JF = (J.T @ F.reshape(d, -1)).reshape(F.shape)  # F(Jx,y,z)
    v["EQ_1_13"] = zero_residual(cyclic_sum3(JF))
    v["EQ_1_14"] = zero_residual(a + a.transpose(0, 2, 1) + b + b.transpose(0, 2, 1))
    if not cls.is_w3_or_kahler:
        return _finite(ctx)
    _, Rpc, P, _ = L
    kahler = sym.kahler.tolist()

    # the panel the scalar relations read (`CheckDef.rows`): ||nabla J||^2,
    # its associated variant (g~(x,y) = g(x,Jy) in the inner pairing) and the
    # trace of EQ_1_7's cross form; the curvature scalars join it below
    p = {
        "sq_norm_nablaJ": float(geo.metric_trace(g_inv, nJ, g, nJ)),
        "assoc_sq_norm_nablaJ": float(geo.metric_trace(g_inv, nJ, g @ J, nJ)),
        "cross_nablaJ": float(geo.metric_trace(g_inv, nJ, g, nJ.swapaxes(1, 2))),
    }
    _relations(v, p)

    # J-twisted curvature identity, with the empirically validated (+) sign
    # on the Gram side of symmetrized nabla J.
    # RJ2 = R(x,Jy,z,w) and RJ1 = R(Jx,y,z,w); J.T @ and @ J twist z and w
    RJ2 = (J.T @ Rc.reshape(d, d, -1)).reshape(Rc.shape)
    RJ1 = (J.T @ Rc.reshape(d, -1)).reshape(Rc.shape)
    S = J.T @ RJ2 - RJ2 @ J + RJ1 @ J - J.T @ RJ1
    sym_nJ = nJ + nJ.transpose(0, 2, 1)
    G = curv.metric_pairing(sym_nJ, sym_nJ, g)
    v["EQ_1_15"] = residual(cyclic_sum3(S), cyclic_sum3(G))

    qc = lower(q_vec, g)
    v["EQ_1_19"] = residual(qc, geo.q_from_cyclic_F(F, J))
    v["Q_SKEW"] = permutation_residual(qc, np.abs(qc).max(), ((1, 0, 2), (0, 2, 1)), -1)
    v["Q_TRACE"] = zero_residual(np.einsum("ij,kij->k", g_inv, q_vec))
    v["F_TRACE_A"] = zero_residual(np.einsum("ij,ijz->z", g_inv, F))
    v["F_TRACE_B"] = zero_residual(np.einsum("ij,aj,iaz->z", g_inv, J, F))

    v["NATURAL_G"] = zero_residual(covariant_derivative(gamma_p, g))
    v["NATURAL_J"] = zero_residual(geo.compute_nabla_J(gamma_p, J))
    v["TORSION_2Q"] = residual(torsion(gamma_p, C), 2.0 * q_vec)

    dQ = covariant_derivative(gamma, qc)  # nabla Q
    v["EQ_2_3"] = residual(
        Rpc, curv.curvature_prime_from_correction(Rc, dQ, qq), top[1]
    )
    v["R_PRIME_1_10"] = antisym[1]
    v["R_PRIME_1_12"] = kahler[1]
    v["BIANCHI_R_PRIME"] = bianchi[1]

    # max|3R'| is 3 max|R'| exactly: x -> 3x rounds monotonically
    v["EQ_2_8"] = residual(3.0 * Rpc, 3.0 * Rc + P, 3.0 * top[1])

    v["EQ_2_14"] = bianchi[3]
    v["H_1_10"] = antisym[3]
    v["H_1_12"] = kahler[3]
    v["P_CURVATURE_LIKE"] = max(antisym[2], bianchi[2])

    v["EQ_2_6"] = residual(Rpc, Rc - dQ.transpose(2, 0, 1, 3) + qq, top[1])
    v["EQ_2_7"] = residual(
        Rpc + Rpc.transpose(2, 1, 0, 3),
        Rc + Rc.transpose(2, 1, 0, 3) + qq + qq.transpose(2, 1, 0, 3),
    )
    v["TORSION_PARALLEL"] = zero_residual(covariant_derivative(gamma_p, qc))

    # (tau, tau*) of R, R', P and H, in the panel's field order, and the
    # trace of g(Q,Q) that EQ_3_3 reads
    scalars = curv.ricci_and_scalars(L, g_inv, J).ravel().tolist()
    p.update(zip(geo.ScalarPanel.FIELDS, scalars))
    p["trace_QQ"] = float(geo.metric_trace(g_inv, q_vec, g, q_vec.swapaxes(1, 2)))
    ctx.panel = geo.ScalarPanel(**{name: p[name] for name in geo.ScalarPanel.FIELDS})
    _relations(v, p)

    # equivalence / biconditional checks, encoded as status agreement (0 or 1)
    def indicator(x: float) -> bool:
        return x <= tolerance

    v["COR_2_2"] = float(indicator(kahler[2]) != indicator(kahler[0]))
    h_kahler_full = max(v["H_1_10"], v["EQ_2_14"], v["H_1_12"])
    v["COR_2_4"] = float(indicator(v["BIANCHI_R_PRIME"]) != indicator(h_kahler_full))
    iso, *six = (indicator(scalar_residual(*s)) for s in _rows(_ROWS["THM_3_1"], p))
    v["THM_3_1"] = float(any(zero != iso for zero in six))

    if m.dim == 4:
        # the Kahler decomposition of R', and the reconstructions of R from
        # scalars and P, at their rows' coefficients of pi_1 - pi_2 and pi_3;
        # the pi-forms are the pair's
        pis = m.pair.pi_forms
        form = {key: curv.kahler_form(pis, *s)
                for key, s in zip(_DIM4, _rows((_ROWS[key][0] for key in _DIM4), p))}
        v["EQ_3_12"] = residual(Rpc, form["EQ_3_12"], top[1])
        P3 = P / 3.0
        v["EQ_3_13"] = residual(Rc, form["EQ_3_13"] - P3, top[0])
        v["THM_3_2"] = float(indicator(residual(Rc, form["THM_3_2"] - P3, top[0])) != iso)
        v["THM_3_3"] = residual(Rc, form["THM_3_3"] - P3, top[0])
    return _finite(ctx)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

# R' is Kahlerian: both pair antisymmetries, the first Bianchi identity and
# the J-invariance of the last two slots
KAHLER = ("R_PRIME_1_10", "BIANCHI_R_PRIME", "R_PRIME_1_12")

# two linear forms over the panel of `build_context`, each a tuple of terms
# (panel value, dyadic coefficient) summed in its order: a scalar relation's
# left and right sides, or a dim-4 check's coefficients of pi_1 - pi_2 and of
# pi_3
_Side = tuple[tuple[str, float], ...]
_Row = tuple[_Side, _Side]


@dataclass(frozen=True)
class CheckDef:
    """`gate` is None for a check that runs on every class; otherwise the
    check needs class KAHLER_W0 or QUASI_KAHLER_W3 and the earlier checks it
    names to PASS, and with `dim4` also dimension 4.  A scalar relation is one
    row of `rows`, and its residual is the `scalar_residual` of the row's two
    sides.  THM_3_1's rows are its seven zero tests, and a dim-4 check's row
    holds the coefficients of its Kahler form."""

    check_id: str
    anchor: str
    gate: tuple[str, ...] | None
    value_key: str
    dim4: bool = False
    rows: tuple[_Row, ...] = ()


def _defs() -> tuple[CheckDef, ...]:
    d: list[CheckDef] = []

    def add(
        check_id: str,
        anchor: str,
        gate: tuple[str, ...] | None = (),
        value_key: str | None = None,
        dim4: bool = False,
        rows: tuple[tuple[dict[str, float], dict[str, float]], ...] = (),
    ):
        terms = tuple(tuple(tuple((n, float(c)) for n, c in side.items()) for side in row)
                      for row in rows)
        d.append(CheckDef(check_id, anchor, gate, value_key or check_id, dim4, terms))

    # one check per call; a scalar relation's row, {panel value: coefficient}
    # per side, follows its anchor
    sq = "sq_norm_nablaJ"
    add("EQ_1_3_A", "F(x,y,z) = F(x,z,y)", None)
    add("EQ_1_3_B", "F(x,y,z) = F(x,Jy,Jz)", None)
    add("EQ_1_5", "(nabla_x F)(y,z,w) - (nabla_y F)(x,z,w) = R(x,y,Jz,w) - R(x,y,z,Jw)",
        None)
    add("R_CURVATURE_LIKE",
        "R has both pair antisymmetries and satisfies the first Bianchi identity", None)
    add("R_PAIR_SYMMETRY", "R(x,y,z,w) = R(z,w,x,y)", None)
    add("EQ_1_4", "cyclic sum of F vanishes (quasi-Kahler membership condition)")
    add("EQ_1_13", "cyclic sum of F(Jx,y,z) vanishes")
    add("EQ_1_14", "(nabla_x J)Jy + (nabla_y J)Jx + (nabla_{Jx} J)y + (nabla_{Jy} J)x = 0")
    add("EQ_1_7",
        "||nabla J||^2 = -2 g^{ij} g^{ks} g((nabla_{e_i} J)e_k, (nabla_{e_s} J)e_j)",
        rows=(({sq: 1}, {"cross_nablaJ": -2}),))
    add("ASSOC_NORM_ZERO", "associated square norm of nabla J vanishes on this class",
        rows=(({"assoc_sq_norm_nablaJ": 1}, {}),))
    add("EQ_1_15",
        "cyclic{R(x,Jy,Jz,w)-R(x,Jy,z,Jw)+R(Jx,y,z,Jw)-R(Jx,y,Jz,w)} = "
        "+cyclic{g((nabla_x J)y+(nabla_y J)x, (nabla_z J)w+(nabla_w J)z)} "
        "(sign on the right empirically corrected; see README findings)")
    add("EQ_1_19", "g(Q(y,z),w) = -1/4 cyclic sum of F(y,z,Jw)")
    add("Q_SKEW", "g(Q(x,y),z) is totally skew-symmetric")
    add("Q_TRACE", "g^{ij} Q(e_i,e_j) = 0")
    add("F_TRACE_A", "g^{ij} F(e_i,e_j,z) = 0")
    add("F_TRACE_B", "g^{ij} F(e_i,Je_j,z) = 0")
    add("NATURAL_G", "nabla' g = 0")
    add("NATURAL_J", "nabla' J = 0")
    add("TORSION_2Q", "torsion of nabla' equals 2Q")
    add("EQ_2_3", "R' from its curvature formula equals R plus nabla-Q and Q-quadratic terms")
    add("R_PRIME_1_10", "R' has both pair antisymmetries")
    add("R_PRIME_1_12", "R'(x,y,Jz,Jw) = -R'(x,y,z,w)")
    add("BIANCHI_R_PRIME", "first Bianchi identity for R'")
    add("EQ_2_8", "3R' = 3R + P")
    add("EQ_2_14",
        "cyclic g((nabla_x J)Jy+(nabla_{Jx} J)y, (nabla_z J)Jw+(nabla_{Jz} J)w) = 0 "
        "(identically satisfied on this class; see README findings)")
    add("TORSION_PARALLEL",
        "nabla' Q = 0; empirically co-vanishes with BIANCHI_R_PRIME on this model class")
    add("EQ_2_6", "R' = R - (nabla_z Q)(x,y,w) + g(Q(x,y),Q(z,w))", KAHLER)
    add("EQ_2_7",
        "R'(x,y,z,w)+R'(z,y,x,w) = R(x,y,z,w)+R(z,y,x,w)+g(Q(x,y),Q(z,w))+g(Q(z,y),Q(x,w))",
        KAHLER)
    add("P_CURVATURE_LIKE",
        "P has both pair antisymmetries and satisfies the first Bianchi identity")
    add("H_1_10", "H has both pair antisymmetries")
    add("H_1_12", "H(x,y,Jz,Jw) = -H(x,y,z,w)")
    add("COR_2_2", "P is Kahler iff R is Kahler (statuses agree)", KAHLER)
    add("COR_2_4",
        "R' satisfies the first Bianchi identity iff H is a Kahler tensor (statuses agree)")
    add("THM_2_1_FWD", "R' Bianchi holds => 3R' = 3R + P", ("BIANCHI_R_PRIME",), "EQ_2_8")
    add("THM_2_1_REV", "3R' = 3R + P => R' Bianchi holds", ("EQ_2_8",), "BIANCHI_R_PRIME")
    add("THM_2_3_FWD", "R' Bianchi holds => the cyclic nabla-J condition of EQ_2_14",
        ("BIANCHI_R_PRIME",), "EQ_2_14")
    add("THM_2_3_REV", "the cyclic nabla-J condition of EQ_2_14 => R' Bianchi holds",
        ("EQ_2_14",), "BIANCHI_R_PRIME")
    add("EQ_3_1", "3 tau' = 3 tau + tau(P)", KAHLER,
        rows=(({"tau_prime": 3}, {"tau": 3, "tau_P": 1}),))
    add("EQ_3_2", "3 tau'* = 3 tau* + tau*(P)", KAHLER,
        rows=(({"tau_prime_star": 3}, {"tau_star": 3, "tau_star_P": 1}),))
    add("EQ_3_3", "tau(P) = 3 g^{ij} g^{ks} g(Q(e_i,e_k), Q(e_s,e_j))",
        rows=(({"tau_P": 1}, {"trace_QQ": 3}),))
    add("EQ_3_4", "tau(P) = (9/8) ||nabla J||^2", rows=(({"tau_P": 1}, {sq: 9 / 8}),))
    add("EQ_3_5", "tau' = tau + (3/8) ||nabla J||^2", KAHLER,
        rows=(({"tau_prime": 1}, {"tau": 1, sq: 3 / 8}),))
    add("EQ_3_6", "tau*(P) = -(3/8) ||nabla J||^2", rows=(({"tau_star_P": 1}, {sq: -3 / 8}),))
    add("EQ_3_7", "tau'* = tau* - (1/8) ||nabla J||^2", KAHLER,
        rows=(({"tau_prime_star": 1}, {"tau_star": 1, sq: -1 / 8}),))
    add("EQ_3_8", "tau' + 3 tau'* = tau + 3 tau*", KAHLER,
        rows=(({"tau_prime": 1, "tau_prime_star": 3}, {"tau": 1, "tau_star": 3}),))
    add("EQ_3_9_A", "tau(H) = 2 ||nabla J||^2", rows=(({"tau_H": 1}, {sq: 2}),))
    add("EQ_3_9_B", "tau*(H) = 2 ||nabla J||^2", rows=(({"tau_star_H": 1}, {sq: 2}),))
    add("EQ_3_10", "tau' = tau + (3/16) tau(H)", KAHLER,
        rows=(({"tau_prime": 1}, {"tau": 1, "tau_H": 3 / 16}),))
    add("EQ_3_11", "tau'* = tau* - (1/16) tau(H)", KAHLER,
        rows=(({"tau_prime_star": 1}, {"tau_star": 1, "tau_H": -1 / 16}),))
    add("THM_3_1", "||nabla J||^2 = 0 iff each of tau-tau', tau*-tau'*, tau(P), tau*(P), "
        "tau(H), tau*(H) is 0 (statuses agree)", KAHLER,
        rows=tuple((zero, {}) for zero in (
            {sq: 1}, {"tau": 1, "tau_prime": -1}, {"tau_star": 1, "tau_prime_star": -1},
            {"tau_P": 1}, {"tau_star_P": 1}, {"tau_H": 1}, {"tau_star_H": 1})))
    add("EQ_3_12", "R' = (tau'/8)(pi_1 - pi_2) + (tau'*/8) pi_3", KAHLER, dim4=True,
        rows=(({"tau_prime": 1 / 8}, {"tau_prime_star": 1 / 8}),))
    add("EQ_3_13", "R = (1/8){(tau + (3/8)||nabla J||^2)(pi_1-pi_2) + "
        "(tau* - (1/8)||nabla J||^2) pi_3} - (1/3)P", KAHLER, dim4=True,
        rows=(({"tau": 1 / 8, sq: 3 / 64}, {"tau_star": 1 / 8, sq: -1 / 64}),))
    add("THM_3_2", "||nabla J||^2 = 0 iff R = (1/8){tau (pi_1-pi_2) + tau* pi_3} - (1/3)P "
        "(statuses agree)", KAHLER, dim4=True,
        rows=(({"tau": 1 / 8}, {"tau_star": 1 / 8}),))
    add("THM_3_3",
        "R = (1/128){(16 tau + tau(H))(pi_1-pi_2) + (16 tau* - tau(H)) pi_3} - (1/3)P",
        KAHLER, dim4=True,
        rows=(({"tau": 1 / 8, "tau_H": 1 / 128}, {"tau_star": 1 / 8, "tau_H": -1 / 128}),))
    return tuple(d)


CHECK_CATALOG: tuple[CheckDef, ...] = _defs()
_ROWS = {d.check_id: d.rows for d in CHECK_CATALOG if d.rows}
_DIM4 = tuple(d.check_id for d in CHECK_CATALOG if d.dim4)


def _rows(rows: Iterable[_Row], p: dict[str, float]) -> list[tuple[float, float]]:
    """Each row's two sides on the panel `p`: each term's coefficient times
    its value, summed left to right from the first product (an empty side is
    0)."""
    out = []
    for lhs, rhs in rows:
        x = y = None
        for name, c in lhs:
            x = c * p[name] if x is None else x + c * p[name]
        for name, c in rhs:
            y = c * p[name] if y is None else y + c * p[name]
        out.append((0.0 if x is None else x, 0.0 if y is None else y))
    return out


@lru_cache(maxsize=None)
def _relations_reading(names: frozenset[str]) -> tuple[tuple[str, _Row], ...]:
    """The scalar relations, in catalog order, whose rows read only `names`."""
    return tuple(
        (d.check_id, d.rows[0])
        for d in CHECK_CATALOG
        if len(d.rows) == 1 and not d.dim4
        and {name for side in d.rows[0] for name, _ in side} <= names
    )


def _relations(v: dict[str, float], p: dict[str, float]) -> None:
    """Write into `v`, in catalog order, the residual of each scalar relation
    that `v` lacks and whose row reads only values that `p` holds."""
    todo = [(key, row) for key, row in _relations_reading(frozenset(p)) if key not in v]
    for (key, _), sides in zip(todo, _rows((row for _, row in todo), p)):
        v[key] = scalar_residual(*sides)


def _gate_reason(
    gate: tuple[str, ...] | None, dim4: bool, ctx: GeometryContext
) -> str | None:
    """None when the gate (`CheckDef.gate`, `CheckDef.dim4`) is met, else the
    NA reason."""
    if gate is None:
        return None
    if not ctx.classification.is_w3_or_kahler:
        return "class OTHER"
    if dim4 and ctx.m.dim != 4:
        return "dimension != 4"
    for key in gate:
        res = ctx.values[key]
        if res > ctx.tolerance:
            return f"{key} fails (residual {res:.2e})"
    return None


def run_suite(
    m: LieFrameManifold,
    tolerance: float = DEFAULT_TOLERANCE,
    manifold_id: str | None = None,
) -> VerificationReport:
    """Run every catalog check on one manifold.

    `manifold_id` defaults to the manifold's `id` (a manifest's), else
    "manifold".  Raises InvalidManifoldError (carrying the validation outcome)
    if the manifold fails validation.  For class OTHER only the
    class-independent checks run; the rest are NA.
    """
    if manifold_id is None:
        manifold_id = getattr(m, "id", "manifold")
    ctx = build_context(m, tolerance)
    # a gate is judged once per report, however many checks share it
    reasons: dict[tuple, str | None] = {}
    checks = []
    for defn in CHECK_CATALOG:
        gate = defn.gate, defn.dim4
        if gate not in reasons:
            reasons[gate] = _gate_reason(*gate, ctx)
        reason, res = reasons[gate], ctx.values.get(defn.value_key)
        if reason is not None:
            status = NA
        elif res is None:
            raise RuntimeError(f"no residual available for {defn.check_id}")
        else:
            status = PASS if res <= tolerance else FAIL
        checks.append(CheckResult(defn.check_id, defn.anchor, res, status, reason))
    return VerificationReport(
        manifold_id=manifold_id,
        class_label=ctx.classification,
        scalar_panel=ctx.panel,
        checks=tuple(checks),
        tolerance=tolerance,
    )
