"""Catalog of named identity checks and the per-manifold suite runner.

Each check binds a stable id to a residual computed from a shared
precomputation context, a tolerance and a gate: the class it needs and the
earlier checks that must PASS before it runs.  A check whose gate is unmet
reports NA (never PASS/FAIL) with the reason; residuals are still logged
whenever they are computable, so contrapositives remain observable in report
data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    anchor: str
    residual: float | None
    tolerance: float
    status: str
    reason: str | None = None


@dataclass(frozen=True)
class VerificationReport:
    manifold_id: str
    class_label: geo.Classification
    scalar_panel: geo.ScalarPanel | None
    checks: tuple[CheckResult, ...]
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
    curvatures, in one call each.  The values are written in one fixed order,
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
    else:
        L = Rc[None]
    sym = curv.symmetry_panel(L, J)
    antisym, bianchi, kahler = (x.tolist() for x in sym[1:])
    v = ctx.values

    v["EQ_1_3_A"] = permutation_residual(F, cls.f_norm, ((0, 2, 1),))
    v["EQ_1_3_B"] = residual(F, J.T @ F @ J)
    v["R_CURVATURE_LIKE"] = max(antisym[0], bianchi[0])
    v["R_PAIR_SYMMETRY"] = permutation_residual(Rc, sym.top[0], ((2, 3, 0, 1),))

    dF = covariant_derivative(gamma, F)
    lhs = dF - dF.transpose(1, 0, 2, 3)
    rhs = np.einsum("ijal,ak->ijkl", Rc, J) - np.einsum("ijka,al->ijkl", Rc, J)
    v["EQ_1_5"] = residual(lhs, rhs)

    # the three equivalent membership conditions
    v["EQ_1_4"] = cls.w3_residual
    v["EQ_1_13"] = zero_residual(cyclic_sum3(np.einsum("ai,ajk->ijk", J, F)))
    v["EQ_1_14"] = zero_residual(a + a.transpose(0, 2, 1) + b + b.transpose(0, 2, 1))
    if not cls.is_w3_or_kahler:
        return _finite(ctx)
    _, Rpc, P, _ = L

    # ||nabla J||^2, its associated variant (g~(x,y) = g(x,Jy) in the inner
    # pairing) and the cross form of EQ_1_7
    sq = float(geo.metric_trace(g_inv, nJ, g, nJ))
    assoc = float(geo.metric_trace(g_inv, nJ, g @ J, nJ))
    cross = float(-2 * geo.metric_trace(g_inv, nJ, g, nJ.swapaxes(1, 2)))
    v["EQ_1_7"] = scalar_residual(sq, cross)
    v["ASSOC_NORM_ZERO"] = scalar_residual(assoc, 0.0)

    # J-twisted curvature identity, with the empirically validated (+) sign
    # on the Gram side of symmetrized nabla J.
    # RJ2 = R(x,Jy,z,w) and RJ1 = R(Jx,y,z,w); J.T @ and @ J twist z and w
    RJ2 = np.einsum("bj,ibcl->ijcl", J, Rc)
    RJ1 = np.einsum("ai,ajcl->ijcl", J, Rc)
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
    v["EQ_2_3"] = residual(Rpc, curv.curvature_prime_from_correction(Rc, dQ, qq))
    v["R_PRIME_1_10"] = antisym[1]
    v["R_PRIME_1_12"] = kahler[1]
    v["BIANCHI_R_PRIME"] = bianchi[1]

    v["EQ_2_8"] = residual(3.0 * Rpc, 3.0 * Rc + P)

    v["EQ_2_14"] = bianchi[3]
    v["H_1_10"] = antisym[3]
    v["H_1_12"] = kahler[3]
    v["P_CURVATURE_LIKE"] = max(antisym[2], bianchi[2])

    v["EQ_2_6"] = residual(Rpc, Rc - dQ.transpose(2, 0, 1, 3) + qq)
    v["EQ_2_7"] = residual(
        Rpc + Rpc.transpose(2, 1, 0, 3),
        Rc + Rc.transpose(2, 1, 0, 3) + qq + qq.transpose(2, 1, 0, 3),
    )
    v["TORSION_PARALLEL"] = zero_residual(covariant_derivative(gamma_p, qc))

    # (tau, tau*) of R, R', P and H, in the panel's field order
    scalars = curv.ricci_and_scalars(L, g_inv, J).ravel().tolist()
    panel = geo.ScalarPanel(*scalars, sq_norm_nablaJ=sq, assoc_sq_norm_nablaJ=assoc)
    ctx.panel = panel

    v["EQ_3_1"] = scalar_residual(3.0 * panel.tau_prime, 3.0 * panel.tau + panel.tau_P)
    v["EQ_3_2"] = scalar_residual(
        3.0 * panel.tau_prime_star, 3.0 * panel.tau_star + panel.tau_star_P
    )
    trace_qq = float(3.0 * geo.metric_trace(g_inv, q_vec, g, q_vec.swapaxes(1, 2)))
    v["EQ_3_3"] = scalar_residual(panel.tau_P, trace_qq)
    v["EQ_3_4"] = scalar_residual(panel.tau_P, 9.0 / 8.0 * sq)
    v["EQ_3_5"] = scalar_residual(panel.tau_prime, panel.tau + 3.0 / 8.0 * sq)
    v["EQ_3_6"] = scalar_residual(panel.tau_star_P, -3.0 / 8.0 * sq)
    v["EQ_3_7"] = scalar_residual(panel.tau_prime_star, panel.tau_star - sq / 8.0)
    v["EQ_3_8"] = scalar_residual(
        panel.tau_prime + 3.0 * panel.tau_prime_star,
        panel.tau + 3.0 * panel.tau_star,
    )
    v["EQ_3_9_A"] = scalar_residual(panel.tau_H, 2.0 * sq)
    v["EQ_3_9_B"] = scalar_residual(panel.tau_star_H, 2.0 * sq)
    v["EQ_3_10"] = scalar_residual(panel.tau_prime, panel.tau + 3.0 / 16.0 * panel.tau_H)
    v["EQ_3_11"] = scalar_residual(
        panel.tau_prime_star, panel.tau_star - panel.tau_H / 16.0
    )

    # equivalence / biconditional checks, encoded as status agreement (0 or 1)
    def indicator(x: float) -> bool:
        return x <= tolerance

    v["COR_2_2"] = float(indicator(kahler[2]) != indicator(kahler[0]))
    h_kahler_full = max(v["H_1_10"], v["EQ_2_14"], v["H_1_12"])
    v["COR_2_4"] = float(indicator(v["BIANCHI_R_PRIME"]) != indicator(h_kahler_full))
    iso = indicator(scalar_residual(sq, 0.0))
    six = (
        scalar_residual(panel.tau - panel.tau_prime, 0.0),
        scalar_residual(panel.tau_star - panel.tau_prime_star, 0.0),
        scalar_residual(panel.tau_P, 0.0),
        scalar_residual(panel.tau_star_P, 0.0),
        scalar_residual(panel.tau_H, 0.0),
        scalar_residual(panel.tau_star_H, 0.0),
    )
    v["THM_3_1"] = float(any(indicator(s) != iso for s in six))

    if m.dim == 4:
        # the Kahler decomposition of R', and the reconstructions of R from
        # scalars and P
        pis = curv.pi_forms(g, J)
        rhs12 = curv.kahler_form(pis, panel.tau_prime / 8.0, panel.tau_prime_star / 8.0)
        v["EQ_3_12"] = residual(Rpc, rhs12)
        P3 = P / 3.0
        rhs13 = curv.kahler_form(
            pis, (panel.tau + 3.0 / 8.0 * sq) / 8.0, (panel.tau_star - sq / 8.0) / 8.0
        )
        v["EQ_3_13"] = residual(Rc, rhs13 - P3)
        rhs32 = curv.kahler_form(pis, panel.tau / 8.0, panel.tau_star / 8.0)
        v["THM_3_2"] = float(indicator(residual(Rc, rhs32 - P3)) != iso)
        rhs33 = curv.kahler_form(
            pis,
            (16.0 * panel.tau + panel.tau_H) / 128.0,
            (16.0 * panel.tau_star - panel.tau_H) / 128.0,
        )
        v["THM_3_3"] = residual(Rc, rhs33 - P3)
    return _finite(ctx)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

# R' is Kahlerian: both pair antisymmetries, the first Bianchi identity and
# the J-invariance of the last two slots
KAHLER = ("R_PRIME_1_10", "BIANCHI_R_PRIME", "R_PRIME_1_12")


@dataclass(frozen=True)
class CheckDef:
    """`gate` is None for a check that runs on every class; otherwise the
    check needs class KAHLER_W0 or QUASI_KAHLER_W3 and the earlier checks it
    names to PASS, and with `dim4` also dimension 4."""

    check_id: str
    anchor: str
    gate: tuple[str, ...] | None
    value_key: str
    dim4: bool = False


def _defs() -> tuple[CheckDef, ...]:
    d: list[CheckDef] = []

    def add(
        check_id: str,
        anchor: str,
        gate: tuple[str, ...] | None = (),
        value_key: str | None = None,
        dim4: bool = False,
    ):
        d.append(CheckDef(check_id, anchor, gate, value_key or check_id, dim4))

    add("EQ_1_3_A", "F(x,y,z) = F(x,z,y)", None)
    add("EQ_1_3_B", "F(x,y,z) = F(x,Jy,Jz)", None)
    add(
        "EQ_1_5",
        "(nabla_x F)(y,z,w) - (nabla_y F)(x,z,w) = R(x,y,Jz,w) - R(x,y,z,Jw)",
        None,
    )
    add(
        "R_CURVATURE_LIKE",
        "R has both pair antisymmetries and satisfies the first Bianchi identity",
        None,
    )
    add("R_PAIR_SYMMETRY", "R(x,y,z,w) = R(z,w,x,y)", None)
    add("EQ_1_4", "cyclic sum of F vanishes (quasi-Kahler membership condition)")
    add("EQ_1_13", "cyclic sum of F(Jx,y,z) vanishes")
    add(
        "EQ_1_14",
        "(nabla_x J)Jy + (nabla_y J)Jx + (nabla_{Jx} J)y + (nabla_{Jy} J)x = 0",
    )
    add(
        "EQ_1_7",
        "||nabla J||^2 = -2 g^{ij} g^{ks} g((nabla_{e_i} J)e_k, (nabla_{e_s} J)e_j)",
    )
    add("ASSOC_NORM_ZERO", "associated square norm of nabla J vanishes on this class")
    add(
        "EQ_1_15",
        "cyclic{R(x,Jy,Jz,w)-R(x,Jy,z,Jw)+R(Jx,y,z,Jw)-R(Jx,y,Jz,w)} = "
        "+cyclic{g((nabla_x J)y+(nabla_y J)x, (nabla_z J)w+(nabla_w J)z)} "
        "(sign on the right empirically corrected; see README findings)",
    )
    add("EQ_1_19", "g(Q(y,z),w) = -1/4 cyclic sum of F(y,z,Jw)")
    add("Q_SKEW", "g(Q(x,y),z) is totally skew-symmetric")
    add("Q_TRACE", "g^{ij} Q(e_i,e_j) = 0")
    add("F_TRACE_A", "g^{ij} F(e_i,e_j,z) = 0")
    add("F_TRACE_B", "g^{ij} F(e_i,Je_j,z) = 0")
    add("NATURAL_G", "nabla' g = 0")
    add("NATURAL_J", "nabla' J = 0")
    add("TORSION_2Q", "torsion of nabla' equals 2Q")
    add(
        "EQ_2_3",
        "R' from its curvature formula equals R plus nabla-Q and Q-quadratic terms",
    )
    add("R_PRIME_1_10", "R' has both pair antisymmetries")
    add("R_PRIME_1_12", "R'(x,y,Jz,Jw) = -R'(x,y,z,w)")
    add("BIANCHI_R_PRIME", "first Bianchi identity for R'")
    add("EQ_2_8", "3R' = 3R + P")
    add(
        "EQ_2_14",
        "cyclic g((nabla_x J)Jy+(nabla_{Jx} J)y, (nabla_z J)Jw+(nabla_{Jz} J)w) = 0 "
        "(identically satisfied on this class; see README findings)",
    )
    add(
        "TORSION_PARALLEL",
        "nabla' Q = 0; empirically co-vanishes with BIANCHI_R_PRIME on this model class",
    )
    add("EQ_2_6", "R' = R - (nabla_z Q)(x,y,w) + g(Q(x,y),Q(z,w))", KAHLER)
    add(
        "EQ_2_7",
        "R'(x,y,z,w)+R'(z,y,x,w) = R(x,y,z,w)+R(z,y,x,w)+g(Q(x,y),Q(z,w))+g(Q(z,y),Q(x,w))",
        KAHLER,
    )
    add(
        "P_CURVATURE_LIKE",
        "P has both pair antisymmetries and satisfies the first Bianchi identity",
    )
    add("H_1_10", "H has both pair antisymmetries")
    add("H_1_12", "H(x,y,Jz,Jw) = -H(x,y,z,w)")
    add("COR_2_2", "P is Kahler iff R is Kahler (statuses agree)", KAHLER)
    add(
        "COR_2_4",
        "R' satisfies the first Bianchi identity iff H is a Kahler tensor (statuses agree)",
    )
    add(
        "THM_2_1_FWD",
        "R' Bianchi holds => 3R' = 3R + P",
        ("BIANCHI_R_PRIME",),
        "EQ_2_8",
    )
    add(
        "THM_2_1_REV",
        "3R' = 3R + P => R' Bianchi holds",
        ("EQ_2_8",),
        "BIANCHI_R_PRIME",
    )
    add(
        "THM_2_3_FWD",
        "R' Bianchi holds => the cyclic nabla-J condition of EQ_2_14",
        ("BIANCHI_R_PRIME",),
        "EQ_2_14",
    )
    add(
        "THM_2_3_REV",
        "the cyclic nabla-J condition of EQ_2_14 => R' Bianchi holds",
        ("EQ_2_14",),
        "BIANCHI_R_PRIME",
    )
    add("EQ_3_1", "3 tau' = 3 tau + tau(P)", KAHLER)
    add("EQ_3_2", "3 tau'* = 3 tau* + tau*(P)", KAHLER)
    add("EQ_3_3", "tau(P) = 3 g^{ij} g^{ks} g(Q(e_i,e_k), Q(e_s,e_j))")
    add("EQ_3_4", "tau(P) = (9/8) ||nabla J||^2")
    add("EQ_3_5", "tau' = tau + (3/8) ||nabla J||^2", KAHLER)
    add("EQ_3_6", "tau*(P) = -(3/8) ||nabla J||^2")
    add("EQ_3_7", "tau'* = tau* - (1/8) ||nabla J||^2", KAHLER)
    add("EQ_3_8", "tau' + 3 tau'* = tau + 3 tau*", KAHLER)
    add("EQ_3_9_A", "tau(H) = 2 ||nabla J||^2")
    add("EQ_3_9_B", "tau*(H) = 2 ||nabla J||^2")
    add("EQ_3_10", "tau' = tau + (3/16) tau(H)", KAHLER)
    add("EQ_3_11", "tau'* = tau* - (1/16) tau(H)", KAHLER)
    add(
        "THM_3_1",
        "||nabla J||^2 = 0 iff each of tau-tau', tau*-tau'*, tau(P), tau*(P), "
        "tau(H), tau*(H) is 0 (statuses agree)",
        KAHLER,
    )
    add("EQ_3_12", "R' = (tau'/8)(pi_1 - pi_2) + (tau'*/8) pi_3", KAHLER, dim4=True)
    add(
        "EQ_3_13",
        "R = (1/8){(tau + (3/8)||nabla J||^2)(pi_1-pi_2) + "
        "(tau* - (1/8)||nabla J||^2) pi_3} - (1/3)P",
        KAHLER,
        dim4=True,
    )
    add(
        "THM_3_2",
        "||nabla J||^2 = 0 iff R = (1/8){tau (pi_1-pi_2) + tau* pi_3} - (1/3)P "
        "(statuses agree)",
        KAHLER,
        dim4=True,
    )
    add(
        "THM_3_3",
        "R = (1/128){(16 tau + tau(H))(pi_1-pi_2) + (16 tau* - tau(H)) pi_3} - (1/3)P",
        KAHLER,
        dim4=True,
    )
    return tuple(d)


CHECK_CATALOG: tuple[CheckDef, ...] = _defs()


def _gate_reason(defn: CheckDef, ctx: GeometryContext) -> str | None:
    """None when the gate is met, else the NA reason."""
    if defn.gate is None:
        return None
    if not ctx.classification.is_w3_or_kahler:
        return "class OTHER"
    if defn.dim4 and ctx.m.dim != 4:
        return "dimension != 4"
    for key in defn.gate:
        res = ctx.values[key]
        if res > ctx.tolerance:
            return f"{key} fails (residual {res:.2e})"
    return None


def _run_one(defn: CheckDef, ctx: GeometryContext) -> CheckResult:
    reason = _gate_reason(defn, ctx)
    res = ctx.values.get(defn.value_key)
    if reason is not None:
        status = NA
    else:
        if res is None:
            raise RuntimeError(f"no residual available for {defn.check_id}")
        status = PASS if res <= ctx.tolerance else FAIL
    return CheckResult(
        check_id=defn.check_id,
        anchor=defn.anchor,
        residual=res,
        tolerance=ctx.tolerance,
        status=status,
        reason=reason,
    )


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
    checks = tuple(_run_one(defn, ctx) for defn in CHECK_CATALOG)
    return VerificationReport(
        manifold_id=manifold_id,
        class_label=ctx.classification,
        scalar_panel=ctx.panel,
        checks=checks,
    )
