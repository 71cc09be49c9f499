"""Catalog of named identity checks and the per-manifold suite runner.

Each check binds a stable id to a residual computed from a shared
precomputation context, a tolerance and a gate.  A gated check whose gate is
unmet reports NA (never PASS/FAIL); residuals are still logged whenever they
are computable, so contrapositives remain observable in report data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import curvature as curv
from . import geometry as geo
from .manifolds import (
    ConnectionCoeffs,
    InvalidManifoldError,
    LieFrameManifold,
    covariant_derivative,
    levi_civita,
    torsion,
    validate_manifold,
)
from .tensors import (
    DEFAULT_TOLERANCE,
    DenseTensor,
    check_tolerance,
    cyclic_sum3,
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
    conn: ConnectionCoeffs
    nabla_J: DenseTensor
    F: DenseTensor
    classification: geo.Classification
    R: curv.CurvatureTensor
    values: dict[str, float] = field(default_factory=dict)
    panel: geo.ScalarPanel | None = None
    r_prime_kahler: bool = False

    @property
    def dim(self) -> int:
        return self.m.dim


def _class_independent_values(ctx: GeometryContext) -> None:
    m, F = ctx.m, ctx.F
    J = m.J
    v = ctx.values
    Fc = F.components
    v["EQ_1_3_A"] = residual(Fc, Fc.transpose(0, 2, 1))
    v["EQ_1_3_B"] = residual(Fc, np.einsum("iab,aj,bk->ijk", Fc, J, J))

    R = ctx.R
    v["R_CURVATURE_LIKE"] = max(R.antisym_residual, R.bianchi_residual)
    Rc = R.t.components
    v["R_PAIR_SYMMETRY"] = residual(Rc, Rc.transpose(2, 3, 0, 1))

    dF = covariant_derivative(m, ctx.conn, F).components
    lhs = dF - dF.transpose(1, 0, 2, 3)
    rhs = np.einsum("ijal,ak->ijkl", Rc, J) - np.einsum("ijka,al->ijkl", Rc, J)
    v["EQ_1_5"] = residual(lhs, rhs)

    cls = ctx.classification
    v["EQ_1_4"] = cls.w3_residual
    v["EQ_1_13"] = cls.w3_j_residual
    v["EQ_1_14"] = cls.w3_defect_residual


def _class_dependent_values(ctx: GeometryContext) -> None:
    m, F, nJ = ctx.m, ctx.F, ctx.nabla_J
    J, g, g_inv = m.J, m.metric, m.metric_inv
    tol = ctx.tolerance
    v = ctx.values
    R = ctx.R
    Rc = R.t.components
    nJc = nJ.components

    sq, assoc = geo.square_norms(m, nJ)
    v["EQ_1_7"] = scalar_residual(sq, geo.sq_norm_cross_form(m, nJ))
    v["ASSOC_NORM_ZERO"] = scalar_residual(assoc, 0.0)

    # J-twisted curvature identity, with the empirically validated (+) sign
    # on the Gram side of symmetrized nabla J.
    S = (
        np.einsum("bj,ck,ibcl->ijkl", J, J, Rc)
        - np.einsum("bj,dl,ibkd->ijkl", J, J, Rc)
        + np.einsum("ai,dl,ajkd->ijkl", J, J, Rc)
        - np.einsum("ai,ck,ajcl->ijkl", J, J, Rc)
    )
    sym = nJc + nJc.transpose(0, 2, 1)
    G = np.einsum("aij,bkl,ab->ijkl", sym, sym, g)
    v["EQ_1_15"] = residual(cyclic_sum3(S), cyclic_sum3(G))

    q_vec, q_cov = geo.compute_Q(m, nJ, ctx.classification)
    v["EQ_1_19"] = residual(q_cov.components, geo.q_from_cyclic_F(m, F).components)
    qc = q_cov.components
    v["Q_SKEW"] = max(
        residual(qc, -qc.transpose(1, 0, 2)), residual(qc, -qc.transpose(0, 2, 1))
    )
    v["Q_TRACE"] = zero_residual(np.einsum("ij,kij->k", g_inv, q_vec.components))
    v["F_TRACE_A"] = zero_residual(np.einsum("ij,ijz->z", g_inv, F.components))
    v["F_TRACE_B"] = zero_residual(np.einsum("ij,aj,iaz->z", g_inv, J, F.components))

    conn_p = geo.connection_prime(ctx.conn, q_vec)
    v["NATURAL_G"] = zero_residual(
        covariant_derivative(m, conn_p, DenseTensor.from_array(g)).components
    )
    v["NATURAL_J"] = zero_residual(geo.compute_nabla_J(m, conn_p).components)
    v["TORSION_2Q"] = residual(
        torsion(m, conn_p).components, 2.0 * q_vec.components
    )

    # nabla Q and g(Q(x,y),Q(z,w)), shared by R' (correction route), P and
    # EQ_2_6/EQ_2_7
    dQ = covariant_derivative(m, ctx.conn, q_cov)
    qq = curv.q_pairing(m, q_vec)
    R_prime = curv.riemann(m, conn_p, tol)
    R_prime_2 = curv.curvature_prime_from_correction(m, R, dQ, qq, tol)
    v["EQ_2_3"] = residual(R_prime.t.components, R_prime_2.t.components)
    v["R_PRIME_1_10"] = R_prime.antisym_residual
    v["R_PRIME_1_12"] = R_prime.kahler_residual
    v["BIANCHI_R_PRIME"] = R_prime.bianchi_residual
    ctx.r_prime_kahler = R_prime.is_kahler

    P = curv.tensor_P(m, qq, tol)
    Rpc = R_prime.t.components
    v["EQ_2_8"] = residual(3.0 * Rpc, 3.0 * Rc + P.t.components)

    H = curv.tensor_H(m, nJ, tol)
    v["EQ_2_14"] = H.bianchi_residual
    v["H_1_10"] = H.antisym_residual
    v["H_1_12"] = H.kahler_residual
    v["P_CURVATURE_LIKE"] = max(P.antisym_residual, P.bianchi_residual)

    v["EQ_2_6"] = residual(Rpc, Rc - dQ.components.transpose(2, 0, 1, 3) + qq)
    v["EQ_2_7"] = residual(
        Rpc + Rpc.transpose(2, 1, 0, 3),
        Rc + Rc.transpose(2, 1, 0, 3) + qq + qq.transpose(2, 1, 0, 3),
    )
    v["TORSION_PARALLEL"] = zero_residual(
        covariant_derivative(m, conn_p, q_cov).components
    )

    sc_R = curv.ricci_and_scalars(m, R)
    sc_Rp = curv.ricci_and_scalars(m, R_prime)
    sc_P = curv.ricci_and_scalars(m, P)
    sc_H = curv.ricci_and_scalars(m, H)
    panel = geo.ScalarPanel(
        tau=sc_R.tau,
        tau_star=sc_R.tau_star,
        tau_prime=sc_Rp.tau,
        tau_prime_star=sc_Rp.tau_star,
        tau_P=sc_P.tau,
        tau_star_P=sc_P.tau_star,
        tau_H=sc_H.tau,
        tau_star_H=sc_H.tau_star,
        sq_norm_nablaJ=sq,
        assoc_sq_norm_nablaJ=assoc,
    )
    ctx.panel = panel

    v["EQ_3_1"] = scalar_residual(3.0 * panel.tau_prime, 3.0 * panel.tau + panel.tau_P)
    v["EQ_3_2"] = scalar_residual(
        3.0 * panel.tau_prime_star, 3.0 * panel.tau_star + panel.tau_star_P
    )
    qv = q_vec.components
    trace_qq = float(
        3.0 * np.einsum("ij,ks,mik,nsj,mn->", g_inv, g_inv, qv, qv, g)
    )
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
        return x <= tol

    v["COR_2_2"] = float(indicator(P.kahler_residual) != indicator(R.kahler_residual))
    h_kahler_full = max(H.antisym_residual, H.bianchi_residual, H.kahler_residual)
    v["COR_2_4"] = float(
        indicator(R_prime.bianchi_residual) != indicator(h_kahler_full)
    )
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
        pis = curv.pi_forms(m, tol)
        v["EQ_3_12"] = curv.kahler_decomposition_dim4(
            pis, R_prime, panel.tau_prime, panel.tau_prime_star, require_kahler=False
        )
        rhs13 = curv.kahler_form(
            pis, (panel.tau + 3.0 / 8.0 * sq) / 8.0, (panel.tau_star - sq / 8.0) / 8.0
        )
        v["EQ_3_13"] = residual(Rc, rhs13 - P.t.components / 3.0)
        r32, r33 = curv.reconstruct_R_dim4(pis, panel, P, R)
        v["THM_3_2"] = float(indicator(r32) != iso)
        v["THM_3_2_RESIDUAL"] = r32
        v["THM_3_3"] = r33


def build_context(
    m: LieFrameManifold, tolerance: float = DEFAULT_TOLERANCE
) -> GeometryContext:
    check_tolerance(tolerance)
    outcome = validate_manifold(m)
    if not outcome.ok:
        raise InvalidManifoldError(outcome)
    conn = levi_civita(m)
    nabla_J = geo.compute_nabla_J(m, conn)
    F = geo.compute_F(m, nabla_J)
    ctx = GeometryContext(
        m=m,
        tolerance=tolerance,
        conn=conn,
        nabla_J=nabla_J,
        F=F,
        classification=geo.classify(m, F, nabla_J, tolerance),
        R=curv.riemann(m, conn, tolerance),
    )
    _class_independent_values(ctx)
    if ctx.classification.is_w3_or_kahler:
        _class_dependent_values(ctx)
    return ctx


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

GATE_NONE = "none"
GATE_CLASS = "class"
GATE_KAHLER = "kahler"
GATE_DIM4_KAHLER = "dim4_kahler"
GATE_BIANCHI_PASS = "bianchi_pass"
GATE_EQ_2_8_PASS = "eq_2_8_pass"
GATE_EQ_2_14_PASS = "eq_2_14_pass"


@dataclass(frozen=True)
class CheckDef:
    check_id: str
    anchor: str
    gate: str
    value_key: str


def _defs() -> tuple[CheckDef, ...]:
    d: list[CheckDef] = []

    def add(check_id: str, anchor: str, gate: str, value_key: str | None = None):
        d.append(CheckDef(check_id, anchor, gate, value_key or check_id))

    add("EQ_1_3_A", "F(x,y,z) = F(x,z,y)", GATE_NONE)
    add("EQ_1_3_B", "F(x,y,z) = F(x,Jy,Jz)", GATE_NONE)
    add(
        "EQ_1_5",
        "(nabla_x F)(y,z,w) - (nabla_y F)(x,z,w) = R(x,y,Jz,w) - R(x,y,z,Jw)",
        GATE_NONE,
    )
    add(
        "R_CURVATURE_LIKE",
        "R has both pair antisymmetries and satisfies the first Bianchi identity",
        GATE_NONE,
    )
    add("R_PAIR_SYMMETRY", "R(x,y,z,w) = R(z,w,x,y)", GATE_NONE)
    add(
        "EQ_1_4",
        "cyclic sum of F vanishes (quasi-Kahler membership condition)",
        GATE_CLASS,
    )
    add("EQ_1_13", "cyclic sum of F(Jx,y,z) vanishes", GATE_CLASS)
    add(
        "EQ_1_14",
        "(nabla_x J)Jy + (nabla_y J)Jx + (nabla_{Jx} J)y + (nabla_{Jy} J)x = 0",
        GATE_CLASS,
    )
    add(
        "EQ_1_7",
        "||nabla J||^2 = -2 g^{ij} g^{ks} g((nabla_{e_i} J)e_k, (nabla_{e_s} J)e_j)",
        GATE_CLASS,
    )
    add(
        "ASSOC_NORM_ZERO",
        "associated square norm of nabla J vanishes on this class",
        GATE_CLASS,
    )
    add(
        "EQ_1_15",
        "cyclic{R(x,Jy,Jz,w)-R(x,Jy,z,Jw)+R(Jx,y,z,Jw)-R(Jx,y,Jz,w)} = "
        "+cyclic{g((nabla_x J)y+(nabla_y J)x, (nabla_z J)w+(nabla_w J)z)} "
        "(sign on the right empirically corrected; see README findings)",
        GATE_CLASS,
    )
    add("EQ_1_19", "g(Q(y,z),w) = -1/4 cyclic sum of F(y,z,Jw)", GATE_CLASS)
    add("Q_SKEW", "g(Q(x,y),z) is totally skew-symmetric", GATE_CLASS)
    add("Q_TRACE", "g^{ij} Q(e_i,e_j) = 0", GATE_CLASS)
    add("F_TRACE_A", "g^{ij} F(e_i,e_j,z) = 0", GATE_CLASS)
    add("F_TRACE_B", "g^{ij} F(e_i,Je_j,z) = 0", GATE_CLASS)
    add("NATURAL_G", "nabla' g = 0", GATE_CLASS)
    add("NATURAL_J", "nabla' J = 0", GATE_CLASS)
    add("TORSION_2Q", "torsion of nabla' equals 2Q", GATE_CLASS)
    add(
        "EQ_2_3",
        "R' from its curvature formula equals R plus nabla-Q and Q-quadratic terms",
        GATE_CLASS,
    )
    add("R_PRIME_1_10", "R' has both pair antisymmetries", GATE_CLASS)
    add("R_PRIME_1_12", "R'(x,y,Jz,Jw) = -R'(x,y,z,w)", GATE_CLASS)
    add("BIANCHI_R_PRIME", "first Bianchi identity for R'", GATE_CLASS)
    add("EQ_2_8", "3R' = 3R + P", GATE_CLASS)
    add(
        "EQ_2_14",
        "cyclic g((nabla_x J)Jy+(nabla_{Jx} J)y, (nabla_z J)Jw+(nabla_{Jz} J)w) = 0 "
        "(identically satisfied on this class; see README findings)",
        GATE_CLASS,
    )
    add(
        "TORSION_PARALLEL",
        "nabla' Q = 0; empirically co-vanishes with BIANCHI_R_PRIME on this model class",
        GATE_CLASS,
    )
    add("EQ_2_6", "R' = R - (nabla_z Q)(x,y,w) + g(Q(x,y),Q(z,w))", GATE_KAHLER)
    add(
        "EQ_2_7",
        "R'(x,y,z,w)+R'(z,y,x,w) = R(x,y,z,w)+R(z,y,x,w)+g(Q(x,y),Q(z,w))+g(Q(z,y),Q(x,w))",
        GATE_KAHLER,
    )
    add(
        "P_CURVATURE_LIKE",
        "P has both pair antisymmetries and satisfies the first Bianchi identity",
        GATE_CLASS,
    )
    add("H_1_10", "H has both pair antisymmetries", GATE_CLASS)
    add("H_1_12", "H(x,y,Jz,Jw) = -H(x,y,z,w)", GATE_CLASS)
    add("COR_2_2", "P is Kahler iff R is Kahler (statuses agree)", GATE_KAHLER)
    add(
        "COR_2_4",
        "R' satisfies the first Bianchi identity iff H is a Kahler tensor (statuses agree)",
        GATE_CLASS,
    )
    add("THM_2_1_FWD", "R' Bianchi holds => 3R' = 3R + P", GATE_BIANCHI_PASS, "EQ_2_8")
    add(
        "THM_2_1_REV",
        "3R' = 3R + P => R' Bianchi holds",
        GATE_EQ_2_8_PASS,
        "BIANCHI_R_PRIME",
    )
    add(
        "THM_2_3_FWD",
        "R' Bianchi holds => the cyclic nabla-J condition of EQ_2_14",
        GATE_BIANCHI_PASS,
        "EQ_2_14",
    )
    add(
        "THM_2_3_REV",
        "the cyclic nabla-J condition of EQ_2_14 => R' Bianchi holds",
        GATE_EQ_2_14_PASS,
        "BIANCHI_R_PRIME",
    )
    add("EQ_3_1", "3 tau' = 3 tau + tau(P)", GATE_KAHLER)
    add("EQ_3_2", "3 tau'* = 3 tau* + tau*(P)", GATE_KAHLER)
    add("EQ_3_3", "tau(P) = 3 g^{ij} g^{ks} g(Q(e_i,e_k), Q(e_s,e_j))", GATE_CLASS)
    add("EQ_3_4", "tau(P) = (9/8) ||nabla J||^2", GATE_CLASS)
    add("EQ_3_5", "tau' = tau + (3/8) ||nabla J||^2", GATE_KAHLER)
    add("EQ_3_6", "tau*(P) = -(3/8) ||nabla J||^2", GATE_CLASS)
    add("EQ_3_7", "tau'* = tau* - (1/8) ||nabla J||^2", GATE_KAHLER)
    add("EQ_3_8", "tau' + 3 tau'* = tau + 3 tau*", GATE_KAHLER)
    add("EQ_3_9_A", "tau(H) = 2 ||nabla J||^2", GATE_CLASS)
    add("EQ_3_9_B", "tau*(H) = 2 ||nabla J||^2", GATE_CLASS)
    add("EQ_3_10", "tau' = tau + (3/16) tau(H)", GATE_KAHLER)
    add("EQ_3_11", "tau'* = tau* - (1/16) tau(H)", GATE_KAHLER)
    add(
        "THM_3_1",
        "||nabla J||^2 = 0 iff each of tau-tau', tau*-tau'*, tau(P), tau*(P), "
        "tau(H), tau*(H) is 0 (statuses agree)",
        GATE_KAHLER,
    )
    add("EQ_3_12", "R' = (tau'/8)(pi_1 - pi_2) + (tau'*/8) pi_3", GATE_DIM4_KAHLER)
    add(
        "EQ_3_13",
        "R = (1/8){(tau + (3/8)||nabla J||^2)(pi_1-pi_2) + "
        "(tau* - (1/8)||nabla J||^2) pi_3} - (1/3)P",
        GATE_DIM4_KAHLER,
    )
    add(
        "THM_3_2",
        "||nabla J||^2 = 0 iff R = (1/8){tau (pi_1-pi_2) + tau* pi_3} - (1/3)P "
        "(statuses agree)",
        GATE_DIM4_KAHLER,
    )
    add(
        "THM_3_3",
        "R = (1/128){(16 tau + tau(H))(pi_1-pi_2) + (16 tau* - tau(H)) pi_3} - (1/3)P",
        GATE_DIM4_KAHLER,
    )
    return tuple(d)


CHECK_CATALOG: tuple[CheckDef, ...] = _defs()
CHECK_IDS: tuple[str, ...] = tuple(c.check_id for c in CHECK_CATALOG)


def _gate_reason(defn: CheckDef, ctx: GeometryContext) -> str | None:
    """None when the gate is met, else the NA reason."""
    cls_ok = ctx.classification.is_w3_or_kahler
    if defn.gate == GATE_NONE:
        return None
    if not cls_ok:
        return "class OTHER"
    if defn.gate == GATE_CLASS:
        return None
    if defn.gate == GATE_KAHLER:
        return None if ctx.r_prime_kahler else "R' not Kahler within tolerance"
    if defn.gate == GATE_DIM4_KAHLER:
        if ctx.dim != 4:
            return "dimension != 4"
        return None if ctx.r_prime_kahler else "R' not Kahler within tolerance"
    if defn.gate == GATE_BIANCHI_PASS:
        ok = ctx.values.get("BIANCHI_R_PRIME")
        return None if ok is not None and ok <= ctx.tolerance else "R' Bianchi fails"
    if defn.gate == GATE_EQ_2_8_PASS:
        ok = ctx.values.get("EQ_2_8")
        return None if ok is not None and ok <= ctx.tolerance else "3R' = 3R + P fails"
    if defn.gate == GATE_EQ_2_14_PASS:
        ok = ctx.values.get("EQ_2_14")
        return None if ok is not None and ok <= ctx.tolerance else "EQ_2_14 fails"
    raise ValueError(f"unknown gate {defn.gate!r}")


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
    manifold_id: str = "manifold",
) -> VerificationReport:
    """Run every catalog check on one manifold.

    Raises InvalidManifoldError (carrying the validation outcome) if the
    manifold fails validation.  For class OTHER only the class-independent
    checks run; the rest are NA.
    """
    ctx = build_context(m, tolerance)
    checks = tuple(_run_one(defn, ctx) for defn in CHECK_CATALOG)
    return VerificationReport(
        manifold_id=manifold_id,
        class_label=ctx.classification,
        scalar_panel=ctx.panel,
        checks=checks,
    )


def check_identity(
    check_id: str,
    m: LieFrameManifold,
    context: GeometryContext | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> CheckResult:
    """Run a single catalog check, reusing a shared context when given."""
    for defn in CHECK_CATALOG:
        if defn.check_id == check_id:
            break
    else:
        raise ValueError(f"unknown check id {check_id!r}")
    if context is None:
        context = build_context(m, tolerance)
    return _run_one(defn, context)
