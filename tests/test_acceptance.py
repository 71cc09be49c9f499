"""Acceptance criteria, one test per criterion, each printing a verdict line.

Criteria 4 to 7 also cover the paper's relations that the README's
verification findings show to be false or vacuous on the quasi-Kahler class:
the associated scalar-curvature relations, the cyclic nabla-J
characterization of a Kahlerian R', and the dimension-4 reconstructions and
the isotropy theorem built on them.  For each of these the criterion asserts
the engine's FAIL verdict together with an independent witness that the
relation is false: an exact value from the loop oracle in `exact_oracle`, or
a spread that no fixed coefficient can match.  The verdict line of each
criterion is followed by one `refuted:` line per such relation.
"""

import itertools
import json
import shutil
import subprocess
import sys
import time
from collections.abc import Sequence
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from norden import (
    ClassLabel,
    LieFrameManifold,
    SearchConfig,
    SearchTarget,
    antisym_residual,
    bianchi_residual,
    bundled_manifest_path,
    classify,
    compute_nabla_J,
    contract,
    covariant_derivative,
    cyclic_sum3,
    kahler_residual,
    load_manifest,
    pi_forms,
    residual,
    ricci_and_scalars,
    run_suite,
    scalar_residual,
    search_w3_examples,
)
from norden.cli import emit_report, main
from norden.curvature import kahler_form
from norden.manifolds import JACOBI_TOLERANCE
from norden.tensors import lower

from exact_oracle import loop_panel, loop_tau_star_P, to_fractions
from test_manifolds import gamma_of, loop_covariant_derivative
from test_tensors import loop_contract, loop_cyclic3

TOL = 1e-9


def _verdict(
    number: int, name: str, failures: list[str], refuted: Sequence[str] = ()
) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE CRITERION {number} ({name}): {status}")
    for item in refuted:
        print(f"  refuted: {item}")
    for item in failures:
        print(f"  - {item}")
    assert not failures, f"criterion {number} ({name}): {failures}"


def _cli_command() -> list[str]:
    exe = shutil.which("norden")
    if exe:
        return [exe]
    return [sys.executable, "-m", "norden.cli"]


@pytest.fixture(scope="module")
def discovered_examples(two_step_6):
    """Search output used as the 'every discovered example' pool."""
    pool = [("w3_two_step_6", two_step_6)]
    for dim, seed, n in ((4, 42, 8), (6, 42, 6)):
        cfg = SearchConfig(dim=dim, seed=seed, max_candidates=40 * n, max_results=n)
        hits, _ = search_w3_examples(cfg)
        pool += [(mf.id, mf) for mf in hits]
    assert len(pool) >= 10
    return pool


@pytest.fixture(scope="module")
def two_step_exact(two_step_6):
    """Exact loop-oracle scalars and cyclic sums of w3_two_step_6."""
    m = two_step_6
    arrays = (m.structure_constants, m.metric, m.J)
    return loop_panel(*(to_fractions(a.tolist()) for a in arrays))


def _isotropic(sq_norm: float) -> bool:
    return scalar_residual(sq_norm, 0.0) <= TOL


# a frozen dim-6 Kahler-R' search hit of perfbench/pool/ (read in place):
# isotropic with tau*(P) = 0.37, criterion 7's witness whatever the seeded
# searches below return
FROZEN_WITNESS = (
    Path(__file__).resolve().parents[1]
    / "perfbench"
    / "pool"
    / "w3_d6_seed0_w3_kahler_rprime_0001.manifest"
)


@pytest.fixture(scope="module")
def kahler_examples(flat4):
    pool = [("flat_kahler_4", flat4)]
    for dim, seed, n in ((4, 42, 4), (6, 42, 3)):
        cfg = SearchConfig(
            dim=dim,
            seed=seed,
            max_candidates=80 * n,
            max_results=n,
            target=SearchTarget.W3_RPRIME_KAHLER,
        )
        hits, _ = search_w3_examples(cfg)
        pool += [(mf.id, mf) for mf in hits]
    frozen = load_manifest(FROZEN_WITNESS)
    pool.append((frozen.id, frozen))
    assert len(pool) >= 3
    return pool


def test_criterion_1_oracle_equivalence():
    """contract/cyclic_sum3/covariant_derivative vs naive loop oracles,
    100 seeded tensors over dims {4,6} and ranks {2,3,4}, <= 1e-13/component."""
    rng = np.random.default_rng(2024)
    plan = {(4, 2): 20, (4, 3): 20, (4, 4): 20, (6, 2): 15, (6, 3): 15, (6, 4): 10}
    assert sum(plan.values()) == 100
    failures: list[str] = []
    start = time.perf_counter()
    for (dim, rank), count in plan.items():
        for k in range(count):
            arr = rng.standard_normal((dim,) * rank)
            minv = rng.standard_normal((dim, dim))
            minv = 0.5 * (minv + minv.T)
            sa, sb = map(int, rng.choice(rank, size=2, replace=False))
            got = contract(arr, sa, sb, minv)
            want = loop_contract(arr, sa, sb, minv)
            if np.max(np.abs(got - want)) > 1e-13:
                failures.append(f"contract dim={dim} rank={rank} sample={k}")
            if rank >= 3:
                slots = tuple(map(int, rng.choice(rank, size=3, replace=False)))
                got = cyclic_sum3(arr, slots)
                if np.max(np.abs(got - loop_cyclic3(arr, slots))) > 1e-13:
                    failures.append(f"cyclic_sum3 dim={dim} rank={rank} sample={k}")
            gamma = rng.standard_normal((dim, dim, dim))
            got = covariant_derivative(gamma, arr)
            want = loop_covariant_derivative(gamma, arr)
            if np.max(np.abs(got - want)) > 1e-13:
                failures.append(f"covariant_derivative dim={dim} rank={rank} sample={k}")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    _verdict(1, "oracle equivalence", failures)


def test_criterion_2_flat_golden_case():
    """verify flat_kahler_4: class KAHLER_W0, non-NA residuals <= 1e-12,
    exit code 0, wall time < 1 s."""
    failures: list[str] = []
    path = str(bundled_manifest_path("flat_kahler_4"))
    start = time.perf_counter()
    proc = subprocess.run(
        _cli_command() + ["verify", path], capture_output=True, text=True
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        failures.append(f"exit code {proc.returncode} != 0: {proc.stderr}")
    if elapsed >= 1.0:
        failures.append(f"wall time {elapsed:.2f}s >= 1s")
    if "class: KAHLER_W0" not in proc.stdout:
        failures.append("class line missing or wrong")
    proc_json = subprocess.run(
        _cli_command() + ["verify", path, "--format", "json"],
        capture_output=True,
        text=True,
    )
    doc = json.loads(proc_json.stdout)
    for check in doc["checks"]:
        if check["status"] == "FAIL":
            failures.append(f"{check['id']} FAIL")
        if check["status"] != "NA" and check["residual"] > 1e-12:
            failures.append(f"{check['id']} residual {check['residual']} > 1e-12")
    _verdict(2, "flat golden case", failures)


def test_criterion_3_w3_discovery(tmp_path):
    """search --dim 4 --seed 42 --max-candidates 100000 --target w3 finds at
    least one non-flat quasi-Kahler example in < 60 s."""
    failures: list[str] = []
    out_dir = tmp_path / "search_out"
    start = time.perf_counter()
    proc = subprocess.run(
        _cli_command()
        + [
            "search",
            "--dim", "4",
            "--seed", "42",
            "--max-candidates", "100000",
            "--target", "w3",
            "--out", str(out_dir),
        ],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        failures.append(f"exit code {proc.returncode}: {proc.stderr}")
    if elapsed >= 60.0:
        failures.append(f"wall time {elapsed:.1f}s >= 60s")
    manifests = sorted(out_dir.glob("*.manifest")) if out_dir.is_dir() else []
    if not manifests:
        failures.append("no manifest produced")
    for path in manifests:
        m = load_manifest(path)
        nJ = compute_nabla_J(gamma_of(m), m.J)
        cls = classify(lower(nJ, m.metric))
        if cls.label is not ClassLabel.QUASI_KAHLER_W3 or cls.f_norm <= TOL:
            failures.append(f"{path.name} is not a non-flat quasi-Kahler example")
    _verdict(3, "quasi-Kahler discovery", failures)


def test_criterion_4_unconditional_identities(discovered_examples, two_step_exact):
    """Unconditional identity residuals <= 1e-9 on every discovered example,
    and the paper's associated scalar relations reported FAIL.

    EQ_3_6 (tau*(P) = -(3/8)||nabla J||^2) and EQ_3_9_B (tau*(H) =
    2||nabla J||^2) are false on this class (README, verification findings).
    They must FAIL on every example with ||nabla J||^2 != 0.  The exact loop
    oracle witnesses both on w3_two_step_6: ||nabla J||^2 = 60 while
    tau*(P) = 12 and tau*(H) = 64, where the relations say -45/2 and 120.  It
    also reproduces the verified tau(P) = (9/8)||nabla J||^2 = 135/2 and
    tau(H) = 2||nabla J||^2 = 120 exactly, and the engine's floats must match
    all five exact values within 1e-12.  EQ_1_15 is checked with the README's
    corrected plus sign; with the paper's minus sign it would also force the
    cyclic Gram side to vanish, which the oracle refutes on w3_two_step_6
    (largest component 15/2).
    """
    checks = (
        "EQ_1_3_A", "EQ_1_3_B", "EQ_1_5", "EQ_1_7", "EQ_1_15", "EQ_1_19",
        "Q_SKEW", "Q_TRACE", "NATURAL_G", "NATURAL_J", "TORSION_2Q", "EQ_2_3",
        "EQ_3_3", "EQ_3_4", "EQ_3_9_A",
    )
    refuted_checks = {
        "EQ_3_6": ("tau*(P)", "tau_star_P", Fraction(-3, 8)),
        "EQ_3_9_B": ("tau*(H)", "tau_star_H", Fraction(2)),
    }
    failures: list[str] = []
    residuals: dict[str, list[float]] = {k: [] for k in refuted_checks}
    panels = {}
    for name, m in discovered_examples:
        report = run_suite(m, manifold_id=name)
        panels[name] = report.scalar_panel
        membership = [report.check(k).status for k in ("EQ_1_4", "EQ_1_13", "EQ_1_14")]
        if len(set(membership)) != 1 or membership[0] != "PASS":
            failures.append(f"{name}: membership conditions do not co-vanish")
        for check_id in checks:
            c = report.check(check_id)
            if c.residual is None or c.residual > TOL:
                failures.append(
                    f"{name}: {check_id} residual "
                    f"{'n/a' if c.residual is None else f'{c.residual:.3e}'} > 1e-9"
                )
        if _isotropic(report.scalar_panel.sq_norm_nablaJ):
            continue
        for check_id in refuted_checks:
            c = report.check(check_id)
            residuals[check_id].append(c.residual)
            if c.status != "FAIL":
                failures.append(f"{name}: {check_id} {c.status}, expected FAIL")
    if not residuals["EQ_3_6"]:
        failures.append("no discovered example with ||nabla J||^2 != 0")

    exact = two_step_exact
    sq = exact["sq_norm_nablaJ"]
    expected = {
        "sq_norm_nablaJ": 60,
        "tau_P": Fraction(135, 2),
        "tau_star_P": 12,
        "tau_H": 120,
        "tau_star_H": 64,
    }
    engine = panels["w3_two_step_6"]
    for key, value in expected.items():
        if exact[key] != value:
            failures.append(f"w3_two_step_6: exact {key} = {exact[key]} != {value}")
        if abs(getattr(engine, key) - float(exact[key])) > 1e-12:
            failures.append(
                f"w3_two_step_6: engine {key} = {getattr(engine, key)!r} "
                f"differs from exact {exact[key]} by more than 1e-12"
            )
    gram = exact["cyclic_sym_gram"]
    if gram != Fraction(15, 2):
        failures.append(f"w3_two_step_6: exact EQ_1_15 cyclic Gram side {gram} != 15/2")
    refuted: list[str] = [
        "EQ_1_15 with the paper's minus sign on the Gram side: the plus sign "
        "passes, and on w3_two_step_6 the exact cyclic Gram side is "
        f"{gram}, not 0"
    ]
    for check_id, (label, key, coeff) in refuted_checks.items():
        if exact[key] == coeff * sq:
            failures.append(f"w3_two_step_6: {check_id} holds exactly")
        found = residuals[check_id]
        refuted.append(
            f"{check_id} {label} = ({coeff})||nabla J||^2: FAIL on {len(found)} "
            f"examples with ||nabla J||^2 != 0, residuals "
            f"{min(found, default=0):.2e} to {max(found, default=0):.2e}; exact on "
            f"w3_two_step_6: {label} = {exact[key]}, the relation says {coeff * sq}"
        )
    _verdict(4, "unconditional quasi-Kahler identities", failures, refuted)


def test_criterion_5_equivalence_covanishing(big_w3_pool, two_step_6, two_step_exact):
    """THM_2_1: statuses of BIANCHI_R_PRIME and EQ_2_8 agree on >= 50 sampled
    manifolds, and when they fail both residuals exceed tolerance.

    THM_2_3 and COR_2_4 rest on the cyclic nabla-J condition behind EQ_2_14,
    which is identically satisfied on this class (README, verification
    findings), so it cannot characterize the Bianchi identity of R'.  The
    EQ_2_14 residual must stay at rounding level (<= 1e-12) on every sample,
    and THM_2_3_REV and COR_2_4 must FAIL on every sample whose R' Bianchi
    identity fails; the pool must hold such a sample.  The exact loop oracle
    witnesses it on w3_two_step_6: the cyclic sum of H is 0 while that of R'
    has largest component 33/4, and the engine's BIANCHI_R_PRIME residual must
    be the README's scaling of that value, (33/4) / (1 + 33/4), within 1e-12.
    """
    failures: list[str] = []
    assert len(big_w3_pool) >= 50
    disagreements = 0
    bianchi_fails = 0
    eq_2_14_max = 0.0
    for i, m in enumerate(big_w3_pool):
        report = run_suite(m, manifold_id=f"sample_{i}")
        pair = {k: report.check(k) for k in ("BIANCHI_R_PRIME", "EQ_2_8")}
        statuses = {c.status for c in pair.values()}
        if len(statuses) != 1:
            disagreements += 1
            if disagreements <= 3:
                failures.append(
                    f"sample_{i}: statuses "
                    + ", ".join(f"{k}={c.status}" for k, c in pair.items())
                )
        elif statuses == {"FAIL"}:
            for k, c in pair.items():
                if c.residual <= TOL:
                    failures.append(f"sample_{i}: {k} one-sided pass")
        eq_2_14 = report.check("EQ_2_14").residual
        eq_2_14_max = max(eq_2_14_max, eq_2_14)
        if eq_2_14 > 1e-12:
            failures.append(f"sample_{i}: EQ_2_14 residual {eq_2_14:.3e} > 1e-12")
        if pair["BIANCHI_R_PRIME"].status == "FAIL":
            bianchi_fails += 1
            for check_id in ("THM_2_3_REV", "COR_2_4"):
                status = report.check(check_id).status
                if status != "FAIL":
                    failures.append(f"sample_{i}: {check_id} {status}, expected FAIL")
    if disagreements > 3:
        failures.append(f"... and {disagreements - 3} more disagreeing samples")
    if bianchi_fails == 0:
        failures.append("no sample whose R' Bianchi identity fails")

    bianchi, cyclic_h = two_step_exact["bianchi_R_prime"], two_step_exact["cyclic_H"]
    if (cyclic_h, bianchi) != (0, Fraction(33, 4)):
        failures.append(
            f"w3_two_step_6: exact cyclic H = {cyclic_h}, R' Bianchi = {bianchi}; "
            "expected 0 and 33/4"
        )
    report = run_suite(two_step_6, manifold_id="w3_two_step_6")
    got = report.check("BIANCHI_R_PRIME").residual
    if abs(got - float(bianchi / (1 + bianchi))) > 1e-12:
        failures.append(f"w3_two_step_6: BIANCHI_R_PRIME residual {got!r} != 33/37")
    refuted = [
        f"EQ_2_14 cyclic nabla-J condition is vacuous: residual <= {eq_2_14_max:.1e} "
        f"on all {len(big_w3_pool)} samples, {bianchi_fails} of which fail R' "
        f"Bianchi; exact on w3_two_step_6: cyclic H = {cyclic_h}, "
        f"R' Bianchi = {bianchi}",
        f"THM_2_3_REV (EQ_2_14 => R' Bianchi): FAIL on all {bianchi_fails} "
        "samples whose R' Bianchi fails",
        f"COR_2_4 (R' Kahler <=> H Kahler): FAIL on all {bianchi_fails} samples "
        "whose R' Bianchi fails",
    ]
    _verdict(5, "equivalence theorems as co-vanishing", failures, refuted)


def test_criterion_6_conditional_scalar_calculus(kahler_examples):
    """Scalar relations on every manifold whose skew-torsion curvature
    satisfies the first Bianchi identity, and the dimension-4
    decompositions/reconstructions.

    EQ_3_1, EQ_3_2, EQ_3_5, EQ_3_10 and EQ_3_12 must PASS on every such
    example.  EQ_3_7, EQ_3_8, EQ_3_11, EQ_3_13 and THM_3_3 are false on this
    class (README, verification findings) and must FAIL on every such example
    with ||nabla J||^2 != 0.  Given the verified relations, each of the first
    four is equivalent to EQ_3_6, that is to (tau* - tau'*)/||nabla J||^2 =
    1/8 (tau*/||nabla J||^2 here, since these hits have R' = 0).  The witness
    is the spread of that ratio: it exceeds the sum of any two tolerance
    windows, so no fixed coefficient can hold on all the examples.  THM_3_3
    fails for a second reason: by EQ_3_9_A its (pi_1 - pi_2) coefficient
    (16 tau + tau(H))/128 is tau/8 + ||nabla J||^2/64, while EQ_3_5 and
    EQ_3_12 force tau'/8 = tau/8 + 3||nabla J||^2/64.  The specified fallback
    signal (failing EQ_3_5 on manifolds without the Kahler property) cannot
    occur because EQ_3_5 holds unconditionally on this class.
    """
    verified = ("EQ_3_1", "EQ_3_2", "EQ_3_5", "EQ_3_10")
    refuted_checks = ("EQ_3_7", "EQ_3_8", "EQ_3_11")
    dim4_verified = ("EQ_3_12",)
    dim4_refuted = ("EQ_3_13", "THM_3_3")
    failures: list[str] = []
    n_kahler = 0
    ratios: dict[str, float] = {}
    window = 0.0
    fail_residuals: dict[str, list[float]] = {
        k: [] for k in refuted_checks + dim4_refuted
    }
    coefficient_gaps: list[float] = []
    for name, m in kahler_examples:
        report = run_suite(m, manifold_id=name)
        if report.check("BIANCHI_R_PRIME").status != "PASS":
            continue
        n_kahler += 1
        want_pass = verified + (dim4_verified if m.dim == 4 else ())
        for check_id in want_pass:
            c = report.check(check_id)
            if c.status != "PASS":
                failures.append(f"{name}: {check_id} residual {c.residual:.3e}")
        p = report.scalar_panel
        sq = p.sq_norm_nablaJ
        if _isotropic(sq):
            continue
        for check_id in refuted_checks + (dim4_refuted if m.dim == 4 else ()):
            c = report.check(check_id)
            if c.status != "FAIL":
                failures.append(f"{name}: {check_id} {c.status}, expected FAIL")
            else:
                fail_residuals[check_id].append(c.residual)
        ratios[name] = (p.tau_star - p.tau_prime_star) / sq
        # a coefficient passing EQ_3_7 here lies within this distance of the ratio
        scale = max(1.0, abs(p.tau_star), abs(p.tau_prime_star), abs(sq))
        window = max(window, TOL * scale / abs(sq))
        if m.dim == 4:
            gap = (16.0 * p.tau + p.tau_H) / 128.0 - p.tau_prime / 8.0
            if abs(gap + sq / 32.0) > 1e-12 * max(1.0, abs(p.tau), abs(sq)):
                failures.append(
                    f"{name}: THM_3_3 coefficient gap {gap:.3e} != -||nabla J||^2/32"
                )
            coefficient_gaps.append(gap)
    if n_kahler < 2:
        failures.append("fewer than two Kahler examples available")
    if len(ratios) < 2:
        failures.append("fewer than two Kahler examples with ||nabla J||^2 != 0")
    spread = max(ratios.values(), default=0.0) - min(ratios.values(), default=0.0)
    if spread <= 2.0 * window:
        failures.append(
            f"(tau* - tau'*)/||nabla J||^2 spread {spread:.3e} within twice the "
            f"tolerance window {window:.3e}"
        )

    def span(values):
        return f"{min(values, default=0):.2e} to {max(values, default=0):.2e}"

    ratio_list = ", ".join(f"{r:.3f}" for r in ratios.values())
    refuted = [
        f"{check_id} {anchor}: FAIL on {len(fail_residuals[check_id])} examples "
        f"with ||nabla J||^2 != 0, residuals {span(fail_residuals[check_id])}"
        for check_id, anchor in (
            ("EQ_3_7", "tau'* = tau* - (1/8)||nabla J||^2"),
            ("EQ_3_8", "tau' + 3 tau'* = tau + 3 tau*"),
            ("EQ_3_11", "tau'* = tau* - (1/16) tau(H)"),
            ("EQ_3_13", "dim-4 reconstruction of R"),
            ("THM_3_3", "dim-4 reconstruction of R from tau(H)"),
        )
    ]
    refuted.append(
        f"(tau* - tau'*)/||nabla J||^2 = {ratio_list} where EQ_3_7 says 0.125: "
        f"spread {spread:.3f} > {2.0 * window:.1e}, so no fixed coefficient holds"
    )
    refuted.append(
        "THM_3_3 (pi_1 - pi_2) coefficient minus tau'/8 = -||nabla J||^2/32: "
        + ", ".join(f"{gap:.3f}" for gap in coefficient_gaps)
    )
    _verdict(6, "conditional scalar calculus", failures, refuted)


# |tau*(P)| on a refuting example must exceed its perturbation bound this many times
ISOTROPY_MARGIN = 100.0


def _tau_star_P_gradient_l1(m: LieFrameManifold) -> float:
    """l1 norm of the gradient of tau*(P) in the brackets C[k][i][j], i < j.

    tau*(P) is a quadratic form in the brackets, so the central difference
    with unit step is its exact directional derivative.
    """
    C, g, J = m.structure_constants, m.metric.tolist(), m.J.tolist()
    total = 0.0
    for k, i, j in itertools.product(range(m.dim), repeat=3):
        if i >= j:
            continue
        step = np.zeros_like(C)
        step[k, i, j], step[k, j, i] = 1.0, -1.0
        up = loop_tau_star_P((C + step).tolist(), g, J)
        down = loop_tau_star_P((C - step).tolist(), g, J)
        total += abs(up - down) / 2.0
    return total


def test_criterion_7_isotropy_biconditional(kahler_examples):
    """On every manifold whose R' satisfies the first Bianchi identity: the
    square norm of nabla J vanishes iff each of tau - tau', tau(P) and tau(H)
    vanishes.

    The associated half of THM_3_1 (tau* - tau'*, tau*(P), tau*(H)) is false
    on this class (README, verification findings).  The pool must hold a
    non-flat isotropic example (max|F| > 1e-9 and ||nabla J||^2 ~ 0) on which
    |tau*(P)| exceeds ISOTROPY_MARGIN times its perturbation bound, and
    THM_3_1 must FAIL there.  The bound is how far tau*(P) moves when every
    bracket moves by JACOBI_TOLERANCE, the Jacobi residual that validation
    lets through: the l1 gradient of tau*(P) times that tolerance (the
    second-order term carries a further factor of the tolerance).  So the
    nonzero tau*(P) is not the rounding of brackets that are isotropic in
    truth.
    """
    failures: list[str] = []
    refuted: list[str] = []
    n_isotropic = 0
    for name, m in kahler_examples:
        report = run_suite(m, manifold_id=name)
        if report.check("BIANCHI_R_PRIME").status != "PASS":
            continue
        panel = report.scalar_panel
        iso = _isotropic(panel.sq_norm_nablaJ)
        plain = {
            "tau-tau'": panel.tau - panel.tau_prime,
            "tau(P)": panel.tau_P,
            "tau(H)": panel.tau_H,
        }
        for label, value in plain.items():
            if _isotropic(value) != iso:
                failures.append(f"{name}: isotropic={iso} but {label}={value:.3e}")
        if not iso or report.class_label.f_norm <= TOL:
            continue
        n_isotropic += 1
        bound = _tau_star_P_gradient_l1(m) * JACOBI_TOLERANCE
        if abs(panel.tau_star_P) <= ISOTROPY_MARGIN * bound:
            continue
        status = report.check("THM_3_1").status
        if status != "FAIL":
            failures.append(f"{name}: THM_3_1 {status}, expected FAIL")
        refuted.append(
            f"THM_3_1 associated half on {name}: ||nabla J||^2 = "
            f"{panel.sq_norm_nablaJ:.1e}, max|F| = {report.class_label.f_norm:.2f}, "
            f"yet tau*-tau'* = {panel.tau_star - panel.tau_prime_star:.2e}, "
            f"tau*(P) = {panel.tau_star_P:.2e} (perturbation bound {bound:.1e}), "
            f"tau*(H) = {panel.tau_star_H:.2e}; THM_3_1 {status}"
        )
    if n_isotropic == 0:
        failures.append("no non-flat isotropic example with Kahlerian R'")
    elif not refuted:
        failures.append(
            f"no non-flat isotropic example with |tau*(P)| above "
            f"{ISOTROPY_MARGIN:g} times its perturbation bound"
        )
    _verdict(7, "isotropy biconditional", failures, refuted)


def test_criterion_8_synthetic_decomposition():
    """R' := 3(pi_1 - pi_2) + 5 pi_3 in dimension 4 yields nu'=3, nu'*=5 and
    decomposition residual <= 1e-12."""
    failures: list[str] = []
    m = load_manifest(bundled_manifest_path("flat_kahler_4"))
    pi1, pi2, pi3 = pi_forms(m.metric, m.J)
    synth = 3.0 * (pi1 - pi2) + 5.0 * pi3
    kahler_defect = max(
        antisym_residual(synth), bianchi_residual(synth), kahler_residual(synth, m.J)
    )
    if kahler_defect > TOL:
        failures.append("synthetic tensor is not Kahler")
    tau, tau_star = ricci_and_scalars(synth, m.metric_inv, m.J)
    if abs(tau / 8.0 - 3.0) > 1e-12:
        failures.append(f"nu' = {tau / 8.0!r} != 3")
    if abs(tau_star / 8.0 - 5.0) > 1e-12:
        failures.append(f"nu'* = {tau_star / 8.0!r} != 5")
    res = residual(synth, kahler_form((pi1, pi2, pi3), tau / 8.0, tau_star / 8.0))
    if res > 1e-12:
        failures.append(f"decomposition residual {res:.3e} > 1e-12")
    _verdict(8, "synthetic decomposition self-test", failures)


def test_criterion_9_determinism_and_round_trip(tmp_path, capsys):
    """Repeated verify runs byte-identical (modulo the timing line); emitted
    manifests reload to identical reports."""
    failures: list[str] = []
    path = str(bundled_manifest_path("w3_generic_4"))

    def run_verify(fmt):
        code = main(["verify", path, "--format", fmt])
        out = capsys.readouterr().out
        return code, out

    _, text1 = run_verify("text")
    _, text2 = run_verify("text")
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("time:")]
    if strip(text1) != strip(text2):
        failures.append("text output differs between runs")
    _, json1 = run_verify("json")
    _, json2 = run_verify("json")
    if json1 != json2:
        failures.append("json output differs between runs")

    cfg = SearchConfig(dim=4, seed=9, max_candidates=200, max_results=1)
    hits, _ = search_w3_examples(cfg)
    if not hits:
        failures.append("no search hit for round trip")
    else:
        from norden import save_manifest

        manifest = hits[0]
        report1 = run_suite(manifest)
        saved = save_manifest(manifest, tmp_path / "roundtrip.manifest")
        reloaded = load_manifest(saved)
        report2 = run_suite(reloaded)
        if emit_report(report1, "json") != emit_report(report2, "json"):
            failures.append("reloaded manifest yields a different report")
    _verdict(9, "determinism and round trip", failures)
