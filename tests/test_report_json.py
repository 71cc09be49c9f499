"""The JSON report writer against the generic writer, byte for byte, and the
text report against the JSON one.

`cli.emit_report(..., "json")` writes the report directly: each check from the
encoded head of its id and anchor, its residual, the report's tolerance and
the tail of its status.  The oracle here is the generic route it replaced: the
report as a dict, serialised by `manifests.emit_json`.
"""

import dataclasses
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from norden import (
    LieFrameManifold,
    bundled_manifest_path,
    canonical_norden_pair,
    load_manifest,
    run_suite,
)
from norden.cli import TEXT, emit_report
from norden.manifests import emit_json

POOL = Path(__file__).resolve().parents[1] / "perfbench" / "pool"
BUNDLED = ("flat_kahler_4", "w3_generic_4", "w3_kahler_rprime_4", "w3_two_step_6")
POOLED = sorted(path.stem for path in POOL.glob("*.manifest"))


def oracle(report) -> bytes:
    panel = report.scalar_panel
    doc = {
        "manifold_id": report.manifold_id,
        "suite_version": report.suite_version,
        "class": report.class_label.label.value,
        "scalars": None if panel is None else {
            name: getattr(panel, name) for name in panel.FIELDS
        },
        "checks": [
            {
                "id": c.check_id,
                "anchor": c.anchor,
                "residual": c.residual,
                "tolerance": report.tolerance,
                "status": c.status,
            }
            for c in report.checks
        ],
    }
    return (emit_json(doc) + "\n").encode("utf-8")


def two_step_other(dim: int, seed: int) -> LieFrameManifold:
    """Random brackets [V, V] -> Z on the canonical pair: Jacobi holds
    exactly, and coefficients off the quasi-Kahler null space make the class
    OTHER."""
    rng = np.random.default_rng([seed, dim])
    centre = set(rng.choice(dim, size=int(rng.integers(1, dim - 1)), replace=False).tolist())
    rest = [i for i in range(dim) if i not in centre]
    C = np.zeros((dim, dim, dim))
    for (i, j), k in itertools.product(itertools.combinations(rest, 2), sorted(centre)):
        C[k, i, j] = rng.normal()
        C[k, j, i] = -C[k, i, j]
    g, J = canonical_norden_pair(dim)
    return LieFrameManifold(dim=dim, structure_constants=C, metric=g, J=J)


@pytest.mark.parametrize("name", BUNDLED + tuple(POOLED))
def test_manifests_match_oracle(name):
    path = bundled_manifest_path(name) if name in BUNDLED else POOL / f"{name}.manifest"
    manifest = load_manifest(path)
    report = run_suite(manifest)
    assert emit_report(report, "json") == oracle(report)


def test_pool_is_the_one_pinned():
    assert len(POOLED) == 11


@pytest.mark.parametrize("dim", (4, 6, 8))
def test_class_other_matches_oracle(dim):
    for seed in range(3):
        report = run_suite(two_step_other(dim, seed), manifold_id=f"other_{dim}_{seed}")
        assert report.class_label.label.value == "OTHER"
        assert report.scalar_panel is None
        assert emit_report(report, "json") == oracle(report)


def test_awkward_id_and_tolerance(two_step_6):
    report = run_suite(two_step_6, 1e-6, manifold_id='a "q" \\ b\nc Kähler ∇′ 𝔤 \x01')
    out = emit_report(report, "json")
    assert out == oracle(report)
    assert '"manifold_id": "a \\"q\\" \\\\ b\\nc Kähler ∇′ 𝔤 \\u0001"' in out.decode()


@pytest.mark.parametrize("bad", (float("nan"), float("inf"), float("-inf")))
def test_non_finite_numbers_raise(two_step_6, bad):
    report = run_suite(two_step_6, manifold_id="w3_two_step_6")
    checks = list(report.checks)
    checks[3] = checks[3]._replace(residual=bad)
    with pytest.raises(ValueError):
        emit_report(dataclasses.replace(report, checks=tuple(checks)), "json")
    panel = dataclasses.replace(report.scalar_panel, tau_H=bad)
    with pytest.raises(ValueError):
        emit_report(dataclasses.replace(report, scalar_panel=panel), "json")


def test_empty_checks_and_missing_residual(two_step_6):
    report = run_suite(two_step_6, manifold_id="w3_two_step_6")
    empty = dataclasses.replace(report, checks=())
    assert emit_report(empty, "json") == oracle(empty)
    first = report.checks[0]._replace(residual=None)
    one = dataclasses.replace(report, checks=(first,))
    assert emit_report(one, "json") == oracle(one)
    assert b'"residual": null' in emit_report(one, "json")


def test_report_tolerance_on_every_check(two_step_6):
    """Every check prints the report's tolerance, also where equal numbers
    print differently (0.0 and -0.0)."""
    report = run_suite(two_step_6, manifold_id="w3_two_step_6")
    for tolerance in (1e-6, 0.0, -0.0):
        other = dataclasses.replace(report, tolerance=tolerance)
        assert emit_report(other, "json") == oracle(other)
    out = emit_report(other, "json")
    assert out.count(b'"tolerance": -0,') == len(report.checks) > 0


def test_check_outside_the_catalog_is_escaped(two_step_6):
    """An id and anchor that no catalog check has, with a quote, a backslash,
    non-ASCII text and a control character; and a catalog id with another
    anchor."""
    report = run_suite(two_step_6, manifold_id="w3_two_step_6")
    first, second = report.checks[:2]
    odd = first._replace(
        check_id='EQ "9"\\x ∇′', anchor="R′(x,y) = 0\t\x1f Kähler 𝔤", status="SKIP"
    )
    renamed = second._replace(anchor=first.anchor)
    hand = dataclasses.replace(report, checks=(odd, renamed, *report.checks[2:]))
    out = emit_report(hand, "json")
    assert out == oracle(hand)
    text = out.decode()
    assert '"id": "EQ \\"9\\"\\\\x ∇′",' in text
    assert '"anchor": "R′(x,y) = 0\\t\\u001f Kähler 𝔤",' in text
    assert '"status": "SKIP"' in text
    assert emit_report(report, "json") == oracle(report)


# a check line of the text report: status, id, residual, tolerance, then the
# anchor and, on an NA check, its reason in brackets
CHECK_LINE = re.compile(r"  (\S+) +(\S+) +(\S+)  <=  (\S+)  (.*)")


@pytest.mark.parametrize(
    "name", BUNDLED + tuple(POOLED) + ("other_4", "other_6", "other_8")
)
def test_text_report_agrees_with_json(name):
    """The text and JSON reports of one result name the same checks in the
    same order, with the same statuses, anchors and one tolerance, and each
    residual as .2e; a reason is printed exactly on the NA checks."""
    if name.startswith("other_"):
        m = two_step_other(int(name[-1]), 0)
    elif name in BUNDLED:
        m = load_manifest(bundled_manifest_path(name))
    else:
        m = load_manifest(POOL / f"{name}.manifest")
    report = run_suite(m, manifold_id=name)
    doc = json.loads(emit_report(report, "json"))
    text = emit_report(report, TEXT).decode("utf-8").splitlines()
    lines = text[text.index("checks:") + 1 : -1]
    assert text[-1].startswith("summary: ")
    assert len(lines) == len(doc["checks"]) == len(report.checks) > 0
    assert {c["tolerance"] for c in doc["checks"]} == {report.tolerance}
    for line, c, check in zip(lines, doc["checks"], report.checks):
        status, check_id, res, tolerance, rest = CHECK_LINE.fullmatch(line).groups()
        assert (status, check_id) == (c["status"], c["id"])
        assert res == ("n/a" if c["residual"] is None else f"{c['residual']:.2e}")
        assert tolerance == f"{report.tolerance:.1e}"
        if c["status"] == "NA":
            assert check.reason and rest == f"{c['anchor']}  [{check.reason}]"
        else:
            assert rest == c["anchor"]
