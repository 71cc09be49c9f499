"""The JSON report writer against the generic writer, byte for byte.

`cli.emit_report(..., "json")` writes the report directly, one format string
per check.  The oracle here is the generic route it replaced: the report as a
dict, serialised by `manifests.emit_json`.
"""

import dataclasses
import itertools
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
from norden.cli import emit_report
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
                "tolerance": c.tolerance,
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
    report = run_suite(manifest.to_manifold(), manifold_id=manifest.id)
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
    checks[3] = dataclasses.replace(checks[3], residual=bad)
    with pytest.raises(ValueError):
        emit_report(dataclasses.replace(report, checks=tuple(checks)), "json")
    panel = dataclasses.replace(report.scalar_panel, tau_H=bad)
    with pytest.raises(ValueError):
        emit_report(dataclasses.replace(report, scalar_panel=panel), "json")


def test_empty_checks_and_missing_residual(two_step_6):
    report = run_suite(two_step_6, manifold_id="w3_two_step_6")
    empty = dataclasses.replace(report, checks=())
    assert emit_report(empty, "json") == oracle(empty)
    first = dataclasses.replace(report.checks[0], residual=None)
    one = dataclasses.replace(report, checks=(first,))
    assert emit_report(one, "json") == oracle(one)
    assert b'"residual": null' in emit_report(one, "json")
