"""`norden verify --format json` on the bundled manifests, on the frozen
search hits of perfbench/pool/ (read in place) and on the manifests stored
in tests/golden itself, against reports pinned in tests/golden: the bundled
ones before the array kernels were shared with the search, the pool ones
before the tensor wrapper types were retired, and the class-OTHER one
(`other_d6_seed0_0`, the verify_pool workload's seed-0 draw) before the
symmetry residuals of R, R', P and H were taken as one panel.

Ids, class, anchors, tolerances and statuses must match exactly; residuals
and scalars to 1e-15 (1 + |x|), since brackets that are not integers leave the
last bits free to differ between machines.
"""

import json
from pathlib import Path

import pytest

from norden import bundled_manifest_path
from norden.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
POOL = Path(__file__).resolve().parents[1] / "perfbench" / "pool"
BUNDLED = ("flat_kahler_4", "w3_generic_4", "w3_kahler_rprime_4", "w3_two_step_6")
PINNED = sorted(path.stem for path in GOLDEN.glob("*.json"))
REL = 1e-15


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return abs(got - want) <= REL * (1.0 + abs(want))


@pytest.mark.parametrize("name", PINNED)
def test_report_matches_golden(name, capsys):
    path = GOLDEN / f"{name}.manifest"
    if not path.exists():
        path = bundled_manifest_path(name) if name in BUNDLED else POOL / f"{name}.manifest"
    code = main(["verify", str(path), "--format", "json"])
    got = json.loads(capsys.readouterr().out)
    want = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert code == (1 if any(c["status"] == "FAIL" for c in want["checks"]) else 0)
    for key in ("manifold_id", "suite_version", "class"):
        assert got[key] == want[key], key
    if want["scalars"] is None:
        assert got["scalars"] is None
    else:
        assert list(got["scalars"]) == list(want["scalars"])
        for key, value in want["scalars"].items():
            assert _close(got["scalars"][key], value), (key, got["scalars"][key], value)
    assert [c["id"] for c in got["checks"]] == [c["id"] for c in want["checks"]]
    for g, w in zip(got["checks"], want["checks"]):
        assert list(g) == list(w), w["id"]
        for key in ("anchor", "tolerance", "status"):
            assert g[key] == w[key], (w["id"], key)
        assert _close(g["residual"], w["residual"]), (w["id"], g["residual"], w["residual"])
