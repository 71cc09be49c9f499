"""The tree-comparison scripts are gates: with `--baseline`, a report that
differs from its baseline row makes `scripts/report_table.py` exit 1.
`scripts/search_table.py` looks the search's caches up by name."""

import ast
import json
import subprocess
import sys
from pathlib import Path

from norden import search

ROOT = Path(__file__).resolve().parents[1]


def _report_table(*args: str) -> subprocess.CompletedProcess:
    script = ROOT / "scripts" / "report_table.py"
    return subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, text=True, cwd=ROOT
    )


def test_report_table_exits_1_on_an_altered_digest(tmp_path):
    base = tmp_path / "base.json"
    assert _report_table("--json", str(base)).returncode == 0
    same = _report_table("--baseline", str(base))
    assert same.returncode == 0, same.stdout + same.stderr

    doc = json.loads(base.read_text(encoding="utf-8"))
    row = doc["rows"][1]
    digest, row["text"] = row["text"], "0" * 12
    altered = tmp_path / "altered.json"
    altered.write_text(json.dumps(doc), encoding="utf-8")
    run = _report_table("--baseline", str(altered))
    assert run.returncode == 1
    assert f"| {'0' * 12} → {digest} |" in run.stdout
    # every other cell of the table, and the digest of all reports
    assert run.stdout.count("→ same") == 3 * len(doc["rows"]) - 1 + 1


def test_search_table_names_every_search_cache():
    # the script wraps each builder of its CACHES by name when it starts:
    # they must be the search's lru_cache builders, all of them
    script = ROOT / "scripts" / "search_table.py"
    tree = ast.parse(script.read_text(encoding="utf-8"))
    caches = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["CACHES"]
    )
    builders = {name for name, value in vars(search).items() if hasattr(value, "cache_info")}
    assert sorted(caches) == sorted(builders)
    for name in caches:
        builder = getattr(search, name)
        assert builder.__wrapped__.__module__ == "norden.search"
        assert builder.__wrapped__.__name__ == name
