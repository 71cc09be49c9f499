"""The tree-comparison scripts are gates: with `--baseline`, a report that
differs from its baseline row makes `scripts/report_table.py` exit 1.
`scripts/search_table.py` wraps every cache of the search."""

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


# imports scripts/search_table.py without running main: the import pins the
# BLAS threads before numpy loads, so it needs an interpreter of its own
_CACHE_PROBE = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("search_table", sys.argv[1])
table = importlib.util.module_from_spec(spec)
spec.loader.exec_module(table)
search = table.search
builders = {n: v for n, v in vars(search).items() if hasattr(v, "cache_info")}
caches = table.CacheValues()
assert builders and sorted(caches.values) == sorted(builders), (caches.values, builders)
for name, cached in builders.items():
    wrapper = getattr(search, name)
    assert wrapper is not cached, name
    assert wrapper.__wrapped__ is cached.__wrapped__, name
    assert wrapper.cache_info == cached.cache_info, name
    assert wrapper.cache_clear == cached.cache_clear, name
pair = search._canonical_pair(4)
assert caches.values["_canonical_pair"][(4,)] is pair
print(" ".join(sorted(builders)))
"""


def test_search_table_wraps_every_search_cache():
    script = ROOT / "scripts" / "search_table.py"
    run = subprocess.run(
        [sys.executable, "-c", _CACHE_PROBE, str(script)],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    builders = sorted(n for n, v in vars(search).items() if hasattr(v, "cache_info"))
    assert run.stdout.split() == builders
