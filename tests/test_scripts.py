"""The tree-comparison scripts are gates: with `--baseline`, a report that
differs from its baseline row makes `scripts/report_table.py` exit 1."""

import json
import subprocess
import sys
from pathlib import Path

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
