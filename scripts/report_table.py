"""Reports of `norden verify` on every bundled and pool manifest.

    python3 scripts/report_table.py [--json OUT] [--baseline BASE]

The manifests are those of perfbench/pool/pool.json (the bundled ones it
names and its frozen search hits), then any bundled manifest it does not
name, then two class-OTHER manifests in each of dims 4, 6 and 8: the seed-0
ones of the verify_pool workload (`workloads.other_brackets`), written to a
temporary directory.  Each is verified in process, through
`norden.cli.main`, at one BLAS thread and the default tolerance, once with
`--format json` and once with `--format text`; the `time:` line of the text
report is dropped, as it is the one line that differs between runs.  Each
manifest is printed as one markdown row: the exit code, sha256 prefixes of
both reports, and one of the JSON report's class and its (check id, status)
list, which reads `same` for a change that moves residual bits only.  The
last line gives a sha256 prefix of all the reports concatenated, in table
order.
`--json` writes the rows; `--baseline` reads such a file (of another tree,
say) and prints each cell as `baseline → same`, or `baseline → this` where
the two differ.  Run it in each tree to compare two trees.  With
`--baseline`, the exit code is 1 when a cell or the digest differs or a
manifest has no baseline row, and 0 when everything reads `same`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
POOL = REPO / "perfbench" / "pool"
sys.path.insert(0, str(REPO / "perfbench"))

import benchenv  # noqa: E402

benchenv.prepare()  # one BLAS thread, this tree's src/ first on sys.path

import numpy as np  # noqa: E402
import workloads  # noqa: E402

import norden  # noqa: E402
from norden import bundled_manifest_path, cli, save_manifest  # noqa: E402

FORMATS = ("json", "text")
COLUMNS = ("exit", *FORMATS, "statuses")


def manifest_paths(tmp: Path) -> list[Path]:
    pool = json.loads((POOL / "pool.json").read_text(encoding="utf-8"))
    paths = [bundled_manifest_path(e["bundled"]) if "bundled" in e else POOL / e["file"]
             for e in pool["manifests"]]
    data = bundled_manifest_path("flat_kahler_4").parent
    paths += sorted(set(data.glob("*.manifest")) - set(paths))
    rng = np.random.default_rng([0, 0])  # verify_pool's class-OTHER draws at seed 0
    for dim in (4, 6, 8):
        for k in range(2):
            other = workloads.other_brackets(rng, dim, f"other_d{dim}_seed0_{k}")
            paths.append(save_manifest(other, tmp / f"{other.id}.manifest"))
    return paths


def verify(path: Path, fmt: str) -> tuple[int, bytes]:
    """Exit code and stdout of `norden verify PATH --format FMT`, without the
    `time:` line."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", str(path), "--format", fmt])
    out.flush()
    lines = out.buffer.getvalue().splitlines(keepends=True)
    return code, b"".join(line for line in lines if not line.startswith(b"time: "))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def statuses(report: bytes) -> str:
    """Digest of the class and the (check id, status) list of a JSON report
    (of none, when the run wrote no report)."""
    docs = [json.loads(report)] if report else []
    key = [[d["class"], [[c["id"], c["status"]] for c in d["checks"]]] for d in docs]
    return digest(json.dumps(key).encode("utf-8"))


def run(path: Path) -> tuple[dict, bytes]:
    row: dict = {"manifest": path.stem}
    reports = b""
    for fmt in FORMATS:
        code, report = verify(path, fmt)
        row["exit"] = code  # the same for both formats
        row[fmt] = digest(report)
        if fmt == "json":
            row["statuses"] = statuses(report)
        reports += report
    return row, reports


def cell(old, new) -> str:
    if old is None:
        return str(new)
    return f"{old} → {'same' if old == new else new}"


def table(rows: list[dict], baseline: dict[str, dict]) -> str:
    lines = ["| manifest | exit | JSON report sha256 | text report sha256 "
             "| class and statuses sha256 |",
             "|---|---|---|---|---|"]
    for row in rows:
        base = baseline.get(row["manifest"], {})
        cells = [f"`{row['manifest']}`"]
        cells += [cell(base.get(k), row[k]) for k in COLUMNS]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--json", type=Path, help="write the rows and the digest here")
    p.add_argument("--baseline", type=Path, help="the output of another run's --json")
    args = p.parse_args(argv)
    os.environ.pop("NORDEN_TOLERANCE", None)  # the default tolerance
    rows, digest = [], hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for path in manifest_paths(Path(tmp)):
            row, reports = run(path)
            rows.append(row)
            digest.update(reports)
    doc = {"rows": rows, "digest": digest.hexdigest()[:16]}
    base = {"rows": [], "digest": None}
    if args.baseline is not None:
        base = json.loads(args.baseline.read_text(encoding="utf-8"))
    print(f"# {len(rows)} manifests, {len(FORMATS) * len(rows)} reports, "
          f"norden from {Path(norden.__file__).parent}")
    print(table(rows, {r["manifest"]: r for r in base["rows"]}))
    print(f"\nsha256 of all reports: {cell(base['digest'], doc['digest'])}")
    if args.json is not None:
        args.json.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    if args.baseline is None:
        return 0
    base_rows = {r["manifest"]: r for r in base["rows"]}
    same = all(base_rows.get(r["manifest"]) == r for r in rows)
    return 0 if same and base["digest"] == doc["digest"] else 1


if __name__ == "__main__":
    sys.exit(main())
