"""Search outcomes of every search configuration the repository runs.

    python3 scripts/search_table.py [--json OUT] [--baseline BASE]

The configurations are read, without editing anything, from

* tests/: the suite is run in-process with `search_w3_examples` wrapped to
  record each `SearchConfig` it is called with (also under the tests'
  monkeypatches; the table runs every configuration plainly).  Searches the
  tests run in a subprocess, through the `norden` command, are not seen;
* perfbench/pool/pool.json: the `config` of each pool entry;
* perfbench/workloads.py: the operations of the search workloads, and the
  warm-up searches their set-up runs.

Each distinct configuration is then run once, at one BLAS thread, and printed
as one markdown row: hits, candidates, `gn_iterations`, `gn_rounds`,
`svd_steps`, `rejected_class` and a sha256 prefix of the concatenated hit
manifests' JSON.  `--json` writes the rows with every `SearchStats` counter;
`--baseline` reads such a file (of another tree, say) and prints each cell
as `baseline → this` where the two differ, and in a last column the other
counters that differ.  Run it in each tree to compare two trees.  With
`--baseline`, the exit code is 1 when a counter or a hits digest differs or
a configuration has no baseline row, and 0 when everything reads the same.

A closing line gives the bytes each of the search's caches holds at the end
(the test suite's calls included), summed over the arrays of its cached
values, each counted once with the array that owns its memory, and their
total, where an array that two caches share counts once.  The count is
deterministic, so two trees compare cache memory in the same run as their
hits; it is for information and does not enter the exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "perfbench"))

import benchenv  # noqa: E402

benchenv.prepare()  # one BLAS thread, this tree's src/ first on sys.path

import pytest  # noqa: E402

import norden  # noqa: E402
from norden import SearchConfig, SearchTarget, manifests, search  # noqa: E402

SHOWN = ("hits", "candidates", "gn_iterations", "gn_rounds", "svd_steps", "rejected_class")


class Recorder:
    """Wraps `search_w3_examples` wherever a norden module holds it, and
    records the configurations it is called with under the current source."""

    def __init__(self) -> None:
        self.sources: dict[SearchConfig, list[str]] = {}
        self.source = ""
        self.original = search.search_w3_examples

    def _record(self, cfg: SearchConfig):
        self.add(cfg, self.source)
        return self.original(cfg)

    def add(self, cfg: SearchConfig, source: str) -> None:
        where = self.sources.setdefault(cfg, [])
        if source not in where:
            where.append(source)

    @contextlib.contextmanager
    def recording(self, source: str):
        self.source = source
        holders = [m for n, m in sys.modules.items()
                   if (n == "norden" or n.startswith("norden."))
                   and getattr(m, "search_w3_examples", None) is self.original]
        for mod in holders:
            mod.search_w3_examples = self._record
        try:
            yield
        finally:
            for mod in holders:
                mod.search_w3_examples = self.original


class CacheValues:
    """Wraps the search's cached builders, every attribute of `norden.search`
    with a `cache_info`, where search.py looks them up, and keeps each value
    they return by its arguments: what each cache holds."""

    def __init__(self) -> None:
        self.values: dict[str, dict] = {}
        builders = [(n, v) for n, v in vars(search).items() if hasattr(v, "cache_info")]
        for name, cached in builders:
            self.values[name] = {}
            setattr(search, name, self._wrap(cached, self.values[name]))

    @staticmethod
    def _wrap(cached, values: dict):
        def wrapper(*args):
            values[args] = value = cached(*args)
            return value

        wrapper.__wrapped__ = cached.__wrapped__  # the uncached builder, as tests call it
        wrapper.cache_info, wrapper.cache_clear = cached.cache_info, cached.cache_clear
        return wrapper

    def nbytes(self) -> dict[str, int]:
        """Bytes per cache, and in all of them, where an array that two caches
        hold (the form's N is `_integer_basis`'s) counts once."""
        held = {name: list(values.values()) for name, values in self.values.items()}
        return {**{name: held_bytes(v) for name, v in held.items()},
                "total": held_bytes(list(held.values()))}


def held_bytes(value) -> int:
    """Bytes of the arrays in `value` (through tuples, lists and dataclasses),
    each counted once, by the array or `bytes` object (the key of a pair
    record, under its g and J) that owns its memory."""
    owners, stack = {}, [value]
    while stack:
        v = stack.pop()
        if isinstance(v, (tuple, list)):
            stack.extend(v)
        elif dataclasses.is_dataclass(v):
            stack.extend(getattr(v, f.name) for f in dataclasses.fields(v))
        elif hasattr(v, "nbytes"):
            while getattr(v, "base", None) is not None:
                v = v.base
            owners[id(v)] = v.nbytes if hasattr(v, "nbytes") else len(v)
    return sum(owners.values())


def collect() -> dict[SearchConfig, list[str]]:
    rec = Recorder()
    import norden.cli  # noqa: F401  (holds its own binding of the search)

    # the tests that run the `norden` command import this tree's package too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(benchenv.SRC_DIR), os.environ.get("PYTHONPATH")]))
    with rec.recording("tier-1"), contextlib.redirect_stdout(sys.stderr):
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(REPO / "tests")])
    if code != 0:
        print(f"# the test suite exited with code {code}", file=sys.stderr)

    pool = json.loads((REPO / "perfbench" / "pool" / "pool.json").read_text(encoding="utf-8"))
    for entry in pool["manifests"]:
        if "config" in entry:
            c = entry["config"]
            cfg = SearchConfig(dim=c["dim"], seed=c["seed"], target=SearchTarget(c["target"]),
                               max_results=c["max_results"], max_candidates=c["max_candidates"])
            rec.add(cfg, "pool.json")

    import workloads

    for name in ("search_w3_mix", "search_kahler_gn"):
        with rec.recording("warm-up"):
            pool_ops = workloads.WORKLOADS[name](0).ops
        for cfg in pool_ops:
            rec.add(cfg, name)
    return rec.sources


def run(cfg: SearchConfig, sources: list[str]) -> dict:
    hits, stats = search.search_w3_examples(cfg)
    text = "".join(manifests.manifest_to_json(h) for h in hits)
    counters = dataclasses.asdict(stats)
    del counters["elapsed"]
    return {
        "source": ", ".join(sources),
        "dim": cfg.dim,
        "seed": cfg.seed,
        "target": cfg.target.value,
        "budget": f"{cfg.max_results} / {cfg.max_candidates}",
        "tolerance": cfg.tolerance,
        "stats": counters,
        "sha256": hashlib.sha256(text.encode()).hexdigest()[:8],
    }


def key(row: dict) -> tuple:
    return row["dim"], row["seed"], row["target"], row["budget"], row["tolerance"]


def cell(old, new) -> str:
    fmt = (lambda v: f"{v:,}") if isinstance(new, int) else str
    if old is None or old == new:
        return fmt(new)
    return f"{fmt(old)} → {fmt(new)}"


def table(rows: list[dict], baseline: dict[tuple, dict] | None) -> str:
    head = ["source", "dim", "seed", "target", "hits / candidates budget",
            *(f"`{f}`" if "_" in f else f for f in SHOWN), "hits sha256"]
    if baseline is not None:
        head.append("other counters")
    lines = ["| " + " | ".join(head) + " |", "|" + "---|" * len(head)]
    totals = {f: [0, 0] for f in SHOWN}
    for row in rows:
        base = baseline.get(key(row)) if baseline is not None else None
        cells = [row["source"], str(row["dim"]), str(row["seed"]), row["target"], row["budget"]]
        for f in SHOWN:
            old = base["stats"][f] if base else None
            cells.append(cell(old, row["stats"][f]))
            totals[f][0] += row["stats"][f] if old is None else old
            totals[f][1] += row["stats"][f]
        if base is None:
            cells.append(row["sha256"] + ("" if baseline is None else " (new)"))
        else:
            same = base["sha256"] == row["sha256"]
            cells.append(f"{base['sha256']} → {'same' if same else row['sha256']}")
            differ = [f for f in row["stats"]
                      if f not in SHOWN and base["stats"].get(f) != row["stats"][f]]
            cells.append(", ".join(differ) or "same")
        lines.append("| " + " | ".join(cells) + " |")
    total = ["**total**", "", "", "", ""] + [cell(*totals[f]) for f in SHOWN] + [""]
    if baseline is not None:
        total.append("")
    lines.append("| " + " | ".join(total) + " |")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--json", type=Path, help="write the rows here")
    p.add_argument("--baseline", type=Path, help="rows of another run, from --json")
    args = p.parse_args(argv)
    caches = CacheValues()
    rows = [run(cfg, sources) for cfg, sources in collect().items()]
    baseline = None
    if args.baseline is not None:
        old = json.loads(args.baseline.read_text(encoding="utf-8"))
        baseline = {key(r): r for r in old}
    print(f"# {len(rows)} configurations, norden from {Path(norden.__file__).parent}")
    print(table(rows, baseline))
    print("# search cache bytes: " + ", ".join(
        f"{name} {n:,}" for name, n in caches.nbytes().items()))
    if args.json is not None:
        args.json.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
    if baseline is None:
        return 0
    same = all(
        (base := baseline.get(key(row))) is not None
        and (base["stats"], base["sha256"]) == (row["stats"], row["sha256"])
        for row in rows
    )
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
