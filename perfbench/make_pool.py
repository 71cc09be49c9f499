"""Regenerate the frozen search hits of the `verify_pool` workload.

    python3 perfbench/make_pool.py

Runs each recorded search config once and writes its hits to
`perfbench/pool/` together with `pool.json`, which lists every pool entry with
the class label the benchmark expects for it.  The hits are stored rather than
searched at benchmark time so that a search change that returns different
manifests for the same seed does not change what `verify_pool` measures.
"""

from __future__ import annotations

import json

import benchenv

benchenv.prepare()

from norden import SearchConfig, SearchTarget, manifests, search  # noqa: E402

POOL_DIR = benchenv.BENCH_DIR / "pool"

# (dim, target, seed, hits); max_candidates = 40 * hits as in the test fixtures
RECORDED_CONFIGS = (
    (4, SearchTarget.W3, 0, 2),
    (6, SearchTarget.W3, 0, 2),
    (8, SearchTarget.W3, 0, 2),
    (4, SearchTarget.W3_RPRIME_KAHLER, 0, 2),
    (6, SearchTarget.W3_RPRIME_KAHLER, 0, 2),
    (8, SearchTarget.W3_RPRIME_KAHLER, 0, 1),
)

BUNDLED = (
    ("flat_kahler_4", "KAHLER_W0"),
    ("w3_two_step_6", "QUASI_KAHLER_W3"),
    ("w3_generic_4", "QUASI_KAHLER_W3"),
    ("w3_kahler_rprime_4", "QUASI_KAHLER_W3"),
)


def main() -> None:
    POOL_DIR.mkdir(exist_ok=True)
    entries = [{"bundled": name, "class": label} for name, label in BUNDLED]
    for dim, target, seed, n in RECORDED_CONFIGS:
        cfg = SearchConfig(
            dim=dim, seed=seed, target=target, max_results=n, max_candidates=40 * n
        )
        hits, stats = search.search_w3_examples(cfg)
        if len(hits) != n:
            raise SystemExit(f"{cfg} found {len(hits)} of {n} hits")
        for hit in hits:
            (POOL_DIR / f"{hit.id}.manifest").write_text(
                manifests.manifest_to_json(hit), encoding="utf-8"
            )
            entries.append(
                {
                    "file": f"{hit.id}.manifest",
                    "class": "QUASI_KAHLER_W3",
                    "config": {
                        "dim": dim,
                        "target": target.value,
                        "seed": seed,
                        "max_results": n,
                        "max_candidates": 40 * n,
                    },
                }
            )
        print(f"dim {dim} {target.value} seed {seed}: {len(hits)} hits, "
              f"{stats.candidates} candidates, {stats.elapsed:.1f} s", flush=True)
    (POOL_DIR / "pool.json").write_text(
        json.dumps({"manifests": entries}, indent=2) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    main()
