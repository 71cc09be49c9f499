"""The benchmark's workloads, their output checks and their metrics.

Each workload is a closed loop: a frozen list of operations is run in whole
passes, each pass in an order drawn from the workload seed, until the time
budget is spent.  Whole passes keep the measured work identical from run to
run, which is what makes the per-seed-expensive searches steady: a single
dim-6 Kahler-R' search takes from 0.2 s to 9 s depending on its seed.

* verify_pool       parse -> to_manifold -> run_suite -> emit_report(json) over
                    the bundled manifests, the frozen search hits in
                    `pool/` and class-OTHER brackets drawn from the seed.
* search_kahler_gn  dim-6 Kahler-R' searches, one hit each (Gauss-Newton on
                    Jacobi plus the R' Bianchi identity).
* search_w3_mix     the target-w3 searches of the test pools, in dims 4 and
                    6, and their dim-6 ones again in dim 8 (Jacobi-only
                    Gauss-Newton in dim 4, two-step sampling in dims 6 and 8).
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import json
import math
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace

import numpy as np

import benchenv
from norden import SearchConfig, SearchTarget, cli, manifests, manifolds, search, suite

POOL_DIR = benchenv.BENCH_DIR / "pool"
OTHER_PER_DIM = 2
KAHLER_SEEDS = range(2)
# max_candidates = 40 * max_results, as in every search of tests/conftest.py;
# at these seeds the first hit comes within 2 candidates either way
KAHLER_MAX_CANDIDATES = 40
# (dim, seed, hits) of the target-w3 searches that build the test pools:
# w3_pool and big_w3_pool in tests/conftest.py, discovered_examples in
# tests/test_acceptance.py; max_candidates = 40 * hits as there.  No test pool
# is dim 8, so the dim-6 searches are repeated in dim 8 to run the dim-8
# two-step path and its family build.
FIXTURE_W3_SEARCHES = ((4, 101, 8), (6, 102, 6), (4, 201, 16), (6, 202, 10),
                       (4, 42, 8), (6, 42, 6))
MIX_SEARCHES = FIXTURE_W3_SEARCHES + tuple(
    (8, seed, n) for dim, seed, n in FIXTURE_W3_SEARCHES if dim == 6)
# a two-step search (dims 6 and 8) takes a few ms against hundreds for a dim-4
# Gauss-Newton one, so each pass runs it this many times, at random places in
# the pass, for its median to rest on enough samples
TWO_STEP_REPEATS = 8
# its single dim-6 Kahler-R' candidate converges in a few iterations, so set-up
# time is imports and cache fills rather than one long Gauss-Newton attempt
WARMUP_SEED = 1006
# exact scalars of the bundled integer-bracket example (README)
TWO_STEP_6_SCALARS = {
    "sq_norm_nablaJ": 60.0,
    "tau": 5.0,
    "tau_prime": 27.5,
    "tau_P": 67.5,
    "tau_H": 120.0,
}
W3 = "QUASI_KAHLER_W3"


@dataclass
class OpResult:
    index: int  # position of the operation in the workload's list
    dim: int
    seconds: float | None  # None when the operation raised
    ok: bool
    results: int = 0  # verified reports or validated hits
    stats: search.SearchStats | None = None
    scale: float = 1.0  # to seconds at the reference speed (SpeedSampler)


class CheckFailed(Exception):
    """An output check rejected the result of an operation."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def warm_up(run_op, op):
    """run_op(op), or None, with the traceback on stderr, if it raises: the
    timed runs of the operation then count as failed."""
    try:
        return run_op(op)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


# ---------------------------------------------------------------------------
# verify_pool
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyItem:
    manifold_id: str
    dim: int
    text: str
    label: str


def other_brackets(rng: np.random.Generator, dim: int, tag: str) -> manifests.ManifoldManifest:
    """Random two-step brackets [V, V] -> Z on the canonical pair.

    All brackets land in the centre Z, so Jacobi holds exactly; coefficients
    outside the quasi-Kahler null space make the class OTHER.
    """
    z_size = int(rng.integers(1, dim - 1))
    centre = set(rng.choice(dim, size=z_size, replace=False).tolist())
    rest = [i for i in range(dim) if i not in centre]
    C = np.zeros((dim, dim, dim))
    for (i, j), k in itertools.product(itertools.combinations(rest, 2), sorted(centre)):
        C[k, i, j] = rng.normal()
        C[k, j, i] = -C[k, i, j]
    C /= np.max(np.abs(C))
    g, J = manifolds.canonical_norden_pair(dim)
    return manifests.ManifoldManifest(
        id=tag, dim=dim, structure_constants=C, metric=g, J=J,
        description="two-step brackets off the quasi-Kahler null space",
    )


class VerifyPool:
    per_candidate = False

    def __init__(self, seed: int) -> None:
        pool = json.loads((POOL_DIR / "pool.json").read_text(encoding="utf-8"))
        items = []
        for entry in pool["manifests"]:
            if "bundled" in entry:
                path = manifests.bundled_manifest_path(entry["bundled"])
            else:
                path = POOL_DIR / entry["file"]
            text = path.read_text(encoding="utf-8")
            doc = json.loads(text)
            items.append(VerifyItem(doc["id"], doc["dim"], text, entry["class"]))
        rng = np.random.default_rng([seed, 0])
        for dim in (4, 6, 8):
            for k in range(OTHER_PER_DIM):
                mf = other_brackets(rng, dim, f"other_d{dim}_seed{seed}_{k}")
                items.append(
                    VerifyItem(mf.id, dim, manifests.manifest_to_json(mf), "OTHER"))
        self.ops = items
        self.repeats = [1] * len(items)
        # warm-up pass; pins the bytes every later report must repeat.  An
        # operation that raises here pins None, so its timed runs count as
        # failed operations instead of ending the run.
        self.reference = {item.manifold_id: warm_up(self.run_op, item) for item in items}

    @staticmethod
    def run_op(item: VerifyItem) -> bytes:
        manifest = manifests.parse_manifest(item.text)
        report = suite.run_suite(manifest.to_manifold(), manifold_id=manifest.id)
        return cli.emit_report(report, cli.STRUCTURED)

    def check(self, item: VerifyItem, out: bytes) -> tuple[int, None]:
        """Raise CheckFailed unless `out` is right; return (reports, stats)."""
        doc = json.loads(out)
        _require(doc["class"] == item.label,
                 f"{item.manifold_id}: class {doc['class']} != {item.label}")
        _require(self.reference[item.manifold_id] is not None,
                 f"{item.manifold_id}: the warm-up run raised")
        _require(out == self.reference[item.manifold_id],
                 f"{item.manifold_id}: report bytes changed between passes")
        if item.manifold_id == "w3_two_step_6":
            for name, exact in TWO_STEP_6_SCALARS.items():
                got = doc["scalars"][name]
                _require(abs(got - exact) <= 1e-12 * abs(exact),
                         f"w3_two_step_6: {name} = {got!r} != {exact}")
        return 1, None


# ---------------------------------------------------------------------------
# search workloads
# ---------------------------------------------------------------------------


class SearchPool:
    per_candidate = True

    def __init__(self, configs: list[SearchConfig], repeats: list[int] | None = None) -> None:
        self.ops = configs
        self.repeats = repeats or [1] * len(configs)
        self.reference: dict[SearchConfig, tuple[str, ...]] = {}
        warm = {(c.dim, c.target): c for c in configs}
        for cfg in warm.values():  # fills the per-dimension search caches
            warm_up(self.run_op,
                    replace(cfg, seed=WARMUP_SEED, max_candidates=1, max_results=1))

    @staticmethod
    def run_op(cfg: SearchConfig):
        return search.search_w3_examples(cfg)

    def check(self, cfg: SearchConfig, payload) -> tuple[int, search.SearchStats]:
        """Raise CheckFailed unless every hit is right; return (hits, stats).
        Hits are re-verified on first sight; later passes must repeat them."""
        hits, stats = payload
        texts = tuple(manifests.manifest_to_json(h) for h in hits)
        if cfg in self.reference:
            _require(texts == self.reference[cfg], f"{cfg}: hits changed between passes")
        else:
            for hit, text in zip(hits, texts):
                check_hit(hit, text, cfg.target)
            self.reference[cfg] = texts
        return len(hits), stats


def check_hit(hit: manifests.ManifoldManifest, text: str, target: SearchTarget) -> None:
    """A hit must survive the manifest JSON round trip bit-exactly and
    re-verify as quasi-Kahler (with R' Bianchi PASS for the Kahler target)."""
    back = manifests.parse_manifest(text)
    for field in ("structure_constants", "metric", "J"):
        a, b = getattr(hit, field), getattr(back, field)
        _require(a.shape == b.shape and a.tobytes() == b.tobytes(),
                 f"{hit.id}: {field} changed in the JSON round trip")
    _require(manifests.manifest_to_json(back) == text, f"{hit.id}: JSON not stable")
    report = suite.run_suite(back.to_manifold(), manifold_id=back.id)
    _require(report.class_label.label.value == W3,
             f"{hit.id}: re-verifies as {report.class_label.label.value}")
    if target is SearchTarget.W3_RPRIME_KAHLER:
        status = report.check("BIANCHI_R_PRIME").status
        _require(status == suite.PASS, f"{hit.id}: BIANCHI_R_PRIME {status}")


def search_kahler_gn(seed: int) -> SearchPool:
    return SearchPool([
        SearchConfig(dim=6, seed=s, target=SearchTarget.W3_RPRIME_KAHLER,
                     max_results=1, max_candidates=KAHLER_MAX_CANDIDATES)
        for s in KAHLER_SEEDS
    ])


def search_w3_mix(seed: int) -> SearchPool:
    return SearchPool(
        [SearchConfig(dim=dim, seed=s, target=SearchTarget.W3,
                      max_results=n, max_candidates=40 * n)
         for dim, s, n in MIX_SEARCHES],
        [1 if dim == 4 else TWO_STEP_REPEATS for dim, _, _ in MIX_SEARCHES])


WORKLOADS = {
    "verify_pool": VerifyPool,
    "search_kahler_gn": search_kahler_gn,
    "search_w3_mix": search_w3_mix,
}


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class SpeedSampler:
    """Samples the machine's speed while the workload runs.

    The speed of a shared machine drifts (by a fifth within tens of seconds
    on the 2-core VM this benchmark was tuned on), and the drift moves the
    program and a fixed kernel together: small einsums, Python arithmetic
    and one least-squares solve whose matrix spills the L1 and L2 caches, as
    the program's Gauss-Newton solves do.  While active, a timer signal times
    the kernel every PERIOD_S.  An operation's time, less the samples taken
    inside it and scaled by NOMINAL_S / (median kernel time around it), is
    its time at the reference speed: steady across runs where the raw time
    is not.
    """

    NOMINAL_S = 0.002
    PERIOD_S = 0.05
    NEAREST = 25

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self.c3, self.g6 = rng.normal(size=(6, 6, 6)), rng.normal(size=(6, 6))
        self.r4, self.g8 = rng.normal(size=(8, 8, 8, 8)), rng.normal(size=(8, 8))
        self.tall, self.rhs = rng.normal(size=(1300, 54)), rng.normal(size=1300)
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def kernel_seconds(self) -> float:
        start = time.perf_counter()
        acc = 0.0
        for _ in range(30):
            acc += np.einsum("mij,mk->ijk", self.c3, self.g6)[0, 0, 0]
            acc += np.einsum("ijkl,lm->ijkm", self.r4, self.g8)[0, 0, 0, 0]
            for i in range(100):
                acc += i * 0.5
        np.linalg.lstsq(self.tall, self.rhs, rcond=None)
        return time.perf_counter() - start

    def sample(self, signum=None, frame=None) -> None:
        """Time the kernel once (also the timer signal's handler)."""
        start = time.perf_counter()
        self.kernel_seconds()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def adjust(self, t0: float, t1: float) -> tuple[float, float]:
        """(seconds of [t0, t1] not spent sampling, scale to the reference
        speed from the samples inside it, or the NEAREST around it)."""
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        inside = sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        if hi - lo < self.NEAREST:
            lo = max(0, min(lo - (self.NEAREST - (hi - lo)) // 2,
                            len(self.starts) - self.NEAREST))
            hi = min(len(self.starts), lo + self.NEAREST)
        if hi <= lo:
            return t1 - t0, 1.0
        spans = [self.ends[i] - self.starts[i] for i in range(lo, hi)]
        return t1 - t0 - inside, self.NOMINAL_S / statistics.median(spans)


def run_passes(workload, seed: int, seconds: float | None = None,
               passes: int | None = None, tracer=None,
               stream: int = 0) -> tuple[list[OpResult], int]:
    """Run whole passes over `workload.ops`, each operation `workload.repeats`
    times per pass: `passes` of them, or else until `seconds` have elapsed.  Pass orders depend only on `seed` and `stream`,
    so a rerun with the same pass count repeats the same work.  An operation
    that raises or fails a check counts as one failed operation.

    The machine speed is sampled on a timer (SpeedSampler), or, with a
    tracer, between operations so that no span contains a sample.  The
    tracer records only the operations, not the checks or the samples, and
    each operation's spans are scaled to the reference speed like its time."""
    order = np.random.default_rng([seed, 1, stream])
    slots = np.repeat(np.arange(len(workload.ops)), workload.repeats)
    sampler = SpeedSampler()
    results: list[OpResult] = []
    windows: list[tuple[float, float]] = []
    spans: list[tuple[int, int]] = []  # each operation's spans in the tracer
    if tracer is not None:
        tracer.enabled = False
    with sampler if tracer is None else contextlib.nullcontext():
        start, done = time.perf_counter(), 0
        while True:
            for idx in slots[order.permutation(len(slots))]:
                op = workload.ops[idx]
                t0 = t1 = None
                try:
                    if tracer is not None:
                        first = len(tracer)
                        tracer.enabled = True
                    try:
                        t0 = time.perf_counter()
                        payload = workload.run_op(op)
                        t1 = time.perf_counter()
                    finally:
                        if tracer is not None:
                            tracer.enabled = False
                            spans.append((first, len(tracer)))
                    produced, stats = workload.check(op, payload)
                    result = OpResult(int(idx), op.dim, None, True, produced, stats)
                except Exception:  # counted as a failed operation, not raised
                    traceback.print_exc(file=sys.stderr)
                    result = OpResult(int(idx), op.dim, None, False)
                results.append(result)
                windows.append((t0, t1))
                if tracer is not None:
                    sampler.sample()
            done += 1
            if passes is not None:
                if done >= passes:
                    break
            elif time.perf_counter() - start >= seconds:
                break
    for _ in range(sampler.NEAREST):  # so even a short run has a full window
        sampler.sample()
    if tracer is not None:
        tracer.enabled = True
    for result, (t0, t1) in zip(results, windows):
        if t1 is not None:
            result.seconds, result.scale = sampler.adjust(t0, t1)
    if tracer is not None:
        for result, (first, last) in zip(results, spans):
            tracer.rescale(first, last, result.scale)
    return results, done


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def typical_seconds(results: list[OpResult], dim: int | None = None,
                    at_reference: bool = True) -> list[float]:
    """Each operation's median time over the passes (of one dimension, or
    all), at the reference speed unless `at_reference` is false."""
    by_op: dict[int, list[float]] = {}
    for r in results:
        if r.seconds is not None and dim in (None, r.dim):
            scale = r.scale if at_reference else 1.0
            by_op.setdefault(r.index, []).append(r.seconds * scale)
    return [statistics.median(v) for _, v in sorted(by_op.items())]


def result_to_row(r: OpResult) -> list:
    """The fields of a result the end-to-end metrics need, as JSON."""
    return [r.index, r.dim, r.seconds, r.scale, r.ok, r.results]


def result_from_row(row: list) -> OpResult:
    index, dim, seconds, scale, ok, results = row
    return OpResult(index, dim, seconds, ok, results, scale=scale)


def results_per_pass(results: list[OpResult]) -> int:
    """Verified reports or validated hits in one pass (the checks enforce that
    passes repeat the same work); 0 if some operation never succeeded."""
    produced: dict[int, int] = {}
    for r in results:
        if r.ok:
            produced.setdefault(r.index, r.results)
    if len(produced) < len({r.index for r in results}):
        return 0
    return sum(produced.values())


def end_to_end(results: list[OpResult], setup_samples: list[float],
               peak_rss_mb: float) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, sample count).  Latencies are percentiles over
    the workload's operations of each one's median time over the passes;
    times are at the reference speed (SpeedSampler)."""
    typical = typical_seconds(results)
    produced = results_per_pass(results)
    n = len(results)
    return {
        "setup_s": (statistics.median(setup_samples), "s", len(setup_samples)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "op_ms.p50": (1e3 * percentile(typical, 0.5), "ms", n),
        "op_ms.p90": (1e3 * percentile(typical, 0.9), "ms", n),
        "s_per_result": (sum(typical) / produced if produced else 0.0, "s", n),
    }


LAYERS = ("manifests", "cli", "suite", "curvature", "geometry", "manifolds",
          "tensors", "search")
COUNTED = ("numpy.einsum", "numpy.linalg.inv", "numpy.linalg.lstsq",
           "geometry.classify", "geometry.compute_nabla_J", "curvature.riemann",
           "curvature.pi_forms", "manifolds.covariant_derivative", "tensors.residual")
SEARCH_RATIOS = {  # metric -> SearchStats field, per candidate
    "search.hits_per_candidate": "hits",
    "search.converged_per_candidate": "converged",
    "search.rejected_class": "rejected_class",
    "search.rejected_jacobi": "rejected_jacobi",
}


def per_layer(summary: dict, setup_summary: dict, results: list[OpResult],
              untraced: list[OpResult], overhead_pct: float,
              per_candidate: bool) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, base), normalised per operation (verify) or per
    search candidate; the SVD counts are per set-up."""
    stats = [r.stats for r in results if r.stats is not None]
    units = max(1, sum(s.candidates for s in stats) if per_candidate else len(results))

    def row(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    out: dict[str, tuple[float, str, int]] = {}
    for layer in LAYERS:
        own = sum(r["self_s"] for n, r in summary.items() if n.startswith(layer + "."))
        out[f"{layer}.self_ms"] = (1e3 * own / units, "ms", units)
    for name in ("numpy.einsum", "numpy.linalg.lstsq"):
        out[f"{name}.self_ms"] = (1e3 * row(name, "self_s") / units, "ms", units)
    build = row("suite.build_context", "total_s")
    out["suite.build_context.ms"] = (1e3 * build / units, "ms", units)
    out["suite.checks_ms"] = (
        1e3 * (row("suite.run_suite", "total_s") - build) / units, "ms", units)
    for name in COUNTED:
        out[f"{name}.calls"] = (row(name, "calls") / units, "count", units)

    iterations = row("numpy.linalg.lstsq", "calls")
    search_ms = 1e3 * sum(r["self_s"] for n, r in summary.items()
                          if n.startswith("search."))
    out["search.gn_iterations_per_candidate"] = (
        iterations / units if per_candidate else 0.0, "count", units)
    out["search.self_ms_per_gn_iteration"] = (
        search_ms / iterations if iterations else 0.0, "ms", iterations)
    candidates = sum(s.candidates for s in stats)
    for name, key in SEARCH_RATIOS.items():
        total = sum(getattr(s, key) for s in stats)
        out[name] = (total / candidates if candidates else 0.0, "ratio", candidates)
    two_step = sum(s.by_ansatz.get("two_step", 0) for s in stats)
    out["search.two_step_share"] = (
        two_step / candidates if candidates else 0.0, "ratio", candidates)

    svd = setup_summary.get("numpy.linalg.svd", {})
    out["numpy.linalg.svd.calls"] = (svd.get("calls", 0), "count", 1)
    out["numpy.linalg.svd.self_ms"] = (1e3 * svd.get("self_s", 0.0), "ms", 1)

    for dim in (4, 6, 8):
        times = typical_seconds(untraced, dim)
        for q in (50, 90):
            value = 1e3 * percentile(times, q / 100) if times else 0.0
            out[f"op_d{dim}_ms.p{q}"] = (value, "ms", len(times))
    out["trace.overhead_pct"] = (overhead_pct, "%", len(results))
    return out
