"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import re
import time

import pytest

import benchenv

benchenv.add_sources()

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((benchenv.REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- tracer ----------------------------------------------------------------


def test_self_time_of_synthetic_spans():
    t = Tracer()
    t.names = ["outer", "inner", "leaf"]
    # outer [0, 10] holds inner [1, 4] and inner [5, 6]; inner [1, 4] holds leaf [2, 3]
    for name, parent, start, end in ((0, -1, 0.0, 10.0), (1, 0, 1.0, 4.0),
                                     (2, 1, 2.0, 3.0), (1, 0, 5.0, 6.0)):
        t.name_of.append(name)
        t.parent.append(parent)
        t.start.append(start)
        t.end.append(end)
    assert t.self_times() == [6.0, 2.0, 1.0, 1.0]
    summary = t.summary()
    assert summary["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert summary["inner"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}


def test_rescaled_spans_scale_self_times_of_their_operation():
    t = Tracer()
    t.names = ["op", "leaf"]
    # operation 1: op [0, 4] holding leaf [1, 2]; operation 2: op [5, 6]
    for name, parent, start, end in ((0, -1, 0.0, 4.0), (1, 0, 1.0, 2.0),
                                     (0, -1, 5.0, 6.0)):
        t.name_of.append(name)
        t.parent.append(parent)
        t.start.append(start)
        t.end.append(end)
    t.rescale(0, 2, 0.5)
    assert t.self_times() == [1.5, 0.5, 1.0]
    assert t.summary()["op"] == {"calls": 2, "total_s": 3.0, "self_s": 2.5}


def test_wrapped_nested_call_records_parents_and_self_time():
    t = Tracer()

    def inner():
        time.sleep(0.02)

    inner_w = t.wrap("m.inner", inner)

    def outer():
        time.sleep(0.01)
        inner_w()
        inner_w()

    t.wrap("m.outer", outer)()
    assert list(t.parent) == [-1, 0, 0]
    rows = t.summary()
    assert rows["m.inner"]["calls"] == 2
    assert rows["m.outer"]["self_s"] == pytest.approx(
        rows["m.outer"]["total_s"] - rows["m.inner"]["total_s"], abs=1e-12)
    assert 0.009 < rows["m.outer"]["self_s"] < 0.02
    assert rows["m.inner"]["total_s"] >= 0.04


def test_disabled_tracer_records_nothing():
    t = Tracer()
    f = t.wrap("m.f", lambda x: x + 1)
    t.enabled = False
    assert f(1) == 2
    assert len(t) == 0


def test_install_wraps_directly_imported_names_and_uninstall_restores():
    import numpy as np
    from norden import geometry, search, suite

    originals = (geometry.classify, search.classify, np.einsum, np.linalg.lstsq)
    assert search.classify is geometry.classify
    t = Tracer()
    t.install()
    try:
        assert search.classify is geometry.classify is not originals[0]
        assert suite.run_suite is not None and np.einsum is not originals[2]
        np.einsum("ii->", np.eye(2))
        assert t.summary()["numpy.einsum"]["calls"] == 1
    finally:
        t.uninstall()
    assert (geometry.classify, search.classify, np.einsum, np.linalg.lstsq) == originals


# -- metric names ------------------------------------------------------------


def _fake_results():
    from norden import SearchStats

    stats = SearchStats(candidates=4, converged=3, hits=2, rejected_class=1,
                        by_ansatz={"two_step": 1, "gauss_newton": 3})
    return [workloads.OpResult(0, 4, 0.01, True, 2, stats),
            workloads.OpResult(1, 8, 0.03, True, 1, None)]


def test_metric_names_are_well_formed_and_match_the_spec():
    results = _fake_results()
    e2e = workloads.end_to_end(results, [0.5, 0.6, 0.4], 40.0)
    layers = workloads.per_layer({}, {}, results, results, 10.0, per_candidate=True)
    assert list(e2e) == [m["name"] for m in SPEC["end_to_end"]]
    assert list(layers) == [m["name"] for m in SPEC["per_layer"]]
    for spec in SPEC["end_to_end"]:
        assert e2e[spec["name"]][1] == spec["unit"]
    for spec in SPEC["per_layer"]:
        assert layers[spec["name"]][1] == spec["unit"]
    for name in list(e2e) + list(layers) + [w["name"] for w in SPEC["workloads"]]:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert run.parse_args(["--workload", "search_w3_mix"]).workload == "search_w3_mix"


def test_latency_is_the_median_of_each_operation_over_passes():
    results = [workloads.OpResult(i, 4, t, True, 1) for i, t in
               ((0, 1.0), (1, 5.0), (0, 9.0), (1, 6.0), (0, 2.0), (1, 7.0))]
    assert workloads.typical_seconds(results) == [2.0, 6.0]
    assert workloads.percentile([2.0, 6.0], 0.5) == 2.0
    assert workloads.percentile([2.0, 6.0], 0.9) == 6.0
    assert workloads.results_per_pass(results) == 2
    results.append(workloads.OpResult(2, 4, None, False))
    assert workloads.results_per_pass(results) == 0


def test_speed_sampler_removes_its_samples_and_scales_to_reference_speed():
    sampler = workloads.SpeedSampler()
    sampler.NEAREST = 3
    kernel = 2 * sampler.NOMINAL_S  # the machine runs at half the reference speed
    sampler.starts = [0.0, 1.0, 2.0, 3.0]
    sampler.ends = [t + kernel for t in sampler.starts]
    seconds, scale = sampler.adjust(0.5, 2.5)  # two samples inside, one more nearby
    assert seconds == pytest.approx(2.0 - 2 * kernel)
    assert scale == pytest.approx(0.5)


# -- output checks -----------------------------------------------------------


@pytest.fixture(scope="module")
def pool():
    return workloads.VerifyPool(seed=3)


def _item(pool, manifold_id):
    return next(i for i in pool.ops if i.manifold_id == manifold_id)


def test_verify_checks_accept_the_pinned_report(pool):
    for item in pool.ops:
        assert pool.check(item, pool.run_op(item)) == (1, None)


def test_verify_checks_flag_a_corrupted_report(pool):
    item = _item(pool, "w3_generic_4")
    out = pool.run_op(item)
    corrupted = out.replace(b'"PASS"', b'"FAIL"', 1)
    assert corrupted != out
    with pytest.raises(workloads.CheckFailed, match="bytes changed"):
        pool.check(item, corrupted)


def test_verify_checks_flag_a_wrong_class_label(pool):
    item = _item(pool, "flat_kahler_4")
    out = pool.run_op(item)
    relabelled = workloads.VerifyItem(item.manifold_id, item.dim, item.text,
                                      "QUASI_KAHLER_W3")
    with pytest.raises(workloads.CheckFailed, match="class KAHLER_W0"):
        pool.check(relabelled, out)


def test_verify_pool_draws_other_brackets_from_the_seed(pool):
    others = [i for i in pool.ops if i.label == "OTHER"]
    assert len(others) == 3 * workloads.OTHER_PER_DIM
    again = [i for i in workloads.VerifyPool(seed=3).ops if i.label == "OTHER"]
    assert [i.text for i in again] == [i.text for i in others]


def test_hit_check_flags_a_non_w3_hit():
    import numpy as np
    from norden import SearchTarget, manifests

    hit = workloads.other_brackets(np.random.default_rng(0), 6, "not_w3")
    with pytest.raises(workloads.CheckFailed, match="re-verifies as OTHER"):
        workloads.check_hit(hit, manifests.manifest_to_json(hit), SearchTarget.W3)


def test_hit_check_flags_a_non_kahler_hit_for_the_kahler_target():
    from norden import SearchTarget, bundled_manifest_path, manifests

    text = bundled_manifest_path("w3_two_step_6").read_text(encoding="utf-8")
    hit = manifests.parse_manifest(text)
    workloads.check_hit(hit, text, SearchTarget.W3)
    with pytest.raises(workloads.CheckFailed, match="BIANCHI_R_PRIME FAIL"):
        workloads.check_hit(hit, text, SearchTarget.W3_RPRIME_KAHLER)


def test_failed_check_counts_as_a_failed_operation(pool):
    class Broken:
        ops = pool.ops[:2]
        repeats = [1, 1]
        run_op = staticmethod(pool.run_op)

        @staticmethod
        def check(item, out):
            raise workloads.CheckFailed("synthetic")

    results, passes = workloads.run_passes(Broken, seed=1, passes=2)
    assert passes == 2 and len(results) == 4
    assert not any(r.ok for r in results)
    assert all(r.seconds is not None for r in results)


def test_operation_that_raised_in_warm_up_counts_as_failed(pool, monkeypatch):
    item = _item(pool, "w3_generic_4")

    def raising(op):
        raise RuntimeError("synthetic")

    assert workloads.warm_up(raising, item) is None
    monkeypatch.setitem(pool.reference, item.manifold_id, None)
    with pytest.raises(workloads.CheckFailed, match="warm-up run raised"):
        pool.check(item, pool.run_op(item))
