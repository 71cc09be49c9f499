"""Shared fixtures: bundled example manifolds and seeded sample pools."""

import numpy as np
import pytest

from norden import (
    LieFrameManifold,
    SearchConfig,
    SearchTarget,
    bundled_manifest_path,
    canonical_norden_pair,
    load_manifest,
    search_w3_examples,
)


def _bundled(name: str) -> LieFrameManifold:
    return load_manifest(bundled_manifest_path(name))


@pytest.fixture(scope="session")
def flat4() -> LieFrameManifold:
    return _bundled("flat_kahler_4")


@pytest.fixture(scope="session")
def two_step_6() -> LieFrameManifold:
    return _bundled("w3_two_step_6")


@pytest.fixture(scope="session")
def generic_w3_4() -> LieFrameManifold:
    return _bundled("w3_generic_4")


@pytest.fixture(scope="session")
def kahler_rprime_4() -> LieFrameManifold:
    return _bundled("w3_kahler_rprime_4")


@pytest.fixture(scope="session")
def other_class_6() -> LieFrameManifold:
    """Valid Norden data outside the Kahler/quasi-Kahler classes."""
    C = np.zeros((6, 6, 6))
    C[2, 0, 1] = 1.0
    C[2, 1, 0] = -1.0
    g, J = canonical_norden_pair(6)
    return LieFrameManifold(dim=6, structure_constants=C, metric=g, J=J)


@pytest.fixture(scope="session")
def other_class_4() -> LieFrameManifold:
    C = np.zeros((4, 4, 4))
    C[2, 0, 1] = 1.0
    C[2, 1, 0] = -1.0
    g, J = canonical_norden_pair(4)
    return LieFrameManifold(dim=4, structure_constants=C, metric=g, J=J)


@pytest.fixture(params=["odd_dim", "nan_entry"])
def bad_manifold_doc(request) -> dict:
    """Manifest fields that pass the parser's field and shape checks but not
    the manifold's own: an odd dimension, or a NaN among the brackets."""
    if request.param == "odd_dim":
        C, g, J = np.zeros((3, 3, 3)), np.eye(3), np.eye(3)
    else:
        g, J = canonical_norden_pair(4)
        C = np.zeros((4, 4, 4))
        C[2, 0, 1] = np.nan
    return {
        "id": request.param,
        "dim": len(g),
        "structure_constants": C.tolist(),
        "metric": g.tolist(),
        "J": J.tolist(),
        "description": "",
    }


def _search_pool(dim: int, seed: int, n: int, target=SearchTarget.W3):
    cfg = SearchConfig(
        dim=dim, seed=seed, max_candidates=40 * n, max_results=n, target=target
    )
    manifests, _ = search_w3_examples(cfg)
    return manifests


@pytest.fixture(scope="session")
def w3_pool(two_step_6, generic_w3_4, kahler_rprime_4):
    """Diverse quasi-Kahler manifolds: both dims, Kahler and non-Kahler R'."""
    pool = [two_step_6, generic_w3_4, kahler_rprime_4]
    pool += _search_pool(4, seed=101, n=8)
    pool += _search_pool(6, seed=102, n=6)
    pool += _search_pool(4, seed=103, n=3, target=SearchTarget.W3_RPRIME_KAHLER)
    pool += _search_pool(6, seed=104, n=3, target=SearchTarget.W3_RPRIME_KAHLER)
    return pool


@pytest.fixture(scope="session")
def big_w3_pool(w3_pool):
    """At least 50 quasi-Kahler manifolds for the equivalence sweeps."""
    pool = list(w3_pool)
    pool += _search_pool(4, seed=201, n=16)
    pool += _search_pool(6, seed=202, n=10)
    pool += _search_pool(4, seed=203, n=4, target=SearchTarget.W3_RPRIME_KAHLER)
    pool += _search_pool(6, seed=204, n=4, target=SearchTarget.W3_RPRIME_KAHLER)
    assert len(pool) >= 50
    return pool
