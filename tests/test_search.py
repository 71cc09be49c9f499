"""Seeded example search: the membership matrix and its families,
reproducibility, classification of hits, targets, the Gauss-Newton quadratic
form, the lockstep batch and the failure counters."""

import functools
import hashlib
import itertools
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from norden import (
    ClassLabel,
    LieFrameManifold,
    SearchConfig,
    SearchStats,
    SearchTarget,
    bianchi_residual,
    build_context,
    bundled_manifest_path,
    canonical_norden_pair,
    classify,
    compute_nabla_J,
    cyclic_sum3,
    load_manifest,
    run_suite,
    search_w3_examples,
    validate_manifold,
)
from norden import curvature, geometry, search, suite
from norden.curvature import riemann
from norden.geometry import q_array, twist_arrays
from norden.manifests import manifest_to_json
from norden.manifolds import jacobi_array, levi_civita
from norden.tensors import lower

from test_manifolds import full_jacobi, gamma_of


class TestSearchConfig:
    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError, match="max_candidates"):
            SearchConfig(dim=4, seed=1, max_candidates=0)

    @pytest.mark.parametrize("field", ("tolerance",))
    @pytest.mark.parametrize("value", (float("nan"), float("inf"), -1.0, 0.0, 1.0))
    def test_tolerance_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SearchConfig(dim=4, seed=1, **{field: value})

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            SearchConfig(dim=5, seed=1, max_candidates=10)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SearchConfig(dim=4, seed=-1)

    def test_dim_below_four_rejected(self):
        # dim 2 has a trivial membership null space
        with pytest.raises(ValueError, match="at least 4"):
            SearchConfig(dim=2, seed=1)

    @pytest.mark.parametrize("field", ("dim", "seed", "max_candidates", "max_results"))
    @pytest.mark.parametrize("value", (1.5, 4.0, "4", True))
    def test_non_integer_rejected(self, field, value):
        # seed=1.5 used to fail inside the search, and max_results=2.5 to
        # return 3 hits
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SearchConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        cfg = SearchConfig(dim=np.int64(6), seed=np.int32(1), max_results=np.int64(2))
        assert (cfg.dim, cfg.seed, cfg.max_results) == (6, 1, 2)

    @pytest.mark.parametrize("target", ("w3-kahler-rprime", "bogus"))
    def test_target_not_a_member_rejected(self, target):
        with pytest.raises(ValueError, match="target must be a SearchTarget"):
            SearchConfig(dim=4, seed=1, target=target)


POOL = Path(__file__).resolve().parents[1] / "perfbench" / "pool"


def _loop_basis(dim, triples):
    """Basis matrix of the (k, i, j) triples, one column at a time."""
    cols = np.zeros((dim**3, len(triples)))
    for t, (k, i, j) in enumerate(triples):
        C = np.zeros((dim, dim, dim))
        C[k, i, j] = 1.0
        C[k, j, i] = -1.0
        cols[:, t] = C.ravel()
    return cols


def _loop_w3_rows(dim, basis):
    """Membership matrix by one kernel evaluation per column: the reference
    for the batched evaluation of `search._w3_rows`."""
    g, J = canonical_norden_pair(dim)
    g_inv = np.linalg.inv(g)
    rows = []
    for t in range(basis.shape[1]):
        C = basis[:, t].reshape(dim, dim, dim)
        F = lower(compute_nabla_J(levi_civita(C, g, g_inv), J), g)
        rows.append(cyclic_sum3(F).ravel())
    return np.array(rows).T


def _one_batch_w3_rows(dim, triples):
    """Membership matrix by one batched kernel evaluation over all the unit
    brackets of `triples`: the reference for the chunks of `search._w3_rows`."""
    g, J, g_inv = search._canonical_pair(dim)
    C = search._brackets(dim, *search._positions(dim, triples), np.eye(len(triples)))
    C = C.transpose(3, 0, 1, 2)
    F = lower(compute_nabla_J(levi_civita(C, g, g_inv), J), g)
    return cyclic_sum3(F, (-3, -2, -1)).reshape(len(C), -1).T


def _unit_brackets(dim, pos, neg):
    """The family's unit brackets, one flattened column per triple: its
    columns of the basis matrix."""
    return search._brackets(dim, pos, neg, np.eye(len(pos))).reshape(dim**3, -1)


class TestMembership:
    @pytest.mark.parametrize("dim", (4, 6, 8))
    def test_batched_rows_equal_the_per_column_loop(self, dim):
        triples, rows = search._membership(dim)
        pairs = itertools.combinations(range(dim), 2)
        want = [(k, i, j) for i, j in pairs for k in range(dim)]
        assert triples.tolist() == [list(t) for t in want]
        basis = _loop_basis(dim, want)
        pos, neg = search._positions(dim, triples)
        assert _unit_brackets(dim, pos, neg).tobytes() == basis.tobytes()
        assert rows.tobytes() == _loop_w3_rows(dim, basis).tobytes()

    @pytest.mark.parametrize("dim", (4, 6, 8, 10))
    def test_chunked_rows_equal_the_one_batch_rows(self, dim, monkeypatch):
        # from dim 6 on the build takes several chunks; uncached, so that the
        # dim-10 matrix is not kept
        triples, rows = search._membership.__wrapped__(dim)
        chunk = search._MEMBERSHIP_CHUNK_BYTES // (8 * dim**3)
        assert dim == 4 or 0 < chunk < len(triples)
        want = _one_batch_w3_rows(dim, triples)
        assert rows.tobytes() == want.tobytes() and rows.strides == want.strides
        # and with one bracket or five brackets per chunk (a short last chunk
        # in dims 4 and 8)
        for brackets in (1, 5):
            monkeypatch.setattr(search, "_MEMBERSHIP_CHUNK_BYTES", brackets * 8 * dim**3)
            assert search._w3_rows(dim, triples).tobytes() == want.tobytes()

    def test_families_equal_the_per_partition_construction(self):
        dim, want = 6, []
        for z_size in range(1, dim - 1):
            for Z in itertools.combinations(range(dim), z_size):
                V = [v for v in range(dim) if v not in Z]
                triples = [(k, i, j) for i, j in itertools.combinations(V, 2) for k in Z]
                basis = _loop_basis(dim, triples)
                null = search._null_space(_loop_w3_rows(dim, basis))
                if null.shape[1] > 0:
                    want.append((Z, basis, null))
        centres = search._two_step_centres(dim)
        assert [Z for Z, _ in centres] == [Z for Z, *_ in want]
        for (Z, nullity), (_, want_basis, want_null) in zip(centres, want):
            pos, neg, null = search._two_step_family(dim, Z)
            assert _unit_brackets(dim, pos, neg).tobytes() == want_basis.tobytes()
            assert null.tobytes() == want_null.tobytes()
            assert nullity == want_null.shape[1]

    def test_draws_equal_the_basis_product(self):
        # a draw writes its coefficients onto the family's triples: bit for
        # bit the product with the oracle's basis matrix, which turns a zero
        # coefficient of either sign into +0.0 in both of its entries
        dim, rng, stats = 6, np.random.default_rng(6), SearchStats()
        for Z, _ in search._two_step_centres(dim):
            family = search._two_step_family(dim, Z)
            pos, neg, null = family
            triples = np.column_stack(np.unravel_index(pos, (dim,) * 3))
            basis = _loop_basis(dim, triples)
            coeff = null @ rng.uniform(-1.0, 1.0, null.shape[1])
            coeff[:2] = 0.0, -0.0
            C = search._brackets(dim, pos, neg, coeff)
            assert C.tobytes() == (basis @ coeff).reshape(dim, dim, dim).tobytes()
            zeros = C.ravel()[np.concatenate([pos[:2], neg[:2]])]
            assert zeros.tolist() == [0.0] * 4 and not np.signbit(zeros).any()

            state = rng.bit_generator.state
            got = search._two_step_candidate(rng, dim, family, stats)
            rng.bit_generator.state = state
            want = basis @ (null @ rng.uniform(-1.0, 1.0, null.shape[1]))
            want = want.reshape(dim, dim, dim)
            assert got.tobytes() == (want / np.max(np.abs(want))).tobytes()
        assert stats.collapsed == 0

    @pytest.mark.parametrize(
        "dim,generic,families,family_cols",
        [(4, 12, 0, 0), (6, 54, 17, 32), (8, 144, 146, 512)],
    )
    def test_null_space_sizes(self, dim, generic, families, family_cols):
        # the generic family is that of all the triples: the form's start
        # points span its null space
        form = search._quadratic_form(dim, False)
        assert form.start.shape[1] == generic
        centres = search._two_step_centres(dim)
        assert len(centres) == families
        assert sum(nullity for _, nullity in centres) == family_cols
        two_step = [search._two_step_family(dim, Z) for Z, _ in centres]
        assert [null.shape[1] for *_, null in two_step] == [k for _, k in centres]
        # no cache holds a dense basis: the one axis of length d**3 is the
        # membership matrix's, a row per entry of the cyclic sum of F
        triples, rows = search._membership(dim)
        assert rows.shape == (dim**3, len(triples))
        arrays = (form.pos, form.neg, form.start, *itertools.chain(*two_step))
        assert all(dim**3 not in a.shape for a in (triples, *arrays))
        # a family's arrays own their memory (a view of null would keep the
        # SVD's vt alive), and it names 2 entries of C per triple
        assert all(a.base is None for a in arrays)
        assert np.union1d(form.pos, form.neg).size == 2 * len(triples)
        for pos, neg, null in two_step:
            assert np.union1d(pos, neg).size == 2 * len(null)

    @pytest.mark.parametrize("dim", (4, 6, 8))
    def test_centres_equal_the_per_partition_svd(self, dim):
        # the centre pass sums each nullity over the blocks' exact ranks; the
        # reference takes one SVD of each partition's columns, found by
        # looking its triples up one at a time
        triples, rows = search._membership(dim)
        column = {tuple(t): n for n, t in enumerate(triples.tolist())}
        want = []
        for z_size in range(1, dim - 1):
            for Z in itertools.combinations(range(dim), z_size):
                V = [v for v in range(dim) if v not in Z]
                cols = [column[k, i, j] for i, j in itertools.combinations(V, 2) for k in Z]
                nullity = search._null_space(rows[:, cols]).shape[1]
                if nullity > 0:
                    want.append((Z, nullity))
        assert search._two_step_centres.__wrapped__(dim) == tuple(want)

    def test_family_with_another_nullity_raises(self, monkeypatch):
        Z, nullity = search._two_step_centres(6)[0]
        monkeypatch.setattr(search, "_null_space", lambda A: np.zeros((A.shape[1], nullity + 1)))
        with pytest.raises(ArithmeticError, match="nullity of two-step centre"):
            search._two_step_family.__wrapped__(6, Z)

    def test_rows_across_two_blocks_raise(self, monkeypatch):
        # a distinct row and its permutations gain an entry in a column of
        # another block than their nonzero entries: the rows stay totally
        # symmetric and quarter-integral, but the split into blocks fails, in
        # the centre pass and in the basis alike
        triples, rows = search._membership(6)
        (first, _), (second, _) = search._distinct_rows(6)[1][:2]
        row = np.unravel_index(np.flatnonzero(rows[:, first].any(axis=1))[0], (6,) * 3)
        altered = rows.copy()
        for abc in set(itertools.permutations(row)):
            assert altered[np.ravel_multi_index(abc, (6,) * 3), second[0]] == 0.0
            altered[np.ravel_multi_index(abc, (6,) * 3), second[0]] = 0.25
        monkeypatch.setattr(search, "_distinct_rows", search._distinct_rows.__wrapped__)
        monkeypatch.setattr(search, "_membership", lambda dim: (triples, altered))
        with pytest.raises(ArithmeticError, match="two blocks"):
            search._two_step_centres.__wrapped__(6)
        with pytest.raises(ArithmeticError, match="two blocks"):
            search._integer_basis.__wrapped__(6)

    @pytest.mark.parametrize("dim,blocks", [(4, (4, 4, 0)), (6, (6, 12, 2)), (8, (8, 24, 8)),
                                            (10, (10, 40, 20)), (12, (12, 60, 40))])
    def test_blocks_of_1_5_and_12_columns(self, dim, blocks, monkeypatch):
        # the membership matrix is the direct sum of 2m blocks of 1 column,
        # 2m(m - 1) of 5 and 2 C(m, 3) of 12 (m = d/2), with 2, 3 and 4
        # distinct rows and nullity 0, 3 and 9: the generic family has
        # 3 m**2 (m - 1) directions.  Uncached, so that the dim-10 and dim-12
        # matrices are not kept
        monkeypatch.setattr(search, "_membership", search._membership.__wrapped__)
        monkeypatch.setattr(search, "_distinct_rows", search._distinct_rows.__wrapped__)
        shapes = {1: (2, 0), 5: (3, 3), 12: (4, 9)}
        count, columns = dict.fromkeys(shapes, 0), []
        for cols, A_b in search._distinct_rows(dim)[1]:
            rank = len(search._echelon(A_b.shape, A_b.tobytes())[0])
            assert (A_b.shape[0], A_b.shape[1] - rank) == shapes[len(cols)]
            count[len(cols)] += 1
            columns += cols.tolist()
        m = dim // 2
        assert tuple(count.values()) == blocks == (2 * m, 2 * m * (m - 1), 2 * math.comb(m, 3))
        assert sorted(columns) == list(range(dim * math.comb(dim, 2)))
        assert 3 * blocks[1] + 9 * blocks[2] == 3 * m**2 * (m - 1)
        if dim <= 8:
            assert search._integer_basis(dim)[1].size == 3 * m**2 * (m - 1)

    def test_centres_of_rows_not_quarter_integral_raise(self, monkeypatch):
        triples, rows = search._membership(6)
        off_grid = rows + 1e-9 * (rows != 0.0)
        monkeypatch.setattr(search, "_distinct_rows", search._distinct_rows.__wrapped__)
        monkeypatch.setattr(search, "_membership", lambda dim: (triples, off_grid))
        with pytest.raises(ArithmeticError, match="quarter-integral"):
            search._two_step_centres.__wrapped__(6)

    def test_centres_of_rows_not_totally_symmetric_raise(self, monkeypatch):
        # the pass reads the distinct rows (a, b, c), a <= b <= c, alone: a
        # change to another row, still quarter-integral, fails the symmetry
        # of the rows
        triples, rows = search._membership(6)
        row = (1 * 6 + 0) * 6 + 0  # (1, 0, 0)
        altered = rows.copy()
        altered[row, 0] += 0.25
        monkeypatch.setattr(search, "_distinct_rows", search._distinct_rows.__wrapped__)
        monkeypatch.setattr(search, "_membership", lambda dim: (triples, altered))
        with pytest.raises(ArithmeticError, match="not totally symmetric"):
            search._two_step_centres.__wrapped__(6)

    def test_certificates_call_no_svd(self, monkeypatch):
        # the plan and the integer basis certify their nullities by exact
        # elimination alone, with no SVD and no eigenvalues; the form, whose
        # start points take the generic family's SVD, is uncached, so that a
        # call to it would show
        for dim in (4, 6, 8):
            search._membership(dim)

        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError(f"np.linalg.{name} called")

            return call

        for name in ("svd", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, forbidden(name))
        monkeypatch.setattr(search, "_quadratic_form", search._quadratic_form.__wrapped__)
        for dim in (4, 6, 8):
            search._two_step_centres.__wrapped__(dim)
            search._integer_basis.__wrapped__(dim)

    @pytest.mark.parametrize(
        "dim,plan,basis",
        [
            (4, "2e38e77b22c314a4", "a0b9280f7b1f013b"),
            (6, "753a2630c13dbf11", "5b12b5adbb928c17"),
            (8, "5ec0c8a3f03869b0", "f0bf5d21ccb8d3c0"),
            (10, "ee86def799d102f6", "61b82a0441192381"),
            (12, "4e5651c6e0c6dc0a", "8127e8977ebec74f"),
        ],
    )
    def test_plan_and_basis_keep_their_digests(self, dim, plan, basis, monkeypatch):
        # sha256 prefixes of the plan's repr and of the basis's arrays (shape,
        # dtype and bytes of N, then of free): how their nullities are
        # certified must not move a bit of either.  Dims 10 and 12 build
        # into caches of their own, dropped with the test, so that none of
        # their matrices is kept
        centres, integer_basis = search._two_step_centres, search._integer_basis
        if dim > 8:
            for name in ("_membership", "_distinct_rows"):
                fresh = functools.lru_cache(maxsize=None)(getattr(search, name).__wrapped__)
                monkeypatch.setattr(search, name, fresh)
            centres, integer_basis = centres.__wrapped__, integer_basis.__wrapped__
        assert hashlib.sha256(repr(centres(dim)).encode()).hexdigest()[:16] == plan
        h = hashlib.sha256()
        for a in integer_basis(dim):
            h.update(repr((a.shape, a.dtype.str)).encode())
            h.update(a.tobytes())
        assert h.hexdigest()[:16] == basis

    def test_a_search_builds_only_the_families_it_draws(self, monkeypatch):
        # a fresh cache: the one-candidate dim-8 search (the benchmark's
        # warm-up) draws from the first centre of the plan and builds its
        # family alone
        fresh = functools.lru_cache(maxsize=None)(search._two_step_family.__wrapped__)
        monkeypatch.setattr(search, "_two_step_family", fresh)
        cfg = SearchConfig(dim=8, seed=1006, max_candidates=1, max_results=1)
        _, stats = search_w3_examples(cfg)
        assert stats.by_ansatz == {"two_step": 1}
        assert fresh.cache_info().currsize == 1
        # the family built is the first centre's: looking it up builds none
        fresh(8, search._two_step_centres(8)[0][0])
        info = fresh.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    @pytest.mark.parametrize("dim", (4, 6, 8))
    def test_integer_basis_is_certified_exactly(self, dim):
        _, rows = search._membership(dim)
        null = search._null_space(rows)
        N, free = search._integer_basis(dim)
        assert set(np.unique(N).tolist()) <= {-1.0, 0.0, 1.0}
        assert not np.signbit(N[N == 0.0]).any()
        # the membership matrix is quarter-integral: 4 rows @ N = 0 in integers
        four_rows = np.rint(4.0 * rows)
        assert np.array_equal(four_rows, 4.0 * rows)
        assert not (four_rows.astype(np.int64) @ N.astype(np.int64)).any()
        assert np.array_equal(N[free], np.eye(null.shape[1]))
        assert np.max(np.abs(N @ null[free] - null)) <= 1e-12
        form = search._quadratic_form(dim, False)
        assert np.array_equal(form.basis, N) and np.array_equal(form.start, null[free])
        assert np.array_equal(form.gram, N.T @ N)

    def test_basis_without_integer_certificate_raises(self, monkeypatch):
        # uncached: an elimination that misses each block's last pivot gives
        # a basis one column wider per block, whose new columns fail the
        # product; a doubled pivot column keeps the nullity, but halves the
        # basis entries of its pivot, which round off the null space and fail
        # the product; rows that are not quarter-integral fail even where
        # their rounding has the right null space
        triples, rows = search._membership(4)
        echelon = search._echelon
        monkeypatch.setattr(
            search, "_echelon", lambda *args: tuple(part[:-1] for part in echelon(*args))
        )
        with pytest.raises(ArithmeticError, match="integer echelon basis"):
            search._integer_basis.__wrapped__(4)
        monkeypatch.setattr(search, "_echelon", echelon)
        N, free = search._integer_basis.__wrapped__(4)
        pivots = np.delete(np.arange(len(N)), free)
        doubled = rows.copy()
        doubled[:, pivots[N[pivots].any(axis=1)][0]] *= 2.0
        monkeypatch.setattr(search, "_distinct_rows", search._distinct_rows.__wrapped__)
        monkeypatch.setattr(search, "_membership", lambda dim: (triples, doubled))
        blocks = search._distinct_rows(4)[1]
        ranks = [len(echelon(A_b.shape, A_b.tobytes())[0]) for _, A_b in blocks]
        assert len(N) - sum(ranks) == free.size
        with pytest.raises(ArithmeticError, match="integer echelon basis"):
            search._integer_basis.__wrapped__(4)
        off_grid = rows + 1e-9 * (rows != 0.0)
        monkeypatch.setattr(search, "_membership", lambda dim: (triples, off_grid))
        with pytest.raises(ArithmeticError, match="quarter-integral"):
            search._integer_basis.__wrapped__(4)

    def test_basis_of_rows_with_one_altered_row_raises(self, monkeypatch):
        # the elimination reads the distinct rows (a, b, c), a <= b <= c, alone:
        # a change to a row that is not one of them, still quarter-integral,
        # fails the certificate's symmetry of the rows
        triples, rows = search._membership(4)
        _, free = search._integer_basis(4)
        row = (1 * 4 + 0) * 4 + 0  # (1, 0, 0)
        altered = rows.copy()
        altered[row, free[0]] += 0.25
        monkeypatch.setattr(search, "_distinct_rows", search._distinct_rows.__wrapped__)
        monkeypatch.setattr(search, "_membership", lambda dim: (triples, altered))
        with pytest.raises(ArithmeticError, match="not totally symmetric"):
            search._integer_basis.__wrapped__(4)

    @pytest.mark.parametrize("dim", (6, 8))
    def test_pool_two_step_searches_reproduce_their_manifests(self, dim):
        entries = json.loads((POOL / "pool.json").read_text(encoding="utf-8"))
        pool = [
            e
            for e in entries["manifests"]
            if e.get("config", {}).get("dim") == dim and e["config"]["target"] == "w3"
        ]
        files = [e["file"] for e in pool]
        config = pool[0]["config"]
        cfg = SearchConfig(
            dim=dim,
            seed=config["seed"],
            target=SearchTarget(config["target"]),
            max_results=config["max_results"],
            max_candidates=config["max_candidates"],
        )
        hits, _ = search_w3_examples(cfg)
        assert [f"{hit.id}.manifest" for hit in hits] == files
        for hit, name in zip(hits, files):
            assert "ansatz=two_step" in hit.description
            assert manifest_to_json(hit) == (POOL / name).read_text(encoding="utf-8")


class TestSearch:
    def test_seeded_reproducibility(self):
        cfg = SearchConfig(dim=4, seed=42, max_candidates=200, max_results=3)
        hits1, _ = search_w3_examples(cfg)
        hits2, _ = search_w3_examples(cfg)
        assert len(hits1) == len(hits2) >= 1
        for a, b in zip(hits1, hits2):
            assert a.id == b.id
            assert np.array_equal(a.structure_constants, b.structure_constants)

    def test_dim4_hits_are_nonflat_quasi_kahler(self):
        cfg = SearchConfig(dim=4, seed=42, max_candidates=500, max_results=4)
        hits, stats = search_w3_examples(cfg)
        assert stats.hits == len(hits) >= 1
        for m in hits:
            assert validate_manifold(m).ok
            nJ = compute_nabla_J(gamma_of(m), m.J)
            cls = classify(lower(nJ, m.metric))
            assert cls.label is ClassLabel.QUASI_KAHLER_W3
            assert cls.f_norm > 1e-9
            assert np.max(np.abs(m.structure_constants)) == pytest.approx(1.0)

    def test_dim6_uses_two_step_ansatz(self):
        cfg = SearchConfig(dim=6, seed=7, max_candidates=100, max_results=5)
        hits, stats = search_w3_examples(cfg)
        assert len(hits) >= 1
        assert stats.by_ansatz.get("two_step", 0) > 0

    def test_kahler_target_hits_verified_by_suite(self):
        cfg = SearchConfig(
            dim=4,
            seed=11,
            max_candidates=400,
            max_results=2,
            target=SearchTarget.W3_RPRIME_KAHLER,
        )
        hits, _ = search_w3_examples(cfg)
        assert len(hits) >= 1
        for manifest in hits:
            report = run_suite(manifest)
            assert report.check("BIANCHI_R_PRIME").status == "PASS"
            assert report.check("EQ_2_8").status == "PASS"
            assert report.check("EQ_2_14").status == "PASS"
            assert report.class_label.label is ClassLabel.QUASI_KAHLER_W3

    def test_empty_result_is_not_an_error(self, monkeypatch):
        # this seed's single candidate converges to a hit, so every
        # Gauss-Newton attempt is made to run to the cap instead
        monkeypatch.setattr(search, "GN_MAX_ITERATIONS", 1)
        cfg = SearchConfig(
            dim=6,
            seed=1,
            max_candidates=1,
            max_results=1,
            target=SearchTarget.W3_RPRIME_KAHLER,
        )
        hits, stats = search_w3_examples(cfg)
        assert hits == []
        assert stats.candidates == stats.iteration_cap == 1

    def test_hits_reload_identically(self, tmp_path):
        from norden import load_manifest, save_manifest
        from norden.cli import emit_report

        cfg = SearchConfig(dim=4, seed=5, max_candidates=300, max_results=1)
        hits, _ = search_w3_examples(cfg)
        assert hits
        manifest = hits[0]
        report1 = run_suite(manifest)
        path = save_manifest(manifest, tmp_path / "hit.manifest")
        reloaded = load_manifest(path)
        report2 = run_suite(reloaded)
        assert emit_report(report1, "json") == emit_report(report2, "json")


def _kernel_map(C, kahler):
    """The full Gauss-Newton residual map from the kernels: the Jacobi sum at
    all d**4 entries (the reference `full_jacobi`) and, for the Kahler target,
    the first Bianchi sum of R'."""
    g, J = canonical_norden_pair(C.shape[0])
    parts = [full_jacobi(C).ravel()]
    if kahler:
        gamma = levi_civita(C, g, np.linalg.inv(g))
        conn = gamma + q_array(*twist_arrays(compute_nabla_J(gamma, J), J))
        parts.append(cyclic_sum3(riemann(conn, C, g)).ravel())
    return np.concatenate(parts)


def _polarised_form(dim, basis, kahler):
    """(rows, q) of the generic family in the coordinates of `basis` by
    polarisation of the kernel maps: q[a, b] = (phi(D_a + D_b) - phi(D_a) -
    phi(D_b)) / 2 on the rows whose cyclic indices increase, one batched
    kernel call per direction a.  `jacobi_array` gives the Jacobi rows
    alone."""
    pos = search._positions(dim, search._membership(dim)[0])[0]
    r = basis.shape[1]
    g, J = canonical_norden_pair(dim)
    D = _loop_basis(dim, np.column_stack(np.unravel_index(pos, (dim,) * 3))) @ basis
    D = D.T.reshape(r, dim, dim, dim)
    index = list(itertools.product(range(dim), repeat=4))
    rows = [n for n, (p, i, j, l) in enumerate(index) if i < j < l]
    conn, bianchi = None, [n for n, (i, j, k, l) in enumerate(index) if i < j < k]
    if kahler:
        rows += [dim**4 + n for n in bianchi]
        gamma = levi_civita(D, g, np.linalg.inv(g))
        conn = gamma + q_array(*twist_arrays(compute_nabla_J(gamma, J), J))

    def phi(C, conn):
        parts = [jacobi_array(C).reshape(len(C), -1)]
        if conn is not None:
            R = cyclic_sum3(riemann(conn, C, g), (-4, -3, -2)).reshape(len(C), -1)
            parts.append(R[:, bianchi])
        return np.concatenate(parts, axis=1)

    diag = phi(D, conn)
    q = np.empty((r, r, len(rows)))
    q[np.arange(r), np.arange(r)] = diag
    for a in range(r - 1):
        pair_conn = None if conn is None else conn[a] + conn[a + 1 :]
        pair = phi(D[a] + D[a + 1 :], pair_conn)
        q[a, a + 1 :] = q[a + 1 :, a] = 0.5 * (pair - diag[a] - diag[a + 1 :])
    return np.array(rows), q


FORMS = [(dim, kahler) for dim in (4, 6) for kahler in (False, True)]


@pytest.fixture(params=FORMS, ids=[f"d{d}-{'kahler' if k else 'w3'}" for d, k in FORMS])
def form_case(request):
    dim, kahler = request.param
    form = search._quadratic_form(dim, kahler)
    rng = np.random.default_rng(100 * dim + kahler)
    # off the sphere, so that the sphere row has a residual too
    return form, kahler, rng.uniform(-2.0, 2.0, form.basis.shape[1])


class TestQuadraticForm:
    def test_form_equals_the_kernel_map_on_the_kept_rows(self, form_case):
        form, kahler, z = form_case
        C = form.brackets(z)
        kept = _kernel_map(C, kahler)[form.rows]
        # jacobi_array's entries are the form's Jacobi rows, in their order
        jacobi = jacobi_array(C).ravel()
        assert jacobi.tobytes() == kept[: jacobi.size].tobytes()
        err = np.max(np.abs(z @ _qz(form, z) - kept))
        assert err <= 1e-13 * (1.0 + np.max(np.abs(kept)))

    def test_form_equals_the_polarised_kernel_maps(self, form_case):
        form, kahler, _ = form_case
        rows, q = _polarised_form(form.dim, form.basis, kahler)
        assert np.array_equal(form.rows, rows)
        dense = _dense(form)
        assert np.max(np.abs(dense - q)) <= 1e-15
        assert np.array_equal(dense, dense.transpose(1, 0, 2))

    @pytest.mark.parametrize(
        "dim,kahler,digest",
        [
            (4, False, "d10bdc68f81ef871"),
            (4, True, "93b82949139d0d28"),
            (6, False, "ae65a717699fdbc2"),
            (6, True, "d3a38cfdb3ac80fb"),
            (8, False, "83faa8cb92d2ec50"),
            (8, True, "5d70c3c3a4b207c3"),
        ],
    )
    def test_products_keep_their_digests(self, dim, kahler, digest):
        # sha256 prefixes of the bytes of Q z for three rows z: a random one,
        # the same with -0.0 on every other coordinate, and one of zeros of
        # both signs, whose outputs read -0.0 where the products of all
        # their entries do; how the entries are keyed and levelled must not
        # move a bit
        form = search._quadratic_form(dim, kahler)
        r, K = form.basis.shape[1], form.rows.size
        assert form.gather.shape == (r, K) and form.gather.flags.c_contiguous
        z = np.random.default_rng(dim).uniform(-1.0, 1.0, (3, r))
        z[1, ::2] = -0.0
        z[2] = 0.0
        z[2, ::3] = -0.0
        qz = form.qz(z)
        assert np.signbit(qz[2]).any() and not np.signbit(qz[2]).all()
        assert hashlib.sha256(qz.tobytes()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("dim", (4, 6, 8))
    def test_no_cached_array_as_large_as_a_dense_form(self, dim):
        # 10.1-10.9%, 1.9-3.3% and 0.5-1.2% of Q's entries are nonzero in
        # dims 4, 6 and 8; a dense Q would hold r**2 K
        for kahler in (False, True):
            form = search._quadratic_form(dim, kahler)
            r, K = form.basis.shape[1], form.rows.size
            arrays = [v for v in vars(form).values() if isinstance(v, np.ndarray)]
            assert max(a.size for a in arrays) < r * r * K

    def test_stacked_product_equals_each_row_alone(self, form_case):
        form, _, z = form_case
        rows = np.random.default_rng(7).uniform(-1.0, 1.0, (5, z.size))
        stacked = form.qz(rows)
        for n, row in enumerate(rows):
            assert form.qz(row[None])[0].tobytes() == stacked[n].tobytes()
        # the outputs without entries read +0.0, as in a zeroed array
        empty = form.gather == form.widths[0]
        assert empty.any() and not np.signbit(stacked[:, empty]).any()

    def test_kept_rows_carry_max_abs_and_a_sixth_of_the_squares(self, form_case):
        form, kahler, z = form_case
        d, blocks = form.dim, 2 if kahler else 1
        full = _kernel_map(form.brackets(z), kahler)
        kept = full[form.rows]
        assert full.size == blocks * d**4
        assert kept.size == blocks * math.comb(d, 3) * d
        assert np.max(np.abs(kept)) == pytest.approx(np.max(np.abs(full)), rel=1e-14)
        assert 6.0 * np.sum(kept**2) == pytest.approx(np.sum(full**2), rel=1e-12)

    def test_reduced_step_equals_the_central_difference_step(self, form_case):
        # the sphere row is the linearisation of ||N z||**2 = 1,
        # (2 N.T N z, ||N z||**2 - 1)
        form, kahler, z = form_case
        C = form.brackets(z)
        cols = []
        for e in np.eye(z.size):
            D = form.brackets(e)
            cols.append(0.5 * (_kernel_map(C + D, kahler) - _kernel_map(C - D, kahler)))
        Nz = form.basis @ z
        A = np.vstack([np.array(cols).T, 2.0 * (form.basis.T @ Nz)[None, :]])
        b = np.concatenate([_kernel_map(C, kahler), [Nz @ Nz - 1.0]])
        full_step = np.linalg.lstsq(A, b, rcond=None)[0]
        step = _step(form, z, _qz(form, z))
        assert np.linalg.norm(step - full_step) <= 1e-8 * np.linalg.norm(full_step)

    def test_step_is_the_truncated_least_squares_solution(self, form_case):
        # a generic point: every singular value is far above the damping, which
        # moves the step at the rounding level only
        form, _, z = form_case
        step = _step(form, z, _qz(form, z))
        reference = np.linalg.lstsq(*_weighted_system(form, z), rcond=1e-10)[0]
        assert np.linalg.norm(step - reference) <= 1e-12 * np.linalg.norm(reference)

    @pytest.mark.parametrize("at_residual", [False, True])
    def test_step_is_the_damped_least_squares_solution(self, form_case, at_residual):
        # the least-squares solution of [A; mu I] s = [b; 0], at a generic
        # point and at the two stubs, where the damping matters; at the
        # residual's damping mu is at least ||b||
        generic = form_case[0], form_case[2]
        for form, z in [generic, _cutoff_stub(), _underdetermined_stub()]:
            A, b = _weighted_system(form, z)
            mu = search.GN_DAMPING * np.linalg.norm(A)
            if at_residual:
                mu = max(mu, np.linalg.norm(b))
            augmented = np.vstack([A, mu * np.eye(z.size)]), np.append(b, np.zeros(z.size))
            reference = np.linalg.lstsq(*augmented, rcond=None)[0]
            step = _step(form, z, _qz(form, z), at_residual)
            assert np.linalg.norm(step - reference) <= 1e-12 * np.linalg.norm(reference)

    def test_step_keeps_the_truncated_solution_above_the_damping(self):
        # the directions whose singular value is far above mu are those of
        # the truncated solve
        form, z = _cutoff_stub()
        A, b = _weighted_system(form, z)
        _, s, vt = np.linalg.svd(A)
        assert s[-2] > 1e6 * search.GN_DAMPING * np.linalg.norm(A)
        step = _step(form, z, _qz(form, z))
        reference = np.linalg.lstsq(A, b, rcond=1e-10)[0]
        kept = vt[:-1]
        assert np.linalg.norm(kept @ (step - reference)) <= 1e-12 * np.linalg.norm(reference)
        assert step[1] == pytest.approx(1e-3 / 2, rel=1e-6)

    def test_underdetermined_step_is_the_minimum_norm_solution(self):
        # one row and the sphere row against three unknowns: the stacked
        # matrix is square all the same, and the damped step is the
        # minimum-norm least-squares solution to within mu, with no component
        # along the null space of A
        form, z = _underdetermined_stub()
        A, b = _weighted_system(form, z)
        mu = search.GN_DAMPING * np.linalg.norm(A)
        step = _step(form, z, _qz(form, z))
        reference = np.linalg.lstsq(A, b, rcond=None)[0]
        assert np.linalg.norm(step - reference) <= mu * np.linalg.norm(reference)
        null = np.linalg.svd(A)[2][-1]
        assert abs(null @ step) <= 1e-15 * np.linalg.norm(step)

    def test_step_damps_directions_below_the_damping(self):
        # a direction of singular value sigma < mu is damped by
        # sigma**2 / (sigma**2 + mu**2) against the rounding-level solve,
        # which steps far along it
        form, z = _cutoff_stub()
        A, b = _weighted_system(form, z)
        _, s, vt = np.linalg.svd(A)
        mu = search.GN_DAMPING * np.linalg.norm(A)
        assert np.finfo(float).eps * 2593 * s[0] < s[-1] < mu
        step = _step(form, z, _qz(form, z))
        kept = np.linalg.lstsq(A, b, rcond=None)[0]
        damping = s[-1] ** 2 / (s[-1] ** 2 + mu**2)
        assert vt[-1] @ step == pytest.approx(damping * (vt[-1] @ kept), rel=1e-6)
        assert abs(vt[-1] @ step) < 1e-2 * abs(vt[-1] @ kept)

    def test_one_form_product_per_iteration(self):
        # rows multiplied: one Q z per candidate that enters, at its start,
        # one Q s per step s, and one direct Q z whenever the carried residual
        # reads converged; that confirmation either passes and ends the
        # candidate or fails and the iteration goes on
        form = _LoggingForm(search._quadratic_form(6, True))
        stats = SearchStats()
        entered = 12
        ended, _ = _run_batch(form, [np.random.default_rng(42)] * entered, stats)
        assert len(ended) == entered
        direct = [phi for kind, phi in form.log if kind == "z"]
        assert len(form.log) - len(direct) == stats.gn_iterations
        # the starts come first: every candidate enters before the first round
        assert [kind for kind, _ in form.log[:entered]] == ["z"] * entered
        confirmations = direct[entered:]
        failed = sum(phi >= search.GN_CONVERGENCE for phi in confirmations)
        converged = sum(C is not None for C, _ in ended.values())
        assert len(confirmations) == failed + converged
        assert converged > 0
        assert len(form.log) == stats.gn_iterations + entered + len(confirmations)


def _qz(form, z):
    """Q z of the single candidate z, as a batch of one."""
    return form.qz(z[None])[0]


def _step(form, z, qz, at_residual=False):
    """The Gauss-Newton step of the single candidate z, as a batch of one."""
    return form.step(
        z[None], (form.gram @ z)[None], qz[None], (z @ qz)[None], at_residual
    )[0]


def _dense(form):
    """Q of `form` as a dense array q[a, b, k] = Q[e_a, e_b] on kept row k,
    from its levels."""
    r, K = form.basis.shape[1], form.rows.size
    slot, gather = form.widths[0], form.gather.ravel()
    outputs = np.empty(slot, dtype=int)  # of level 0, in order
    outputs[gather[gather < slot]] = np.flatnonzero(gather < slot)
    assert np.array_equal(np.sort(outputs), np.flatnonzero(gather < slot))
    assert form.cols[slot] == 0 and form.values[slot] == 0.0
    q, start = np.zeros((r, r * K)), 0
    for j, width in enumerate(form.widths):
        q[form.cols[start : start + width], outputs[:width]] = form.values[
            start : start + width
        ]
        start += width + (j == 0)  # and the slot after level 0
    return q.reshape(r, r, K)


def _stub_form(q):
    """The form with the dense Q q[a, b, k] on r <= 4 triples of dimension 2
    whose brackets are the coordinates: N is the identity, so the sphere
    ||N z|| = 1 is ||z|| = 1, and C(z) holds z and -z.  Its product is the
    scatter-add."""
    r, _, K = q.shape
    k, b, a = np.nonzero(q.transpose(2, 1, 0))  # in ascending order of key
    return search.QuadraticForm(
        2, np.arange(r), r + np.arange(r), np.eye(r), np.eye(r), np.eye(r),
        np.arange(K), *search._levels(r, K, (k * r + b) * r + a, q[a, b, k]),
    )


_COUNTERS = ("gn_iterations", "stalled", "iteration_cap")


def _run_batch(form, draws, stats):
    """Runs one Gauss-Newton candidate per generator of `draws` (drawn in
    order) as one lockstep batch.  Returns {tag: (brackets or None, the round
    it ended in)} for the candidates that entered, and the `_COUNTERS` that
    each round added."""
    batch = search._Lockstep(form)
    for tag, rng in enumerate(draws):
        batch.add(tag, rng)
    ended, added = {}, []
    while batch:
        before = [getattr(stats, name) for name in _COUNTERS]
        for tag, C in batch.round(stats):
            ended[tag] = (C, len(added) + 1)
        added.append(np.subtract([getattr(stats, name) for name in _COUNTERS], before))
    return ended, added


def _alone(rng, form, stats):
    """Brackets of one candidate run alone, or None."""
    ended, _ = _run_batch(form, [rng], stats)
    return ended.get(0, (None, 0))[0]


def _weighted_system(form, z):
    """The weighted Gauss-Newton system (A, b) of `form` at z on the sphere
    ||N z|| = 1, written out."""
    qz, Nz = _qz(form, z), form.basis @ z
    A = np.vstack([np.sqrt(6.0) * 2.0 * qz.T, 2.0 * (form.basis.T @ Nz)[None, :]])
    b = np.concatenate([np.sqrt(6.0) * (z @ qz), [Nz @ Nz - 1.0]])
    return A, b


def _cutoff_stub():
    """(form, z): at z = e_0 on the sphere the weighted Jacobian rows are
    (h, 1, 0) and (h, 0, eps2), the right-hand side is (h, h) / 2, and with
    the sphere row (2, 0, 0) the smallest singular value is about eps2,
    along about e_2: between the rounding-level cutoff of the dim-6 Kahler
    map (eps * 2593, about 6e-13) and the damping GN_DAMPING ||A||_F."""
    eps2, h = 1e-11, 1e-3
    q = np.zeros((3, 3, 2))
    q[0, 0] = [h, h]
    q[0, 1, 0] = q[1, 0, 0] = 1.0
    q[0, 2, 1] = q[2, 0, 1] = eps2
    return _stub_form(q / (2.0 * np.sqrt(6.0))), np.eye(3)[0]


def _underdetermined_stub():
    """(form, z): one row and the sphere row against three unknowns, so A
    is 2 x 3."""
    q = np.zeros((3, 3, 1))
    q[1, 1, 0] = q[2, 2, 0] = 1.0
    return _stub_form(q), np.array([1.0, 0.5, 0.25])


class _LoggingForm:
    """`form` that logs its products row by row, ("step", None) for Q s with
    the plain steps s it last returned and ("z", max|phi(z)|) for any other
    product Q z, keeps every z it turns into brackets (the converged points)
    and the candidates z of every step it solves at the residual's damping
    (`resolved`)."""

    def __init__(self, form):
        self.form, self.log, self.last_step = form, [], None
        self.converged, self.resolved = [], []

    def brackets(self, z):
        self.converged.append(z)
        return self.form.brackets(z)

    def __getattr__(self, name):
        return getattr(self.form, name)

    def step(self, z, gz, qz, f, at_residual=False):
        step = self.form.step(z, gz, qz, f, at_residual)
        if at_residual:
            self.resolved.append(z.copy())
        else:  # the round writes the steps solved again into this array
            self.last_step = step
        return step

    def qz(self, z):
        """Logs one entry per row (candidate) of the batch z."""
        qz = self.form.qz(z)
        if z is self.last_step:
            self.log += [("step", None)] * len(z)
        else:
            self.log += [("z", np.max(np.abs(z_n @ qz_n))) for z_n, qz_n in zip(z, qz)]
        return qz


class FixedDraws:
    """Stands in for the generator: uniform() draws `offset` e_0 + `scale`
    e_1."""

    def __init__(self, scale, offset=0.0):
        self.scale, self.offset = scale, offset

    def uniform(self, low, high, size):
        return self.offset * np.eye(size)[0] + self.scale * np.eye(size)[1]


def _failures(stats):
    return stats.stalled + stats.iteration_cap + stats.collapsed


def _rejections(stats):
    return stats.rejected_class + stats.rejected_jacobi + stats.rejected_invalid


class TestSearchStats:
    @pytest.mark.parametrize(
        "dim,seed,n,target",
        [
            (4, 201, 16, SearchTarget.W3),
            (4, 42, 8, SearchTarget.W3),
            (4, 103, 3, SearchTarget.W3_RPRIME_KAHLER),
            (6, 7, 5, SearchTarget.W3),
        ],
    )
    def test_every_candidate_is_counted_once(self, dim, seed, n, target):
        cfg = SearchConfig(
            dim=dim, seed=seed, max_candidates=40 * n, max_results=n, target=target
        )
        hits, stats = search_w3_examples(cfg)
        assert stats.hits == len(hits)
        assert stats.candidates == stats.converged + _failures(stats)
        assert stats.converged == stats.hits + _rejections(stats)

    def test_counters_name_the_failures(self, monkeypatch):
        # no candidate of this search stalls or reaches the cap of 120 steps;
        # with the cap at 8 steps the slower ones reach it
        monkeypatch.setattr(search, "GN_MAX_ITERATIONS", 8)
        cfg = SearchConfig(dim=4, seed=201, max_candidates=640, max_results=16)
        _, stats = search_w3_examples(cfg)
        assert stats.candidates > stats.converged > stats.hits
        assert _failures(stats) == stats.iteration_cap > 0 and stats.rejected_class > 0

    def test_two_step_collapse(self):
        stats = SearchStats()
        family = search._two_step_family(6, search._two_step_centres(6)[0][0])
        assert search._two_step_candidate(FixedDraws(0.0), 6, family, stats) is None
        assert stats.collapsed == 1

    def test_validation_failures_are_split_by_invariant(self):
        cfg = SearchConfig(dim=4)
        stats = SearchStats()
        not_antisymmetric = np.zeros((4, 4, 4))
        not_antisymmetric[1, 0, 0] = 1.0  # C[m][1][l] = 0, so the Jacobi sum vanishes
        not_jacobi = np.zeros((4, 4, 4))  # Jacobi residual 2
        for k, i, j in ((1, 0, 1), (2, 1, 2), (0, 2, 0), (0, 1, 2)):
            not_jacobi[k, i, j], not_jacobi[k, j, i] = 1.0, -1.0
        stack = np.stack([not_antisymmetric, not_jacobi])
        assert search._accept(stack, cfg, stats) == [False, False]
        assert (stats.rejected_invalid, stats.rejected_jacobi) == (1, 1)


def _judge_alone(C, cfg, stats):
    """The verdict on brackets C alone through the single-manifold path of
    the engine (`validate_manifold`, `classify`, `bianchi_residual`): the
    manifold, or None after counting the rejection in `stats`."""
    g, J = canonical_norden_pair(cfg.dim)
    m = LieFrameManifold(dim=cfg.dim, structure_constants=C, metric=g, J=J)
    outcome = validate_manifold(m)
    if not outcome.ok:
        if any(v.name == "Jacobi identity" for v in outcome.violations):
            stats.rejected_jacobi += 1
        else:
            stats.rejected_invalid += 1
        return None
    gamma = levi_civita(C, g, m.metric_inv)
    nJ = compute_nabla_J(gamma, J)
    cls = classify(lower(nJ, g), cfg.tolerance)
    if cls.label is not ClassLabel.QUASI_KAHLER_W3:
        stats.rejected_class += 1
        return None
    if cfg.target is SearchTarget.W3_RPRIME_KAHLER:
        conn = gamma + q_array(*twist_arrays(nJ, J))
        if bianchi_residual(riemann(conn, C, g)) > cfg.tolerance:
            stats.rejected_class += 1
            return None
    return m


def _bundled_brackets(name):
    return load_manifest(bundled_manifest_path(name)).structure_constants


class TestStackedAcceptance:
    """`_accept` judges a stack of brackets as judging each entry alone
    through the single-manifold path would."""

    def _mixed_stack_4(self, other_class_4):
        not_antisymmetric = np.zeros((4, 4, 4))
        not_antisymmetric[1, 0, 0] = 1.0
        not_jacobi = np.zeros((4, 4, 4))  # Jacobi residual 2
        for k, i, j in ((1, 0, 1), (2, 1, 2), (0, 2, 0), (0, 1, 2)):
            not_jacobi[k, i, j], not_jacobi[k, j, i] = 1.0, -1.0
        return np.stack(
            [
                not_antisymmetric,
                not_jacobi,
                _bundled_brackets("flat_kahler_4"),  # W0
                other_class_4.structure_constants,  # OTHER
                _bundled_brackets("w3_generic_4"),  # W3, R' Bianchi residual 0.13
                _bundled_brackets("w3_kahler_rprime_4"),  # W3, Kahler R'
            ]
        )

    @pytest.mark.parametrize(
        "target,hits",
        [
            (SearchTarget.W3, [4, 5]),
            (SearchTarget.W3_RPRIME_KAHLER, [5]),
        ],
    )
    def test_mixed_stack_equals_one_by_one(self, other_class_4, target, hits):
        cfg = SearchConfig(dim=4, target=target)
        stack = self._mixed_stack_4(other_class_4)
        alone_stats = SearchStats()
        alone = [_judge_alone(C, cfg, alone_stats) for C in stack]
        stats = SearchStats()
        stacked = search._accept(stack, cfg, stats)
        assert [k for k, hit in enumerate(stacked) if hit] == hits
        assert stacked == [m is not None for m in alone]
        assert stats == alone_stats
        assert (stats.rejected_invalid, stats.rejected_jacobi) == (1, 1)
        assert stats.rejected_class == 6 - 2 - len(hits)


def test_twist_pair_computed_once(
    monkeypatch, flat4, two_step_6, other_class_4, other_class_6
):
    """`build_context` computes the twist pair of nabla J once per manifold;
    `_accept` computes it only for the R' gate of the Kahler target, once per
    stack that holds a W3 entry."""
    calls = []

    def counted(nJ, J):
        calls.append(nJ.shape)
        return twist_arrays(nJ, J)

    monkeypatch.setattr(geometry, "twist_arrays", counted)
    monkeypatch.setattr(search, "twist_arrays", counted)
    for m in (flat4, two_step_6, other_class_6):
        calls.clear()
        build_context(m)
        assert len(calls) == 1, m
    stack = np.stack(
        [
            _bundled_brackets("flat_kahler_4"),  # W0
            other_class_4.structure_constants,  # OTHER
            _bundled_brackets("w3_generic_4"),  # W3
            _bundled_brackets("w3_kahler_rprime_4"),  # W3
        ]
    )
    for target, entries, want in (
        (SearchTarget.W3, 4, 0),
        (SearchTarget.W3_RPRIME_KAHLER, 4, 1),
        (SearchTarget.W3_RPRIME_KAHLER, 2, 0),  # no W3 entry
    ):
        calls.clear()
        search._accept(stack[:entries], SearchConfig(dim=4, target=target), SearchStats())
        assert len(calls) == want, (target, entries)


# the kernels `build_context` calls, each by the module attribute it reads
_CONTEXT_KERNELS = (
    (suite, "levi_civita"),
    (geometry, "compute_nabla_J"),
    (geometry, "twist_arrays"),
    (curvature, "riemann"),
    (curvature, "symmetry_panel"),
    (curvature, "ricci_and_scalars"),
    (curvature, "metric_pairing"),
    (geometry, "metric_trace"),
    (suite, "covariant_derivative"),
)


def test_kernel_calls_per_context(
    monkeypatch, flat4, kahler_rprime_4, two_step_6, other_class_6
):
    """One pass per manifold: on W0/W3 R, R', P and H are built once each
    (R and R' by `riemann`, P from the one qq of `metric_pairing`) and
    judged with one symmetry panel and one call for their scalars; class
    OTHER builds and judges R alone and takes no scalars."""
    calls = {}

    def counted(name, kernel):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return kernel(*args, **kwargs)

        return wrapper

    for module, name in _CONTEXT_KERNELS:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    w3 = {
        "levi_civita": 1, "compute_nabla_J": 2, "twist_arrays": 1, "riemann": 2,
        "symmetry_panel": 1, "ricci_and_scalars": 1, "metric_pairing": 3,
        "metric_trace": 4, "covariant_derivative": 4,
    }
    other = {
        "levi_civita": 1, "compute_nabla_J": 1, "twist_arrays": 1, "riemann": 1,
        "symmetry_panel": 1, "covariant_derivative": 1,
    }
    cases = ((flat4, w3), (kahler_rprime_4, w3), (two_step_6, w3), (other_class_6, other))
    for m, want in cases:
        calls.clear()
        build_context(m)
        assert calls == want, m


def _root_form():
    """phi(z) = z_1**2, one row: on the unit circle ||N z|| = ||z|| = 1 the
    root z_1 = 0 is singular, and the plain Gauss-Newton step and the
    retraction map the slope t = z_1 / z_0 to t / (2 + t**2)."""
    q = np.zeros((2, 2, 1))
    q[1, 1, 0] = 1.0
    return _stub_form(q)


class _ScaledSteps:
    """`form` with every Gauss-Newton step scaled so that the full step
    multiplies z_1 by sqrt(`rate`), and so phi(z) = z_1**2 by `rate` up to
    the retraction's factor 1 + O(phi)."""

    def __init__(self, form, rate):
        self.form, self.factor = form, 2.0 * (1.0 - math.sqrt(rate))

    def __getattr__(self, name):
        return getattr(self.form, name)

    def step(self, z, gz, qz, f, at_residual=False):
        return self.factor * self.form.step(z, gz, qz, f, at_residual)


class TestFloorStop:
    """No candidate is stopped at a rounding floor: a slow root either
    converges or runs to GN_MAX_ITERATIONS, like any other candidate."""

    def _run(self, form, phi_start):
        # start (1, sqrt(phi_start)) on the unit circle: max|phi| =
        # phi_start / (1 + phi_start)
        stats = SearchStats()
        draws = FixedDraws(math.sqrt(phi_start), offset=1.0)
        return _alone(draws, form, stats), stats

    def test_creeping_above_the_floor_runs_to_the_cap(self):
        # max|phi| about 1e-6, falling 0.2% per iteration
        C, stats = self._run(_ScaledSteps(_root_form(), 0.998), 1e-6)
        assert C is None
        assert stats.iteration_cap == 1
        assert stats.gn_iterations == search.GN_MAX_ITERATIONS

    @pytest.mark.parametrize("rate", [0.93, 0.94])
    def test_linear_root_converges(self, rate):
        # from 5e-11, max|phi| reaches GN_CONVERGENCE in 86 and 101 steps
        # (the floor stop this search had cut the 0.94 root after 10)
        C, stats = self._run(_ScaledSteps(_root_form(), rate), 5e-11)
        assert C is not None
        assert stats.iteration_cap == stats.stalled == 0
        expected = math.ceil(math.log(5e-11 / search.GN_CONVERGENCE) / -math.log(rate))
        assert stats.gn_iterations == expected

    @pytest.mark.parametrize("phi_start", [1.0, 1e-10])
    def test_singular_root_converges(self, phi_start):
        # the plain step maps the slope t to t / (2 + t**2), so max|phi| =
        # t**2 / (1 + t**2) falls about fourfold per iteration
        C, stats = self._run(_root_form(), phi_start)
        assert C is not None and C.shape == (2, 2, 2)
        assert stats.iteration_cap == stats.stalled == 0
        t, expected = math.sqrt(phi_start), 0
        while t * t / (1.0 + t * t) >= search.GN_CONVERGENCE:
            t, expected = t / (2.0 + t * t), expected + 1
        assert stats.gn_iterations == expected


class _BiasedStepProducts(_LoggingForm):
    """`form` whose products Q s with its own steps s come back `factor`
    times too large, so that the residual carried by linearity drifts from
    the direct one."""

    def __init__(self, form, factor):
        super().__init__(form)
        self.factor = factor

    def qz(self, z):
        bias = self.factor if z is self.last_step else 1.0
        return bias * super().qz(z)


class TestCarriedResidual:
    """Q z is carried by linearity from step to step; convergence is judged
    on a direct product."""

    def test_converged_candidates_meet_the_threshold_directly(self, monkeypatch):
        form = _LoggingForm(search._quadratic_form(6, True))
        monkeypatch.setattr(search, "_quadratic_form", lambda dim, kahler: form)
        cfg = SearchConfig(
            dim=6,
            seed=42,
            max_candidates=240,
            max_results=3,
            target=SearchTarget.W3_RPRIME_KAHLER,
        )
        hits, stats = search_w3_examples(cfg)
        assert len(hits) == 3
        assert len(form.converged) == stats.converged
        for z in form.converged:
            assert np.max(np.abs(z @ _qz(form.form, z))) < search.GN_CONVERGENCE

    def test_a_failed_confirmation_keeps_iterating(self):
        # phi(z) = z_1**2 from 1e-12, and each step halves z_1 (to within
        # 1e-12); with the step products 1.8 times too large the carried
        # max|phi| reads 5e-14 after the first step, the direct one 2.5e-13,
        # and the second step converges (6.25e-14 directly)
        form = _BiasedStepProducts(_root_form(), 1.8)
        stats = SearchStats()
        draws = FixedDraws(1e-6, offset=1.0)  # (1, 1e-6) on the unit circle
        assert _alone(draws, form, stats) is not None
        assert stats.gn_iterations == 2
        assert [kind for kind, _ in form.log] == ["z", "step", "z", "step", "z"]
        direct = [phi for kind, phi in form.log if kind == "z"]
        assert direct == pytest.approx([1e-12, 2.5e-13, 6.25e-14], rel=1e-12)


class TestLockstep:
    """A candidate does the same arithmetic alone and in a batch: the same
    brackets bit for bit, the same end round, and in every round the
    counters of the batch are the sums of its candidates' counters alone."""

    def _compare(self, form, draws_alone, draws_together):
        alone, alone_stats = [], SearchStats()
        for tag, rng in enumerate(draws_alone):
            ended, added = _run_batch(form, [rng], alone_stats)
            alone.append((ended.get(0), added))
        stats = SearchStats()
        ended, added = _run_batch(form, draws_together, stats)
        assert sorted(ended) == [tag for tag, (outcome, _) in enumerate(alone) if outcome]
        for tag, (C, end) in ended.items():
            C_alone, end_alone = alone[tag][0]
            assert end == end_alone
            assert (C is None) == (C_alone is None)
            assert C is None or C.tobytes() == C_alone.tobytes()
        for t, counters in enumerate(added):
            per_candidate = [rounds[t] for _, rounds in alone if t < len(rounds)]
            assert counters.tolist() == np.sum(per_candidate, axis=0).tolist()
        # a round counts when some candidate steps in it
        assert stats.gn_rounds == sum(counters[0] > 0 for counters in added)
        assert stats.gn_rounds < stats.gn_iterations  # the batch ran wide
        return stats, sum(C is not None for C, _ in ended.values())

    def test_stub_mates_that_converge_early_or_hit_the_cap(self):
        # 86 steps, the cap (222 would be needed) and converged at the start
        form = _ScaledSteps(_root_form(), 0.93)
        draws = [FixedDraws(math.sqrt(phi), offset=1.0) for phi in (5e-11, 1e-6, 0.0)]
        stats, converged = self._compare(form, draws, draws)
        assert (stats.iteration_cap, converged) == (1, 2)
        assert stats.gn_iterations == 86 + search.GN_MAX_ITERATIONS

    @pytest.mark.parametrize(
        "kahler,seed,n,failure",
        [(False, 201, 32, "iteration_cap"), (True, 103, 13, "stalled")],
    )
    def test_dim4_mates_that_stall_or_hit_the_cap(
        self, kahler, seed, n, failure, monkeypatch
    ):
        # the first n candidates of these seeds, drawn in the same order; on
        # the sphere none of them stalls or reaches the cap of 120 steps, so
        # the cap is set to 8 steps, which the slower ones reach while the
        # others converge, or the candidates with z_1 < 0 step uphill
        form = search._quadratic_form(4, kahler)
        if failure == "iteration_cap":
            monkeypatch.setattr(search, "GN_MAX_ITERATIONS", 8)
        else:
            form = _UphillBelowAxis(form)
        alone = [np.random.default_rng(seed)] * n
        stats, converged = self._compare(form, alone, [np.random.default_rng(seed)] * n)
        assert getattr(stats, failure) > 0 and converged > 0

    def test_only_a_step_longer_than_the_radius_is_solved_again(self):
        # at slope 10 on the unit circle the plain step of phi = z_1**2 has
        # length 5, at slope 1e-3 about 5e-4; only the first is solved again,
        # at the residual's damping, and its mate steps as alone
        long, mate = FixedDraws(10.0, offset=1.0), FixedDraws(1e-3, offset=1.0)
        form = _LoggingForm(_root_form())
        mate_ends, mate_iterates = _iterates(form, [mate])
        assert form.resolved == []
        ends, iterates = _iterates(form, [long, mate])
        assert form.resolved
        long_iterates = [z.tobytes() for z in iterates[0]]
        for z in form.resolved:
            assert z.shape == (1, 2) and z[0].tobytes() in long_iterates
        assert [z.tobytes() for z in iterates[1]] == [z.tobytes() for z in mate_iterates[0]]
        assert ends[1].tobytes() == mate_ends[0].tobytes()
        assert ends[0] is not None  # the long candidate converges too

    @pytest.mark.parametrize("seed", [0, 1])
    def test_benchmark_kahler_searches_solve_no_step_again(self, seed, monkeypatch):
        # the dim-6 Kahler-R' searches of the benchmark's search_kahler_gn
        # workload take no step longer than the sphere's radius, so their
        # hits are those of the plain damped step
        form = _LoggingForm(search._quadratic_form(6, True))
        monkeypatch.setattr(search, "_quadratic_form", lambda dim, kahler: form)
        cfg = SearchConfig(
            dim=6, seed=seed, max_candidates=40, max_results=1,
            target=SearchTarget.W3_RPRIME_KAHLER,
        )
        hits, stats = search_w3_examples(cfg)
        assert len(hits) == 1 and stats.gn_iterations > 0
        assert form.resolved == []


def _iterates(form, draws):
    """Runs one Gauss-Newton candidate per generator of `draws` as one
    lockstep batch.  Returns {tag: brackets or None} of the candidates that
    ended, and {tag: its z at the start and after each round that it went
    on}."""
    batch, stats = search._Lockstep(form), SearchStats()
    for tag, rng in enumerate(draws):
        batch.add(tag, rng)
    batch.enter()
    ends, iterates = {}, {tag: [z.copy()] for tag, z in enumerate(batch.z)}
    while batch:
        for tag, C in batch.round(stats):
            ends[tag] = C
        for tag, z in zip(batch.tags, batch.z):
            iterates[tag].append(z.copy())
    return ends, iterates


class _UphillBelowAxis:
    """`form` whose candidates with z_1 < 0 take the reversed step, which
    raises max|phi| to first order, so they stall."""

    def __init__(self, form):
        self.form = form

    def __getattr__(self, name):
        return getattr(self.form, name)

    def step(self, z, gz, qz, f, at_residual=False):
        sign = np.where(z[:, 1:2] < 0.0, -1.0, 1.0)
        return sign * self.form.step(z, gz, qz, f, at_residual)


class TestSphere:
    """Every Gauss-Newton candidate stays on the unit sphere ||N z|| = 1,
    where ||C(z)||_F**2 = 2, and the retraction keeps the carried N.T N z and
    Q z equal to direct products."""

    @pytest.mark.parametrize(
        "dim,kahler,seed,n", [(4, False, 201, 23), (4, True, 103, 6), (6, True, 42, 3)]
    )
    def test_every_round_leaves_its_candidates_on_the_sphere(self, dim, kahler, seed, n):
        # the candidates of these searches, drawn in the same order
        form = search._quadratic_form(dim, kahler)
        batch, stats = search._Lockstep(form), SearchStats()
        rng = np.random.default_rng(seed)
        for tag in range(n):
            batch.add(tag, rng)
        batch.enter()  # the start points, checked before the first round
        checked = 0
        while batch:
            for z, gz, qz in zip(batch.z, batch.gz, batch.qz):
                assert abs(np.linalg.norm(form.basis @ z) - 1.0) <= 1e-14
                assert np.max(np.abs(gz - form.gram @ z)) <= 1e-14 * np.max(np.abs(gz))
                direct = _qz(form, z)
                assert np.max(np.abs(qz - direct)) <= 1e-13 * np.max(np.abs(direct))
                C = form.brackets(z)
                assert np.sum(C * C) == pytest.approx(2.0, rel=1e-13)
                checked += 1
            batch.round(stats)
        assert checked == stats.gn_iterations + n


class _OtherAt:
    """Stands in for `_two_step_candidate`: it draws as that does, but for
    the candidates in `at` returns the class-OTHER brackets `other` in place
    of the draw, and it logs the candidates it is called for (the driver
    counts a candidate before drawing it)."""

    def __init__(self, at, other):
        self.at, self.other, self.entered = set(at), other, []
        self.draw = search._two_step_candidate

    def __call__(self, rng, dim, family, stats):
        j = stats.candidates - 1
        self.entered.append(j)
        C = self.draw(rng, dim, family, stats)
        return self.other if j in self.at else C


def _one_at_a_time(cfg, two_step):
    """Reference search that runs one candidate at a time, in the search's
    plan and draw order, and judges each alone as soon as it ends.  Returns
    (the Gauss-Newton candidates entered, the hits' brackets, stats)."""
    rng = np.random.default_rng(cfg.seed)
    stats = SearchStats()
    plan = [("two_step", Z) for Z, _ in search._two_step_centres(cfg.dim)]
    plan.append(("gauss_newton", None))
    gauss_newton, hits = [], []
    while stats.candidates < cfg.max_candidates and stats.hits < cfg.max_results:
        j = stats.candidates
        kind, Z = plan[j % len(plan)]
        stats.candidates += 1
        stats.by_ansatz[kind] = stats.by_ansatz.get(kind, 0) + 1
        if kind == "two_step":
            C = two_step(rng, cfg.dim, search._two_step_family(cfg.dim, Z), stats)
        else:
            gauss_newton.append(j)
            C = _alone(rng, search._quadratic_form(cfg.dim, False), stats)
        if C is None:
            continue
        stats.converged += 1
        m = _judge_alone(C, cfg, stats)
        if m is not None:
            stats.hits += 1
            hits.append(m.structure_constants)
    return gauss_newton, hits, stats


class TestSequentialSemantics:
    """The lockstep search runs exactly the candidates that a search running
    one candidate at a time runs, and returns their hits in candidate order."""

    def _search(self, dim=4, seed=42, **kw):
        return search_w3_examples(SearchConfig(dim=dim, seed=seed, **kw))

    def _assert_prefix(self, dim, seed):
        short, stats = self._search(dim, seed, max_results=3, max_candidates=120)
        long, _ = self._search(dim, seed, max_results=8, max_candidates=320)
        assert len(short) == 3 and len(long) == 8
        assert [manifest_to_json(h) for h in short] == [
            manifest_to_json(h) for h in long[:3]
        ]
        # the last candidate made the last hit: one fewer yields one fewer
        fewer, _ = self._search(
            dim, seed, max_results=3, max_candidates=stats.candidates - 1
        )
        assert [manifest_to_json(h) for h in fewer] == [
            manifest_to_json(h) for h in short[:2]
        ]

    def test_fewer_results_are_a_prefix_of_more(self):
        self._assert_prefix(4, 42)

    def test_fewer_two_step_results_are_a_prefix_of_more(self):
        # dim 6 draws two-step candidates only (17 families come before the
        # first Gauss-Newton candidate); they wait to be judged as a stack
        self._assert_prefix(6, 202)

    @pytest.mark.parametrize(
        "rejected", [(1, 2, 5), tuple(j for j in range(17) if j != 3)]
    )
    def test_deferred_two_step_entry(self, rejected, other_class_6, monkeypatch):
        # no real two-step candidate is rejected, so the stub turns the
        # candidates `rejected` into class-OTHER brackets; with the second
        # set the search reaches candidate 17, a Gauss-Newton one, and judges
        # two-step mates while it runs
        cfg = SearchConfig(dim=6, seed=7, max_candidates=100, max_results=5)
        other = other_class_6.structure_constants
        ref_two_step = _OtherAt(rejected, other)
        ref_gauss_newton, ref_hits, ref_stats = _one_at_a_time(cfg, ref_two_step)

        two_step = _OtherAt(rejected, other)
        monkeypatch.setattr(search, "_two_step_candidate", two_step)
        gauss_newton = []
        add = search._Lockstep.add

        def logged(self, tag, rng):
            gauss_newton.append(tag)
            add(self, tag, rng)

        monkeypatch.setattr(search._Lockstep, "add", logged)
        hits, stats = search_w3_examples(cfg)

        assert two_step.entered == ref_two_step.entered
        assert gauss_newton == ref_gauss_newton
        assert [h.structure_constants.tobytes() for h in hits] == [
            C.tobytes() for C in ref_hits
        ]
        # lockstep rounds may hold several candidates; every other counter
        # is a sum over candidates
        assert stats.gn_rounds <= stats.gn_iterations
        stats.gn_rounds = ref_stats.gn_rounds
        stats.elapsed = ref_stats.elapsed
        assert stats == ref_stats
        assert stats.rejected_class == len(rejected)
        assert gauss_newton == ([17] if len(rejected) > 3 else [])

    def test_no_candidate_past_the_budget(self, monkeypatch):
        tags = []
        add = search._Lockstep.add

        def logged(self, tag, rng):
            tags.append(tag)
            add(self, tag, rng)

        monkeypatch.setattr(search._Lockstep, "add", logged)
        cfg = SearchConfig(dim=4, seed=201, max_results=16, max_candidates=10)
        hits, stats = search_w3_examples(cfg)
        assert tags == list(range(10))
        assert stats.candidates == 10 == stats.converged + _failures(stats)
        full, _ = search_w3_examples(replace(cfg, max_candidates=640))
        assert 0 < len(hits) < len(full)
        assert [manifest_to_json(h) for h in hits] == [
            manifest_to_json(h) for h in full[: len(hits)]
        ]
