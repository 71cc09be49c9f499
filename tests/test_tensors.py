"""Tensor arithmetic against independent nested-loop oracles."""

import itertools

import numpy as np
import pytest

from norden.tensors import (
    DenseTensor,
    contract,
    cyclic_sum3,
    residual,
    scalar_residual,
)


def loop_contract(arr, slot_a, slot_b, metric_inv):
    """Naive nested-loop contraction oracle."""
    dim = arr.shape[0]
    rank = arr.ndim
    out_rank = rank - 2
    out = np.zeros((dim,) * out_rank)
    free = [s for s in range(rank) if s not in (slot_a, slot_b)]
    for out_idx in itertools.product(range(dim), repeat=out_rank):
        acc = 0.0
        for a in range(dim):
            for b in range(dim):
                full = [0] * rank
                for pos, s in enumerate(free):
                    full[s] = out_idx[pos]
                full[slot_a] = a
                full[slot_b] = b
                acc += metric_inv[a][b] * arr[tuple(full)]
        out[out_idx] = acc
    return out


def loop_cyclic3(arr, slots):
    """Permutation-loop oracle for the cyclic sum over three slots."""
    dim = arr.shape[0]
    rank = arr.ndim
    a, b, c = slots
    out = np.zeros_like(arr)
    for idx in itertools.product(range(dim), repeat=rank):
        idx2 = list(idx)
        idx2[a], idx2[b], idx2[c] = idx[b], idx[c], idx[a]
        idx3 = list(idx)
        idx3[a], idx3[b], idx3[c] = idx[c], idx[a], idx[b]
        out[idx] = arr[idx] + arr[tuple(idx2)] + arr[tuple(idx3)]
    return out


class TestContract:
    def test_trace_of_identity(self):
        t = DenseTensor.from_array(np.eye(4))
        out = contract(t, 0, 1, np.eye(4))
        assert out.rank == 0
        assert out.components == pytest.approx(4.0)

    def test_metric_against_its_inverse(self):
        g = np.diag([1.0, 1.0, -1.0, -1.0])
        out = contract(DenseTensor.from_array(g), 0, 1, g)  # g is its own inverse
        assert out.components == pytest.approx(4.0)

    def test_matches_loop_oracle_rank4(self):
        rng = np.random.default_rng(7)
        for _ in range(12):
            arr = rng.standard_normal((4,) * 4)
            minv = rng.standard_normal((4, 4))
            minv = 0.5 * (minv + minv.T)
            sa, sb = rng.choice(4, size=2, replace=False)
            got = contract(DenseTensor.from_array(arr), int(sa), int(sb), minv)
            want = loop_contract(arr, int(sa), int(sb), minv)
            assert np.max(np.abs(got.components - want)) <= 1e-13

    def test_bilinear_in_tensor_and_metric(self):
        rng = np.random.default_rng(8)
        arr = rng.standard_normal((4, 4, 4))
        minv = rng.standard_normal((4, 4))
        t = DenseTensor.from_array(arr)
        lhs = contract(DenseTensor.from_array(2.5 * arr), 0, 2, minv)
        rhs = 2.5 * contract(t, 0, 2, minv).components
        assert residual(lhs.components, rhs) <= 1e-12
        lhs2 = contract(t, 0, 2, 3.0 * minv)
        assert residual(lhs2.components, 3.0 * contract(t, 0, 2, minv).components) <= 1e-12

    def test_identity_metric_is_plain_trace(self):
        rng = np.random.default_rng(9)
        arr = rng.standard_normal((5, 5, 5))
        got = contract(DenseTensor.from_array(arr), 0, 2, np.eye(5))
        want = np.einsum("aja->j", arr)
        assert np.allclose(got.components, want, atol=1e-14)

    def test_argument_errors(self):
        t = DenseTensor.from_array(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            contract(t, 0, 2, np.eye(3))
        with pytest.raises(ValueError):
            contract(t, 1, 1, np.eye(3))
        with pytest.raises(ValueError):
            contract(DenseTensor.from_array(np.zeros(3)), 0, 1, np.eye(3))
        with pytest.raises(ValueError):
            contract(t, 0, 1, np.eye(4))


class TestCyclicSum3:
    def test_symmetric_gives_three_times(self):
        rng = np.random.default_rng(10)
        arr = rng.standard_normal((4, 4, 4))
        sym = np.zeros_like(arr)
        for perm in itertools.permutations(range(3)):
            sym += arr.transpose(perm)
        got = cyclic_sum3(DenseTensor.from_array(sym))
        assert residual(got.components, 3.0 * sym) <= 1e-13

    def test_totally_skew_gives_three_times(self):
        rng = np.random.default_rng(11)
        arr = rng.standard_normal((4, 4, 4))
        skew = np.zeros_like(arr)
        for perm in itertools.permutations(range(3)):
            sign = 1.0 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1.0
            skew += sign * arr.transpose(perm)
        got = cyclic_sum3(DenseTensor.from_array(skew))
        assert residual(got.components, 3.0 * skew) <= 1e-13
        assert np.max(np.abs(got.components - loop_cyclic3(skew, (0, 1, 2)))) <= 1e-13

    def test_zero_tensor(self):
        got = cyclic_sum3(DenseTensor.zeros(4, 3))
        assert got.max_abs() == 0.0

    def test_matches_loop_oracle_arbitrary_slots(self):
        rng = np.random.default_rng(12)
        for slots in [(0, 1, 2), (0, 1, 3), (1, 2, 3), (0, 2, 3), (3, 1, 0)]:
            arr = rng.standard_normal((3,) * 4)
            got = cyclic_sum3(DenseTensor.from_array(arr), slots)
            assert np.max(np.abs(got.components - loop_cyclic3(arr, slots))) <= 1e-13

    def test_twice_equals_three_times_once(self):
        rng = np.random.default_rng(13)
        arr = rng.standard_normal((4, 4, 4, 4))
        t = DenseTensor.from_array(arr)
        once = cyclic_sum3(t)
        twice = cyclic_sum3(once)
        assert residual(twice.components, 3.0 * once.components) <= 1e-12

    def test_duplicate_slots_error(self):
        t = DenseTensor.zeros(3, 3)
        with pytest.raises(ValueError):
            cyclic_sum3(t, (0, 0, 1))
        with pytest.raises(ValueError):
            cyclic_sum3(DenseTensor.zeros(3, 2))


class TestResidual:
    def test_equal_tensors_exact_zero(self):
        rng = np.random.default_rng(14)
        arr = rng.standard_normal((4, 4))
        assert residual(arr, arr.copy()) == 0.0

    def test_single_entry_formula(self):
        a = np.zeros(5)
        b = np.zeros(5)
        b[2] = 3.0
        assert residual(a, b) == pytest.approx(3.0 / 4.0)

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((4, 4, 4))
        b = rng.standard_normal((4, 4, 4))
        best = 0.0
        amax = bmax = 0.0
        for idx in itertools.product(range(4), repeat=3):
            best = max(best, abs(a[idx] - b[idx]))
            amax = max(amax, abs(a[idx]))
            bmax = max(bmax, abs(b[idx]))
        assert residual(a, b) == best / (1.0 + max(amax, bmax))

    def test_symmetric_and_nonnegative(self):
        rng = np.random.default_rng(16)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        assert residual(a, b) == residual(b, a) >= 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            residual(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_scalar_residual_scaling(self):
        assert scalar_residual(0.5, 0.5) == 0.0
        assert scalar_residual(100.0, 104.0) == pytest.approx(4.0 / 104.0)
        assert scalar_residual(0.0, 0.5) == pytest.approx(0.5)


class TestDenseTensor:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DenseTensor(dim=3, rank=2, components=np.zeros(8))

    def test_nonfinite_rejected(self):
        arr = np.zeros((2, 2))
        arr[0, 0] = np.nan
        with pytest.raises(ValueError):
            DenseTensor.from_array(arr)

    def test_immutability(self):
        t = DenseTensor.from_array(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            t.components[0, 0] = 1.0

    def test_source_array_not_aliased(self):
        src = np.zeros((3, 3))
        t = DenseTensor.from_array(src)
        src[0, 0] = 5.0
        assert t.components[0, 0] == 0.0

    def test_non_hypercubic_rejected(self):
        with pytest.raises(ValueError):
            DenseTensor.from_array(np.zeros((2, 3)))
