"""Tensor arithmetic against independent nested-loop oracles."""

import itertools
import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from norden.tensors import (
    contract,
    cyclic_sum3,
    permutation_residual,
    residual,
    scalar_residual,
    zero_residual,
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
        out = contract(np.eye(4), 0, 1, np.eye(4))
        assert out.ndim == 0
        assert out == pytest.approx(4.0)

    def test_metric_against_its_inverse(self):
        g = np.diag([1.0, 1.0, -1.0, -1.0])
        out = contract(g, 0, 1, g)  # g is its own inverse
        assert out == pytest.approx(4.0)

    def test_matches_loop_oracle_rank4(self):
        rng = np.random.default_rng(7)
        for _ in range(12):
            arr = rng.standard_normal((4,) * 4)
            minv = rng.standard_normal((4, 4))
            minv = 0.5 * (minv + minv.T)
            sa, sb = rng.choice(4, size=2, replace=False)
            got = contract(arr, int(sa), int(sb), minv)
            want = loop_contract(arr, int(sa), int(sb), minv)
            assert np.max(np.abs(got - want)) <= 1e-13

    def test_bilinear_in_tensor_and_metric(self):
        rng = np.random.default_rng(8)
        arr = rng.standard_normal((4, 4, 4))
        minv = rng.standard_normal((4, 4))
        lhs = contract(2.5 * arr, 0, 2, minv)
        rhs = 2.5 * contract(arr, 0, 2, minv)
        assert residual(lhs, rhs) <= 1e-12
        lhs2 = contract(arr, 0, 2, 3.0 * minv)
        assert residual(lhs2, 3.0 * contract(arr, 0, 2, minv)) <= 1e-12

    def test_identity_metric_is_plain_trace(self):
        rng = np.random.default_rng(9)
        arr = rng.standard_normal((5, 5, 5))
        got = contract(arr, 0, 2, np.eye(5))
        want = np.einsum("aja->j", arr)
        assert np.allclose(got, want, atol=1e-14)

    def test_argument_errors(self):
        t = np.zeros((3, 3))
        with pytest.raises(ValueError):
            contract(t, 0, 2, np.eye(3))
        with pytest.raises(ValueError):
            contract(t, 1, 1, np.eye(3))
        with pytest.raises(ValueError):
            contract(np.zeros(3), 0, 1, np.eye(3))
        with pytest.raises(ValueError):
            contract(t, 0, 1, np.eye(4))


class TestCyclicSum3:
    def test_symmetric_gives_three_times(self):
        rng = np.random.default_rng(10)
        arr = rng.standard_normal((4, 4, 4))
        sym = np.zeros_like(arr)
        for perm in itertools.permutations(range(3)):
            sym += arr.transpose(perm)
        got = cyclic_sum3(sym)
        assert residual(got, 3.0 * sym) <= 1e-13

    def test_totally_skew_gives_three_times(self):
        rng = np.random.default_rng(11)
        arr = rng.standard_normal((4, 4, 4))
        skew = np.zeros_like(arr)
        for perm in itertools.permutations(range(3)):
            sign = 1.0 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1.0
            skew += sign * arr.transpose(perm)
        got = cyclic_sum3(skew)
        assert residual(got, 3.0 * skew) <= 1e-13
        assert np.max(np.abs(got - loop_cyclic3(skew, (0, 1, 2)))) <= 1e-13

    def test_zero_tensor(self):
        got = cyclic_sum3(np.zeros((4, 4, 4)))
        assert np.max(np.abs(got)) == 0.0

    def test_matches_loop_oracle_arbitrary_slots(self):
        rng = np.random.default_rng(12)
        for slots in [(0, 1, 2), (0, 1, 3), (1, 2, 3), (0, 2, 3), (3, 1, 0)]:
            arr = rng.standard_normal((3,) * 4)
            got = cyclic_sum3(arr, slots)
            assert np.max(np.abs(got - loop_cyclic3(arr, slots))) <= 1e-13

    def test_twice_equals_three_times_once(self):
        rng = np.random.default_rng(13)
        arr = rng.standard_normal((4, 4, 4, 4))
        once = cyclic_sum3(arr)
        twice = cyclic_sum3(once)
        assert residual(twice, 3.0 * once) <= 1e-12

    def test_duplicate_slots_error(self):
        with pytest.raises(ValueError):
            cyclic_sum3(np.zeros((3, 3, 3)), (0, 0, 1))
        with pytest.raises(ValueError):
            cyclic_sum3(np.zeros((3, 3, 3)), (0, -3, 1))
        with pytest.raises(ValueError):
            cyclic_sum3(np.zeros((3, 3)))

    def test_negative_slots_count_from_the_end(self):
        arr = np.random.default_rng(15).standard_normal((2, 3, 3, 3, 3))
        assert np.array_equal(cyclic_sum3(arr, (-4, -3, -2)), cyclic_sum3(arr, (1, 2, 3)))
        with pytest.raises(ValueError, match="out of range"):
            cyclic_sum3(arr, (-6, 0, 1))


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


def three_max_residual(a, b) -> float:
    """The residual as first written: three np.max calls on float copies."""
    arr_a = np.asarray(a, dtype=float)
    arr_b = np.asarray(b, dtype=float)
    if arr_a.shape != arr_b.shape:
        raise ValueError(f"shape mismatch: {arr_a.shape} vs {arr_b.shape}")
    if arr_a.size == 0:
        return 0.0
    scale = 1.0 + max(np.max(np.abs(arr_a)), np.max(np.abs(arr_b)))
    return float(np.max(np.abs(arr_a - arr_b)) / scale)


def three_max_zero_residual(a) -> float:
    arr = np.asarray(a, dtype=float)
    return three_max_residual(arr, np.zeros_like(arr))


def same_bits(x: float, y: float) -> bool:
    """Equal bit patterns; any two NaNs count as equal."""
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return struct.pack("<d", x) == struct.pack("<d", y)


ENTRIES = st.floats(allow_nan=True, allow_infinity=True, width=64) | st.sampled_from(
    (0.0, -0.0, 1.0, -1.0)
)


@st.composite
def array_pairs(draw):
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=4, min_side=0, max_side=4))
    a = draw(hnp.arrays(np.float64, shape, elements=ENTRIES))
    b = draw(hnp.arrays(np.float64, shape, elements=ENTRIES))
    return a, b


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf, overflow
class TestResidualBits:
    """`residual` and `zero_residual` keep every bit of the three-max formula:
    a max does not depend on the order it visits the entries."""

    @settings(max_examples=300, derandomize=True, database=None)
    @given(array_pairs())
    def test_residual_matches_three_max_formula(self, pair):
        a, b = pair
        assert same_bits(residual(a, b), three_max_residual(a, b))
        assert same_bits(residual(b, a), three_max_residual(b, a))

    @settings(max_examples=300, derandomize=True, database=None)
    @given(array_pairs())
    def test_zero_residual_matches_three_max_formula(self, pair):
        for a in pair:
            assert same_bits(zero_residual(a), three_max_zero_residual(a))

    @settings(max_examples=200, derandomize=True, database=None)
    @given(
        hnp.arrays(
            np.float64,
            # (K, n, n, n): a stack of K cubes
            st.tuples(st.integers(1, 3), st.integers(1, 4)).map(lambda kn: kn[:1] + kn[1:] * 3),
            elements=ENTRIES,
        ),
        st.sampled_from((1, -1)),
        array_pairs(),
    )
    def test_batched_residuals_are_the_residuals_of_the_entries(self, t, sign, pair):
        """A stack of entries gives each entry's residual: against
        sign * t∘σ given max|t| per entry, and against zero."""
        perms = ((1, 0, 2), (0, 2, 1))
        stacked = permutation_residual(t, np.abs(t).max((1, 2, 3)), perms, sign, batch=1)
        a = pair[0]
        zero = zero_residual(a, batch=1)
        assert stacked.shape == t.shape[:1] and zero.shape == a.shape[:1]
        for k in range(len(t)):
            want = max(residual(t[k], sign * t[k].transpose(p)) for p in perms)
            got = stacked[k]
            assert same_bits(got, want) or math.isnan(got) and math.isnan(want)
        for k in range(len(a)):
            assert same_bits(zero[k], zero_residual(a[k]))

    @settings(max_examples=300, derandomize=True, database=None)
    @given(
        hnp.arrays(np.float64, st.integers(1, 4).map(lambda n: (n, n, n)), elements=ENTRIES),
        st.sampled_from((1, -1)),
    )
    def test_permutation_residual_matches_residual_of_each_permutation(self, t, sign):
        """Given max|t|, one call gives the largest residual of t against
        sign * t∘σ for each σ; a non-finite t gives NaN both ways."""
        perms = ((1, 0, 2), (0, 2, 1))
        want = max(residual(t, sign * t.transpose(p)) for p in perms)
        got = permutation_residual(t, np.abs(t).max(), perms, sign)
        assert type(got) is float
        assert same_bits(got, want) or math.isnan(got) and math.isnan(want)
        stacked = permutation_residual(t[None], np.abs(t[None]).max((1, 2, 3)), perms, sign, 1)
        assert stacked.shape == (1,)
        assert same_bits(stacked[0], got) or math.isnan(got) and math.isnan(stacked[0])

    def test_empty_arrays(self):
        for shape in ((0, 3), (2, 0, 2), (0, 0, 0, 0)):
            assert same_bits(residual(np.zeros(shape), np.ones(shape)), 0.0)
            assert same_bits(zero_residual(np.zeros(shape)), 0.0)

    def test_negative_zero(self):
        neg = np.full((2, 2), -0.0)
        for got in (residual(neg, np.zeros((2, 2))), residual(neg, neg), zero_residual(neg)):
            assert same_bits(got, 0.0)

    def test_fraction_arrays_are_cast_to_float(self):
        a = np.array([[Fraction(1, 3), Fraction(-2, 7)], [Fraction(0), Fraction(5, 2)]])
        b = np.array([[Fraction(1, 3), Fraction(1, 7)], [Fraction(0), Fraction(5, 2)]])
        got = residual(a, b)
        assert type(got) is float
        assert same_bits(got, three_max_residual(a, b))
        assert same_bits(got, (3 / 7) / (1.0 + 2.5))
        assert same_bits(zero_residual(a), 2.5 / 3.5)

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_non_finite_entries_give_nan(self, bad):
        a = np.ones((3, 3))
        b = a.copy()
        b[1, 2] = bad
        assert math.isnan(residual(a, b))
        assert math.isnan(residual(b, a))
        assert math.isnan(residual(b, b))
        assert math.isnan(zero_residual(b))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            residual(np.zeros((2, 3)), np.zeros((3, 2)))
