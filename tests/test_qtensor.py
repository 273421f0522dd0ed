"""Tests for the bit-addressable quantized tensor."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.quant import Q8_GRID, Q16_NARROW, Q16_WIDE, QFormat, QTensor
from repro.quant.bitops import OP_CLEAR, OP_FLIP, OP_SET
from repro.quant.statistics import bit_histogram, bit_level_stats, value_histogram


class TestQTensorViews:
    def test_values_round_trip(self, rng):
        values = Q8_GRID.quantize(rng.uniform(-7, 7, size=(3, 3)))
        tensor = QTensor(values, Q8_GRID)
        assert np.allclose(tensor.values, values)

    def test_set_values_reencodes(self, small_qtensor):
        new = np.zeros(small_qtensor.shape)
        small_qtensor.values = new
        assert np.all(small_qtensor.raw == 0)

    def test_shape_mismatch_rejected(self, small_qtensor):
        with pytest.raises(ValueError):
            small_qtensor.values = np.zeros((2, 2))
        with pytest.raises(ValueError):
            small_qtensor.raw = np.zeros((2, 2), dtype=np.int64)

    def test_from_raw_masks_extra_bits(self):
        tensor = QTensor.from_raw(np.array([0x1FF]), Q8_GRID)
        assert tensor.raw[0] == 0xFF

    def test_zeros_constructor(self):
        tensor = QTensor.zeros((2, 3), Q8_GRID, name="buf")
        assert tensor.size == 6
        assert np.all(tensor.values == 0)
        assert tensor.name == "buf"

    def test_copy_is_independent(self, small_qtensor):
        copy = small_qtensor.copy()
        copy.inject_bit_flips(np.array([0]), np.array([7]))
        assert copy != small_qtensor

    def test_equality(self, small_qtensor):
        assert small_qtensor == small_qtensor.copy()
        other = QTensor(small_qtensor.values, Q16_NARROW)
        assert small_qtensor != other


def _identical(a, b):
    """Bitwise equality of two float64 arrays (tells 0.0 from -0.0)."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


#: Every QTensor method that rewrites raw words, applied to an (4, 5) Q8 tensor.
MUTATORS = {
    "values": lambda t, rng: setattr(t, "values", rng.uniform(-8, 8, size=t.shape)),
    "raw": lambda t, rng: setattr(t, "raw", rng.integers(0, 256, size=t.shape)),
    "inject_bit_flips": lambda t, rng: t.inject_bit_flips(
        np.array([0, 3, 7]), np.array([7, 6, 5])
    ),
    "inject_stuck_at": lambda t, rng: t.inject_stuck_at(
        np.array([1, 2, 9]), np.array([7, 6, 6]), 1
    ),
    "inject_bit_ops": lambda t, rng: t.inject_bit_ops(
        np.array([0, 4, 8]), np.array([7, 6, 5]), np.array([OP_FLIP, OP_SET, OP_CLEAR])
    ),
    "inject_random_bit_flips": lambda t, rng: t.inject_random_bit_flips(0.5, rng),
    "set_element": lambda t, rng: t.set_element((2, 3), -t.values[2, 3] - 0.5),
}


class TestDecodedView:
    @pytest.mark.parametrize("mutator", sorted(MUTATORS))
    def test_view_follows_every_mutator(self, small_qtensor, rng, mutator):
        before = small_qtensor.decoded_view().copy()
        MUTATORS[mutator](small_qtensor, rng)
        view = small_qtensor.decoded_view()
        assert _identical(view, small_qtensor.qformat.decode(small_qtensor.raw))
        assert not np.array_equal(view, before)  # the mutation was visible

    def test_view_is_read_only(self, small_qtensor):
        with pytest.raises(ValueError):
            small_qtensor.decoded_view()[0, 0] = 1.0

    def test_view_is_cached_and_values_stay_fresh(self, small_qtensor):
        view = small_qtensor.decoded_view()
        assert small_qtensor.decoded_view() is view
        fresh = small_qtensor.values
        fresh[0, 0] += 1.0  # a copy: neither the tensor nor the view change
        assert _identical(view, small_qtensor.values)

    @pytest.mark.parametrize(
        "clone",
        [lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_view_survives_pickle_and_deepcopy(self, small_qtensor, clone):
        small_qtensor.decoded_view()
        restored = clone(small_qtensor)
        restored.decoded_view()
        restored.set_element((1, 1), 3.0)
        assert restored.decoded_view()[1, 1] == 3.0
        assert _identical(restored.decoded_view(), restored.values)

    def test_set_element_without_a_built_view(self, small_qtensor):
        small_qtensor.set_element((0, 1), 2.5)
        assert small_qtensor.values[0, 1] == 2.5
        assert small_qtensor.decoded_view()[0, 1] == 2.5

    def test_size_is_product_of_shape(self):
        assert QTensor.zeros((3, 4), Q8_GRID).size == 12
        assert QTensor(np.float64(1.0), Q8_GRID).size == 1
        assert QTensor.from_raw(np.zeros((2, 0), dtype=np.int64), Q8_GRID).size == 0


SET_ELEMENT_FORMATS = [Q8_GRID, Q16_NARROW, Q16_WIDE, QFormat(0, 4, 4), QFormat(1, 40, 21)]


def _check_set_element(fmt, value):
    tensor = QTensor.zeros((3,), fmt)
    tensor.decoded_view()
    tensor.set_element(1, value)
    with np.errstate(invalid="ignore", over="ignore"):
        expected = fmt.encode(np.array([0.0, value, 0.0]))
    assert np.array_equal(tensor.raw, expected)
    assert _identical(tensor.decoded_view(), fmt.decode(expected))


@settings(max_examples=300, deadline=None)
@given(fmt=st.sampled_from(SET_ELEMENT_FORMATS), value=st.floats())
@example(fmt=Q8_GRID, value=0.0)
@example(fmt=Q8_GRID, value=-0.0)
@example(fmt=Q8_GRID, value=Q8_GRID.max_value + Q8_GRID.scale / 2)
@example(fmt=Q8_GRID, value=Q8_GRID.min_value - Q8_GRID.scale / 2)
@example(fmt=Q8_GRID, value=float("inf"))
@example(fmt=Q8_GRID, value=float("-inf"))
@example(fmt=Q8_GRID, value=float("nan"))
@example(fmt=Q8_GRID, value=1e300)
@example(fmt=Q8_GRID, value=2.0**70)
@example(fmt=QFormat(1, 40, 21), value=2.0**61)
@example(fmt=QFormat(1, 40, 21), value=-(2.0**61))
def test_property_set_element_matches_encode(fmt, value):
    """``set_element`` stores exactly the word ``encode`` gives, for any float64."""
    _check_set_element(fmt, value)


@settings(max_examples=200, deadline=None)
@given(fmt=st.sampled_from(SET_ELEMENT_FORMATS), lsbs=st.integers(-(2**12), 2**12))
def test_property_set_element_rounds_halfway_to_even(fmt, lsbs):
    _check_set_element(fmt, (lsbs + 0.5) * fmt.scale)


class TestQTensorFaults:
    def test_bit_flip_changes_value(self, small_qtensor):
        before = small_qtensor.values.flat[0]
        small_qtensor.inject_bit_flips(np.array([0]), np.array([7]))
        after = small_qtensor.values.flat[0]
        assert before != after

    def test_msb_flip_changes_sign_region(self):
        tensor = QTensor(np.array([1.0]), Q8_GRID)
        tensor.inject_bit_flips(np.array([0]), np.array([7]))
        # Flipping the sign bit of +1.0 (raw 0x10) gives raw 0x90 = -7.0.
        assert tensor.values[0] == pytest.approx(-7.0)

    def test_stuck_at_zero_on_zero_is_benign(self):
        tensor = QTensor.zeros((4,), Q8_GRID)
        tensor.inject_stuck_at(np.arange(4), np.full(4, 3), stuck_value=0)
        assert np.all(tensor.values == 0)

    def test_stuck_at_one_on_zero_corrupts(self):
        tensor = QTensor.zeros((4,), Q8_GRID)
        tensor.inject_stuck_at(np.arange(4), np.full(4, 6), stuck_value=1)
        assert np.all(tensor.values != 0)

    def test_random_flip_count_matches_ber(self, rng):
        tensor = QTensor.zeros((100, 10), Q16_NARROW)
        count = tensor.inject_random_bit_flips(0.01, rng)
        # 100*10*16 = 16000 bits -> expect ~160 flips.
        assert 100 < count < 240

    def test_sample_fault_sites_does_not_mutate(self, small_qtensor, rng):
        before = small_qtensor.raw
        small_qtensor.sample_fault_sites(0.5, rng)
        assert np.array_equal(small_qtensor.raw, before)

    def test_sign_integer_words_mask(self):
        tensor = QTensor(np.array([1.5]), Q8_GRID)  # raw 0b0001_1000
        masked = tensor.sign_integer_words()[0]
        assert masked == 0b00010000


class TestStatistics:
    def test_bit_counts_all_zero_tensor(self):
        tensor = QTensor.zeros((4, 4), Q8_GRID)
        zeros, ones = tensor.bit_counts()
        assert ones == 0
        assert zeros == 4 * 4 * 8

    def test_bit_counts_sum_invariant(self, wide_qtensor):
        zeros, ones = wide_qtensor.bit_counts()
        assert zeros + ones == wide_qtensor.size * 16

    def test_bit_level_stats(self, wide_qtensor):
        stats = bit_level_stats(wide_qtensor)
        assert 0.0 < stats.zero_fraction < 1.0
        assert stats.zero_fraction + stats.one_fraction == pytest.approx(1.0)
        assert stats.min_value <= stats.max_value

    def test_bit_histogram_length(self, small_qtensor):
        counts = bit_histogram(small_qtensor)
        assert counts.shape == (8,)
        assert counts.max() <= small_qtensor.size

    def test_value_histogram_covers_all_elements(self, small_qtensor):
        counts, edges = value_histogram(small_qtensor, bins=16)
        assert counts.sum() == small_qtensor.size
        assert len(edges) == 17

    def test_value_range(self, small_qtensor):
        lo, hi = small_qtensor.value_range()
        assert lo <= hi
        vals = small_qtensor.values
        assert lo == vals.min() and hi == vals.max()

    def test_out_of_range_mask(self):
        tensor = QTensor(np.array([0.0, 5.0, -5.0]), Q8_GRID)
        mask = tensor.out_of_range_mask(-1.0, 1.0)
        assert mask.tolist() == [False, True, True]


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-7.5, max_value=7.5, allow_nan=False), min_size=1, max_size=20
    ),
    bit=st.integers(min_value=0, max_value=7),
)
def test_property_double_flip_restores_tensor(values, bit):
    tensor = QTensor(np.array(values), Q8_GRID)
    original = tensor.raw
    index = np.array([len(values) - 1])
    tensor.inject_bit_flips(index, np.array([bit]))
    tensor.inject_bit_flips(index, np.array([bit]))
    assert np.array_equal(tensor.raw, original)


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-15.0, max_value=15.0, allow_nan=False), min_size=1, max_size=20
    )
)
def test_property_values_always_in_format_range(values):
    tensor = QTensor(np.array(values), Q16_NARROW)
    decoded = tensor.values
    assert decoded.max() <= Q16_NARROW.max_value
    assert decoded.min() >= Q16_NARROW.min_value
