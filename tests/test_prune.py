import numpy as np
import pytest

from slimformer.errors import RangeError, ShapeError
from slimformer.prune import (
    topk_mask,
    PruneMask,
    apply_mask,
    magnitude_mask,
    ones_for_fraction,
)
from slimformer.tensor import DenseMatrix


def test_mask_keeps_largest_magnitudes():
    w = DenseMatrix([[0.1, -0.4], [0.2, -0.3]])
    mask = magnitude_mask(w, 0.5)
    assert mask.bits.array.tolist() == [[0.0, 1.0], [0.0, 1.0]]
    masked = apply_mask(w, mask)
    assert masked.array.tolist() == [[0.0, -0.4], [0.0, -0.3]]


def test_full_fraction_keeps_everything():
    rng = np.random.default_rng(0)
    w = DenseMatrix(rng.normal(size=(5, 7)))
    mask = magnitude_mask(w, 1.0)
    assert mask.ones_count == 35
    assert apply_mask(w, mask) == w


def test_tie_break_is_row_major():
    mask = magnitude_mask(DenseMatrix([[1.0, 1.0], [1.0, 1.0]]), 0.5)
    assert mask.bits.array.tolist() == [[1.0, 1.0], [0.0, 0.0]]


def test_ones_count_rounds_half_up():
    assert ones_for_fraction(0.25, 2) == 1  # 0.5 rounds up
    assert ones_for_fraction(0.75, 2) == 2
    assert ones_for_fraction(0.5, 3) == 2  # 1.5 rounds up
    assert ones_for_fraction(1.0, 9) == 9
    mask = magnitude_mask(DenseMatrix([[2.0, 1.0]]), 0.25)
    assert mask.ones_count == 1


def test_ones_count_exact_over_random_fractions():
    rng = np.random.default_rng(1)
    for _ in range(100):
        m = int(rng.integers(1, 12))
        n = int(rng.integers(1, 12))
        p = float(rng.uniform(1e-6, 1.0))
        mask = magnitude_mask(DenseMatrix(rng.normal(size=(m, n))), p)
        assert mask.ones_count == int(np.floor(p * m * n + 0.5))


def test_magnitude_mask_beats_random_masks():
    rng = np.random.default_rng(2)
    w = DenseMatrix(rng.normal(size=(6, 6)))
    mask = magnitude_mask(w, 0.4)
    best = np.linalg.norm(apply_mask(w, mask).array - w.array)
    k = mask.ones_count
    for _ in range(100):
        flat = np.zeros(36)
        flat[rng.choice(36, size=k, replace=False)] = 1.0
        other = PruneMask(DenseMatrix(flat.reshape(6, 6)))
        err = np.linalg.norm(apply_mask(w, other).array - w.array)
        assert best <= err + 1e-12


def test_mask_invariant_to_positive_scaling():
    rng = np.random.default_rng(3)
    w = DenseMatrix(rng.normal(size=(8, 5)))
    base = magnitude_mask(w, 0.3)
    for c in (0.01, 7.0, 1e6):
        scaled = magnitude_mask(DenseMatrix(c * w.array), 0.3)
        assert scaled.bits == base.bits


def test_remasking_is_idempotent():
    rng = np.random.default_rng(4)
    for _ in range(20):
        w = DenseMatrix(rng.normal(size=(7, 7)))
        p = float(rng.uniform(0.1, 0.9))
        mask = magnitude_mask(w, p)
        again = magnitude_mask(apply_mask(w, mask), p)
        assert again.bits == mask.bits


def test_sparsity_values():
    def density(mask):
        return mask.ones_count / mask.bits.array.size

    assert density(magnitude_mask(DenseMatrix([[1.0, 2.0]]), 1.0)) == 1.0
    w = DenseMatrix([[0.1, -0.4], [0.2, -0.3]])
    assert density(magnitude_mask(w, 0.5)) == 0.5
    zero = PruneMask(DenseMatrix(np.zeros((3, 3))))
    assert density(zero) == 0.0


def test_masked_positions_are_exact_zeros():
    rng = np.random.default_rng(5)
    w = DenseMatrix(rng.normal(size=(9, 9)))
    mask = magnitude_mask(w, 0.5)
    masked = apply_mask(w, mask).array
    assert np.all(masked[mask.bits.array == 0.0] == 0.0)


def test_range_and_shape_errors():
    w = DenseMatrix([[1.0, 2.0]])
    with pytest.raises(RangeError):
        magnitude_mask(w, 0.0)
    with pytest.raises(RangeError):
        magnitude_mask(w, 1.1)
    with pytest.raises(RangeError):
        PruneMask(DenseMatrix([[0.5, 1.0]]))
    with pytest.raises(ShapeError):
        apply_mask(w, magnitude_mask(DenseMatrix([[1.0], [2.0]]), 1.0))


class TestTopkMask:
    def test_exact_count(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m, n = rng.integers(1, 9, size=2)
            w = DenseMatrix(rng.normal(size=(m, n)))
            k = int(rng.integers(1, m * n + 1))
            assert topk_mask(w, k).ones_count == k

    def test_matches_fraction_path(self):
        rng = np.random.default_rng(1)
        w = DenseMatrix(rng.normal(size=(6, 7)))
        k = ones_for_fraction(0.37, 42)
        assert np.array_equal(topk_mask(w, k).bits.array,
                              magnitude_mask(w, 0.37).bits.array)

    def test_range_errors(self):
        w = DenseMatrix(np.ones((2, 2)))
        assert topk_mask(w, 0).ones_count == 0
        with pytest.raises(RangeError):
            topk_mask(w, -1)
        with pytest.raises(RangeError):
            topk_mask(w, 5)
