import numpy as np
import pytest

from slimformer.errors import RangeError, ShapeError
from slimformer.prune import (
    topk_mask,
    apply_mask,
    magnitude_mask,
    ones_for_fraction,
)


def test_mask_keeps_largest_magnitudes():
    w = np.array([[0.1, -0.4], [0.2, -0.3]])
    mask = magnitude_mask(w, 0.5)
    assert mask.tolist() == [[0.0, 1.0], [0.0, 1.0]]
    masked = apply_mask(w, mask)
    assert masked.tolist() == [[0.0, -0.4], [0.0, -0.3]]


def test_full_fraction_keeps_everything():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(5, 7))
    mask = magnitude_mask(w, 1.0)
    assert int(mask.sum()) == 35
    assert np.array_equal(apply_mask(w, mask), w)


def test_tie_break_is_row_major():
    mask = magnitude_mask(np.array([[1.0, 1.0], [1.0, 1.0]]), 0.5)
    assert mask.tolist() == [[1.0, 1.0], [0.0, 0.0]]


def test_ones_count_rounds_half_up():
    assert ones_for_fraction(0.25, 2) == 1  # 0.5 rounds up
    assert ones_for_fraction(0.75, 2) == 2
    assert ones_for_fraction(0.5, 3) == 2  # 1.5 rounds up
    assert ones_for_fraction(1.0, 9) == 9
    mask = magnitude_mask(np.array([[2.0, 1.0]]), 0.25)
    assert int(mask.sum()) == 1


def test_ones_count_exact_over_random_fractions():
    rng = np.random.default_rng(1)
    for _ in range(100):
        m = int(rng.integers(1, 12))
        n = int(rng.integers(1, 12))
        p = float(rng.uniform(1e-6, 1.0))
        mask = magnitude_mask(rng.normal(size=(m, n)), p)
        assert int(mask.sum()) == int(np.floor(p * m * n + 0.5))


def test_magnitude_mask_beats_random_masks():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(6, 6))
    mask = magnitude_mask(w, 0.4)
    best = np.linalg.norm(apply_mask(w, mask) - w)
    k = int(mask.sum())
    for _ in range(100):
        flat = np.zeros(36)
        flat[rng.choice(36, size=k, replace=False)] = 1.0
        other = flat.reshape(6, 6)
        err = np.linalg.norm(apply_mask(w, other) - w)
        assert best <= err + 1e-12


def test_mask_invariant_to_positive_scaling():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(8, 5))
    base = magnitude_mask(w, 0.3)
    for c in (0.01, 7.0, 1e6):
        scaled = magnitude_mask(c * w, 0.3)
        assert np.array_equal(scaled, base)


def test_remasking_is_idempotent():
    rng = np.random.default_rng(4)
    for _ in range(20):
        w = rng.normal(size=(7, 7))
        p = float(rng.uniform(0.1, 0.9))
        mask = magnitude_mask(w, p)
        again = magnitude_mask(apply_mask(w, mask), p)
        assert np.array_equal(again, mask)


def test_sparsity_values():
    def density(mask):
        return int(mask.sum()) / mask.size

    assert density(magnitude_mask(np.array([[1.0, 2.0]]), 1.0)) == 1.0
    w = np.array([[0.1, -0.4], [0.2, -0.3]])
    assert density(magnitude_mask(w, 0.5)) == 0.5
    zero = np.zeros((3, 3))
    assert density(zero) == 0.0


def test_masked_positions_are_exact_zeros():
    rng = np.random.default_rng(5)
    w = rng.normal(size=(9, 9))
    mask = magnitude_mask(w, 0.5)
    masked = apply_mask(w, mask)
    assert np.all(masked[mask == 0.0] == 0.0)


def test_range_and_shape_errors():
    w = np.array([[1.0, 2.0]])
    with pytest.raises(RangeError):
        magnitude_mask(w, 0.0)
    with pytest.raises(RangeError):
        magnitude_mask(w, 1.1)
    with pytest.raises(RangeError):
        apply_mask(w, np.array([[0.5, 1.0]]))
    with pytest.raises(ShapeError):
        apply_mask(w, magnitude_mask(np.array([[1.0], [2.0]]), 1.0))


class TestTopkMask:
    def test_exact_count(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m, n = rng.integers(1, 9, size=2)
            w = rng.normal(size=(m, n))
            k = int(rng.integers(1, m * n + 1))
            assert int(topk_mask(w, k).sum()) == k

    def test_matches_fraction_path(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(6, 7))
        k = ones_for_fraction(0.37, 42)
        assert np.array_equal(topk_mask(w, k), magnitude_mask(w, 0.37))

    def test_range_errors(self):
        w = np.ones((2, 2))
        assert int(topk_mask(w, 0).sum()) == 0
        with pytest.raises(RangeError):
            topk_mask(w, -1)
        with pytest.raises(RangeError):
            topk_mask(w, 5)
