import numpy as np
import pytest

from slimformer.errors import RangeError
from slimformer.factorize import factorize_layer, rank_for_ratio
from slimformer.prune import keep_largest, ones_for_fraction, topk_mask


def at_fraction(w, p):
    """keep_largest at the ones-count round(p * w.size)."""
    return keep_largest(w, ones_for_fraction(p, w.size))


def test_mask_keeps_largest_magnitudes():
    w = np.array([[0.1, -0.4], [0.2, -0.3]])
    masked, mask = at_fraction(w, 0.5)
    assert mask.tolist() == [[0.0, 1.0], [0.0, 1.0]]
    assert masked.tolist() == [[0.0, -0.4], [0.0, -0.3]]


def test_full_fraction_keeps_everything():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(5, 7))
    masked, mask = at_fraction(w, 1.0)
    assert mask is None
    assert masked is w


def test_tie_break_is_row_major():
    mask = topk_mask(np.array([[1.0, 1.0], [1.0, 1.0]]), 2)
    assert mask.tolist() == [[1.0, 1.0], [0.0, 0.0]]


def test_ones_count_rounds_half_up():
    assert ones_for_fraction(0.25, 2) == 1  # 0.5 rounds up
    assert ones_for_fraction(0.75, 2) == 2
    assert ones_for_fraction(0.5, 3) == 2  # 1.5 rounds up
    assert ones_for_fraction(1.0, 9) == 9
    _, mask = at_fraction(np.array([[2.0, 1.0]]), 0.25)
    assert int(mask.sum()) == 1


def test_ones_count_exact_over_random_fractions():
    rng = np.random.default_rng(1)
    for _ in range(100):
        m = int(rng.integers(1, 12))
        n = int(rng.integers(1, 12))
        p = float(rng.uniform(1e-6, 1.0))
        w = rng.normal(size=(m, n))
        masked, mask = at_fraction(w, p)
        kept = m * n if mask is None else int(mask.sum())
        assert kept == int(np.floor(p * m * n + 0.5))
        assert int(np.count_nonzero(masked)) == kept


def test_magnitude_mask_beats_random_masks():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(6, 6))
    masked, mask = at_fraction(w, 0.4)
    best = np.linalg.norm(masked - w)
    k = int(mask.sum())
    for _ in range(100):
        flat = np.zeros(36)
        flat[rng.choice(36, size=k, replace=False)] = 1.0
        other = flat.reshape(6, 6)
        err = np.linalg.norm(w * other - w)
        assert best <= err + 1e-12


def test_mask_invariant_to_positive_scaling():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(8, 5))
    base = topk_mask(w, 12)
    for c in (0.01, 7.0, 1e6):
        scaled = topk_mask(c * w, 12)
        assert np.array_equal(scaled, base)


def test_remasking_is_idempotent():
    rng = np.random.default_rng(4)
    for _ in range(20):
        w = rng.normal(size=(7, 7))
        p = float(rng.uniform(0.1, 0.9))
        masked, mask = at_fraction(w, p)
        again, mask_again = at_fraction(masked, p)
        assert np.array_equal(mask_again, mask)
        assert np.array_equal(again, masked)


def test_sparsity_values():
    def density(mask):
        return int(mask.sum()) / mask.size

    assert density(topk_mask(np.array([[1.0, 2.0]]), 2)) == 1.0
    w = np.array([[0.1, -0.4], [0.2, -0.3]])
    assert density(at_fraction(w, 0.5)[1]) == 0.5
    zero = np.zeros((3, 3))
    assert density(zero) == 0.0


def test_masked_positions_are_exact_zeros():
    rng = np.random.default_rng(5)
    w = rng.normal(size=(9, 9))
    masked, mask = at_fraction(w, 0.5)
    assert np.all(masked[mask == 0.0] == 0.0)
    assert np.array_equal(masked[mask == 1.0], w[mask == 1.0])


def test_fraction_range_errors():
    w = np.array([[1.0, 2.0]])
    with pytest.raises(RangeError):
        at_fraction(w, 0.0)
    with pytest.raises(RangeError):
        at_fraction(w, 1.1)
    with pytest.raises(RangeError):
        keep_largest(w, 3)
    with pytest.raises(RangeError):
        keep_largest(w, -1)


def test_retained_count_by_construction():
    """Both halves of a rank-2 pair of an 8x8 matrix pruned to half:
    8 ones each, and the pruned entries are exact zeros."""
    rng = np.random.default_rng(1)
    w = rng.normal(size=(8, 8))
    assert rank_for_ratio(8, 8, 0.5) == 2
    pair = factorize_layer(w, 2)
    kept = 0
    for half in (pair.a, pair.b):
        arr, mask = at_fraction(half, 0.5)
        assert arr.shape == (8, 2)
        assert int(mask.sum()) == 8
        assert np.all(arr[mask == 0.0] == 0.0)
        kept += int(mask.sum())
    assert kept == 16


def test_effective_weight_mask_extremes():
    """All-ones counts give back the pair itself with no mask; all-zeros
    counts give all-zero masks and a zero product."""
    rng = np.random.default_rng(2)
    w = rng.normal(size=(6, 5))
    r = rank_for_ratio(6, 5, 0.6)
    pair = factorize_layer(w, r)
    (a, mask_a), (b, mask_b) = (keep_largest(h, h.size)
                                for h in (pair.a, pair.b))
    assert mask_a is None and mask_b is None
    assert np.array_equal(a @ b.T, pair.a @ pair.b.T)

    (a, mask_a), (b, mask_b) = (keep_largest(h, 0) for h in (pair.a, pair.b))
    assert np.all(mask_a == 0.0) and np.all(mask_b == 0.0)
    assert np.array_equal(a @ b.T, np.zeros((6, 5)))


def test_mask_can_annihilate_a_factor():
    pair = factorize_layer(np.diag([3.0, 2.0, 1.0]), 1)
    a, mask_a = keep_largest(pair.a, 0)
    b, mask_b = keep_largest(pair.b, 3)
    assert np.all(mask_a == 0.0) and mask_b is None
    assert np.array_equal(a @ b.T, np.zeros((3, 3)))


class TestTopkMask:
    def test_exact_count(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m, n = rng.integers(1, 9, size=2)
            w = rng.normal(size=(m, n))
            k = int(rng.integers(1, m * n + 1))
            assert int(topk_mask(w, k).sum()) == k

    def test_matches_fraction_path(self):
        """keep_largest at a fraction's ones-count is w times the
        topk_mask of that count."""
        rng = np.random.default_rng(1)
        w = rng.normal(size=(6, 7))
        k = ones_for_fraction(0.37, 42)
        masked, mask = at_fraction(w, 0.37)
        assert np.array_equal(mask, topk_mask(w, k))
        assert np.array_equal(masked, w * topk_mask(w, k))

    def test_range_errors(self):
        w = np.ones((2, 2))
        assert int(topk_mask(w, 0).sum()) == 0
        with pytest.raises(RangeError):
            topk_mask(w, -1)
        with pytest.raises(RangeError):
            topk_mask(w, 5)

    def test_bool_mask_with_k_true_entries(self):
        """The mask is a bool array holding exactly k True entries, ties
        included, and multiplying by it gives the bits of multiplying by
        its 1.0 / 0.0 float form."""
        rng = np.random.default_rng(2)
        for _ in range(40):
            m, n = (int(d) for d in rng.integers(1, 9, size=2))
            # integer magnitudes of both signs force ties
            w = rng.integers(-3, 4, size=(m, n)).astype(float)
            k = int(rng.integers(0, m * n + 1))
            mask = topk_mask(w, k)
            assert mask.dtype == np.bool_ and mask.shape == w.shape
            assert int(np.count_nonzero(mask)) == k
            assert (w * mask).tobytes() == (w * mask.astype(float)).tobytes()
