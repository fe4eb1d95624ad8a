import numpy as np
import pytest

from slimformer.errors import ExpansionWarning, RangeError
from slimformer.factorize import (factor_ratio, factorize_layer,
                                  rank_for_ratio, reconstruct)
from slimformer.hybrid import compress_matrix, hybrid_ratio
from slimformer.prune import ones_for_fraction


def product(halves):
    (a, _), (b, _) = halves
    return a @ b.T


def kept(halves):
    return sum(arr.size if mask is None else int(mask.sum())
               for arr, mask in halves)


def compress_at(w, p_svd, p_weight):
    """compress_matrix at the rank and ones-counts the two fractions give."""
    m, n = w.shape
    r = rank_for_ratio(m, n, p_svd)
    return r, compress_matrix(w, r, ones_for_fraction(p_weight, m * r),
                              ones_for_fraction(p_weight, n * r))


def test_hybrid_ratio_worked_values():
    assert hybrid_ratio(4, 4, 2, 0.5) == 0.5
    assert hybrid_ratio(768, 768, 192, 1.0) == factor_ratio(768, 768, 192)
    assert round(hybrid_ratio(768, 768, 192, 1.0 / 1.56), 4) == 0.3205
    assert abs(hybrid_ratio(768, 768, 192, 0.641) - 0.3205) < 1e-12


def test_hybrid_ratio_range_errors():
    with pytest.raises(RangeError):
        hybrid_ratio(4, 4, 5, 0.5)
    with pytest.raises(RangeError):
        hybrid_ratio(4, 4, 2, 0.0)


def test_noop_composition_recovers_input():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(5, 4))
    with pytest.warns(ExpansionWarning):  # full rank stores more than dense
        halves = compress_matrix(w, 4, 20, 16)
    assert all(mask is None for _, mask in halves)
    assert np.allclose(product(halves), w, atol=1e-8)


def test_factorization_only_path():
    halves = compress_matrix(np.diag([3.0, 2.0, 1.0]), 1, 3, 3)
    assert np.allclose(product(halves), np.diag([3.0, 0.0, 0.0]), atol=1e-8)


def test_retained_count_by_construction():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(8, 8))
    assert rank_for_ratio(8, 8, 0.5) == 2
    r, halves = compress_at(w, 0.5, 0.5)
    assert r == 2
    for arr, mask in halves:
        assert arr.shape == (8, 2)
        assert int(mask.sum()) == 8
        assert np.all(arr[mask == 0.0] == 0.0)
    assert kept(halves) == 16


def test_effective_weight_mask_extremes():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(6, 5))
    r = rank_for_ratio(6, 5, 0.6)
    full = compress_matrix(w, r, 6 * r, 5 * r)
    assert all(mask is None for _, mask in full)
    assert np.array_equal(product(full),
                          reconstruct(factorize_layer(w, rank=r)))

    zeroed = compress_matrix(w, r, 0, 0)
    assert all(np.all(mask == 0.0) for _, mask in zeroed)
    assert np.array_equal(product(zeroed), np.zeros((6, 5)))


def test_mask_can_annihilate_a_factor():
    halves = compress_matrix(np.diag([3.0, 2.0, 1.0]), 1, 0, 3)
    (_, mask_a), (_, mask_b) = halves
    assert np.all(mask_a == 0.0) and mask_b is None
    assert np.array_equal(product(halves), np.zeros((3, 3)))


def test_accounting_identity():
    rng = np.random.default_rng(3)
    for _ in range(30):
        m = int(rng.integers(2, 20))
        n = int(rng.integers(2, 20))
        p_svd = float(rng.uniform(0.2, 1.0))
        p_weight = float(rng.uniform(0.1, 1.0))
        w = rng.normal(size=(m, n))
        r, halves = compress_at(w, p_svd, p_weight)
        got = kept(halves) / (m * n)
        want = hybrid_ratio(m, n, r, p_weight)
        assert abs(got - want) <= 2 * max(m, n) / (m * n) + 1e-12


def test_error_non_increasing_in_p_weight():
    rng = np.random.default_rng(4)
    for _ in range(5):
        w = rng.normal(size=(10, 8))
        errs = []
        for p_weight in (0.2, 0.4, 0.6, 0.8, 1.0):
            _, halves = compress_at(w, 0.5, p_weight)
            errs.append(np.linalg.norm(product(halves) - w))
        for lo, hi in zip(errs[1:], errs[:-1]):
            assert lo <= hi + 1e-9
